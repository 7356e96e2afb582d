from fractions import Fraction

import pytest

from weylmod.hwmod import (
    HWSpec, Quasipolynomial, TruncVerma, VermaElem, verma_basis,
)
from weylmod.liealg import D_HAT
from weylmod.scalars import ParamDecl, RATIONALS
from weylmod.tensor import (
    TensorMismatch, TensorSpec, _compressed_moves, _exact_intertwiner_dim, _scaled_weight_op,
    act_tensor, difference_collapse, intertwiner_dim, irreducibility_probe,
    vandermonde_reduce, vanishing_bound,
)
from weylmod.umod import act_hv, omega_d, omega_hv, omega_vir

DECL = ParamDecl(invertible=("lambda",), plain=("c",))
LAM = DECL.param("lambda")
PHI_X = Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])


def make_spec(eps, L=4, N=1, hw_spec=None):
    hw_spec = hw_spec or HWSpec(DECL.param("c"), PHI_X)
    return TensorSpec(omega_d(LAM, eps), verma_basis(hw_spec, L, N))


# -- action ---------------------------------------------------------------------


def test_center_acts_by_charge():
    ts = make_spec(1)
    w = ts.elem({(0, ()): 1, (2, ((1, 1),)): 3})
    assert act_tensor(D_HAT.center(), w) == w.scale(DECL.param("c"))


def test_leibniz_on_vacuum():
    ts = make_spec(1)
    w = ts.elem({(0, ()): 1})
    h1 = ts.hw.spec.h(1)
    assert act_tensor(D_HAT.d_op(1), w) == ts.elem({(1, ()): RATIONALS.one,
                                                    (0, ()): h1})


@pytest.mark.parametrize("eps", [0, 1])
def test_weighted_generator_on_vacuum(eps):
    ts = make_spec(eps)
    w = ts.elem({(0, ()): 1})
    for m in (1, 2, 3):
        got = act_tensor(_scaled_weight_op(ts, m, 1), w)
        assert got == ts.elem({(1, ()): RATIONALS.one,
                               (0, ()): RATIONALS.rational(-eps * m)})


def test_wrong_family_rejected():
    with pytest.raises(TensorMismatch):
        TensorSpec(omega_vir(LAM, DECL.zero), verma_basis(HWSpec(DECL.zero, PHI_X), 1, 1))


def test_act_tensor_module_axiom():
    # [a,b].w = a.(b.w) - b.(a.w) with symbolic lambda and generic weights
    from weylmod.hwmod import HWSpec as HS
    from weylmod.liealg import bracket
    gen_spec = HS.generic(8, extra_invertible=("lambda",))
    decl = gen_spec.c.decl
    lam = decl.param("lambda")
    window = verma_basis(gen_spec, 2, 1)
    host = verma_basis(gen_spec, 2 + 4, 1)
    for eps in (0, 1):
        ts = TensorSpec(omega_d(lam, eps), host)
        ops = [D_HAT.basis(m, n) for m in range(-2, 3) for n in range(3)]
        ops.append(D_HAT.center())
        basis = [(j, mono) for j in range(3) for mono in window.basis()]
        for i, a in enumerate(ops):
            for b in ops[i:]:
                br = bracket(a, b)
                for key in basis:
                    w = ts.elem({key: 1})
                    lhs = act_tensor(br, w)
                    rhs = act_tensor(a, act_tensor(b, w)) \
                        - act_tensor(b, act_tensor(a, w))
                    assert lhs == rhs, (str(a), str(b), key)


# -- vanishing bounds --------------------------------------------------------------


def test_vanishing_bounds():
    hw = verma_basis(HWSpec(DECL.param("c"), PHI_X), 3, 1)
    assert vanishing_bound(hw.vacuum()) == 1
    assert vanishing_bound(VermaElem(hw, {((1, 1),): 1})) == 2
    assert vanishing_bound(VermaElem(hw, {((2, 0),): 1, ((1, 0),): 1})) == 3
    with pytest.raises(ValueError):
        vanishing_bound(VermaElem(hw, {}))
    # operators of degree >= K annihilate
    v = VermaElem(hw, {((1, 1),): 1})
    from weylmod.hwmod import act_verma
    for m in range(2, 5):
        for n in range(3):
            assert act_verma(D_HAT.basis(m, n), v).is_zero()


# -- pivotal identity ----------------------------------------------------------------


@pytest.mark.parametrize("eps", [0, 1])
def test_pivotal_identity(eps):
    ts = make_spec(eps)
    hw = ts.hw
    for mono in [(), ((1, 0),), ((2, 1),), ((1, 0), (1, 1))]:
        v = ts.elem({(0, mono): 1})
        K = vanishing_bound(VermaElem(hw, {mono: 1}))
        for m in range(K, K + 5):
            for mp in range(K, K + 5):
                lhs = act_tensor(_scaled_weight_op(ts, m, 1), v) \
                    - act_tensor(_scaled_weight_op(ts, mp, 1), v)
                assert lhs == v.scale(eps * (mp - m))


# -- Vandermonde reduction ------------------------------------------------------------


def test_reduce_degree_zero_is_identity():
    ts = make_spec(1)
    w = ts.elem({(0, ((1, 1),)): 1})
    assert vandermonde_reduce(ts, w) == w


def test_reduce_eps1_extracts_top_component():
    ts = make_spec(1)
    # w = x (x) 1: the extracted element is exactly 1 (x) 1
    w = ts.elem({(1, ()): 1})
    assert vandermonde_reduce(ts, w) == ts.elem({(0, ()): 1})
    # s = 2: extraction gives eps (-1)^(s-1) (1 (x) v_s)
    w = ts.elem({(2, ((1, 0),)): 1, (0, ()): 5})
    got = vandermonde_reduce(ts, w)
    assert got == ts.elem({(0, ((1, 0),)): -1})


def test_reduce_eps0_goes_through_x_component():
    ts = make_spec(0)
    w = ts.elem({(1, ()): 1})
    got = vandermonde_reduce(ts, w)
    # one difference step lands on a nonzero multiple of 1 (x) 1
    assert got.x_degree() == 0
    assert not got.is_zero()
    assert set(got.terms) == {(0, ())}
    # s = 2: the next coefficient is (-1)^s x (x) v_s
    w = ts.elem({(2, ((1, 0),)): 1})
    got = vandermonde_reduce(ts, w)
    assert got == ts.elem({(1, ((1, 0),)): 1})


@pytest.mark.parametrize("eps", [0, 1])
def test_reduce_strictly_decreases(eps):
    ts = make_spec(eps)
    hw = ts.hw
    monos = hw.basis_at_level(0) + hw.basis_at_level(1) + hw.basis_at_level(2)
    for s in (1, 2, 3):
        for mono in monos:
            w = ts.elem({(s, mono): 1, (0, ()): 2})
            r = vandermonde_reduce(ts, w)
            assert not r.is_zero()
            assert r.x_degree() < s
    # iterating reaches x-degree 0
    w = ts.elem({(3, ((1, 1),)): 1, (1, ()): 1})
    while w.x_degree() > 0:
        w = vandermonde_reduce(ts, w)
    assert not w.is_zero()


def test_difference_collapse_requires_degree_one():
    ts = make_spec(0)
    with pytest.raises(ValueError):
        difference_collapse(ts, ts.elem({(2, ()): 1}))


def test_reduce_rejects_zero():
    ts = make_spec(1)
    with pytest.raises(ValueError):
        vandermonde_reduce(ts, ts.zero())


# -- probes ------------------------------------------------------------------------


def test_probe_small_bounds_cyclic():
    ts = make_spec(1, L=1, N=1)
    rep = irreducibility_probe(ts, 2, 3, 2)
    assert rep.verdict == "cyclic-within-bounds"
    # exact symbolic path agrees with the modular certification
    rep2 = irreducibility_probe(ts, 2, 3, 2, exact=True)
    assert rep2.verdict == "cyclic-within-bounds"


def test_probe_control_finds_invariant_subspace():
    hw = verma_basis(HWSpec(DECL.param("c"), PHI_X), 1, 1)
    tsh = TensorSpec(omega_hv(LAM, DECL.zero, DECL.zero), hw)
    rep = irreducibility_probe(tsh, 2, 3)
    assert rep.verdict == "not-cyclic-within-bounds"
    assert rep.witness_dim < rep.space_dim
    # the witness closure stays inside x * (everything)
    assert rep.failing_seed[0] >= 1


# -- intertwiners --------------------------------------------------------------------


def _rational_spec(lam, eps, L=1, N=1):
    hw = HWSpec(RATIONALS.rational(Fraction(1, 2)), PHI_X)
    return TensorSpec(omega_d(RATIONALS.rational(lam), eps), verma_basis(hw, L, N))


def test_intertwiner_identity_included():
    a = _rational_spec(2, 1)
    assert intertwiner_dim(a, _rational_spec(2, 1), 2, 3, 1) >= 1


def test_intertwiner_separates_lambda_and_eps():
    assert intertwiner_dim(_rational_spec(2, 1), _rational_spec(3, 1), 2, 3, 1) == 0
    assert intertwiner_dim(_rational_spec(2, 0), _rational_spec(2, 1), 2, 3, 1) == 0


def test_intertwiner_refuses_sides_of_different_families():
    # t^m D^n and L_m / I_m have nothing to pair, in either order
    hw = verma_basis(HWSpec(RATIONALS.rational(Fraction(1, 2)), PHI_X), 1, 1)
    d_side = TensorSpec(omega_d(RATIONALS.rational(2), 1), hw)
    hv_side = TensorSpec(omega_hv(RATIONALS.rational(2), RATIONALS.zero, RATIONALS.zero), hw)
    for sa, sb in ((d_side, hv_side), (hv_side, d_side)):
        with pytest.raises(TensorMismatch):
            intertwiner_dim(sa, sb, 1, 2, 1)
    assert intertwiner_dim(hv_side, hv_side, 1, 2, 1) >= 1


def test_intertwiner_modular_agrees_with_exact():
    for la, lb, ea, eb in [(2, 2, 1, 1), (2, 3, 1, 1), (2, 2, 0, 1)]:
        sa, sb = _rational_spec(la, ea), _rational_spec(lb, eb)
        fast = intertwiner_dim(sa, sb, 1, 2, 1)
        # dense exact elimination over the same compressed systems
        keys_a, keys_b = sa.basis_keys(1), sb.basis_keys(1)
        exact = _exact_intertwiner_dim(_compressed_moves(sa, keys_a, 2, 1),
                                       _compressed_moves(sb, keys_b, 2, 1),
                                       keys_a, keys_b)
        assert fast == exact


def _count_windows(monkeypatch):
    """The argument tuples of every TruncVerma built from here on."""
    built = []

    class CountingVerma(TruncVerma):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(T, "TruncVerma", CountingVerma)
    monkeypatch.setattr(H, "TruncVerma", CountingVerma)
    return built


def test_intertwiner_and_probe_build_no_window(monkeypatch):
    sa = _rational_spec(2, 1)
    sides_b = [_rational_spec(3, 1, L) for L in (1, 2)]
    probe = make_spec(1, L=2)
    control = TensorSpec(omega_hv(LAM, DECL.zero, DECL.zero), probe.hw)
    built = _count_windows(monkeypatch)
    assert [intertwiner_dim(sa, sb, 1, 2, 1) for sb in sides_b] == [0, 0]
    assert irreducibility_probe(probe, 2, 3, 1).verdict == "cyclic-within-bounds"
    assert irreducibility_probe(control, 2, 3).verdict == "not-cyclic-within-bounds"
    assert built == []


@pytest.mark.parametrize("same", [True, False])
def test_equal_windows_built_apart_straighten_once(same, monkeypatch):
    lam_b = 2 if same else 3
    want = intertwiner_dim(_rational_spec(2, 1), _rational_spec(lam_b, 1), 1, 2, 1)
    sa, sb = _rational_spec(2, 1), _rational_spec(lam_b, 1)
    assert sa.hw is not sb.hw and T._same_window(sa.hw, sb.hw)
    built = _count_windows(monkeypatch)
    assert intertwiner_dim(sa, sb, 1, 2, 1) == want == int(same)
    assert sa.hw._apply_memo and not sb.hw._apply_memo
    assert built == []


def test_windows_that_differ_straighten_apart():
    sa = _rational_spec(2, 1)
    other = HWSpec(RATIONALS.rational(Fraction(1, 3)), PHI_X)
    for sb in (_rational_spec(3, 1, L=2),
               TensorSpec(omega_d(RATIONALS.rational(3), 1), verma_basis(other, 1, 1))):
        sa.hw._apply_memo.clear()
        assert not T._same_window(sa.hw, sb.hw)
        assert intertwiner_dim(sa, sb, 1, 2, 1) == 0
        assert sa.hw._apply_memo and sb.hw._apply_memo


def test_windows_differing_in_bounds_or_declarations_are_not_shared():
    hw = verma_basis(HWSpec(RATIONALS.rational(Fraction(1, 2)), PHI_X), 1, 1)
    assert T._same_window(hw, verma_basis(HWSpec(RATIONALS.rational(Fraction(1, 2)), PHI_X), 1, 1))
    assert not T._same_window(hw, verma_basis(hw.spec, 2, 1))
    assert not T._same_window(hw, verma_basis(hw.spec, 1, 0))
    assert not T._same_window(hw, verma_basis(HWSpec(RATIONALS.rational(1), PHI_X), 1, 1))
    # equal values over another declaration
    assert not T._same_window(hw, verma_basis(HWSpec(DECL.rational(Fraction(1, 2)), PHI_X), 1, 1))
    phi = Quasipolynomial.poly([DECL.zero, DECL.one])
    assert phi == PHI_X
    assert not T._same_window(hw, verma_basis(HWSpec(RATIONALS.rational(Fraction(1, 2)), phi), 1, 1))
    phi2 = Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one, RATIONALS.one])
    assert not T._same_window(hw, verma_basis(HWSpec(RATIONALS.rational(Fraction(1, 2)), phi2), 1, 1))


@pytest.mark.parametrize("lam_b, eps_b, want", [
    (LAM, 0, 1), (LAM, 1, 0), (RATIONALS.rational(2), 0, 0),
])
def test_equal_sides_build_their_moves_once(lam_b, eps_b, want, monkeypatch):
    built = []
    real = T._compressed_moves
    monkeypatch.setattr(T, "_compressed_moves", lambda *a: built.append(a) or real(*a))

    def window():
        return verma_basis(HWSpec(RATIONALS.rational(Fraction(1, 2)), PHI_X), 1, 1)

    # equal by value, built apart
    sa = TensorSpec(omega_d(DECL.param("lambda"), 0), window())
    sb = TensorSpec(omega_d(lam_b, eps_b), window())
    assert intertwiner_dim(sa, sb, 2, 3, 1) == want
    assert len(built) == 2 - want


# -- mod-p kernels --------------------------------------------------------------

from hypothesis import assume, given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402

from weylmod import hwmod as H, slots as S, tensor as T  # noqa: E402
from weylmod.scalars import solve_linear  # noqa: E402
from weylmod.slots import _echelon_mod_p  # noqa: E402

# entries |x| <= 5 in at most 6 x 6 matrices keep every minor below the
# Hadamard bound 5^6 * 6^3 < 2^22, far below the primes, so ranks and pivot
# columns over GF(p) equal those over the rationals
int_matrices = st.integers(1, 6).flatmap(lambda r: st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(-5, 5), min_size=c, max_size=c),
                       min_size=r, max_size=r)))


# primes just below 2^26: _scalar_mod_p is exact for any prime, and there
# _matmul_mod_p sums only K = 2 products per chunk, its smallest chunk
_WIDE_PRIMES = (67108859, 67108837, 67108819)


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_primes_are_prime_and_below_2_20():
    for p in T._PRIMES + _WIDE_PRIMES:
        assert _is_prime(p)
    for p in T._PRIMES:
        assert p < 2 ** 20
        # a float64 chunk of 8192 products of residues, plus p, stays exact
        assert 8192 * (p - 1) ** 2 + p < 2 ** 53


@pytest.mark.parametrize("p", T._PRIMES + _WIDE_PRIMES)
def test_matmul_mod_p_matches_object_dtype(p):
    # every product is (p-1)^2 and the inner dimension passes 8192, the
    # chunk of the primes below 2^20: one unreduced float64 sum would round
    a = np.full((2, 8195), p - 1, dtype=np.int64)
    b = np.full((8195, 3), p - 1, dtype=np.int64)
    exact = (a.astype(object) @ b.astype(object)) % p
    assert (S._matmul_mod_p(a, b, p) == exact).all()
    assert (S._matmul_mod_p(a.astype(np.float64), b, p) == exact).all()
    # batched left operand
    a3 = np.arange(2 * 3 * 5, dtype=np.int64).reshape(2, 3, 5) * (p // 31)
    got = S._matmul_mod_p(a3, b[:5], p)
    assert (got == (a3.astype(object) @ b[:5].astype(object)) % p).all()
    # batched right operand, as in the intertwiner refinement, past one chunk
    b3 = np.stack([b, b[::-1] - 1])
    want = np.stack([(a.astype(object) @ x.astype(object)) % p for x in b3])
    assert (S._matmul_mod_p(a, b3, p) == want).all()


def test_mod_p_reduces_float64_integers_exactly():
    # next to the largest chunk sums the rounded quotient x / p is off by
    # one in both directions (at 1048571), so both corrections must work
    off = set()
    for p in T._PRIMES:
        top = 8192 * (p - 1) ** 2
        qs = np.arange(top // p - 20000, top // p - 1, dtype=np.int64)
        xs = np.concatenate([sign * (qs * p + r) for sign in (1, -1) for r in (-1, 0, 1)]
                            + [np.array([top, 1 - top, 0, 1, p - 1, p, -1, -p, 2 ** 32 * p - 1])])
        quotient = np.floor(xs.astype(np.float64) * (1.0 / p)).astype(np.int64)
        off |= set(np.unique(quotient - xs // p).tolist())
        assert (S._mod_p(xs.astype(np.float64), p) == xs % p).all()
    assert off == {-1, 0, 1}


@settings(max_examples=80, deadline=None)
@given(int_matrices)
def test_nullspace_mod_p_is_a_kernel_basis(rows):
    p = T._PRIMES[0]
    m = np.array(rows, dtype=np.int64)
    null = S._nullspace_mod_p(m, p)
    assert not S._matmul_mod_p(m % p, null, p).any()
    rank = solve_linear(_rational(m)).rank
    assert rank + null.shape[1] == m.shape[1]
    assert len(S._colspace_mod_p({}, _columns(null), p)) == null.shape[1]


def _rational(a):
    """The columns of an integer array as sparse {row: Scalar} columns."""
    return [{i: RATIONALS.rational(x) for i, x in col.items()} for col in _columns(a)]


def _columns(m):
    """The columns of an integer array as sparse {row: entry} vectors."""
    return [{i: int(x) for i, x in enumerate(col) if x} for col in np.asarray(m).T]


def _dense_span(span, n):
    """A pivot-row span as (rows, pivots): one dense row per lead, leads
    ascending."""
    pivots = sorted(span)
    rows = np.zeros((len(pivots), n), dtype=np.int64)
    for i, lead in enumerate(pivots):
        rows[i, lead] = 1
        for c, x in span[lead]:
            rows[i, c] = x
    return rows, pivots


@settings(max_examples=80, deadline=None)
@given(int_matrices, st.integers(0, 6))
def test_colspace_mod_p_is_the_reduced_echelon_basis(rows, split):
    # the basis is the rational reduced echelon basis of the column space,
    # reduced mod p: B = P A^-1 for the pivot columns P and their square
    # block A at the pivot rows (the pivot columns of m^T)
    p = T._PRIMES[0]
    m = np.array(rows, dtype=np.int64)
    sol = solve_linear(_rational(m))
    pivot_rows = solve_linear(_rational(m.T)).pivot_cols
    span = {}
    assert S._colspace_mod_p(span, _columns(m), p) == span
    rows_t, leads = _dense_span(span, m.shape[0])
    basis, rank = rows_t.T, len(leads)
    assert rank == sol.rank == len(pivot_rows)
    assert leads == pivot_rows
    # every stored row lies past its lead, its least column, in nonzero residues
    assert all(lead < c and 0 < x < p for lead, rest in span.items() for c, x in rest)
    # the identity at the pivot rows, each the first nonzero of its column
    assert (basis[pivot_rows] == np.eye(rank)).all()
    # row i of B solves A^T x = (row i of P) over the rationals
    a_t = _rational(m[np.ix_(pivot_rows, sol.pivot_cols)].T)
    for i in range(m.shape[0] if rank else 0):
        nums, den = solve_linear(a_t, _rational(m[[i]][:, sol.pivot_cols].T)).particular
        inv = pow(T._scalar_mod_p(den, p), -1, p)
        assert [T._scalar_mod_p(x, p) * inv % p for x in nums] == basis[i].tolist()
    # extending a span by the rest of the columns, one step later, gives the
    # same reduced rows; the step returns the rows it added
    part = {}
    first = S._colspace_mod_p(part, _columns(m[:, :split]), p)
    added = S._colspace_mod_p(part, _columns(m[:, split:]), p)
    assert set(first) | set(added) == set(part) and not set(first) & set(added)
    assert {lead: dict(rest) for lead, rest in part.items()} == \
        {lead: dict(rest) for lead, rest in span.items()}


def test_pinned_probe_and_intertwiner_run_no_float64_product(monkeypatch):
    # the probe at the tensor suite's bounds spins its seeds in pure Python
    # and the intertwiner eliminates sparsely: neither reaches a float64
    # product, a float64 reduction or the dense echelon
    def refuse(*args):
        raise AssertionError("a dense mod-p kernel ran")

    for name in ("_matmul_mod_p", "_mod_p", "_echelon_mod_p"):
        monkeypatch.setattr(S, name, refuse)
    rep = irreducibility_probe(make_spec(1, L=2, N=1), 3, 4, 2)
    assert rep.verdict == "cyclic-within-bounds"
    hw = HWSpec(RATIONALS.rational(Fraction(1, 2)), PHI_X)
    spec = TensorSpec(omega_d(RATIONALS.rational(2), 1), verma_basis(hw, 1, 1))
    assert intertwiner_dim(spec, spec, 2, 3, 1) == 1


# -- residues ------------------------------------------------------------------


@pytest.mark.parametrize("p", T._PRIMES + _WIDE_PRIMES)
def test_scalar_mod_p_specialises_laurent_scalars(p, monkeypatch):
    c = DECL.param("c")
    s = Fraction(3, 5) * LAM ** -2 * c + 7
    for lam, cv in [(37, 47), (p - 1, 2 ** 25), (2, p - 2)]:
        value = Fraction(3, 5) * Fraction(1, lam ** 2) * cv + 7
        want = value.numerator * pow(value.denominator, -1, p) % p
        monkeypatch.setattr(T, "_residue", {"lambda": lam, "c": cv}.get)
        assert T._scalar_mod_p(s, p) == want


@pytest.mark.parametrize("p", T._PRIMES + _WIDE_PRIMES)
def test_scalar_mod_p_reduces_integer_coefficients(p, monkeypatch):
    # integer coefficients skip the Fermat inverse; negative ones and ones
    # beyond p must still reduce correctly
    c = DECL.param("c")
    s = -9 * LAM ** -1 * c + (3 * p + 4) * c ** 2 - 1
    assert all(type(q) is int for q in s.terms.values())
    for lam, cv in [(37, 47), (p - 1, 2 ** 25), (2, p - 2)]:
        value = Fraction(-9 * cv, lam) + (3 * p + 4) * cv ** 2 - 1
        want = value.numerator * pow(value.denominator, -1, p) % p
        monkeypatch.setattr(T, "_residue", {"lambda": lam, "c": cv}.get)
        assert T._scalar_mod_p(s, p) == want


def test_scalar_mod_p_rejects_a_prime_dividing_a_denominator():
    p = T._PRIMES[0]
    with pytest.raises(ZeroDivisionError):
        T._scalar_mod_p(RATIONALS.rational(Fraction(1, p)), p)
    with pytest.raises(ZeroDivisionError):
        T._scalar_mod_p(Fraction(2, 3 * p) * LAM + 1, p)
    assert T._scalar_mod_p(RATIONALS.rational(Fraction(1, p)), T._PRIMES[1]) != 0


laurent_terms = st.lists(st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                                   st.integers(-3, 3), st.integers(0, 3)), max_size=5)


@settings(max_examples=60, deadline=None)
@given(terms=laurent_terms, p=st.sampled_from(T._PRIMES + _WIDE_PRIMES))
def test_scalar_mod_p_evaluates_at_the_residue_of_each_name(terms, p):
    # each parameter is sent to the residue its name fixes, nonzero mod
    # every prime; the reduction is the Fraction value there, mod p
    c = DECL.param("c")
    lam, cv = T._residue("lambda"), T._residue("c")
    assert all(0 < r < min(T._PRIMES) for r in (lam, cv))
    s, value = DECL.zero, Fraction(0)
    for q, a, b in terms:
        s += q * LAM ** a * c ** b
        value += q * Fraction(lam) ** a * cv ** b
    want = value.numerator * pow(value.denominator, -1, p) % p
    assert T._scalar_mod_p(s, p) == want


def test_symbolic_moves_need_no_residue_argument():
    # lambda and c symbolic: the kernel mod p, stopped at the identity, is
    # the exact kernel, with every residue read off the parameter names
    spec = make_spec(1, L=1, N=1)
    keys = spec.basis_keys(1)
    moves = _compressed_moves(spec, keys, 2, 1)
    assert {n for cols in moves for col in cols.values() for _, x in col
            for mono in x.terms for n, _ in mono} == {"lambda", "c"}
    exact = _exact_intertwiner_dim(moves, moves, keys, keys)
    assert exact == 1
    for p in T._PRIMES:
        assert T._modular_kernel_dim(moves, moves, keys, keys, p, explicit=1) == exact


@pytest.mark.parametrize("eps_b, want", [(1, 1), (0, 0)])
def test_sides_over_different_declarations_share_the_residue_of_lambda(eps_b, want,
                                                                      monkeypatch):
    # side a over (lambda!), side b over (lambda!, c), equal windows by
    # value: lambda is sent to one residue on both sides, so equal data meet
    # the identity and unequal eps reach full rank, both at the first prime
    kernel, primes = T._modular_kernel_dim, []

    def counted_kernel(*args, **kwargs):
        primes.append(args[4])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(T, "_modular_kernel_dim", counted_kernel)
    decl_a = ParamDecl(invertible=("lambda",))
    sides = []
    for decl, eps in ((decl_a, 1), (DECL, eps_b)):
        hw = verma_basis(HWSpec(decl.rational(Fraction(1, 2)), PHI_X), 1, 1)
        sides.append(TensorSpec(omega_d(decl.param("lambda"), eps), hw))
    assert sides[0].omega.lam[0].decl != sides[1].omega.lam[0].decl
    assert intertwiner_dim(*sides, 2, 3, 1) == want
    assert primes == [T._PRIMES[0]]


def test_first_prime_as_lambda_skips_to_the_next_prime():
    # every lambda^-k entry has the first prime in its denominator
    p = T._PRIMES[0]
    spec = _rational_spec(p, 1)
    keys = spec.basis_keys(2)
    moves = _compressed_moves(spec, keys, 3, 2)
    assert T._modular_full_seeds(keys, moves) == set(keys)
    rep = irreducibility_probe(spec, 2, 3, 2)
    assert rep == irreducibility_probe(spec, 2, 3, 2, exact=True)
    assert rep.verdict == "cyclic-within-bounds"
    for other in (p, 2):
        sb = _rational_spec(other, 1)
        keys_b = sb.basis_keys(2)
        exact = _exact_intertwiner_dim(_compressed_moves(spec, keys, 3, 1),
                                       _compressed_moves(sb, keys_b, 3, 1),
                                       keys, keys_b)
        assert intertwiner_dim(spec, sb, 2, 3, 1) == exact


def test_no_usable_prime_certifies_no_seed(monkeypatch):
    spec = _rational_spec(T._PRIMES[0], 1)
    keys = spec.basis_keys(1)
    moves = _compressed_moves(spec, keys, 2, 1)
    monkeypatch.setattr(T, "_PRIMES", T._PRIMES[:1])
    assert T._modular_full_seeds(keys, moves) == set()
    rep = irreducibility_probe(spec, 1, 2, 1)
    assert rep == irreducibility_probe(spec, 1, 2, 1, exact=True)


# -- Kronecker-sum moves and the 1 (x) 1 certificate ------------------------------


def _keyed(moves, keys):
    """Positional moves {col: [(row, x), ...]} as {col key: {row key: x}}."""
    return [{keys[i]: {keys[r]: x for r, x in col} for i, col in cols.items()}
            for cols in moves]


def _positional(moves, keys):
    """Keyed moves {col key: {row key: x}} as {col: [(row, x), ...]}."""
    return [{keys.index(ck): [(keys.index(rk), x) for rk, x in col.items()]
             for ck, col in cols.items()} for cols in moves]


def _moves_by_key(spec, keys, m_bound, n_bound):
    """The compressed moves built key by key from act_tensor (d family) or
    act_hv plus the Verma action (hv control): the construction the
    Kronecker-sum builder replaces, straightened on the window extended by
    m_bound levels, where no generator's image overflows."""
    host = TruncVerma(spec.hw.spec, spec.hw.level_bound + m_bound, spec.hw.order_bound)
    hspec = TensorSpec(spec.omega, host)
    window = set(keys)
    if spec.omega.family == "d":
        ops = [D_HAT.basis(m, n) for m in range(-m_bound, m_bound + 1)
               for n in range(n_bound + 1)] + [D_HAT.center()]
        apps = [lambda key, op=op: act_tensor(op, hspec.elem({key: RATIONALS.one})).terms
                for op in ops]
    else:
        def apply_hv(key, kind, m, n):
            j, mono = key
            out = {}
            pf = act_hv(spec.omega, (kind, m), spec.omega.monomial((j,)))
            for (e,), c in pf.terms.items():
                out[(e, mono)] = out.get((e, mono), 0) + c
            for mo, k in host._apply_basis(m, n, mono).items():
                out[(j, mo)] = out.get((j, mo), 0) + k
            return {k: c for k, c in out.items() if c}
        apps = [lambda key, kind=kind, m=m, n=n: apply_hv(key, kind, m, n)
                for m in range(-m_bound, m_bound + 1) for kind, n in (("L", 1), ("I", 0))]
    moves = []
    for app in apps:
        cols = {}
        for key in keys:
            col = {k: c for k, c in app(key).items() if k in window}
            if col:
                cols[key] = col
        moves.append(cols)
    return moves


@pytest.mark.parametrize("family,eps,symbolic,bounds", [
    ("d", 1, True, (3, 2, 1, 4, 2)),
    ("d", 0, True, (3, 2, 1, 4, 2)),
    ("d", 0, False, (2, 2, 1, 4, 1)),
    ("d", 1, False, (2, 1, 1, 3, 2)),
    ("hv", None, True, (3, 2, 1, 4, 2)),
    ("hv", None, False, (2, 1, 1, 3, 2)),
    # the top level meets every negative generator, which would overflow it
    ("d", 1, True, (2, 3, 1, 4, 0)),
    ("d", 0, False, (2, 3, 1, 4, 2)),
    ("hv", None, True, (2, 3, 1, 4, 2)),
])
def test_kronecker_sum_moves_match_the_per_key_action(family, eps, symbolic, bounds):
    d, L, N, mb, nb = bounds
    c = DECL.param("c") if symbolic else RATIONALS.rational(Fraction(1, 2))
    lam = LAM if symbolic else RATIONALS.rational(Fraction(3, 2))
    hw = verma_basis(HWSpec(c, PHI_X), L, N)
    omega = omega_d(lam, eps) if family == "d" else omega_hv(lam, DECL.zero, DECL.zero)
    spec = TensorSpec(omega, hw)
    keys = spec.basis_keys(d)
    assert _keyed(_compressed_moves(spec, keys, mb, nb), keys) == _moves_by_key(spec, keys, mb, nb)


def test_contains_unit_reads_the_reduced_row():
    # span{e0 + e2, e1}: a lead in column 0 alone does not put e0 in it
    p = T._PRIMES[0]
    span = {}
    S._colspace_mod_p(span, [{0: 1, 2: 5}, {1: 1}], p)
    assert span == {0: [(2, 5)], 1: []}
    assert span.get(0) != [] and span.get(1) == [] and span.get(2) is None
    assert S._colspace_mod_p({}, [{0: 1}, {2: 1}], p) == {0: [], 2: []}
    # a later row with lead 2 clears the older row's entry there
    assert S._colspace_mod_p(span, [{0: 3, 2: 7}], p) == {2: []}
    assert span == {0: [], 1: [], 2: []}


def _dense_mod_p(cols, n, p):
    """The {col: [(row, Scalar), ...]} matrix cols on n positions, as a
    dense int64 array over GF(p)."""
    m = np.zeros((n, n), dtype=np.int64)
    for i, col in cols.items():
        for r, c in col:
            m[r, i] = T._scalar_mod_p(c, p)
    return m


def _sparse_gens(mats):
    """Dense residue matrices as the sparse residue columns the spin reads."""
    return [{c: [(r, int(m[r, c])) for r in np.flatnonzero(m[:, c])]
             for c in range(m.shape[1]) if m[:, c].any()} for m in mats]


def _spin_case(family, eps, L=2, N=1, d=3, mb=4):
    """keys, moves and the dense residue matrices of a symbolic probe."""
    hw = verma_basis(HWSpec(DECL.param("c"), PHI_X), L, N)
    omega = omega_d(LAM, eps) if family == "d" else omega_hv(LAM, DECL.zero, DECL.zero)
    spec = TensorSpec(omega, hw)
    keys = spec.basis_keys(d)
    moves = _compressed_moves(spec, keys, mb, 2)
    mats = [_dense_mod_p(cols, len(keys), T._PRIMES[0]) for cols in moves]
    return keys, moves, mats


def _closure_by_re_elimination(mats, seed, p):
    """The closure of e(seed) by re-eliminating [basis, images] each step,
    as dense columns."""
    n = mats[0].shape[0]
    basis = np.zeros((n, 1), dtype=np.int64)
    basis[seed, 0] = 1
    while True:
        stacked = np.hstack([basis] + [S._matmul_mod_p(m, basis, p) for m in mats])
        r, pivot_cols = _echelon_mod_p(stacked.T, p)
        if len(pivot_cols) == basis.shape[1]:
            return basis
        basis = r[:len(pivot_cols)].T


@pytest.mark.parametrize("family", ["d", "hv"])
def test_spin_mod_p_spans_the_closure(family):
    # the sparse spin against dense re-elimination: same dimension and same
    # span, and the rows stay in reduced echelon form (closures at these
    # bounds take up to 4 steps; smaller ones close before a stale row could
    # show)
    keys, _, mats = _spin_case(family, 0)
    p = T._PRIMES[0]
    gens = _sparse_gens(mats)
    dims = []
    for seed in range(len(keys)):
        rows, pivots = _dense_span(S._spin_sparse_mod_p(gens, len(keys), seed, p), len(keys))
        ref = _closure_by_re_elimination(mats, seed, p)
        assert len(pivots) == ref.shape[1]
        assert (rows[:, pivots] == np.eye(len(pivots))).all()
        assert len(_echelon_mod_p(np.hstack([ref, rows.T]).T, p)[1]) == ref.shape[1]
        dims.append(len(pivots))
    assert max(dims) == len(keys)
    if family == "hv":
        assert min(dims) < len(keys)


def _two_elimination_spin(gens, seed, p, target=None):
    """The dense float64 spin with two eliminations per step: the pivot
    columns of the residual images pick independent images, and a second
    elimination brings those to reduced echelon form.  ``gens`` are the
    generators stacked into one (G n) x n array."""
    n = gens.shape[1]
    rows = np.zeros((1, n))
    rows[0, seed] = 1
    pivots = [seed]
    frontier = rows
    while len(pivots) < n and not (target is not None and target in pivots
                                   and np.count_nonzero(rows[pivots.index(target)]) == 1):
        images = S._matmul_mod_p(gens, frontier.T, p)
        images = images.reshape(-1, n, len(frontier)).transpose(0, 2, 1).reshape(-1, n)
        images = S._mod_p(images - S._matmul_mod_p(images[:, pivots], rows, p), p)
        images = images[images.any(axis=1)]
        _, picked = _echelon_mod_p(images.T, p)
        if not picked:
            break
        new, new_pivots = _echelon_mod_p(images[picked], p)
        frontier = new[:len(picked)].astype(np.float64)
        rows = S._mod_p(rows - S._matmul_mod_p(rows[:, new_pivots], frontier, p), p)
        rows = np.vstack([rows, frontier])
        pivots += new_pivots
    return rows, pivots


@pytest.mark.parametrize("family,eps", [("d", 0), ("d", 1), ("hv", None)])
def test_spin_mod_p_matches_the_two_elimination_spin(family, eps):
    # every seed of the pinned probe and of the hv control, spun fully and
    # up to e(1 (x) 1): the sparse spin, one step per level, gives the span
    # of the dense float64 spin it replaced, in the same reduced echelon
    # form, entry for entry
    keys, _, mats = _spin_case(family, eps)
    p = T._PRIMES[0]
    gens, stacked = _sparse_gens(mats), np.vstack(mats)
    one = keys.index((0, ()))
    for seed in range(len(keys)):
        for target in (None, one):
            span = S._spin_sparse_mod_p(gens, len(keys), seed, p,
                                        () if target is None else (target,))
            rows, pivots = _dense_span(span, len(keys))
            want_rows, want_pivots = _two_elimination_spin(stacked, seed, p, target)
            order = np.argsort(want_pivots)
            assert pivots == sorted(want_pivots)
            assert (rows == want_rows[order]).all()


def _pinned_probe(eps):
    spec = make_spec(eps, L=2, N=1)
    keys = spec.basis_keys(3)
    return spec, keys, _compressed_moves(spec, keys, 4, 2)


@pytest.mark.parametrize("eps", [0, 1])
def test_seeds_are_certified_through_one_tensor_one(eps, monkeypatch):
    # one full spin of e(1 (x) 1); every other seed stops within 3 spin
    # steps, as soon as its span holds e(t) for a seed t certified before
    # it, 1 (x) 1 first.  Per-seed full spins would break both counts.
    spec, keys, moves = _pinned_probe(eps)
    assert len(keys) == 32
    spin, colspace = S._spin_sparse_mod_p, S._colspace_mod_p
    steps, spins = [0], []

    def counted_colspace(span, vecs, p):
        steps[0] += 1
        return colspace(span, vecs, p)

    def counted_spin(gens, n, seed, p, stop=()):
        before, stops = steps[0], set(stop)
        span = spin(gens, n, seed, p, stop)
        spins.append((seed, stops, steps[0] - before, len(span)))
        return span

    monkeypatch.setattr(S, "_colspace_mod_p", counted_colspace)
    monkeypatch.setattr(T, "_spin_sparse_mod_p", counted_spin)
    assert T._modular_full_seeds(keys, moves) == set(keys)
    one = keys.index((0, ()))
    full = [s for s in spins if not s[1]]
    assert full == [(one, set(), full[0][2], 32)]
    rest = [s for s in spins if s[1]]
    assert [s[0] for s in rest] == [i for i in range(32) if i != one]
    # each seed may stop at any seed certified before it, and only at those
    assert [s[1] for s in rest] == [{one, *range(seed)} - {seed} for seed, *_ in rest]
    assert all(n_steps <= 3 for _, _, n_steps, _ in rest)
    assert steps[0] <= full[0][2] + 3 * 31


def test_seed_missing_one_tensor_one_goes_to_the_exact_path(monkeypatch):
    spec = make_spec(1, L=1, N=1)
    keys = spec.basis_keys(2)
    moves = _compressed_moves(spec, keys, 3, 2)
    miss = keys[5]
    spin = S._spin_sparse_mod_p

    def short_spin(gens, n, seed, p, stop=()):
        # the forced seed's span stops at the seed itself
        if keys[seed] == miss:
            return spin(gens, n, seed, p, stop=(seed,))
        return spin(gens, n, seed, p, stop)

    monkeypatch.setattr(T, "_spin_sparse_mod_p", short_spin)
    assert T._modular_full_seeds(keys, moves) == set(keys) - {miss}
    first_vectors = {}
    add = T.SpanBasis.add

    def watched_add(self, vec):
        first_vectors.setdefault(self, next(iter(vec)))
        return add(self, vec)

    monkeypatch.setattr(T.SpanBasis, "add", watched_add)
    rep = irreducibility_probe(spec, 2, 3, 2)
    # exactly the missed seed was closed with exact arithmetic
    assert list(first_vectors.values()) == [keys.index(miss)]
    monkeypatch.setattr(T.SpanBasis, "add", add)
    assert rep == irreducibility_probe(spec, 2, 3, 2, exact=True)


def test_short_closure_of_one_tensor_one_certifies_nothing(monkeypatch):
    spec = make_spec(1, L=1, N=1)
    keys = spec.basis_keys(2)
    moves = _compressed_moves(spec, keys, 3, 2)
    spin = S._spin_sparse_mod_p
    monkeypatch.setattr(T, "_spin_sparse_mod_p",
                        lambda gens, n, seed, p, stop=(): spin(gens, n, seed, p, (seed,)))
    assert T._modular_full_seeds(keys, moves) == set()
    rep = irreducibility_probe(spec, 2, 3, 2)
    assert rep == irreducibility_probe(spec, 2, 3, 2, exact=True)
    assert rep.verdict == "cyclic-within-bounds"


@pytest.mark.parametrize("bounds", [(2, 1, 1, 3), (3, 2, 1, 4)])
def test_control_seeds_inside_a_short_closure_are_not_spun(bounds, monkeypatch):
    # a closure that misses e(1 (x) 1) mod p holds the closure of every
    # seed inside it, so those seeds are skipped; the certified set is the
    # one that spinning every seed gives
    d, L, N, mb = bounds
    keys, moves, mats = _spin_case("hv", None, L, N, d, mb)
    p = T._PRIMES[0]
    gens, n = _sparse_gens(mats), len(keys)
    one = keys.index((0, ()))
    each = {key for seed, key in enumerate(keys)
            if S._spin_sparse_mod_p(gens, n, seed, p, (one,)).get(one) == []}
    assert 0 < len(each) < len(keys)
    spin, spun = S._spin_sparse_mod_p, []

    def counted_spin(gens, n, seed, p, stop=()):
        spun.append(seed)
        return spin(gens, n, seed, p, stop)

    monkeypatch.setattr(T, "_spin_sparse_mod_p", counted_spin)
    assert T._modular_full_seeds(keys, moves) == each
    assert len(spun) < len(keys)


def test_a_seed_reaching_an_uncertified_seed_is_not_certified():
    # s reaches e(t) in one step, but the closure of t, and with it that of
    # s, misses e(1 (x) 1): stopping at e(t) would certify s wrongly.  t
    # is spun before s in one order and after it in the other.
    one, s, t, u = (0, ()), (1, ()), (2, ()), (3, ())
    moves = [{one: {s: RATIONALS.one}, s: {t: RATIONALS.one},
              t: {u: RATIONALS.one}, u: {t: RATIONALS.one}}]
    for keys in ([one, s, t, u], [one, t, s, u]):
        assert T._modular_full_seeds(keys, _positional(moves, keys)) == {one}


# -- differential tests against the exact paths -----------------------------------

nonzero_fracs = st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                             max_denominator=4).filter(bool)


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["d", "hv"]), eps=st.integers(0, 1), sym_lam=st.booleans(),
       sym_c=st.booleans(), lam=nonzero_fracs, charge=nonzero_fracs, d=st.integers(1, 2),
       L=st.integers(0, 2), N=st.integers(0, 1), mb=st.integers(1, 3), nb=st.integers(0, 2))
def test_probe_matches_the_exact_probe(family, eps, sym_lam, sym_c, lam, charge, d, L, N,
                                       mb, nb):
    # seeds certified mod p, each through 1 (x) 1 or any seed certified
    # before it, give the exact verdict, with lambda and c each symbolic or
    # rational.  The 24-dimensional spaces (d = 2 on the L = 2, N = 1
    # window) are left out: one exact probe there takes 5-30 s.
    hw = verma_basis(HWSpec(DECL.param("c") if sym_c else RATIONALS.rational(charge), PHI_X),
                     L, N)
    assume((d + 1) * len(hw.basis()) <= 16)
    lam = LAM if sym_lam else RATIONALS.rational(lam)
    omega = omega_d(lam, eps) if family == "d" else omega_hv(lam, DECL.zero, DECL.zero)
    spec = TensorSpec(omega, hw)
    assert irreducibility_probe(spec, d, mb, nb) == \
        irreducibility_probe(spec, d, mb, nb, exact=True)


@settings(max_examples=25, deadline=None)
@given(sides=st.lists(st.tuples(nonzero_fracs, st.integers(0, 1)), min_size=2, max_size=2),
       same=st.booleans(), charge=nonzero_fracs, d=st.integers(1, 2), L=st.integers(0, 1),
       N=st.integers(0, 1), mb=st.integers(1, 3), nb=st.integers(0, 1))
def test_modular_kernel_dim_matches_the_exact_kernel(sides, same, charge, d, L, N, mb, nb):
    hw = verma_basis(HWSpec(RATIONALS.rational(charge), PHI_X), L, N)
    specs = [TensorSpec(omega_d(RATIONALS.rational(lam), eps), hw)
             for lam, eps in (sides[:1] * 2 if same else sides)]
    keys = [s.basis_keys(d) for s in specs]
    moves = [_compressed_moves(s, k, mb, nb) for s, k in zip(specs, keys)]
    exact = _exact_intertwiner_dim(*moves, *keys)
    # specialisation only enlarges the kernel; an unlucky prime at all three
    # primes at once does not happen on these systems
    dims = [T._modular_kernel_dim(*moves, *keys, p) for p in T._PRIMES]
    assert min(dims) == exact and all(k >= exact for k in dims)
    if same:
        assert exact >= 1


# -- the sparse first constraint block --------------------------------------------

import tracemalloc  # noqa: E402


def _kronecker_block(cols_a, cols_b, keys_a, keys_b, p):
    """One generator's constraints T A = B T as the dense Kronecker system
    I (x) A^T - B (x) I, the first block the sparse elimination replaced."""
    A = _dense_mod_p(cols_a, len(keys_a), p)
    B = _dense_mod_p(cols_b, len(keys_b), p)
    return np.kron(np.eye(len(keys_b)), A.T) - np.kron(B, np.eye(len(keys_a)))


def _rational_sides(family, sides, charges, Ls, N):
    """Two rational tensor specs, each on its own window."""
    specs = []
    for (lam, eps), charge, L in zip(sides, charges, Ls):
        hw = verma_basis(HWSpec(RATIONALS.rational(charge), PHI_X), L, N)
        lam = RATIONALS.rational(lam)
        omega = omega_d(lam, eps) if family == "d" else omega_hv(lam, RATIONALS.zero,
                                                                  RATIONALS.zero)
        specs.append(TensorSpec(omega, hw))
    return specs


side_draws = dict(
    family=st.sampled_from(["d", "hv"]),
    sides=st.lists(st.tuples(nonzero_fracs, st.integers(0, 1)), min_size=2, max_size=2),
    charges=st.lists(nonzero_fracs, min_size=2, max_size=2),
    Ls=st.lists(st.integers(0, 1), min_size=2, max_size=2), N=st.integers(0, 1),
    d=st.integers(1, 2), mb=st.integers(1, 3), nb=st.integers(0, 1))


@settings(max_examples=30, deadline=None)
@given(gen=st.integers(0, 50), **side_draws)
def test_sparse_constraint_block_matches_the_kronecker_system(family, sides, charges, Ls, N,
                                                               d, mb, nb, gen):
    # any one generator's constraint rows, eliminated sparsely, have the
    # rank and the pivot columns the dense echelon finds in the Kronecker
    # system; the two sides may have different windows and dimensions
    specs = _rational_sides(family, sides, charges, Ls, N)
    keys = [s.basis_keys(d) for s in specs]
    moves = [_compressed_moves(s, k, mb, nb) for s, k in zip(specs, keys)]
    g = gen % len(moves[0])
    p = T._PRIMES[0]
    rows = T._constraint_rows(T._residue_cols(moves[0][g], p),
                              T._residue_cols(moves[1][g], p), *map(len, keys))
    pivots = S._sparse_echelon_mod_p(rows, p)
    _, want = _echelon_mod_p(_kronecker_block(moves[0][g], moves[1][g], *keys, p), p)
    assert sorted(pivots) == want
    # every stored row lies past its pivot, its least column, in nonzero residues
    assert all(lead < c and 0 < x < p for lead, rest in pivots.items() for c, x in rest)


@settings(max_examples=25, deadline=None)
@given(**side_draws)
def test_modular_kernel_dim_matches_the_exact_kernel_across_windows(family, sides, charges,
                                                                     Ls, N, d, mb, nb):
    # the sparse first block and the dense refinement against the exact
    # elimination of every constraint row, for sides on unequal windows and
    # for the hv control too; intertwiner_dim returns the exact dimension
    sa, sb = _rational_sides(family, sides, charges, Ls, N)
    keys = [s.basis_keys(d) for s in (sa, sb)]
    moves = [_compressed_moves(s, k, mb, nb) for s, k in zip((sa, sb), keys)]
    exact = _exact_intertwiner_dim(*moves, *keys)
    dims = [T._modular_kernel_dim(*moves, *keys, p) for p in T._PRIMES]
    assert min(dims) == exact and all(k >= exact for k in dims)
    assert intertwiner_dim(sa, sb, d, mb, nb) == exact


# None draws the symbol: lambda (invertible) or c
symbolic_or_fracs = st.one_of(st.none(), nonzero_fracs)


@settings(max_examples=25, deadline=None)
@given(sides=st.lists(st.tuples(symbolic_or_fracs, st.integers(0, 1), symbolic_or_fracs),
                      min_size=2, max_size=2),
       same=st.booleans(), L=st.integers(0, 1), N=st.integers(0, 1),
       mb=st.integers(1, 2), nb=st.integers(0, 1))
def test_specialised_modular_route_matches_the_exact_kernel(sides, same, L, N, mb, nb):
    # symbolic lambda and/or c, sent to their fixed residues: every prime
    # bounds the exact kernel over Q(lambda, c) from above, stopped at the
    # explicit identity or not, one of them meets it, and intertwiner_dim
    # answers it.  x-degree 1 (at most 36 unknowns) keeps the exact
    # elimination below half a second; at degree 2 a rational side against
    # a symbolic one takes seconds.
    d = 1
    specs = []
    for lam, eps, charge in (sides[:1] * 2 if same else sides):
        c = DECL.param("c") if charge is None else DECL.rational(charge)
        lam = LAM if lam is None else DECL.rational(lam)
        specs.append(TensorSpec(omega_d(lam, eps), verma_basis(HWSpec(c, PHI_X), L, N)))
    keys = [s.basis_keys(d) for s in specs]
    assert len(keys[0]) * len(keys[1]) <= 700
    moves = [_compressed_moves(s, k, mb, nb) for s, k in zip(specs, keys)]
    exact = _exact_intertwiner_dim(*moves, *keys)
    explicit = int(keys[0] == keys[1] and moves[0] == moves[1])
    assert explicit <= exact and explicit >= same
    dims = [T._modular_kernel_dim(*moves, *keys, p, explicit=e)
            for p in T._PRIMES for e in {0, explicit}]
    assert min(dims) == exact and all(k >= exact for k in dims)
    assert intertwiner_dim(*specs, d, mb, nb) == exact


@pytest.mark.parametrize("bad", [1, 2, 3])
@pytest.mark.parametrize("where", ["lambda", "charge"])
def test_a_prime_dividing_a_denominator_is_skipped(where, bad, monkeypatch):
    # the first `bad` primes divide a denominator: of lambda^-k, in the
    # first generator the elimination reads, or of the central charge, in
    # the 7th (t, through the cocycle) and 11th (the center) of the 11
    # generators.  Equal data meet the identity's kernel after the first
    # 6, so a charge prime is never reduced there and answers; read to the
    # end (explicit=0) it raises too.  A prime that raises is skipped; with
    # no usable prime left the exact elimination answers.
    q = 1
    for p in T._PRIMES[:bad]:
        q *= p
    charge = Fraction(1, q) if where == "charge" else Fraction(1, 2)
    hw = verma_basis(HWSpec(RATIONALS.rational(charge), PHI_X), 1, 1)
    spec = TensorSpec(omega_d(RATIONALS.rational(q if where == "lambda" else 2), 1), hw)
    keys = spec.basis_keys(1)
    moves = _compressed_moves(spec, keys, 2, 1)
    assert len(moves) == 11
    for p in T._PRIMES[:bad]:
        with pytest.raises(ZeroDivisionError):
            T._modular_kernel_dim(moves, moves, keys, keys, p)
        if where == "lambda":
            with pytest.raises(ZeroDivisionError):
                T._modular_kernel_dim(moves, moves, keys, keys, p, explicit=1)
        else:
            assert T._modular_kernel_dim(moves, moves, keys, keys, p, explicit=1) == 1
    kernel, exact = T._modular_kernel_dim, T._exact_intertwiner_dim
    tried, fell_back = [], []

    def counted_kernel(*args, **kwargs):
        tried.append(args[4])
        return kernel(*args, **kwargs)

    def counted_exact(*args):
        fell_back.append(True)
        return exact(*args)

    monkeypatch.setattr(T, "_modular_kernel_dim", counted_kernel)
    monkeypatch.setattr(T, "_exact_intertwiner_dim", counted_exact)
    assert intertwiner_dim(spec, spec, 1, 2, 1) == 1 == exact(moves, moves, keys, keys)
    if where == "lambda":
        assert tried == list(T._PRIMES[:bad + 1])
        assert fell_back == [True] * (bad == len(T._PRIMES))
    else:
        assert tried == list(T._PRIMES[:1]) and fell_back == []


def test_a_bad_prime_past_the_stop_point_is_never_reduced(monkeypatch):
    # every prime divides side b's central charge, which enters the 7th
    # and the 11th of the 11 generators.  Unequal lambda reach full rank
    # on the first, so each prime answers without raising, and
    # intertwiner_dim never runs the exact elimination
    q = 1
    for p in T._PRIMES:
        q *= p
    sa = _rational_spec(2, 1)
    hw_b = verma_basis(HWSpec(RATIONALS.rational(Fraction(1, q)), PHI_X), 1, 1)
    sb = TensorSpec(omega_d(RATIONALS.rational(3), 1), hw_b)
    keys = sa.basis_keys(1)
    ma, mb = _compressed_moves(sa, keys, 2, 1), _compressed_moves(sb, keys, 2, 1)
    with pytest.raises(ZeroDivisionError):
        T._residue_cols(mb[-1], T._PRIMES[0])
    want = _exact_intertwiner_dim(ma, mb, keys, keys)
    assert want == 0
    assert [T._modular_kernel_dim(ma, mb, keys, keys, p) for p in T._PRIMES] == [want] * 3

    def no_exact(*args):
        raise AssertionError("the exact elimination ran")

    monkeypatch.setattr(T, "_exact_intertwiner_dim", no_exact)
    assert intertwiner_dim(sa, sb, 1, 2, 1) == want


def test_the_first_block_builds_no_kronecker_array():
    # the benchmark's windows, 576 unknowns: one N^2 x N^2 float64 array is
    # 2.65 MB.  Both systems are answered through the cyclic vector 1 (x) 1:
    # the spin of side a on its 24 keys, the words it records written in side
    # b's generators as they are read, and rows on the 24 entries of
    # T(1 (x) 1).  The bounds are those of the row elimination it stands in
    # front of (which equal data leave with a kernel of 192 after the first
    # generator, and which holds at most 575 sparse rows): below an eighth
    # of one Kronecker array at full rank, below five 576 x 192 float64
    # arrays for equal data.
    hw = verma_basis(HWSpec(RATIONALS.rational(Fraction(3, 7)), PHI_X), 2, 1)
    specs = [TensorSpec(omega_d(RATIONALS.rational(lam), 1), hw) for lam in (2, 3)]
    keys = specs[0].basis_keys(2)
    n = len(keys) ** 2
    assert n == 576
    moves_a, moves_b = (_compressed_moves(s, keys, 4, 1) for s in specs)
    p = T._PRIMES[0]

    def peak(ma, mb):
        explicit = int(ma == mb)
        T._modular_kernel_dim(ma, mb, keys, keys, p, explicit=explicit)
        tracemalloc.start()
        try:
            return T._modular_kernel_dim(ma, mb, keys, keys, p, explicit=explicit), \
                tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kron_bytes = n * n * 8
    k, full_rank = peak(moves_a, moves_b)
    assert k == 0 and full_rank < kron_bytes / 8
    first = S._sparse_echelon_mod_p(T._constraint_rows(
        T._residue_cols(moves_a[0], p), T._residue_cols(moves_a[0], p), len(keys), len(keys)),
        p)
    assert n - len(first) == 192
    k, same = peak(moves_a, moves_a)
    assert k == 1 and same < 5 * n * 192 * 8 < 2 * kron_bytes


# -- the cyclic certificate --------------------------------------------------------

from itertools import product as iproduct  # noqa: E402


def _rows_kernel(moves, keys, p, explicit):
    """The kernel mod p of every generator's constraint rows on all
    dim_a * dim_b entries of T, stopped at ``explicit``: the elimination the
    cyclic certificate stands in front of."""
    n = len(keys[0]) * len(keys[1])
    rows = (row for cols_a, cols_b in zip(*moves)
            for row in T._constraint_rows(T._residue_cols(cols_a, p),
                                          T._residue_cols(cols_b, p), *map(len, keys)))
    return n - len(S._sparse_echelon_mod_p(rows, p, rank_bound=n - explicit))


def _certificate_kernel(moves, keys, p, explicit):
    """The cyclic certificate's kernel mod p, stopped at ``explicit``, or
    None where it cannot answer."""
    n = len(keys[1])
    try:
        rows = T._cyclic_rows(*moves, *map(len, keys), p)
        if rows is None:
            return None
        return n - len(S._sparse_echelon_mod_p(rows, p, rank_bound=n - explicit))
    except ZeroDivisionError:
        return None


def _apply_sparse(gen, vec, p):
    out: dict = {}
    for c, x in vec.items():
        for r, y in gen.get(c, ()):
            out[r] = (out.get(r, 0) + x * y) % p
    return {r: x for r, x in out.items() if x}


sparse_gen_sets = st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(-3, 3), max_size=2 * n), max_size=4)))


@settings(max_examples=80, deadline=None)
@given(case=sparse_gen_sets, seed=st.integers(0, 5))
def test_spin_words_rebuild_the_basis_and_express_every_other_image(case, seed):
    # the words rebuild n independent vectors from e(seed), the relations
    # hold, and words and relations together are every (generator, basis
    # vector) pair once, relations in basis-vector order; the spin gives up
    # exactly when the closure of e(seed) falls short
    n, entries = case
    seed %= n
    p = T._PRIMES[0]
    gens = []
    for entry in entries:
        gen: dict = {}
        for (r, c), x in entry.items():
            if x:
                gen.setdefault(c, []).append((r, x % p))
        gens.append(gen)
    got = S._spin_words_mod_p(gens, n, seed, p)
    assert (got is not None) == (len(S._spin_sparse_mod_p(gens, n, seed, p)) == n)
    if got is None:
        return
    words, relations = got
    assert words[0] is None and len(words) == n
    basis = [{seed: 1}]
    for g, i in words[1:]:
        assert i < len(basis)
        basis.append(_apply_sparse(gens[g], basis[i], p))
    assert len(S._sparse_echelon_mod_p(basis, p)) == n
    pairs = []
    for g, i, coords in relations:
        rhs: dict = {}
        for j, a in coords.items():
            for c, x in basis[j].items():
                rhs[c] = (rhs.get(c, 0) + a * x) % p
        assert _apply_sparse(gens[g], basis[i], p) == {c: x for c, x in rhs.items() if x}
        pairs.append((g, i))
    assert pairs == sorted(pairs, key=lambda gi: (gi[1], gi[0]))
    assert sorted(pairs + words[1:]) == sorted(iproduct(range(len(gens)), range(n)))


# None draws the symbol: lambda or c
certificate_sides = st.tuples(symbolic_or_fracs, st.integers(0, 1), symbolic_or_fracs,
                              st.integers(0, 2))


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(["d", "hv"]), sides=st.lists(certificate_sides, min_size=2,
                                                          max_size=2),
       same=st.booleans(), N=st.integers(0, 1), d=st.integers(1, 2), mb=st.integers(1, 3),
       nb=st.integers(0, 1))
def test_cyclic_certificate_matches_the_constraint_rows(family, sides, same, N, d, mb, nb):
    # at every prime where 1 (x) 1 spans side a and every residue it reads
    # exists, the kernel on the dim_b entries of T(1 (x) 1) is the kernel of
    # the constraint rows on all dim_a * dim_b entries of T, stopped at the
    # same explicit bound or not; and _modular_kernel_dim answers it.  Sides
    # on unequal windows, lambda and c symbolic or rational, the d family
    # and the hv control (where 1 (x) 1 is not cyclic).
    specs = []
    for lam, eps, charge, L in (sides[:1] * 2 if same else sides):
        c = DECL.param("c") if charge is None else DECL.rational(charge)
        lam = LAM if lam is None else DECL.rational(lam)
        omega = omega_d(lam, eps) if family == "d" else omega_hv(lam, DECL.zero, DECL.zero)
        specs.append(TensorSpec(omega, verma_basis(HWSpec(c, PHI_X), L, N)))
    keys = [s.basis_keys(d) for s in specs]
    moves = [_compressed_moves(s, k, mb, nb) for s, k in zip(specs, keys)]
    if same:
        moves[1] = moves[0]
    explicit = int(keys[0] == keys[1] and moves[0] == moves[1])
    for p in T._PRIMES:
        for e in {0, explicit}:
            got = _certificate_kernel(moves, keys, p, e)
            if got is not None:
                assert got == _rows_kernel(moves, keys, p, e)
                assert T._modular_kernel_dim(*moves, *keys, p, explicit=e) == got


def test_a_short_cyclic_closure_falls_back_to_the_constraint_rows(monkeypatch):
    # without D among the generators (n = 0), 1 (x) 1 spans only part of the
    # space at every prime, so the row elimination answers, and
    # intertwiner_dim gives the exact dimension, here above the identity
    spec = _rational_spec(2, 1)
    keys = spec.basis_keys(2)
    moves = _compressed_moves(spec, keys, 2, 0)
    exact = _exact_intertwiner_dim(moves, moves, keys, keys)
    assert exact == 6
    for p in T._PRIMES:
        assert T._cyclic_rows(moves, moves, len(keys), len(keys), p) is None
    real, read = T._constraint_rows, []
    monkeypatch.setattr(T, "_constraint_rows", lambda *a: read.append(1) or real(*a))
    assert intertwiner_dim(spec, spec, 2, 2, 0) == exact
    assert read


@pytest.mark.parametrize("case", ["benchmark", "symbolic_golden"])
def test_equal_data_are_certified_on_the_cyclic_vector_alone(case, monkeypatch):
    # the benchmark's equal-data window (576 unknowns) and the symbolic
    # intertwiner golden (1024 unknowns, lambda symbolic): with the row
    # elimination made to fail, the first prime answers 1, and every row
    # the elimination reads lies on the dim_b entries of T(1 (x) 1)
    if case == "benchmark":
        hw = verma_basis(HWSpec(RATIONALS.rational(Fraction(3, 7)), PHI_X), 2, 1)
        sa, sb = (TensorSpec(omega_d(RATIONALS.rational(2), 1), hw) for _ in range(2))
        d, n = 2, 576
    else:
        hw = verma_basis(HWSpec(DECL.rational(Fraction(1, 2)), PHI_X), 2, 1)
        sa, sb = (TensorSpec(omega_d(LAM, 1), hw) for _ in range(2))
        d, n = 3, 1024
    dim_b = len(sb.basis_keys(d))
    assert len(sa.basis_keys(d)) * dim_b == n

    def no_rows(*args):
        raise AssertionError("the constraint rows were read")

    kernel, echelon, primes = T._modular_kernel_dim, T._sparse_echelon_mod_p, []

    def counted_kernel(*args, **kwargs):
        primes.append(args[4])
        return kernel(*args, **kwargs)

    def checked_echelon(rows, p, rank_bound=None):
        def check():
            for row in rows:
                assert all(0 <= c < dim_b for c in row)
                yield row
        return echelon(check(), p, rank_bound=rank_bound)

    monkeypatch.setattr(T, "_constraint_rows", no_rows)
    monkeypatch.setattr(T, "_exact_intertwiner_dim", no_rows)
    monkeypatch.setattr(T, "_modular_kernel_dim", counted_kernel)
    monkeypatch.setattr(T, "_sparse_echelon_mod_p", checked_echelon)
    assert intertwiner_dim(sa, sb, d, 4, 1) == 1
    assert primes == [T._PRIMES[0]]
