from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from weylmod import liealg
from weylmod.liealg import (
    AlgebraCtx, CentralUnsupported, CtxMismatch, D_ALG, D_HAT, SpanProbeReport,
    assoc_product, basis_bracket, basis_product, bracket, cocycle_basis,
    cocycle_phi, generated_span_probe, grade_components, term_sort_key,
)
from weylmod.scalars import ParamDecl, RATIONALS, SpanBasis, accumulate


def op(m, n, coeff=1, ctx=D_ALG):
    return ctx.basis(m, n, coeff)


# -- associative product -------------------------------------------------------


def laurent_action(terms, k):
    """Oracle: t^m D^n . t^k = k^n t^(k+m), extended linearly."""
    out = {}
    for (m, n), c in terms.items():
        coeff = c * k ** n[0]
        key = k + m[0]
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def test_product_against_action_oracle():
    cases = [((1, 1), (2, 0)), ((0, 2), (0, 2)), ((-2, 3), (1, 1)), ((3, 0), (-1, 2))]
    for (m1, n1), (m2, n2) in cases:
        prod = basis_product((m1,), (n1,), (m2,), (n2,))
        for k in range(-6, 7):
            # act right-to-left with the oracle
            mid = laurent_action({((m2,), (n2,)): Fraction(1)}, k)
            direct = {}
            for kk, c in mid.items():
                for key, v in laurent_action({((m1,), (n1,)): Fraction(c)}, kk).items():
                    direct[key] = direct.get(key, 0) + v
            via = laurent_action({k2: Fraction(v) for k2, v in prod.items()}, k)
            assert {a: b for a, b in direct.items() if b} == via


def test_product_examples():
    # (tD)(t^2) = t^3 D + 2 t^3
    assert assoc_product(op(1, 1), op(2, 0)) == op(3, 1) + op(3, 0, 2)
    # identity element
    a = op(2, 3, Fraction(5, 2)) + op(-1, 0)
    assert assoc_product(op(0, 0), a) == a
    # D . D = D^2
    assert assoc_product(op(0, 1), op(0, 1)) == op(0, 2)


def test_product_rejects_central_context():
    with pytest.raises(CentralUnsupported):
        assoc_product(D_HAT.d_op(1), D_HAT.d_op(1))


# -- bracket --------------------------------------------------------------------


def test_bracket_displayed_identities():
    for m in range(-5, 6):
        assert bracket(op(0, 2), op(m, 0)) == op(m, 1, 2 * m) + op(m, 0, m * m)
    assert bracket(op(-1, 2), op(1, 2)) == op(0, 3, 4)
    assert bracket(D_ALG.vir_l(2), D_ALG.vir_l(-3)) == D_ALG.vir_l(-1, -5)
    a = op(2, 3) + op(-1, 1, Fraction(1, 3))
    assert bracket(a, a).is_zero()


def test_bracket_faithfulness_oracle():
    keys = [(m, n) for m in (-2, 0, 1, 3) for n in (0, 1, 2)]
    for m1, n1 in keys:
        for m2, n2 in keys:
            br = bracket(op(m1, n1), op(m2, n2))
            for k in range(-6, 7):
                lhs = laurent_action({kk: c.rational_value() for kk, c in br.terms.items()}, k)
                f1 = laurent_action({((m2,), (n2,)): Fraction(1)}, k)
                via1 = {}
                for kk, c in f1.items():
                    for key, v in laurent_action({((m1,), (n1,)): c}, kk).items():
                        via1[key] = via1.get(key, 0) + v
                f2 = laurent_action({((m1,), (n1,)): Fraction(1)}, k)
                for kk, c in f2.items():
                    for key, v in laurent_action({((m2,), (n2,)): c}, kk).items():
                        via1[key] = via1.get(key, 0) - v
                assert lhs == {a: b for a, b in via1.items() if b}


def test_bracket_ctx_mismatch():
    with pytest.raises(CtxMismatch):
        bracket(D_ALG.d_op(1), D_HAT.d_op(1))


def test_rank2_bracket_matches_multiindex_formula():
    """Oracle: the displayed multi-variable structure constants."""
    from math import comb

    def formula(r, mm, s, nn):
        out = {}
        for i in iproduct(*[range(k + 1) for k in mm]):
            c = 1
            for kv, iv, sv in zip(mm, i, s):
                c *= comb(kv, iv) * sv ** iv
            key = (tuple(a + b for a, b in zip(r, s)),
                   tuple(a + b - c2 for a, b, c2 in zip(mm, nn, i)))
            out[key] = out.get(key, 0) + c
        for j in iproduct(*[range(k + 1) for k in nn]):
            c = 1
            for kv, jv, rv in zip(nn, j, r):
                c *= comb(kv, jv) * rv ** jv
            key = (tuple(a + b for a, b in zip(r, s)),
                   tuple(a + b - c2 for a, b, c2 in zip(mm, nn, j)))
            out[key] = out.get(key, 0) - c
        return {k: v for k, v in out.items() if v}

    grid = [(-2, 1), (1, 0), (0, 2), (2, 2)]
    for r0, m0 in grid:
        for r1, m1 in grid:
            for s0, n0 in grid:
                for s1, n1 in grid:
                    r, mm = (r0, r1), (m0, m1)
                    s, nn = (s0, s1), (n0, n1)
                    assert basis_bracket(r, mm, s, nn) == formula(r, mm, s, nn)


def test_jacobi_small_window():
    keys = [((m,), (n,)) for m in range(-2, 3) for n in range(3)]
    for a in keys:
        for b in keys:
            t1 = basis_bracket(*a, *b)
            t2 = basis_bracket(*b, *a)
            assert all(t1.get(k, 0) + t2.get(k, 0) == 0 for k in set(t1) | set(t2))


# -- cocycle ---------------------------------------------------------------------


def test_cocycle_examples():
    for n in range(4):
        for m2 in range(-3, 4):
            for n2 in range(4):
                assert cocycle_basis(0, n, m2, n2) == 0
    assert cocycle_basis(1, 0, -1, 0) == Fraction(-1, 2)
    assert cocycle_basis(2, 1, -2, 1) == Fraction(1, 2)
    for m in range(-6, 7):
        assert cocycle_basis(m, 1, -m, 1) == Fraction(m ** 3 - m, 12)


def test_cocycle_antisymmetric():
    for m in range(-4, 5):
        for n1 in range(4):
            for n2 in range(4):
                assert cocycle_basis(m, n1, -m, n2) == -cocycle_basis(-m, n2, m, n1)


def test_cocycle_identity_small():
    keys = [(m, n) for m in range(-2, 3) for n in range(3)]

    def phi_br(a, b, c):
        tot = Fraction(0)
        for (km, kn), v in basis_bracket((a[0],), (a[1],), (b[0],), (b[1],)).items():
            tot += v * cocycle_basis(km[0], kn[0], c[0], c[1])
        return tot

    for a in keys:
        for b in keys:
            for c in keys:
                assert phi_br(a, b, c) + phi_br(b, c, a) + phi_br(c, a, b) == 0


def test_cocycle_phi_bilinear_and_ignores_center():
    a = D_HAT.t(1, 2) + D_HAT.vir_l(3)
    b = D_HAT.t(-1, Fraction(1, 2)) + D_HAT.center(5)
    # only the (t, t^-1) pairing contributes: 2 * 1/2 * (-1/2)
    assert cocycle_phi(a, b) == RATIONALS.rational(Fraction(-1, 2))


def test_central_bracket():
    got = bracket(D_HAT.t(1), D_HAT.t(-1))
    assert got.terms == {}
    assert got.central == RATIONALS.rational(Fraction(-1, 2))
    # C commutes with everything
    assert bracket(D_HAT.center(), D_HAT.basis(2, 2)).is_zero()


def test_central_extension_requires_rank1():
    with pytest.raises(CentralUnsupported):
        AlgebraCtx(2, central=True)


# -- grading ---------------------------------------------------------------------


def test_grade_components():
    a = op(3, 2) + op(0, 1)
    g = grade_components(a)
    assert set(g) == {(3,), (0,)}
    assert g[(3,)] == op(3, 2)
    assert g[(0,)] == op(0, 1)
    c = D_HAT.center()
    gc = grade_components(c)
    assert set(gc) == {(0,)}
    assert gc[(0,)] == c
    assert grade_components(D_ALG.zero()) == {}


def test_grading_compatible_with_bracket():
    for m1 in range(-2, 3):
        for m2 in range(-2, 3):
            br = bracket(op(m1, 2), op(m2, 1))
            comps = grade_components(br)
            assert all(deg == (m1 + m2,) for deg in comps)


# -- generator closure ------------------------------------------------------------


def test_span_probe_standard_generators():
    rep = generated_span_probe([D_ALG.t(1), D_ALG.t(-1), D_ALG.d_op(2)], 2, 3, 8)
    assert rep.missing == []
    assert rep.dimension == 5 * 4


def test_span_probe_abelian_singleton():
    rep = generated_span_probe([D_ALG.t(1)], 2, 2, 6)
    assert rep.reached == [((1,), (0,))]
    assert rep.dimension == 1


def test_span_probe_rank2_generators():
    ctx = AlgebraCtx(2)
    gens = [
        ctx.basis((1, 0), (0, 0)), ctx.basis((-1, 0), (0, 0)),
        ctx.basis((0, 1), (0, 0)), ctx.basis((0, -1), (0, 0)),
        ctx.basis((0, 0), (1, 1)),
        ctx.basis((0, 0), (2, 0)), ctx.basis((0, 0), (0, 2)),
    ]
    rep = generated_span_probe(gens, 1, 1, 8)
    assert rep.missing == []


def test_span_probe_empty_generators():
    with pytest.raises(ValueError):
        generated_span_probe([], 1, 1, 1)


class _RationalEchelon:
    """Echelon rows over Q, each divided by its lead entry; a store kept apart
    from ``SpanBasis`` so the reference shares no elimination code with the
    probe."""

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, vec):
        v = {k: Fraction(c) for k, c in vec.items() if c}
        while v and min(v) in self.pivots:
            a = v[min(v)]
            for k, c in self.pivots[min(v)].items():
                accumulate(v, k, -a * c)
        return v

    def add(self, vec):
        v = self.reduce(vec)
        if v:
            a = v[min(v)]
            self.pivots[min(v)] = {k: c / a for k, c in v.items()}
        return bool(v)


def _reference_span_probe(generators, m_bound, n_bound, depth):
    """The plain closure loop: every step brackets each new pivot row with
    every pivot row, both ways round, one ``basis_bracket`` per pair of
    monomials, and runs all ``depth`` steps unless a step adds nothing."""
    rank = generators[0].ctx.rank
    basis_keys = sorted(((m, n) for m in iproduct(*[range(-m_bound, m_bound + 1)] * rank)
                         for n in iproduct(*[range(n_bound + 1)] * rank)), key=term_sort_key)
    key_pos = {k: i for i, k in enumerate(basis_keys)}
    span = _RationalEchelon()
    for g in generators:
        span.add({key_pos[k]: c.rational_value() for k, c in g.terms.items() if k in key_pos})
    frontier = list(span.pivots.values())
    depth_used = 0
    for step in range(depth):
        if not frontier:
            break
        rows = list(span.pivots.values())
        for v in frontier:
            for w in rows:
                prod: dict = {}
                for i1, c1 in v.items():
                    m1, n1 = basis_keys[i1]
                    for i2, c2 in w.items():
                        m2, n2 = basis_keys[i2]
                        for key, k in basis_bracket(m1, n1, m2, n2).items():
                            if key in key_pos:
                                accumulate(prod, key_pos[key], c1 * c2 * k)
                span.add(prod)
        frontier = list(span.pivots.values())[len(rows):]
        if frontier:
            depth_used = step + 1
    reached, missing = [], []
    for i, key in enumerate(basis_keys):
        (missing if span.reduce({i: 1}) else reached).append(key)
    return SpanProbeReport(reached, missing, len(span.pivots), depth_used)


@st.composite
def _span_probe_inputs(draw):
    # windows up to |m_i| <= 3, n_i <= 3 at rank 1 and the suite's |m_i| <= 1,
    # n_i <= 1 at rank 2, where the reference loop takes up to a second
    rank = draw(st.sampled_from([1, 2]))
    m_bound = draw(st.integers(1, 3 if rank == 1 else 1))
    n_bound = draw(st.integers(0, 3 if rank == 1 else 1))
    ctx = AlgebraCtx(rank)
    keys = st.sampled_from([(m, n) for m in iproduct(range(-m_bound, m_bound + 1), repeat=rank)
                            for n in iproduct(range(n_bound + 1), repeat=rank)])
    coeffs = st.sampled_from([1, -1, 2, Fraction(3, 2)])
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        g = ctx.zero()
        for m, n in draw(st.lists(keys, min_size=1, max_size=3)):
            g = g + ctx.basis(m, n, draw(coeffs))
        gens.append(g)
    return gens, m_bound, n_bound, draw(st.integers(0, 8))


@settings(max_examples=100, deadline=None)
@given(_span_probe_inputs())
def test_span_probe_matches_the_reference_loop(inputs):
    gens, m_bound, n_bound, depth = inputs
    got = generated_span_probe(gens, m_bound, n_bound, depth)
    want = _reference_span_probe(gens, m_bound, n_bound, depth)
    assert (got.reached, got.missing, got.dimension, got.depth_used) == tuple(want)


def _dense_rank2_generators():
    ctx = AlgebraCtx(2)
    return [
        ctx.basis((-1, 1), (0, 2), Fraction(3, 2)) + ctx.basis((0, -1), (2, 1))
        + ctx.basis((1, -1), (0, 0), Fraction(3, 2)),
        ctx.basis((-1, 1), (1, 1)) + ctx.basis((-1, 1), (1, 0), 2) - ctx.basis((0, 1), (2, 2)),
        ctx.basis((-1, 0), (1, 1), 2) + ctx.basis((-1, 1), (1, 0), Fraction(3, 2)),
    ]


def test_span_probe_finishes_a_dense_rank2_window():
    # reduced by cross-multiplication alone, the pivot rows of this 81-monomial
    # window double in bit length with each row added (past a million bits
    # at 31 rows), and the probe never finishes
    gens = _dense_rank2_generators()
    rep = generated_span_probe(gens, 1, 2, 3)
    assert tuple(rep) == tuple(_reference_span_probe(gens, 1, 2, 3))
    assert (rep.dimension, rep.depth_used) == (66, 3)
    # the full closure is the reference loop's answer too, but too slow for
    # it to rerun here
    rep = generated_span_probe(gens, 1, 2, 8)
    assert (rep.missing, rep.dimension, rep.depth_used) == ([], 81, 4)


def test_span_probe_brackets_each_pair_once_and_stops_at_full_rank(monkeypatch):
    # the rank-2 window of ``verify --suite span-closure``
    ctx = AlgebraCtx(2)
    gens = [
        ctx.basis((1, 0), (0, 0)), ctx.basis((-1, 0), (0, 0)),
        ctx.basis((0, 1), (0, 0)), ctx.basis((0, -1), (0, 0)),
        ctx.basis((0, 0), (1, 1)),
        ctx.basis((0, 0), (2, 0)), ctx.basis((0, 0), (0, 2)),
    ]
    window = 3 ** 2 * 2 ** 2
    pairs = []
    real_bracket = liealg.basis_bracket

    def counted_bracket(*args):
        pairs.append(args)
        return real_bracket(*args)

    dims = []
    real_add = SpanBasis.add

    def counted_add(self, vec):
        dims.append(self.dim)
        return real_add(self, vec)

    monkeypatch.setattr(liealg, "basis_bracket", counted_bracket)
    monkeypatch.setattr(SpanBasis, "add", counted_add)
    rep = generated_span_probe(gens, 1, 1, 8)
    assert rep.missing == [] and rep.dimension == window
    assert len(pairs) == len(set(pairs)) <= window ** 2
    # the last add fills the window, and none comes after it
    assert max(dims) == window - 1 and dims[-1] == window - 1


# -- printing ---------------------------------------------------------------------


def test_canonical_printing():
    assert str(bracket(op(0, 2), op(3, 0))) == "6*t^3*D + 9*t^3"
    assert str(bracket(op(1, 2), op(-1, 1))) == "-3*D^2 + D"
    assert str(D_HAT.t(-1, Fraction(3, 2)) + D_HAT.center()) == "3/2*t^-1 + C"
    decl = ParamDecl(invertible=("lambda",))
    assert str(D_ALG.t(1, decl.param("lambda"))) == "lambda*t"
