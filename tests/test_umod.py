from fractions import Fraction
from itertools import product as iproduct
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylmod import slots, umod as U
from weylmod.liealg import AlgebraCtx, D_ALG, basis_product, bracket
from weylmod.scalars import ParamDecl, RATIONALS
from weylmod.umod import (
    FamilyMismatch, PolyVec, act, act_hv, assoc_action_split,
    degree_reduction_witness, omega_d, omega_dnu, omega_hv, omega_vir,
    simplicity_probe, verify_module_axiom,
)

DECL = ParamDecl(invertible=("lambda",), plain=("alpha", "beta"))
LAM = DECL.param("lambda")


def spec_d(eps):
    return omega_d(LAM, eps)


# -- actions ----------------------------------------------------------------


def test_action_examples_eps1():
    s = spec_d(1)
    assert act(D_ALG.d_op(1), s.monomial(1)) == s.monomial(2)
    for m in range(-4, 5):
        got = act(D_ALG.t(m), s.monomial((0,) * s.rank))
        assert got == s.monomial(0, LAM ** m)  # beta = +1


def test_action_examples_eps0():
    s = spec_d(0)
    # beta = -1: D^2 . 1 = -x^2, D^3 . f = x^3 f
    assert act(D_ALG.d_op(2), s.monomial((0,) * s.rank)) == s.monomial(2, -1)
    f = s.monomial(2, Fraction(1, 3)) + s.monomial(0, 5)
    lhs = act(D_ALG.d_op(3), f)
    expect = PolyVec(s, {(e[0] + 3,): c for e, c in f.terms.items()})
    assert lhs == expect
    for m in range(-4, 5):
        assert act(D_ALG.t(m), s.monomial((0,) * s.rank)) == s.monomial(0, -(LAM ** m))


def test_action_requires_matching_rank_and_family():
    s = spec_d(1)
    ctx2 = AlgebraCtx(2)
    with pytest.raises(FamilyMismatch):
        act(ctx2.basis((1, 0), (0, 0)), s.monomial((0,) * s.rank))
    with pytest.raises(FamilyMismatch):
        act(D_ALG.d_op(1), omega_vir(LAM, DECL.zero).monomial(0))


def test_central_annihilates_polynomials():
    from weylmod.liealg import D_HAT
    for eps in (0, 1):
        s = spec_d(eps)
        assert act(D_HAT.center(3), s.monomial(2)).is_zero()
        mixed = D_HAT.center(2) + D_HAT.d_op(1)
        assert act(mixed, s.monomial(1)) == act(D_HAT.d_op(1), s.monomial(1))


def test_bracket_chain_identity_on_module():
    # acting by [D^3, tD] equals acting by 3tD^3 + 3tD^2 + tD up to degree 6
    lhs_op = bracket(D_ALG.d_op(3), D_ALG.basis(1, 1))
    rhs_op = D_ALG.basis(1, 3, 3) + D_ALG.basis(1, 2, 3) + D_ALG.basis(1, 1)
    assert lhs_op == rhs_op
    for eps in (0, 1):
        s = spec_d(eps)
        for d in range(7):
            f = s.monomial(d)
            assert act(lhs_op, f) == act(rhs_op, f)


def test_vir_action():
    alpha = DECL.param("alpha")
    s = omega_vir(LAM, alpha)
    f = s.monomial(2) + s.monomial(0, 3)
    # L_0 f = x f for any alpha
    assert act_hv(s, ("L", 0), f) == PolyVec(s, {(3,): RATIONALS.one, (1,): RATIONALS.rational(3)})
    # L_m 1 = lambda^m (x - m alpha)
    got = act_hv(s, ("L", 2), s.monomial((0,) * s.rank))
    assert got == s.monomial(1, LAM ** 2) + s.monomial(0, -(LAM ** 2) * alpha * 2)


def test_hv_action():
    alpha = DECL.param("alpha")
    beta = DECL.param("beta")
    s = omega_hv(LAM, alpha, beta)
    for m in range(-3, 4):
        assert act_hv(s, ("I", m), s.monomial((0,) * s.rank)) == s.monomial(0, beta * LAM ** m)
    got = act_hv(s, ("L", 1), s.monomial(1))
    # lambda (x - alpha)(x - 1)
    expect = (s.monomial(2, LAM) + s.monomial(1, -(LAM) * (alpha + 1))
              + s.monomial(0, LAM * alpha))
    assert got == expect


def test_rank2_action():
    decl = ParamDecl(invertible=("l1", "l2"))
    s = omega_dnu((decl.param("l1"), decl.param("l2")), 1)
    ctx = AlgebraCtx(2)
    # D1 . x2 = x1 x2
    assert act(ctx.basis((0, 0), (1, 0)), s.monomial((0, 1))) == s.monomial((1, 1))
    # t2^-1 . 1 = l2^-1
    got = act(ctx.basis((0, -1), (0, 0)), s.monomial((0,) * s.rank))
    assert got == s.monomial((0, 0), decl.param("l2", -1))


# -- module axiom -------------------------------------------------------------


@pytest.mark.parametrize("eps", [0, 1])
def test_module_axiom_small(eps):
    rep = verify_module_axiom(spec_d(eps), 2, 2, 3)
    assert rep.ok, rep.counterexample


def test_module_axiom_vir_hv():
    assert verify_module_axiom(omega_vir(LAM, DECL.param("alpha")), 3, 0, 3).ok
    assert verify_module_axiom(
        omega_hv(LAM, DECL.param("alpha"), DECL.param("beta")), 3, 0, 3).ok


def test_module_axiom_detects_corrupted_action():
    # wrong sign structure: eps = 0 formula with beta forced to +1
    s = spec_d(0)

    def corrupted(op, v):
        out = s.zero_vec()
        for (m, n), c in op.terms.items():
            shifted = PolyVec(s, {
                e: cc * c * s.lam_power(m)
                for e, cc in _plain_shift_pow(v, m[0], n[0]).items()
            })
            out = out + shifted
        return out

    def _plain_shift_pow(v, m, n):
        from math import comb
        out = {}
        for (j,), cc in v.terms.items():
            for b in range(j + 1):
                k = comb(j, b) * (-m) ** (j - b)
                if k == 0:
                    continue
                key = (b + n,)
                out[key] = out.get(key, RATIONALS.zero) + cc * k
        return {k: c for k, c in out.items() if not c.is_zero()}

    rep = verify_module_axiom(s, 2, 2, 2, action=corrupted)
    assert not rep.ok
    assert rep.counterexample is not None


def test_rank2_fast_path_matches_direct():
    # the integer fast path against the generic loop over exact actions
    decl = ParamDecl(invertible=("l1", "l2"))
    for eps in (0, 1):
        for spec, bounds in ((spec_d(eps), (2, 2, 3)),
                             (omega_d(RATIONALS.rational(Fraction(-2, 3)), eps), (2, 1, 2)),
                             (omega_dnu((decl.param("l1"), decl.param("l2")), eps), (1, 1, 2))):
            fast = verify_module_axiom(spec, *bounds)
            direct = verify_module_axiom(spec, *bounds, action=act)
            assert fast.ok and direct.ok
            assert fast.checked == direct.checked


def _product_term_by_term(scale):
    """basis_product summed term by term, with the i-th term of
    D^a t^b = sum_i C(a,i) b^i t^b D^(a-i) multiplied by scale(i) in every slot."""
    def product(m1, n1, m2, n2):
        m = tuple(x + y for x, y in zip(m1, m2))
        out = {}
        for idx in iproduct(*[range(a + 1) for a in n1]):
            coeff = 1
            for a, i, b in zip(n1, idx, m2):
                coeff *= comb(a, i) * b ** i * scale(i)
            if coeff:
                n = tuple(a + c - i for a, c, i in zip(n1, n2, idx))
                out[(m, n)] = out.get((m, n), 0) + coeff
        return {k: v for k, v in out.items() if v}
    return product


# wrong per-slot product rules: the i = 2 term dropped (changes no bracket
# with n <= 1), and the i = 1 term doubled (breaks brackets from n = 1 on)
_product_without_second_order_terms = _product_term_by_term(lambda i: i != 2)
_product_with_doubled_first_order_terms = _product_term_by_term(lambda i: 1 + (i == 1))


def _act_term_by_term(eps, m, n, j):
    """prod_i (x_i - eps*m_i)^n_i (x_i - m_i)^j_i, two binomials per slot."""
    per_slot = []
    for mi, ni, ji in zip(m, n, j):
        f = {}
        for a, b in iproduct(range(ni + 1), range(ji + 1)):
            f[a + b] = f.get(a + b, 0) + (comb(ni, a) * (-eps * mi) ** (ni - a)
                                          * comb(ji, b) * (-mi) ** (ji - b))
        per_slot.append(f)
    out = {}
    for combo in iproduct(*[f.items() for f in per_slot]):
        exps = tuple(e for e, _ in combo)
        out[exps] = out.get(exps, 0) + prod(c for _, c in combo)
    return {e: c for e, c in out.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    *[st.tuples(*[st.integers(lo, hi)] * r) for lo, hi in ((-6, 6), (0, 7), (-6, 6), (0, 7))])),
    st.integers(0, 1))
def test_structure_constants_match_term_by_term_sums(case, eps):
    # the per-slot shift and slot product against the binomial sums; dict
    # equality, so a stored zero coefficient fails too
    m1, n1, m2, n2 = case
    assert basis_product(m1, n1, m2, n2) == _product_term_by_term(lambda i: 1)(m1, n1, m2, n2)
    assert U._basis_act_ints(eps, m1, n1, n2) == _act_term_by_term(eps, m1, n1, n2)


@pytest.mark.parametrize("eps", [0, 1])
def test_fast_path_detects_wrong_product_rule(eps, monkeypatch):
    from weylmod import liealg
    monkeypatch.setattr(liealg, "basis_product", _product_without_second_order_terms)
    decl = ParamDecl(invertible=("l1", "l2"))
    for spec, bounds in ((spec_d(eps), (2, 2, 3)),
                         (omega_dnu((decl.param("l1"), decl.param("l2")), eps), (1, 2, 2))):
        fast = verify_module_axiom(spec, *bounds)
        assert not fast.ok
        # the same first failing pair, monomial, values and check count as the loop
        direct = verify_module_axiom(spec, *bounds, action=act)
        assert not direct.ok
        assert fast.checked == direct.checked
        assert fast.counterexample == direct.counterexample
        a, b, f, lhs, rhs = fast.counterexample
        assert lhs is not None and rhs is not None and lhs != rhs
        # the count is pair index * monomials + monomial index + 1
        labels = [la for la, _ in U._family_generators(spec, *bounds[:2])]
        pairs = [(x, y) for i, x in enumerate(labels) for y in labels[i:]]
        monos = [spec.monomial(e) for e in iproduct(*[range(bounds[2] + 1)] * spec.rank)
                 if sum(e) <= bounds[2]]
        assert fast.checked == pairs.index((a, b)) * len(monos) + monos.index(f) + 1


def _exact_axiom_flags(spec, m_bound, n_bound, deg):
    """Per pair a <= b in ``verify_module_axiom``'s order: does some monomial
    break [a, b].f = a.(b.f) - b.(a.f), compared exactly?"""
    ctx = AlgebraCtx(spec.rank, central=False)
    ops = [ctx.basis(m, n) for m in iproduct(range(-m_bound, m_bound + 1), repeat=spec.rank)
           for n in iproduct(range(n_bound + 1), repeat=spec.rank)]
    monos = [spec.monomial(e) for e in iproduct(range(deg + 1), repeat=spec.rank)
             if sum(e) <= deg]
    once = [[act(a, f) for f in monos] for a in ops]
    return [any(act(bracket(a, ops[j]), f) != act(a, once[j][k]) - act(ops[j], once[i][k])
                for k, f in enumerate(monos))
            for i, a in enumerate(ops) for j in range(i, len(ops))]


@pytest.mark.parametrize("eps", [0, 1])
def test_axiom_certificate_flags_exactly_the_failing_pairs(eps, monkeypatch):
    from weylmod import liealg
    monkeypatch.setattr(liealg, "basis_product", _product_without_second_order_terms)
    q = RATIONALS.rational
    for spec, bounds in ((omega_d(q(Fraction(-2, 3)), eps), (2, 2, 3)),
                         (omega_dnu((q(2), q(Fraction(1, 3))), eps), (1, 2, 2))):
        flags = U._verify_axiom_dnu_fast(spec, *bounds)
        want = _exact_axiom_flags(spec, *bounds)
        assert any(want)
        assert flags.tolist() == want


def _hv_specs():
    """vir and hv modules with symbolic, rational and zero parameters."""
    alpha, beta = DECL.param("alpha"), DECL.param("beta")
    q = RATIONALS.rational
    return [omega_vir(LAM, alpha), omega_hv(LAM, alpha, beta),
            omega_vir(q(Fraction(-2, 3)), q(Fraction(1, 2))),
            omega_hv(q(3), q(-1), q(Fraction(5, 7))),
            omega_hv(LAM, q(0), q(0)), omega_hv(q(Fraction(1, 2)), alpha, q(2))]


def _hv_loop(spec, *bounds):
    return verify_module_axiom(spec, *bounds, action=lambda g, f: act_hv(spec, g, f))


@pytest.mark.parametrize("bounds", [(2, 0, 3), (3, 1, 2), (1, 0, 0)])
def test_hv_fast_path_matches_loop(bounds):
    for spec in _hv_specs():
        fast = verify_module_axiom(spec, *bounds)
        loop = _hv_loop(spec, *bounds)
        assert fast.ok and loop.ok
        assert fast.checked == loop.checked
        # the formal tables agree on every pair: no pair needs the exact loop
        gens = [g for _, g in U._family_generators(spec, bounds[0], bounds[1])]
        assert not U._hv_formal_mismatches(spec.family, gens, bounds[0], bounds[2]).any()


def test_hv_action_table_matches_act_hv():
    alpha, beta = DECL.param("alpha"), DECL.param("beta")
    spec = omega_hv(LAM, alpha, beta)
    table = U._hv_action_table(("L", "I"), 2, 3)
    for m in range(-2, 3):
        for t, kind in enumerate(("L", "I")):
            for j in range(4):
                got = spec.zero_vec()
                for e, i, k in iproduct(range(5), range(2), range(2)):
                    c = int(table[2 * (m + 2) + t, e, j, i, k])
                    got = got + spec.monomial(e, LAM ** m * alpha ** i * beta ** k * c)
                assert got == act_hv(spec, (kind, m), spec.monomial(j))


_REAL_HV_BRACKET = U._hv_bracket_terms


def _wrong_sign_bracket(g1, g2):
    """[L_m, I_n] = -n I_{m+n}: a wrong sign on the mixed bracket."""
    terms = _REAL_HV_BRACKET(g1, g2)
    if g1[0] == "L" and g2[0] == "I":
        return [(g, -k) for g, k in terms]
    return terms


def _central_ii_bracket(g1, g2):
    """[I_m, I_n] = I_{m+n} instead of 0: wrong unless beta = 0."""
    if g1[0] == g2[0] == "I":
        return [(("I", g1[1] + g2[1]), Fraction(1))]
    return _REAL_HV_BRACKET(g1, g2)


@pytest.mark.parametrize("mutant", [_wrong_sign_bracket, _central_ii_bracket])
def test_hv_fast_path_reports_the_loop_failure(mutant, monkeypatch):
    monkeypatch.setattr(U, "_hv_bracket_terms", mutant)
    q = RATIONALS.rational
    for spec in (omega_hv(LAM, DECL.param("alpha"), DECL.param("beta")),
                 omega_hv(q(Fraction(-2, 3)), q(Fraction(1, 2)), q(3))):
        fast = verify_module_axiom(spec, 2, 0, 3)
        loop = _hv_loop(spec, 2, 0, 3)
        assert not fast.ok and not loop.ok
        assert fast.checked == loop.checked
        assert fast.counterexample == loop.counterexample


def test_hv_formal_mismatch_with_equal_values_passes(monkeypatch):
    # with beta = 0 the bracket [I_m, I_n] = I_{m+n} acts by 0: the formal
    # tables differ, the values agree, and the verdict is the loop's
    monkeypatch.setattr(U, "_hv_bracket_terms", _central_ii_bracket)
    q = RATIONALS.rational
    spec = omega_hv(q(Fraction(3, 2)), q(Fraction(-1, 4)), q(0))
    fast = verify_module_axiom(spec, 2, 0, 3)
    loop = _hv_loop(spec, 2, 0, 3)
    assert fast.ok and loop.ok
    assert fast.checked == loop.checked


def _split_loop(spec, *bounds):
    return assoc_action_split(spec, *bounds, action=act)


@pytest.mark.parametrize("eps", [0, 1])
def test_assoc_split_fast_path_matches_loop(eps):
    for lam in (LAM, RATIONALS.rational(Fraction(-2, 3))):
        spec = omega_d(lam, eps)
        for bounds in ((2, 2, 2), (1, 3, 3), (2, 0, 1)):
            fast = assoc_action_split(spec, *bounds)
            assert fast == _split_loop(spec, *bounds)
            assert fast[0] == (eps == 1)


@pytest.mark.parametrize("eps", [0, 1])
def test_assoc_split_fast_path_detects_wrong_product_rule(eps, monkeypatch):
    from weylmod import liealg
    monkeypatch.setattr(liealg, "basis_product", _product_without_second_order_terms)
    spec = spec_d(eps)
    fast = assoc_action_split(spec, 2, 2, 3)
    loop = _split_loop(spec, 2, 2, 3)
    assert not fast[0]
    # the first failing pair and monomial in the loop's order, with its values
    assert fast == loop


def _refuse(bound, dtype, what):
    raise slots.BoundsTooLarge(f"{what} refused")


def test_refused_tables_fall_back_to_the_exact_loop(monkeypatch):
    calls = []
    real_act_hv = U.act_hv

    def counted(*args):
        calls.append(args)
        return real_act_hv(*args)

    monkeypatch.setattr(U, "act_hv", counted)
    monkeypatch.setattr(slots, "check_exact", _refuse)
    spec = omega_hv(LAM, DECL.param("alpha"), DECL.param("beta"))
    refused = verify_module_axiom(spec, 2, 0, 2)
    assert refused.ok and calls
    assert refused.checked == _hv_loop(spec, 2, 0, 2).checked
    monkeypatch.setattr(U, "_hv_bracket_terms", _wrong_sign_bracket)
    refused = verify_module_axiom(spec, 2, 0, 2)
    loop = _hv_loop(spec, 2, 0, 2)
    assert not refused.ok
    assert (refused.checked, refused.counterexample) == (loop.checked, loop.counterexample)
    for eps in (0, 1):
        assert assoc_action_split(spec_d(eps), 1, 2, 2) == _split_loop(spec_d(eps), 1, 2, 2)


def _param(draw, name, invertible=False):
    if draw(st.booleans()):
        return DECL.param(name)
    num = draw(st.integers(-4, 4).filter(lambda k: k or not invertible))
    return RATIONALS.rational(Fraction(num, draw(st.integers(1, 3))))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fast_paths_match_loops_on_random_bounds(data):
    draw = data.draw
    lam = _param(draw, "lambda", invertible=True)
    m_bound, n_bound, deg = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    alpha = _param(draw, "alpha")
    spec = (omega_hv(lam, alpha, _param(draw, "beta")) if draw(st.booleans())
            else omega_vir(lam, alpha))
    fast = verify_module_axiom(spec, m_bound, n_bound, deg)
    loop = _hv_loop(spec, m_bound, n_bound, deg)
    assert (fast.ok, fast.checked) == (loop.ok, loop.checked)
    spec = omega_d(lam, draw(st.integers(0, 1)))
    assert assoc_action_split(spec, m_bound, n_bound, deg) == \
        _split_loop(spec, m_bound, n_bound, deg)
    # the d/dnu Gram-norm path against the action= loop, rank 1 and rank 2
    fast = verify_module_axiom(spec, m_bound, n_bound, deg)
    loop = verify_module_axiom(spec, m_bound, n_bound, deg, action=act)
    assert (fast.ok, fast.checked) == (loop.ok, loop.checked)
    spec = omega_dnu((lam, _param(draw, "lambda", invertible=True)), spec.eps)
    small = (min(m_bound, 1), min(n_bound, 1), min(deg, 1))
    fast = verify_module_axiom(spec, *small)
    loop = verify_module_axiom(spec, *small, action=act)
    assert (fast.ok, fast.checked) == (loop.ok, loop.checked)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_axiom_certificate_matches_loop_on_random_bounds_with_a_wrong_product(data):
    # the d/dnu Gram-norm path against the action= loop under a wrong
    # product rule: the same verdict, check count and first counterexample.
    # The second-order mutant breaks pairs only from n = 2 on, so rank 2
    # (n <= 1) fails only under the first-order one.
    from weylmod import liealg
    draw = data.draw
    mutant = draw(st.sampled_from([_product_without_second_order_terms,
                                   _product_with_doubled_first_order_terms]))
    eps = draw(st.integers(0, 1))
    lam = _param(draw, "lambda", invertible=True)
    cases = [(omega_d(lam, eps), (draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                                  draw(st.integers(0, 3)))),
             (omega_dnu((lam, _param(draw, "lambda", invertible=True)), eps),
              tuple(draw(st.integers(0, 1)) for _ in range(3)))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liealg, "basis_product", mutant)
        for spec, bounds in cases:
            fast = verify_module_axiom(spec, *bounds)
            loop = verify_module_axiom(spec, *bounds, action=act)
            assert (fast.ok, fast.checked, fast.counterexample) == \
                (loop.ok, loop.checked, loop.counterexample)


@pytest.mark.parametrize("eps", [0, 1])
def test_first_order_mutant_fails_rank2_at_the_smallest_bounds(eps, monkeypatch):
    from weylmod import liealg
    spec = omega_dnu((RATIONALS.rational(2), RATIONALS.rational(Fraction(1, 3))), eps)
    monkeypatch.setattr(liealg, "basis_product", _product_without_second_order_terms)
    assert verify_module_axiom(spec, 1, 1, 1).ok
    monkeypatch.setattr(liealg, "basis_product", _product_with_doubled_first_order_terms)
    fast = verify_module_axiom(spec, 1, 1, 1)
    loop = verify_module_axiom(spec, 1, 1, 1, action=act)
    assert (fast.ok, fast.checked) == (False, 4)
    assert (fast.ok, fast.checked, fast.counterexample) == \
        (loop.ok, loop.checked, loop.counterexample)


def _flag_every_pair(real):
    """A fast path that clears no pair: the exact loop compares them all."""
    return lambda *args: np.ones(len(real(*args)), dtype=bool)


def test_fast_paths_flagging_every_pair_still_pass(monkeypatch):
    spec2 = omega_dnu((RATIONALS.rational(Fraction(-2, 3)), LAM), 0)
    cases = [(spec_d(0), (2, 2, 2)), (spec2, (1, 1, 1)),
             (omega_hv(LAM, DECL.param("alpha"), DECL.param("beta")), (2, 0, 2)),
             (omega_vir(LAM, DECL.param("alpha")), (2, 0, 3))]
    want = [verify_module_axiom(spec, *bounds).checked for spec, bounds in cases]
    split = [assoc_action_split(spec_d(eps), 1, 2, 2) for eps in (0, 1)]
    for name in ("_verify_axiom_dnu_fast", "_hv_formal_mismatches", "_assoc_split_mismatches"):
        monkeypatch.setattr(U, name, _flag_every_pair(getattr(U, name)))
    for (spec, bounds), checked in zip(cases, want):
        rep = verify_module_axiom(spec, *bounds)
        assert (rep.ok, rep.checked, rep.counterexample) == (True, checked, None)
    assert [assoc_action_split(spec_d(eps), 1, 2, 2) for eps in (0, 1)] == split


# -- irreducibility ------------------------------------------------------------


@pytest.mark.parametrize("eps", [0, 1])
def test_degree_reduction_monomials(eps):
    s = spec_d(eps)
    assert degree_reduction_witness(s, s.monomial((0,) * s.rank)) == []
    chain = degree_reduction_witness(s, s.monomial(1))
    assert len(chain) == 1
    assert chain[-1][1] == s.monomial(0, -1)
    chain = degree_reduction_witness(s, s.monomial(2))
    assert len(chain) == 2
    assert chain[-1][1] == s.monomial(0, 2)
    for d in range(3, 9):
        chain = degree_reduction_witness(s, s.monomial(d))
        assert len(chain) == d
        final = chain[-1][1]
        assert final.degree() == 0 and not final.is_zero()


def test_degree_reduction_zero_rejected():
    with pytest.raises(ValueError):
        degree_reduction_witness(spec_d(1), spec_d(1).zero_vec())


def test_degree_reduction_steps_are_exact_differences():
    s = spec_d(0)
    f = s.monomial(3) + s.monomial(1, -2)
    chain = degree_reduction_witness(s, f)
    assert len(chain) == 3
    step_op, first = chain[0]
    # the step operator realizes f(x-1) - f(x)
    assert act(step_op, f) == first


def test_simplicity_probe_reducible_families():
    decl = ParamDecl(invertible=("lambda",))
    lam = decl.param("lambda")
    rep = simplicity_probe(omega_hv(lam, decl.zero, decl.zero), 6)
    assert rep.reducible and rep.seed == (1,)
    # witness vectors all lie in x C[x]
    for row in rep.witness:
        assert all(e[0] >= 1 for e in row)
    rep = simplicity_probe(omega_vir(lam, decl.zero), 6)
    assert rep.reducible


def test_simplicity_probe_simple_families():
    decl = ParamDecl(invertible=("lambda",), plain=("alpha", "beta"))
    lam = decl.param("lambda")
    for eps in (0, 1):
        assert not simplicity_probe(omega_d(lam, eps), 6).reducible
    # generic symbolic alpha keeps the vir family simple
    assert not simplicity_probe(omega_vir(lam, decl.param("alpha")), 5).reducible


def test_assoc_split():
    ok1, none = assoc_action_split(spec_d(1), 3, 3, 3)
    assert ok1 and none is None
    ok0, counter = assoc_action_split(spec_d(0), 3, 3, 3)
    assert not ok0 and counter is not None
    a, b, f, lhs, rhs = counter
    from weylmod.umod import act as act_fn
    from weylmod.liealg import assoc_product
    assert act_fn(assoc_product(a, b), f) != act_fn(a, act_fn(b, f))


# -- printing -------------------------------------------------------------------


def test_polyvec_printing():
    s = spec_d(1)
    v = s.monomial(2) + s.monomial(1, -2) + s.monomial(0, LAM)
    assert str(v) == "x^2 - 2*x + lambda"
    decl = ParamDecl(plain=("h0",))
    w = s.monomial(1, decl.param("h0") + 1)
    assert str(w) == "(h0 + 1)*x"


@pytest.mark.parametrize("failing,detail", [
    (0, "d-family eps=1: ('a', 'b', 'f')"), (1, "d-family eps=0: ('a', 'b', 'f')"),
    (2, "hv family"), (3, "vir family"), (4, "rank-2 eps=1"), (5, "rank-2 eps=0"),
], ids=["d-eps1", "d-eps0", "hv", "vir", "dnu-eps1", "dnu-eps0"])
def test_module_axiom_suite_reports_the_first_failing_family(monkeypatch, failing, detail):
    from weylmod import verify as V
    seen = []

    def fake(spec, *bounds):
        seen.append((spec.family, spec.eps))
        ok = len(seen) - 1 != failing
        return U.AxiomReport(ok, 10, None if ok else ("a", "b", "f", "lhs", "rhs"))

    monkeypatch.setattr(U, "verify_module_axiom", fake)
    res = V.suite_module_axiom()
    assert (res.ok, res.checks, res.detail) == (False, 10 * (failing + 1), detail)
    families = [("d", 1), ("d", 0), ("hv", None), ("vir", None), ("dnu", 1), ("dnu", 0)]
    assert seen == families[:failing + 1]
