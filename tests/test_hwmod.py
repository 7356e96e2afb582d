from fractions import Fraction
from math import comb

import pytest

from weylmod.hwmod import (
    HWSpec, LevelOverflow, Quasipolynomial, act_verma, h_from_phi,
    monomial_level, singular_vectors, verma_basis, weight_of,
    weight_space_dims,
)
from weylmod.liealg import D_HAT, bracket
from weylmod.scalars import ParamDecl, RATIONALS, SpanBasis


def bernoulli(n):
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(comb(m + 1, j) * out[j] for j in range(m))
        out.append(-Fraction(s, m + 1))
    return out


PHI_X = Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])


# -- quasipolynomials and weight sequences --------------------------------------


def test_h_from_phi_is_bernoulli():
    spec = HWSpec(RATIONALS.zero, PHI_X)
    bern = bernoulli(8)
    for n in range(9):
        assert h_from_phi(spec, n) == RATIONALS.rational(-bern[n])


def test_h_sequence_is_bernoulli_to_60():
    spec = HWSpec(RATIONALS.zero, PHI_X)
    bern = bernoulli(60)
    for n in range(61):
        assert spec.h(n) == RATIONALS.rational(-bern[n])


def test_h_sequence_reuses_the_longest_series(monkeypatch):
    import weylmod.hwmod as H

    calls = []
    original = H.series_quotient

    def counted(num, den):
        calls.append(num.order)
        return original(num, den)

    monkeypatch.setattr(H, "series_quotient", counted)
    spec = HWSpec(RATIONALS.zero, PHI_X)
    for n in range(61):
        spec.h(n)
    assert len(calls) <= 8
    # every smaller order is a truncation of the kept series
    assert spec.delta_series(5) == spec.delta_series(60).truncate(5)
    assert spec.delta_series(5).order == 5


def test_h_sequence_is_independent_of_the_query_order():
    bern = bernoulli(60)
    backwards = HWSpec(RATIONALS.zero, PHI_X)
    assert backwards.h(60) == RATIONALS.rational(-bern[60])
    forwards = HWSpec(RATIONALS.zero, PHI_X)
    got_forwards = [forwards.h(n) for n in (3, 10, 60)]
    assert [backwards.h(n) for n in (3, 10, 60)] == got_forwards
    assert got_forwards[0] == RATIONALS.rational(-bern[3])
    # a generic phi: the truncated series is the same whatever came first
    gen_a, gen_b = HWSpec.generic(6), HWSpec.generic(6)
    seq_a = [gen_a.h(n) for n in range(7)]
    seq_b = [gen_b.h(n) for n in reversed(range(7))][::-1]
    assert seq_a == seq_b


def test_h_from_phi_exponential():
    # phi = e^x - 1: the quotient series is 1, so h_0 = -1 and h_n = 0
    phi = Quasipolynomial([
        ((RATIONALS.rational(-1),), RATIONALS.zero),
        ((RATIONALS.one,), RATIONALS.one),
    ])
    spec = HWSpec(RATIONALS.zero, phi)
    assert spec.h(0) == RATIONALS.rational(-1)
    for n in range(1, 6):
        assert spec.h(n).is_zero()


def test_h_from_phi_zero():
    spec = HWSpec(RATIONALS.zero, Quasipolynomial.zero())
    assert all(spec.h(n).is_zero() for n in range(6))


def test_phi_must_vanish_at_zero():
    with pytest.raises(ValueError):
        HWSpec(RATIONALS.zero, Quasipolynomial.poly([RATIONALS.one]))


def test_quasipolynomial_distinct_exponents():
    with pytest.raises(ValueError):
        Quasipolynomial([
            ((RATIONALS.one,), RATIONALS.one),
            ((RATIONALS.rational(-1),), RATIONALS.one),
        ])


def test_symbolic_exponent_expansion():
    decl = ParamDecl(plain=("a",))
    a = decl.param("a")
    # phi = x * e^(a x): h_n are polynomials in a
    phi = Quasipolynomial([((decl.zero, decl.one), a)])
    spec = HWSpec(decl.zero, phi)
    # Delta = x e^(ax)/(e^x - 1); h_1 = -[x](...) * 1 = -(a - 1/2)... check
    # against a direct series computation
    from weylmod.scalars import exp_series, series_quotient, Series
    order = 5
    num = phi.series(order)
    ex = exp_series(RATIONALS.one, order)
    den = ex - Series(order, tuple(RATIONALS.one if k == 0 else RATIONALS.zero
                                   for k in range(order + 1)))
    q = series_quotient(num, den)
    fact = 1
    for n in range(order):
        assert spec.h(n) == -(q[n] * fact)
        fact *= n + 1


def test_generic_weights_are_independent():
    gen = HWSpec.generic(4)
    # h_0..h_4 involve the distinct parameters b1..b5 triangularly
    seen = set()
    for n in range(5):
        names = {nm for mono in gen.h(n).terms for nm, _ in mono}
        assert f"b{n + 1}" in names
        seen |= names
    assert {f"b{i}" for i in range(1, 6)} <= seen


# -- truncated Verma bases -------------------------------------------------------


def test_basis_enumeration():
    spec = HWSpec(RATIONALS.zero, PHI_X)
    tv = verma_basis(spec, 0, 3)
    assert tv.basis() == [()]
    tv = verma_basis(spec, 1, 1)
    assert tv.basis() == [(), ((1, 0),), ((1, 1),)]
    tv = verma_basis(spec, 2, 0)
    assert tv.basis() == [(), ((1, 0),), ((1, 0), (1, 0)), ((2, 0),)]
    tv = verma_basis(spec, 2, 1)
    assert len(tv.basis()) == 8
    assert all(monomial_level(m) <= 2 for m in tv.basis())


def test_basis_is_deterministic():
    spec = HWSpec(RATIONALS.zero, PHI_X)
    assert verma_basis(spec, 3, 2).basis() == verma_basis(spec, 3, 2).basis()


# -- straightening ----------------------------------------------------------------


def test_act_verma_examples():
    gen = HWSpec.generic(6)
    tv = verma_basis(gen, 2, 2)
    v = tv.elem({((1, 0),): 1})
    # D (t^-1 1) = (h_1 - 1) t^-1 1
    assert act_verma(D_HAT.d_op(1), v) == v.scale(gen.h(1) - 1)
    # tD (t^-1 1) = -h_0 1
    assert act_verma(D_HAT.basis(1, 1), v) == tv.vacuum().scale(-gen.h(0))
    # C v = c v on every basis vector
    for mono in tv.basis():
        w = tv.elem({mono: 1})
        assert act_verma(D_HAT.center(), w) == w.scale(gen.c)


def test_vacuum_annihilated_by_positive_part():
    gen = HWSpec.generic(4)
    tv = verma_basis(gen, 2, 2)
    for m in range(1, 4):
        for n in range(3):
            assert act_verma(D_HAT.basis(m, n), tv.vacuum()).is_zero()


def test_dk_weights():
    gen = HWSpec.generic(8)
    tv = verma_basis(gen, 1, 0)
    for k in range(7):
        assert act_verma(D_HAT.d_op(k), tv.vacuum()) == tv.vacuum().scale(gen.h(k))


def test_level_overflow_raised():
    gen = HWSpec.generic(2)
    tv = verma_basis(gen, 1, 1)
    with pytest.raises(LevelOverflow):
        act_verma(D_HAT.t(-1), tv.elem({((1, 0),): 1}))


def test_straightening_bracket_compatibility_sample():
    gen = HWSpec.generic(8)
    window = verma_basis(gen, 2, 2)
    host = verma_basis(gen, 6, 2)
    pairs = [((1, 2), (-1, 1)), ((2, 0), (-2, 2)), ((0, 2), (-1, 2)),
             ((1, 1), (-2, 0)), ((2, 2), (-2, 2))]
    for (m1, n1), (m2, n2) in pairs:
        a, b = D_HAT.basis(m1, n1), D_HAT.basis(m2, n2)
        br = bracket(a, b)
        for mono in window.basis():
            v = host.elem({mono: 1})
            lhs = act_verma(br, v)
            rhs = act_verma(a, act_verma(b, v)) - act_verma(b, act_verma(a, v))
            assert lhs == rhs


def test_order_can_exceed_the_enumeration_bound():
    # the action is exact: straightening may produce orders above N
    gen = HWSpec.generic(6)
    tv = verma_basis(gen, 2, 1)
    out = act_verma(D_HAT.d_op(2), tv.elem({((1, 1),): 1}))
    assert any(n > 1 for mono in out.terms for _, n in mono)


# -- singular vectors --------------------------------------------------------------


def test_singular_level0():
    gen = HWSpec.generic(3)
    rep = singular_vectors(verma_basis(gen, 1, 1), 0, 3)
    assert len(rep.vectors) == 1
    assert rep.vectors[0].terms == {(): RATIONALS.one}


def test_singular_generic_level1_empty():
    gen = HWSpec.generic(6)
    rep = singular_vectors(verma_basis(gen, 1, 0), 1, 2)
    assert rep.vectors == []


def test_singular_trivial_weights_full_level1():
    triv = HWSpec(RATIONALS.zero, Quasipolynomial.zero())
    tv = verma_basis(triv, 2, 1)
    rep = singular_vectors(tv, 1, 3)
    assert len(rep.vectors) == 2
    for v in rep.vectors:
        w = weight_of(v)
        assert w is not None
        # positives annihilate up to the checked order
        for mm in range(4):
            assert act_verma(D_HAT.basis(1, mm), v).is_zero()


def test_singular_vector_with_symbolic_charge_stays_small():
    # phi = x with a symbolic central charge has one singular vector at
    # level 2; it prints with 2,295 characters, and the bound catches an
    # elimination that multiplies every denominator into every entry
    # (that printed it with 141,984)
    decl = ParamDecl(plain=("c",))
    tv = verma_basis(HWSpec(decl.param("c"), PHI_X), 2, 2)
    rep = singular_vectors(tv, 2, 1)
    assert len(rep.vectors) == 1
    v = rep.vectors[0]
    for j in range(1, 3):
        for mm in range(2):
            assert act_verma(D_HAT.basis(j, mm), v).is_zero()
    assert len(str(v)) < 10_000


def test_weight_space_dims():
    triv = HWSpec(RATIONALS.zero, Quasipolynomial.zero())
    tv = verma_basis(triv, 2, 1)
    assert weight_space_dims(tv, []) == [1, 2, 5]
    rep = singular_vectors(tv, 1, 3)
    dims = weight_space_dims(tv, rep.vectors)
    assert dims[1] == 0
    gen = HWSpec.generic(4)
    assert weight_space_dims(verma_basis(gen, 1, 2), []) == [1, 3]


def _per_level_weight_space_dims(tv, singulars):
    """weight_space_dims with one SpanBasis and one frontier per level: the
    reference for the single closure."""
    L, N = tv.level_bound, tv.order_bound
    ops = [(m, n) for m in range(-L, L + 1) for n in range(N + 2)]
    order_cap = 2 * N + 2

    def order_ok(elem):
        return all(n <= order_cap for mono in elem.terms for _, n in mono)

    closures = {lv: SpanBasis() for lv in range(L + 1)}
    frontier = []
    for s in singulars:
        for lv, comp in s.level_components().items():
            if closures[lv].add(comp.terms):
                frontier.append((lv, comp))
    while frontier:
        new = []
        for lv, v in frontier:
            for (m, n) in ops:
                if lv - m < 0 or lv - m > L:
                    continue
                w = act_verma(D_HAT.basis(m, n), v)
                if w.is_zero() or not order_ok(w):
                    continue
                if closures[lv - m].add(w.terms):
                    new.append((lv - m, w))
        frontier = new
    return [sum(1 for mono in tv.basis_at_level(lv)
                if closures[lv].add({mono: RATIONALS.one}))
            for lv in range(L + 1)]


def _vector_sets(tv):
    """Vector sets with components at one level and at two."""
    sets = [[], [tv.elem({((1, 0),): 1, ((2, 0),): 1})],
            [tv.elem({((1, 1),): 2, ((1, 0), (1, 0)): -1}), tv.elem({((2, 1),): 1})]]
    vs = singular_vectors(tv, 1, tv.order_bound + 2).vectors
    if vs:
        # the level-2 parts t^-1 w lie in the submodule the singulars generate
        lift = [v + act_verma(D_HAT.t(-1), w) for v, w in zip(vs, reversed(vs))]
        sets += [vs, lift, [vs[0] + tv.elem({((2, 0),): 1})]]
    return sets


@pytest.mark.parametrize("spec,order", [
    (HWSpec(RATIONALS.zero, Quasipolynomial.zero()), 1),
    (HWSpec(RATIONALS.zero, PHI_X), 3),
    (HWSpec.generic(4), 1),
], ids=["trivial", "phi=x", "generic"])
def test_weight_space_dims_match_the_per_level_closures(spec, order):
    tv = verma_basis(spec, 2, order)
    for singulars in _vector_sets(tv):
        assert weight_space_dims(tv, singulars) == _per_level_weight_space_dims(tv, singulars)


def test_weight_of_rejects_non_weight_vectors():
    gen = HWSpec.generic(4)
    tv = verma_basis(gen, 2, 1)
    v = tv.elem({((1, 0),): 1, ((2, 0),): 1})  # mixes levels 1 and 2
    assert weight_of(v) is None
