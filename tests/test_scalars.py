from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weylmod.scalars import (
    NonInvertibleParameter, ParamDecl, RATIONALS, Scalar,
    ScalarDivisionError, Series, SeriesError, SparseVec, SpanBasis,
    exp_series, series_quotient, solve_linear,
)

DECL = ParamDecl(invertible=("lambda",), plain=("a",))
LAM = DECL.param("lambda")
A = DECL.param("a")


# -- strategies -------------------------------------------------------------

fracs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)


@st.composite
def scalars(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    s = DECL.zero
    for _ in range(n):
        le = draw(st.integers(-3, 3))
        ae = draw(st.integers(0, 3))
        c = draw(fracs)
        s = s + (LAM ** le) * (A ** ae) * c
    return s


# -- basic ring behaviour -----------------------------------------------------


def test_additive_identity():
    assert LAM + DECL.zero == LAM


def test_declared_unit_cancellation():
    assert LAM * LAM.inverse() == DECL.one
    assert LAM ** -1 == LAM.inverse()


def test_rational_inverse():
    assert RATIONALS.rational(Fraction(2, 3)) * Fraction(3, 2) == RATIONALS.one


def test_no_zero_terms_stored():
    s = LAM - LAM
    assert s.terms == {}
    assert s.is_zero()


def test_plain_parameter_rejects_negative_power():
    with pytest.raises(NonInvertibleParameter):
        DECL.param("a", -1)
    with pytest.raises(NonInvertibleParameter):
        A.inverse()


def test_mixed_declarations_rejected():
    other = ParamDecl(plain=("b",))
    with pytest.raises(ValueError):
        _ = LAM + other.param("b")


def test_rational_scalars_coerce_across_declarations():
    assert LAM + RATIONALS.one == LAM + 1


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_exact_div_roundtrip(a):
    d = LAM ** 2 * 3 + A
    assert (a * d).exact_div(d) == a


def test_exact_div_failure():
    with pytest.raises(ScalarDivisionError):
        (A + 1).exact_div(A * A + 1)


def test_canonical_string():
    s = (LAM ** -2) * Fraction(3, 2) * A - 1
    assert str(s) == "3/2*a*lambda^-2 - 1"
    assert str(DECL.zero) == "0"


# -- canonical coefficients against a Fraction-only reference ----------------
#
# The reference is a {monomial: Fraction} dict; every Scalar result must
# match it, with each stored coefficient an int exactly when it is integral.


def _mono(le, ae):
    return tuple(p for p in (("a", ae), ("lambda", le)) if p[1])


small_coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4),
    # a Fraction that is really an integer must still be stored as an int
    st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)),
)


@st.composite
def raw_terms(draw, max_terms=4):
    keys = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                         max_size=max_terms, unique=True))
    return {_mono(le, ae): draw(small_coeffs) for le, ae in keys}


def _ref(terms):
    return {m: Fraction(c) for m, c in terms.items() if c}


def _ref_add(x, y):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(x, y):
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            exps = dict(ma)
            for n, e in mb:
                exps[n] = exps.get(n, 0) + e
            m = tuple(sorted((n, e) for n, e in exps.items() if e))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def _assert_canonical(s, ref):
    assert _ref(s.terms) == ref
    for c in s.terms.values():
        assert type(c) in (int, Fraction)
        assert c != 0
        assert (type(c) is int) == (Fraction(c).denominator == 1)


@settings(max_examples=150, deadline=None)
@given(raw_terms(), raw_terms(), st.integers(0, 3))
def test_canonical_ring_operations_match_fraction_reference(ta, tb, k):
    a, b = Scalar(DECL, ta), Scalar(DECL, tb)
    ra, rb = _ref(ta), _ref(tb)
    _assert_canonical(a, ra)
    _assert_canonical(a + b, _ref_add(ra, rb))
    _assert_canonical(a - b, _ref_add(ra, {m: -c for m, c in rb.items()}))
    _assert_canonical(-a, {m: -c for m, c in ra.items()})
    _assert_canonical(a * b, _ref_mul(ra, rb))
    power = {(): Fraction(1)}
    for _ in range(k):
        power = _ref_mul(power, ra)
    _assert_canonical(a ** k, power)


@settings(max_examples=150, deadline=None)
@given(raw_terms(), st.one_of(raw_terms(), small_coeffs), st.booleans())
def test_subtraction_is_adding_the_negation(ta, tb, rational_decl):
    # a - b merges in one pass; it must equal a + (-b) in value, stored
    # form and declaration, for Scalar, int and Fraction operands on either
    # side, across declarations too
    a = Scalar(DECL, ta)
    if isinstance(tb, dict):
        b = Scalar(RATIONALS if rational_decl and set(tb) <= {()} else DECL, tb)
        rb = _ref(tb)
    else:
        b = tb
        rb = _ref({(): tb})
    ra = _ref(ta)
    for diff, neg_sum, want in ((a - b, a + (-b), _ref_add(ra, {m: -c for m, c in rb.items()})),
                                (b - a, b + (-a), _ref_add(rb, {m: -c for m, c in ra.items()}))):
        assert type(diff) is Scalar and diff == neg_sum
        assert diff.decl == neg_sum.decl
        _assert_canonical(diff, want)


def _element_builders():
    """(name, build(terms, central), label pool) for the four SparseVec
    element types; ``central`` only reaches the DiffOp."""
    from weylmod.hwmod import HWSpec, Quasipolynomial, VermaElem, verma_basis
    from weylmod.liealg import D_HAT, DiffOp
    from weylmod.tensor import TensorElem, TensorSpec
    from weylmod.umod import PolyVec, omega_d

    omega = omega_d(LAM, 1)
    hw = verma_basis(HWSpec(A, Quasipolynomial.poly([DECL.zero, DECL.one])), 2, 1)
    tensor = TensorSpec(omega, hw)
    return [
        ("poly", lambda t, c: PolyVec(omega, t), [(e,) for e in range(4)]),
        ("diffop", lambda t, c: DiffOp(D_HAT, t, c),
         [((m,), (n,)) for m in (-1, 0, 2) for n in (0, 1)]),
        ("verma", lambda t, c: VermaElem(hw, t), hw.basis()[:5]),
        ("tensor", lambda t, c: TensorElem(tensor, t), tensor.basis_keys(1)[:6]),
    ]


@pytest.mark.parametrize("name,build,labels", _element_builders())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_element_subtraction_is_adding_the_negation(name, build, labels, data):
    # u - v merges in one pass; it equals u + (-v) in terms, space and
    # type, the DiffOp's central part included, with every cancelled
    # label dropped
    def terms():
        picked = data.draw(st.lists(st.sampled_from(labels), unique=True, max_size=4))
        return {k: data.draw(scalars(max_terms=2)) for k in picked}

    ta, ca = terms(), data.draw(scalars(max_terms=2))
    # v shares some of u's terms exactly, so that they cancel
    shared = data.draw(st.lists(st.sampled_from(sorted(ta, key=repr) or labels),
                                unique=True, max_size=2))
    tb = {**terms(), **{k: ta[k] for k in shared if k in ta}}
    u, v = build(ta, ca), build(tb, data.draw(st.sampled_from([ca, DECL.zero, A])))
    for diff, want in ((u - v, u + (-v)), (v - u, v + (-u)), (u - u, u.scale(0))):
        assert type(diff) is type(u) and diff == want
        assert all(c for c in diff.terms.values())
        if name == "diffop":
            assert diff.central == want.central
    assert (u - u).is_zero()


def test_element_subtraction_refuses_another_window():
    # two windows built apart are different spaces even when equal by
    # value, so their vectors never mix
    (_, build_a, labels), = [b for b in _element_builders() if b[0] == "verma"]
    (_, build_b, _), = [b for b in _element_builders() if b[0] == "verma"]
    u, v = build_a({labels[0]: 1}, None), build_b({labels[0]: 1}, None)
    with pytest.raises(ValueError):
        u - v
    with pytest.raises(ValueError):
        u + v


@settings(max_examples=100, deadline=None)
@given(raw_terms(), small_coeffs)
def test_canonical_scaling_by_plain_rationals(ta, q):
    a = Scalar(DECL, ta)
    ra = _ref(ta)
    scaled = {m: c * Fraction(q) for m, c in ra.items() if c * q}
    _assert_canonical(a * q, scaled)
    _assert_canonical(q * a, scaled)
    _assert_canonical(a * DECL.rational(q), scaled)
    if q:
        _assert_canonical(a.exact_div(DECL.rational(q)),
                          {m: c / Fraction(q) for m, c in ra.items()})


@settings(max_examples=80, deadline=None)
@given(st.integers(-3, 3), small_coeffs.filter(bool), raw_terms())
def test_canonical_inverse_and_exact_div(le, q, tb):
    unit = Scalar(DECL, {_mono(le, 0): q})
    _assert_canonical(unit.inverse(), {_mono(-le, 0): 1 / Fraction(q)})
    _assert_canonical(unit * unit.inverse(), {(): Fraction(1)})
    b = Scalar(DECL, tb)
    d = LAM ** 2 * 3 + A * Fraction(1, 2)
    quotient = (b * d).exact_div(d)
    _assert_canonical(quotient, _ref(tb))


class _Vec(SparseVec):
    __slots__ = ("space",)
    _space = "space"
    _label = staticmethod(str)


@settings(max_examples=80, deadline=None)
@given(st.lists(raw_terms(), max_size=3), st.one_of(small_coeffs, raw_terms()))
def test_canonical_sparse_vector_scaling(vec_terms, s):
    v = _Vec("V", {i: Scalar(DECL, t) for i, t in enumerate(vec_terms)})
    scale = s if not isinstance(s, dict) else Scalar(DECL, s)
    rs = {(): Fraction(s)} if not isinstance(s, dict) else _ref(s)
    rs = {m: c for m, c in rs.items() if c}
    got = v.scale(scale)
    expected = {i: _ref_mul(_ref(t), rs) for i, t in enumerate(vec_terms)}
    expected = {i: r for i, r in expected.items() if r}
    assert set(got.terms) == set(expected)
    for i, c in got.terms.items():
        _assert_canonical(c, expected[i])
    for i, c in (-v).terms.items():
        _assert_canonical(c, {m: -x for m, x in _ref(vec_terms[i]).items()})


def test_sparse_vector_scaled_by_zero_is_empty():
    v = _Vec("V", {0: LAM, 1: A * Fraction(1, 3)})
    assert v.scale(0).terms == {}
    assert v.scale(DECL.zero).terms == {}
    assert v.scale(Fraction(0)).terms == {}
    assert v.scale(0) == _Vec("V", {})


def test_exact_div_of_integers_by_two_is_exact():
    s = LAM * 3 + A * 4 + 6
    q = s.exact_div(DECL.rational(2))
    assert q.terms == {(("lambda", 1),): Fraction(3, 2), (("a", 1),): 2, (): 3}
    assert [type(c) for c in q.terms.values()] == [Fraction, int, int]
    assert q * 2 == s


def test_integral_fraction_inputs_are_stored_as_ints():
    r = DECL.rational(Fraction(4, 2))
    assert r.terms == {(): 2} and type(r.terms[()]) is int
    s = Scalar(DECL, {(): Fraction(4, 2)})
    assert type(s.terms[()]) is int
    assert s == r and hash(s) == hash(r)
    assert str(s) == "2"
    assert s.to_json() == {"monomials": [{"coeff": "2", "exps": {}}]}
    assert s.rational_value() == Fraction(2)
    assert type(s.rational_value()) is Fraction
    half = DECL.rational(Fraction(1, 2))
    assert str(half) == "1/2"
    assert half.to_json() == {"monomials": [{"coeff": "1/2", "exps": {}}]}


def test_multiplying_by_one_returns_the_operand():
    s = LAM * Fraction(2, 3) + A
    assert s * 1 is s
    assert 1 * s is s


# -- series -------------------------------------------------------------------


def _series(coeffs):
    return Series(len(coeffs) - 1, tuple(RATIONALS.rational(c) for c in coeffs))


def test_series_quotient_x_over_expm1():
    # x / (e^x - 1) to order 4: Bernoulli numbers over factorials
    order = 5  # one extra input order pays for the valuation of the denominator
    ex = exp_series(RATIONALS.one, order)
    den = ex - _series([1] + [0] * order)
    num = _series([0, 1] + [0] * (order - 1))
    q = series_quotient(num, den)
    assert [c.rational_value() for c in q.coeffs] == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720),
    ]
    # multiply back
    assert all((q * den.truncate(q.order))[k] == num[k] for k in range(q.order + 1))


def test_series_self_quotient():
    ex = exp_series(RATIONALS.one, 6)
    den = ex - _series([1] + [0] * 6)
    q = series_quotient(den, den)
    assert q.coeffs[0] == RATIONALS.one
    assert all(c.is_zero() for c in q.coeffs[1:])


def test_series_zero_numerator():
    ex = exp_series(RATIONALS.one, 5)
    den = ex - _series([1] + [0] * 5)
    assert series_quotient(Series.zero(5), den).is_zero()


def test_series_zero_denominator_rejected():
    with pytest.raises(SeriesError):
        series_quotient(_series([1, 0]), Series.zero(1))


def test_series_insufficient_vanishing_rejected():
    ex = exp_series(RATIONALS.one, 4)
    den = ex - _series([1] + [0] * 4)  # valuation 1
    with pytest.raises(SeriesError):
        series_quotient(_series([1, 0, 0, 0, 0]), den)


@settings(max_examples=40, deadline=None)
@given(st.lists(fracs, min_size=4, max_size=4), st.lists(fracs, min_size=3, max_size=3))
def test_series_quotient_roundtrip(qc, dc):
    q = _series(qc)
    den = _series([1] + dc)  # unit lead
    num = q * den
    got = series_quotient(num, den)
    assert all(got[k] == q[k] for k in range(got.order + 1))


def test_series_quotient_symbolic_lead():
    # denominator leading coefficient lambda is a unit
    den = Series(1, (LAM, DECL.one))
    num = Series(1, (DECL.one, DECL.zero))
    q = series_quotient(num, den)
    assert q[0] == LAM.inverse()


# -- linear algebra -----------------------------------------------------------


def _cols(rows):
    """The columns of a row-major matrix as sparse {row: entry} maps."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(len(rows[0]))]


def _int_matrix(rows):
    return _cols([[RATIONALS.rational(v) for v in row] for row in rows])


def test_identity_solve():
    sol = solve_linear(_int_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                       _int_matrix([[1], [0], [0]]))
    assert sol.rank == 3 and sol.consistent
    nums, den = sol.particular
    assert [n.rational_value() / den.rational_value() for n in nums] == [1, 0, 0]
    assert sol.nullspace == []


def test_vandermonde_rank():
    m = _int_matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    sol = solve_linear(m)
    assert sol.rank == 3
    # the determinant is prod of node differences, hence nonzero
    det = 1
    for i, xi in enumerate((1, 2, 3)):
        for xj in (1, 2, 3)[i + 1:]:
            det *= xj - xi
    assert det != 0


def test_zero_matrix():
    sol = solve_linear(_int_matrix([[0, 0], [0, 0]]))
    assert sol.rank == 0
    assert len(sol.nullspace) == 2


def test_inconsistent_system():
    sol = solve_linear(_int_matrix([[1, 1], [1, 1]]), _int_matrix([[1], [2]]))
    assert not sol.consistent
    assert sol.particular is None


def test_symbolic_nullspace():
    # (lambda, -1) annihilates rows proportional to (1, lambda)
    sol = solve_linear(_cols([[DECL.one, LAM]]))
    assert sol.rank == 1
    assert len(sol.nullspace) == 1
    v = sol.nullspace[0]
    assert (v[0] + LAM * v[1]).is_zero()


# independent oracle: naive rational Gauss-Jordan
def _naive_rref(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0, []
    nrows, ncols = len(m), len(m[0])
    rank = 0
    pivots = []
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(c)
        rank += 1
    return rank, pivots


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 5), st.data()
)
def test_solve_matches_naive_elimination(nr, nc, data):
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)
    ]
    rank, pivots = _naive_rref(rows)
    sol = solve_linear(_int_matrix(rows))
    assert sol.rank == rank
    assert sol.pivot_cols == pivots
    assert len(sol.nullspace) == nc - rank
    # every nullspace vector annihilates the matrix
    for v in sol.nullspace:
        for row in rows:
            acc = RATIONALS.zero
            for coeff, x in zip(row, v):
                acc = acc + x * coeff
            assert acc.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_particular_solution_solves(n, data):
    rows = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    x = [data.draw(st.integers(-5, 5)) for _ in range(n)]
    rhs = [[sum(r * v for r, v in zip(row, x))] for row in rows]
    sol = solve_linear(_int_matrix(rows), _int_matrix(rhs))
    assert sol.consistent
    nums, den = sol.particular
    for row, b in zip(rows, rhs):
        acc = RATIONALS.zero
        for coeff, num in zip(row, nums):
            acc = acc + num * coeff
        # row . nums == b * den  (cross-multiplied comparison)
        assert acc == RATIONALS.rational(b[0]) * den


# small integers and lambda, lambda^-1, 1 + lambda
symbolic_entries = st.one_of(
    st.integers(-3, 3).map(DECL.rational),
    st.sampled_from([LAM, LAM ** -1, LAM + 1]),
)


def _apply(rows, x):
    out = []
    for row in rows:
        acc = DECL.zero
        for coeff, v in zip(row, x):
            acc = acc + coeff * v
        out.append(acc)
    return out


def _independent(vectors):
    span = SpanBasis()
    for v in vectors:
        span.add(dict(enumerate(v)))
    return span.dim == len(vectors)


def _column(entries):
    return _cols([[e] for e in entries])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_symbolic_matrices(nr, nc, data):
    rows = [[data.draw(symbolic_entries) for _ in range(nc)] for _ in range(nr)]
    m = _cols(rows)
    sol = solve_linear(m)
    assert sol.rank + len(sol.nullspace) == nc
    for v in sol.nullspace:
        assert not any(_apply(rows, v))
    # independent kernel vectors and independent pivot columns pin the rank
    assert _independent(sol.nullspace)
    assert _independent([[row[j] for row in rows] for j in sol.pivot_cols])
    x0 = [data.draw(symbolic_entries) for _ in range(nc)]
    b = _apply(rows, x0)
    sol_b = solve_linear(m, _column(b))
    assert sol_b.consistent
    nums, den = sol_b.particular
    assert _apply(rows, nums) == [e * den for e in b]
    # a unit vector lies outside the column space exactly when appending it
    # raises the rank, and one does whenever the rank is below the row count
    outside = 0
    for i in range(nr):
        e = [DECL.one if k == i else DECL.zero for k in range(nr)]
        sol_e = solve_linear(m, _column(e))
        aug_rank = solve_linear(m + _column(e)).rank
        assert sol_e.consistent == (aug_rank == sol.rank)
        assert (sol_e.particular is None) == (not sol_e.consistent)
        outside += not sol_e.consistent
    assert (outside > 0) == (sol.rank < nr)


def test_span_basis_membership():
    span = SpanBasis()
    assert span.add({0: DECL.one, 1: LAM})
    assert span.add({1: DECL.one})
    assert not span.add({0: LAM, 1: LAM * LAM + 1})
    assert span.contains({0: A, 1: A * LAM})
    assert not span.contains({2: DECL.one})
    assert span.dim == 2
    # Fraction coordinates
    span = SpanBasis()
    assert span.add({0: Fraction(1), 1: Fraction(2, 3)})
    assert not span.add({0: Fraction(-3, 2), 1: Fraction(-1)})
    assert span.contains({0: Fraction(3), 1: Fraction(2)})
    assert not span.contains({1: Fraction(1)})
    assert span.add({1: Fraction(1, 5), 2: Fraction(1)})
    assert span.contains({0: Fraction(1), 2: Fraction(-10, 3)})
    assert span.dim == 2


@settings(max_examples=80, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=6), max_size=8))
def test_integer_rows_are_stored_primitive(vecs):
    # integer coordinates, as in the generator-closure probe: each stored
    # row is divided by the gcd of its entries, which leaves the span alone
    ints, fractions = SpanBasis(), SpanBasis()
    for v in vecs:
        assert ints.add(v) == fractions.add({k: Fraction(c) for k, c in v.items()})
    assert all(gcd(*row.values()) == 1 for row in ints.pivots.values())
    assert all(type(c) is int for row in ints.pivots.values() for c in row.values())
    for v in vecs + [{k: 1} for k in range(6)]:
        assert ints.contains(v) == fractions.contains({k: Fraction(c) for k, c in v.items()})


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_solve_linear_reads_sparse_columns_like_padded_ones(nr, data):
    # a missing row key is a zero entry: padding every column with explicit
    # zeros changes nothing in the solution
    nc = data.draw(st.integers(1, 4))
    rows = [[data.draw(symbolic_entries) for _ in range(nc)] for _ in range(nr)]
    b = [data.draw(symbolic_entries) for _ in range(nr)]

    def padded(cols):
        return [{i: col.get(i, DECL.zero) for i in range(nr)} for col in cols]

    sparse = solve_linear(_cols(rows), _column(b))
    assert sparse == solve_linear(padded(_cols(rows)), padded(_column(b)))
    assert solve_linear(_cols(rows)) == solve_linear(padded(_cols(rows)))


# -- closures -----------------------------------------------------------------


def _apply_map(mat, v):
    """The image of a sparse vector under a sparse {(row, col): entry} matrix."""
    out = {}
    for (i, j), c in mat.items():
        if j in v:
            out[i] = out.get(i, 0) + c * v[j]
    return {i: c for i, c in out.items() if c}


def _in_span(gens, v):
    def scalars(u):
        return {k: c if isinstance(c, Scalar) else RATIONALS.rational(c) for k, c in u.items()}
    return solve_linear([scalars(g) for g in gens], [scalars(v)]).consistent


def _naive_closure(seeds, maps):
    """A basis of the closure: pass over every (generator, map) pair, keeping
    each image outside the span, until a whole pass keeps nothing."""
    gens = []
    for v in seeds:
        if not _in_span(gens, v):
            gens.append(v)
    grew = True
    while grew:
        grew = False
        for v in list(gens):
            for mat in maps:
                w = _apply_map(mat, v)
                if not _in_span(gens, w):
                    gens.append(w)
                    grew = True
    return gens


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.sampled_from([st.integers(-3, 3), symbolic_entries]),
       st.data())
def test_close_matches_a_naive_fixed_point(n, entries, data):
    coords = st.integers(0, n - 1)
    maps = data.draw(st.lists(st.dictionaries(st.tuples(coords, coords), entries,
                                              max_size=4), max_size=3))
    seeds = data.draw(st.lists(st.dictionaries(coords, entries, max_size=n),
                               min_size=1, max_size=3))
    # a seed already in the span when it is reached
    seeds.append({k: seeds[0].get(k, 0) + seeds[-1].get(k, 0) for k in range(n)})
    span = SpanBasis()
    span.close(seeds, lambda v: [_apply_map(mat, v) for mat in maps])
    want = _naive_closure(seeds, maps)
    assert span.dim == len(want)
    for k in range(n):
        assert span.contains({k: 1}) == _in_span(want, {k: 1})
    # closing seeds already in the span adds nothing and spins from nothing
    span.close(seeds, lambda v: pytest.fail("a vector already in the span spun"))
    assert span.dim == len(want)


def test_close_spins_only_from_new_vectors_level_by_level():
    shift = {(1, 0): 1, (2, 1): 1, (4, 3): 1}  # e0 -> e1 -> e2 -> 0, e3 -> e4 -> 0
    seen = []

    def images(v):
        seen.append(min(v))
        return [_apply_map(shift, v), {}]

    span = SpanBasis()
    span.close([{0: 1}, {0: 2}, {}, {3: 1}], images)
    assert span.dim == 5 and seen == [0, 3, 1, 4, 2]
    # a map that yields nothing leaves the span of the seeds
    span = SpanBasis()
    span.close([{0: LAM}, {1: A}], lambda v: ())
    assert span.dim == 2 and not span.contains({2: DECL.one})


def _sparse_pair(kind):
    """Two vectors of one sparse-vector type that overlap in some labels."""
    from weylmod.hwmod import HWSpec, Quasipolynomial, verma_basis
    from weylmod.liealg import D_HAT
    from weylmod.tensor import TensorSpec
    from weylmod.umod import omega_d, omega_dnu

    if kind == "DiffOp":
        return (D_HAT.basis(1, 2, LAM) + D_HAT.center(A) + D_HAT.d_op(1, 3),
                D_HAT.basis(1, 2, -LAM) + D_HAT.center(2) + D_HAT.basis(-2, 0, A))
    if kind == "PolyVec":
        s = omega_dnu((LAM, DECL.param("lambda") ** 2), 1)
        return (s.monomial((1, 0), A) + s.monomial((0, 2), LAM),
                s.monomial((1, 0), -A) + s.monomial((0, 0), Fraction(1, 3)))
    hw = verma_basis(HWSpec(A, Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])), 2, 1)
    if kind == "VermaElem":
        return (hw.elem({(): LAM, ((1, 1),): 2}), hw.elem({(): -LAM, ((2, 0),): A}))
    ts = TensorSpec(omega_d(LAM, 0), hw)
    return (ts.elem({(0, ()): A, (2, ((1, 0),)): 1}),
            ts.elem({(0, ()): -A, (1, ((1, 0), (1, 1))): LAM}))


@pytest.mark.parametrize("kind", ["DiffOp", "PolyVec", "VermaElem", "TensorElem"])
def test_sparse_vector_laws(kind):
    u, v = _sparse_pair(kind)
    assert (u + v) - v == u
    assert ((-u) + u).is_zero()
    assert u.scale(0).is_zero()
    assert u.scale(LAM) - u.scale(LAM) == u.scale(0)
    assert u != v and not (u + v).is_zero()
    assert str(u.scale(0)) == "0"
    assert all(u.terms.values()) and all((u + v).terms.values())


def test_value_types_are_immutable_values():
    import copy

    from weylmod.hwmod import HWSpec, Quasipolynomial, verma_basis
    from weylmod.liealg import AlgebraCtx, CentralUnsupported
    from weylmod.tensor import TensorSpec
    from weylmod.umod import AxiomReport, OmegaSpec

    hw = verma_basis(HWSpec(A, Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])), 1, 1)
    # two equal values built apart, an unequal one, and a field to assign
    cases = [
        (AlgebraCtx(2), AlgebraCtx(rank=2, central=False), AlgebraCtx(1), "rank"),
        (OmegaSpec("d", (LAM,), 1), OmegaSpec("d", (LAM,), eps=1),
         OmegaSpec("d", (LAM,), 0), "eps"),
        (TensorSpec(OmegaSpec("d", (LAM,), 0), hw), TensorSpec(OmegaSpec("d", (LAM,), 0), hw),
         TensorSpec(OmegaSpec("d", (LAM,), 1), hw), "omega"),
        (Series(1, (A, LAM)), Series(1, (A, LAM)), Series(1, (LAM, A)), "coeffs"),
    ]
    for u, v, w, field in cases:
        assert u is not v and u == v and hash(u) == hash(v) and not u != v
        assert u != w and len({u, v, w}) == 2
        with pytest.raises(AttributeError):
            setattr(u, field, getattr(w, field))
        with pytest.raises(AttributeError):
            delattr(u, field)
        assert getattr(u, field) == getattr(v, field)
        assert copy.copy(u) == u and copy.copy(u) is not u
    assert AlgebraCtx() == AlgebraCtx(1, False) != AlgebraCtx(1, central=True)
    assert repr(AlgebraCtx(1, central=True)) == "AlgebraCtx(rank=1, central=True)"
    assert repr(OmegaSpec("d", (LAM,), 1)) == (
        f"OmegaSpec(family='d', lam=({LAM!r},), eps=1, alpha=None, beta=None)")
    with pytest.raises(ValueError, match="rank must be >= 1"):
        AlgebraCtx(0)
    with pytest.raises(CentralUnsupported, match="the central extension exists only at rank 1"):
        AlgebraCtx(2, central=True)
    with pytest.raises(ValueError, match=r"series length must be order \+ 1"):
        Series(1, (A,))
    assert repr(AxiomReport(True, 3)) == "AxiomReport(ok=True, checked=3, counterexample=None)"
