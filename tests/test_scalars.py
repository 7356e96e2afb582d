from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylmod.scalars import (
    Matrix, NonInvertibleParameter, ParamDecl, RATIONALS,
    ScalarDivisionError, Series, SeriesError, SpanBasis, exp_series,
    series_quotient, solve_linear,
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


# -- series -------------------------------------------------------------------


def _series(coeffs):
    return Series.from_coeffs([RATIONALS.rational(c) for c in coeffs])


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
    den = Series.from_coeffs([LAM, DECL.one])
    num = Series.from_coeffs([DECL.one, DECL.zero])
    q = series_quotient(num, den)
    assert q[0] == LAM.inverse()


# -- linear algebra -----------------------------------------------------------


def _int_matrix(rows):
    return Matrix.from_rows([[RATIONALS.rational(v) for v in row] for row in rows])


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
    m = Matrix.from_rows([[DECL.one, LAM]])
    sol = solve_linear(m)
    assert sol.rank == 1
    assert len(sol.nullspace) == 1
    v = sol.nullspace[0]
    assert (m[0, 0] * v[0] + m[0, 1] * v[1]).is_zero()


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
    return Matrix.from_rows([[e] for e in entries])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_symbolic_matrices(nr, nc, data):
    rows = [[data.draw(symbolic_entries) for _ in range(nc)] for _ in range(nr)]
    m = Matrix.from_rows(rows)
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
        aug_rank = solve_linear(Matrix.from_rows(
            [row + [ek] for row, ek in zip(rows, e)])).rank
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
    # Fraction coordinates, as in the generator-closure probe
    span = SpanBasis()
    assert span.add({0: Fraction(1), 1: Fraction(2, 3)})
    assert not span.add({0: Fraction(-3, 2), 1: Fraction(-1)})
    assert span.contains({0: Fraction(3), 1: Fraction(2)})
    assert not span.contains({1: Fraction(1)})
    assert span.add({1: Fraction(1, 5), 2: Fraction(1)})
    assert span.contains({0: Fraction(1), 2: Fraction(-10, 3)})
    assert span.dim == 2


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
