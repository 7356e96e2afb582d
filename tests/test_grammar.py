from fractions import Fraction

import pytest

from weylmod.grammar import (
    ParseError, parse_operator, parse_param_decl, parse_pbw_monomial,
    parse_polynomial, parse_quasipolynomial, parse_scalar,
)
from weylmod.liealg import D_ALG
from weylmod.scalars import RATIONALS
from weylmod.umod import omega_d, PolyVec

DECL = parse_param_decl("lambda!,alpha,beta,a,b,c,h0")


def test_operator_basics():
    assert parse_operator("D^2") == D_ALG.d_op(2)
    got = parse_operator("3/2*t^-1*D + C", decl=DECL)
    assert got.ctx.central
    assert got.terms == {((-1,), (1,)): DECL.rational(Fraction(3, 2))}
    assert got.central == DECL.one
    # whitespace insensitivity
    assert parse_operator(" t ^ -3 * D^2 ") == parse_operator("t^-3*D^2")


def test_operator_ranked_atoms():
    got = parse_operator("t1^-2*t2*D2^3", rank=2)
    assert got.terms == {((-2, 1), (0, 3)): RATIONALS.one}
    with pytest.raises(ParseError):
        parse_operator("t3", rank=2)
    with pytest.raises(ParseError):
        parse_operator("t", rank=2)


def test_quasipolynomial_examples():
    q = parse_quasipolynomial("x*exp(a*x) - x", decl=DECL)
    assert q.value_at_zero().is_zero()
    q2 = parse_quasipolynomial("(x^2+1)*exp(a*x) + (-x^2-1)", decl=DECL)
    assert len(q2.terms) == 2


def test_exp_of_a_cancelled_argument_is_one():
    # exp(0*x) is e^0 = 1, however the x-coefficient cancels
    one = parse_quasipolynomial("1", decl=DECL).terms
    for text in ("exp(0*x)", "exp(a*x - a*x)", "exp(0)"):
        assert parse_quasipolynomial(text, decl=DECL).terms == one
    assert parse_quasipolynomial("x*exp(0*x) - x", decl=DECL).terms == ()
    assert (parse_quasipolynomial("x*exp(a*x) + 2*exp(0*x) - 2", decl=DECL).terms
            == parse_quasipolynomial("x*exp(a*x)", decl=DECL).terms)


def test_hseq_reads_exp_of_zero_as_one(capsys):
    from weylmod import cli

    assert cli.main(["hseq", "--phi", "exp(0*x)-1", "--c", "0", "--n", "2"]) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines()[1:], err) == (["h_0 = 0", "h_1 = 0", "h_2 = 0"], "")
    # phi = 1 does not vanish at 0
    assert cli.main(["hseq", "--phi", "exp(0*x)", "--c", "0"]) == 2
    assert capsys.readouterr() == ("", "weylmod: error: phi(0) must vanish\n")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_operator("t^-1*)")
    assert "position" in str(err.value)
    for bad in ["D^-1", "x", "exp(a*x)"]:
        with pytest.raises(ParseError):
            parse_operator(bad, decl=DECL)
    for bad in ["x^-1", "t", "C"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, decl=DECL)
    with pytest.raises(ParseError):
        parse_quasipolynomial("exp(a*x + 1)", decl=DECL)
    with pytest.raises(ParseError):
        parse_quasipolynomial("exp(x^2)", decl=DECL)


def test_central_context_control():
    assert not parse_operator("t*D").ctx.central
    assert parse_operator("t*D", central=True).ctx.central
    with pytest.raises(ParseError):
        parse_operator("C", central=False)


def test_pbw_monomial_parsing():
    assert parse_pbw_monomial("1") == ()
    assert parse_pbw_monomial("t^-1*D;t^-2") == ((1, 1), (2, 0))
    with pytest.raises(ValueError):
        parse_pbw_monomial("t^2")
    with pytest.raises(ValueError):
        parse_pbw_monomial("2*t^-1")


# -- round-trip corpus ------------------------------------------------------------

OPERATOR_CORPUS = [
    "t", "t^-1", "D", "D^2", "C", "t*D", "t^3*D^2", "t^-4*D^3",
    "2*t", "-t", "3/2*t^-1*D + C", "t + t^-1 + D^2",
    "6*t^3*D + 9*t^3", "-3*D^2 + D", "4*D^3",
    "lambda*t*D", "lambda^-2*t^2", "(a + 1)*D", "(3/2*a - b)*t^-1*D^2 + 2*C",
    "t^2*D - t^-2*D + 1/12*C", "alpha*t + beta*t^-1", "h0*D^2 - 1",
    "5", "-7/3", "0",
]

OPERATOR_CORPUS_RANK2 = [
    "t1", "t2^-3", "D1*D2", "t1*t2*D1^2", "3*t1^-1*t2^2*D2", "t1^2 - t2^2",
]

POLY_CORPUS = [
    "x", "x^2", "1", "0", "x^2 + 2*x + 1", "-x + 3",
    "lambda*x^2", "(h0 + 1)*x", "2/3*x^4 - x", "a*x^3 + b*x - c",
]

POLY_CORPUS_RANK2 = [
    "x1", "x2^2", "x1*x2", "x1^2*x2^3 - 1/3", "a*x1 + b*x2",
]

QUASI_CORPUS = [
    "x", "x^2 - x", "x*exp(a*x) - x", "(x^2+1)*exp(a*x) + (-x^2-1)",
    "(x)*exp((a)*x)", "exp(a*x) - 1", "(2*x - 1)*exp(3*x) + 1 - 2*x",
    "x*exp(a*x) + x*exp(b*x) - 2*x",
]

SCALAR_CORPUS = [
    "lambda", "lambda^-2", "3/2*a*lambda^-2 - 1", "a + b - c", "0", "-5/7",
]


def test_round_trip_corpus_size():
    total = (len(OPERATOR_CORPUS) + len(OPERATOR_CORPUS_RANK2) + len(POLY_CORPUS)
             + len(POLY_CORPUS_RANK2) + len(QUASI_CORPUS) + len(SCALAR_CORPUS))
    assert total >= 50


@pytest.mark.parametrize("text", OPERATOR_CORPUS)
def test_operator_round_trip(text):
    op = parse_operator(text, decl=DECL)
    back = parse_operator(str(op), decl=DECL, central=op.ctx.central)
    assert back == op


@pytest.mark.parametrize("text", OPERATOR_CORPUS_RANK2)
def test_operator_round_trip_rank2(text):
    op = parse_operator(text, rank=2, decl=DECL)
    assert parse_operator(str(op), rank=2, decl=DECL) == op


@pytest.mark.parametrize("text", POLY_CORPUS)
def test_polynomial_round_trip(text):
    spec = omega_d(DECL.param("lambda"), 1)
    poly = parse_polynomial(text, decl=DECL)
    vec = PolyVec(spec, poly)
    assert parse_polynomial(str(vec), decl=DECL) == poly


@pytest.mark.parametrize("text", POLY_CORPUS_RANK2)
def test_polynomial_round_trip_rank2(text):
    from weylmod.umod import omega_dnu
    decl2 = parse_param_decl("l1!,l2!,a,b")
    spec = omega_dnu((decl2.param("l1"), decl2.param("l2")), 1)
    poly = parse_polynomial(text, rank=2, decl=decl2)
    vec = PolyVec(spec, poly)
    assert parse_polynomial(str(vec), rank=2, decl=decl2) == poly


@pytest.mark.parametrize("text", QUASI_CORPUS)
def test_quasipolynomial_round_trip(text):
    q = parse_quasipolynomial(text, decl=DECL)
    assert parse_quasipolynomial(str(q), decl=DECL) == q


@pytest.mark.parametrize("text", SCALAR_CORPUS)
def test_scalar_round_trip(text):
    s = parse_scalar(text, decl=DECL)
    assert parse_scalar(str(s), decl=DECL) == s


def test_param_decl_parsing():
    decl = parse_param_decl("mu!, nu , rho!")
    assert decl.is_invertible("mu") and decl.is_invertible("rho")
    assert decl.has("nu") and not decl.is_invertible("nu")
    with pytest.raises(ValueError):
        parse_param_decl("3bad")
    # the grammar's own atoms cannot be parameters
    for name in ("t", "t2", "D", "D10", "x", "x1!", "C", "exp"):
        with pytest.raises(ValueError, match="reserved by the grammar"):
            parse_param_decl(f"mu!,{name}")
    assert parse_param_decl("tx,Dx,xt,c,expo,C1").has("C1")
