"""Shared text grammar for operators, polynomials, and quasipolynomials.

One tokenizer and one recursive-descent parser serve all three modes; only
the atom set changes.  The grammar is

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | parameter | atom ['^' int]
            | '(' expr ')'            (scalar sub-expressions; polynomials
                                       inside exp(...) in quasi mode)
            | 'exp' '(' expr ')'      (quasipolynomial mode only)

Operator-mode atoms are t/D (t1../D1.. at higher rank) and C; polynomial
atoms are x (x1.. at higher rank).  Operator monomials are written with all
t factors before D factors, matching the canonical printer.  Every printer
in the package emits strings this parser accepts, and parse/print round
trips reproduce identical values.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import ParamDecl, RATIONALS, Scalar, accumulate
from .liealg import AlgebraCtx, DiffOp
from .hwmod import Quasipolynomial


class ParseError(ValueError):
    """Syntax or arity error, annotated with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.group("ident"):
            tokens.append(("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Value:
    """Intermediate parse value: polynomial data in x with an operator part.

    terms maps (x exponents, t exponents, D exponents, C flag, exp key) to
    Scalar coefficients; the exp key is a Scalar (the coefficient a of
    e^(a x)) kept hashable through its canonical term map.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self.terms = terms or {}

    @staticmethod
    def scalar(rank: int, s: Scalar) -> "_Value":
        zero = (0,) * rank
        key = (zero, zero, zero, False, ())
        return _Value(rank, {key: s} if not s.is_zero() else {})

    def add(self, other: "_Value") -> "_Value":
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return _Value(self.rank, out)

    def neg(self) -> "_Value":
        return _Value(self.rank, {k: -c for k, c in self.terms.items()})

    def mul(self, other: "_Value", pos: int) -> "_Value":
        out: dict = {}
        for (x1, t1, d1, c1, e1), s1 in self.terms.items():
            for (x2, t2, d2, c2, e2), s2 in other.terms.items():
                if c1 or c2:
                    plain1 = not any(x1) and not any(t1) and not any(d1) and not e1
                    plain2 = not any(x2) and not any(t2) and not any(d2) and not e2
                    if (c1 and c2) or (c1 and not plain2) or (c2 and not plain1):
                        raise ParseError("C cannot be multiplied by operators", pos)
                if any(d1) and any(t2):
                    raise ParseError(
                        "operator monomials are written t^m*D^n (t before D)", pos)
                key = (
                    tuple(a + b for a, b in zip(x1, x2)),
                    tuple(a + b for a, b in zip(t1, t2)),
                    tuple(a + b for a, b in zip(d1, d2)),
                    c1 or c2,
                    _exp_mul(e1, e2),
                )
                accumulate(out, key, s1 * s2)
        return _Value(self.rank, out)


def _exp_mul(e1, e2):
    if not e1:
        return e2
    if not e2:
        return e1
    s = Scalar(RATIONALS, dict(e1)) + Scalar(RATIONALS, dict(e2))
    return tuple(sorted(s.terms.items()))


class _Parser:
    def __init__(self, text: str, mode: str, rank: int, decl: ParamDecl):
        if mode not in ("operator", "polynomial", "quasipolynomial", "scalar"):
            raise ValueError(f"unknown parse mode {mode!r}")
        self.text = text
        self.mode = mode
        self.rank = rank
        self.decl = decl
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token helpers -------------------------------------------------------

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.advance()

    # -- grammar -------------------------------------------------------------

    def parse(self) -> _Value:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return value

    def expr(self, inner_mode=None) -> _Value:
        mode = inner_mode or self.mode
        negate = False
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            negate = True
        value = self.term(mode)
        if negate:
            value = value.neg()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term(mode)
                value = value.add(rhs.neg() if val == "-" else rhs)
            else:
                return value

    def term(self, mode: str) -> _Value:
        pos = self.peek()[2]
        value = self.factor(mode)
        while True:
            kind, val, p = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                value = value.mul(self.factor(mode), p)
            else:
                return value

    def factor(self, mode: str) -> _Value:
        kind, val, pos = self.peek()
        if kind == "number":
            self.advance()
            try:
                q = Fraction(val)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val}", pos) from None
            return _Value.scalar(self.rank, self.decl.rational(q))
        if kind == "op" and val == "(":
            self.advance()
            # parenthesized sub-expressions carry scalar coefficients, and in
            # quasipolynomial mode also x-polynomials (for exp prefactors)
            inner = self.expr("polynomial" if mode == "quasipolynomial" else "scalar")
            self.expect_op(")")
            return inner
        if kind == "op" and val == "-":
            self.advance()
            return self.factor(mode).neg()
        if kind != "ident":
            raise ParseError(f"expected a factor, found {val!r}" if val else
                             "expected a factor", pos)
        self.advance()
        if val == "exp":
            if mode != "quasipolynomial":
                raise ParseError("exp(...) belongs to quasipolynomial input", pos)
            self.expect_op("(")
            arg = self.expr("polynomial")
            self.expect_op(")")
            zero = (0,) * self.rank
            key = (zero, zero, zero, False, _exp_key_from(arg, pos))
            return _Value(self.rank, {key: self.decl.one})
        exponent = 1
        kind2, val2, pos2 = self.peek()
        if kind2 == "op" and val2 == "^":
            self.advance()
            exponent = self._int_exponent()
        return self._atom_power(mode, val, exponent, pos)

    def _int_exponent(self) -> int:
        kind, val, pos = self.peek()
        sign = 1
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "number" or "/" in val:
            raise ParseError("exponent must be an integer", pos)
        self.advance()
        return sign * int(val)

    def _atom_power(self, mode: str, name: str, exponent: int, pos: int) -> _Value:
        rank = self.rank
        zero = (0,) * rank

        def slot(prefix: str):
            if rank == 1:
                return 0 if name == prefix else None
            if name.startswith(prefix) and name[len(prefix):].isdigit():
                idx = int(name[len(prefix):])
                if not 1 <= idx <= rank:
                    raise ParseError(
                        f"{name!r} exceeds the declared rank {rank}", pos)
                return idx - 1
            return None

        if mode in ("operator",):
            if name == "C":
                if rank != 1:
                    raise ParseError("the central element exists at rank 1", pos)
                if exponent != 1:
                    raise ParseError("C carries no exponent", pos)
                return _Value(rank, {(zero, zero, zero, True, ()): self.decl.one})
            i = slot("t")
            if i is not None:
                t = tuple(exponent if j == i else 0 for j in range(rank))
                return _Value(rank, {(zero, t, zero, False, ()): self.decl.one})
            i = slot("D")
            if i is not None:
                if exponent < 0:
                    raise ParseError("D exponents must be non-negative", pos)
                d = tuple(exponent if j == i else 0 for j in range(rank))
                return _Value(rank, {(zero, zero, d, False, ()): self.decl.one})
        if mode in ("polynomial", "quasipolynomial"):
            i = slot("x")
            if i is not None:
                if exponent < 0:
                    raise ParseError("x exponents must be non-negative", pos)
                x = tuple(exponent if j == i else 0 for j in range(rank))
                return _Value(rank, {(x, zero, zero, False, ()): self.decl.one})
        if self.decl.has(name):
            return _Value.scalar(self.rank, self.decl.param(name, exponent))
        raise ParseError(f"unknown name {name!r} in {mode} input", pos)


def _exp_key_from(arg: _Value, pos: int):
    """Exponent key for exp(expr): expr must be (scalar) * x.

    An argument whose x-coefficient cancels, as in exp(0*x), is e^0 = 1 and
    gets the zero key ().
    """
    coeff = None
    for (x, t, d, cflag, e), s in arg.terms.items():
        if any(t) or any(d) or cflag or e:
            raise ParseError("exp argument must be scalar * x", pos)
        if sum(x) == 0:
            raise ParseError("exp argument needs no constant part", pos)
        if sum(x) != 1:
            raise ParseError("exp argument must be linear in x", pos)
        coeff = s if coeff is None else coeff + s
    if coeff is None:
        return ()
    return tuple(sorted(coeff.terms.items()))


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def parse_operator(text: str, rank: int = 1, decl: ParamDecl = RATIONALS,
                   central: bool | None = None) -> DiffOp:
    """Parse an operator expression into a DiffOp.

    ``central=None`` adjoins the center exactly when C occurs in the input;
    passing True/False forces the context (C in a forced-centerless input is
    an error).
    """
    value = _Parser(text, "operator", rank, decl).parse()
    has_c = any(k[3] for k in value.terms)
    if central is None:
        central = has_c
    if has_c and not central:
        raise ParseError("C used in a centerless context", 0)
    ctx = AlgebraCtx(rank, central=central)
    terms: dict = {}
    central_coeff = decl.zero
    for (x, t, d, cflag, e), s in value.terms.items():
        if any(x) or e:
            raise ParseError("x and exp(...) do not belong to operator input", 0)
        if cflag:
            central_coeff = central_coeff + s
        else:
            key = (t, d)
            terms[key] = terms.get(key, decl.zero) + s
    return DiffOp(ctx, terms, central_coeff if central else None)


def parse_polynomial(text: str, rank: int = 1, decl: ParamDecl = RATIONALS) -> dict:
    """Parse a polynomial in x1..xrank; returns {exponents: Scalar}."""
    value = _Parser(text, "polynomial", rank, decl).parse()
    out: dict = {}
    for (x, t, d, cflag, e), s in value.terms.items():
        out[x] = out.get(x, decl.zero) + s
    return {k: c for k, c in out.items() if not c.is_zero()}


def parse_quasipolynomial(text: str, decl: ParamDecl = RATIONALS) -> Quasipolynomial:
    value = _Parser(text, "quasipolynomial", 1, decl).parse()
    grouped: dict = {}
    for ((x,), t, d, cflag, e), s in value.terms.items():
        grouped.setdefault(e, {})[x] = grouped.get(e, {}).get(x, decl.zero) + s
    terms = []
    for e, poly in sorted(grouped.items()):
        deg = max(poly)
        coeffs = [poly.get(k, decl.zero) for k in range(deg + 1)]
        exponent = Scalar(decl, dict(e)) if e else decl.zero
        terms.append((coeffs, exponent))
    return Quasipolynomial(terms)


def parse_scalar(text: str, decl: ParamDecl = RATIONALS) -> Scalar:
    value = _Parser(text, "scalar", 1, decl).parse()
    out = decl.zero
    for (x, t, d, cflag, e), s in value.terms.items():
        out = out + s
    return out


def parse_param_decl(text: str) -> ParamDecl:
    """Parse a declaration like "lambda!,alpha,beta"; ! marks invertible."""
    invertible, plain = [], []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.endswith("!"):
            invertible.append(chunk[:-1].strip())
        else:
            plain.append(chunk)
    for name in invertible + plain:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError(f"invalid parameter name {name!r}")
        if re.fullmatch(r"[tDx][0-9]*|C|exp", name):
            raise ValueError(f"parameter name {name!r} is reserved by the grammar")
    return ParamDecl(invertible=invertible, plain=plain)


def parse_pbw_monomial(text: str, decl: ParamDecl = RATIONALS):
    """Parse "t^-1*D;t^-2" into a canonical PBW monomial tuple."""
    gens = []
    stripped = text.strip()
    if stripped in ("1", "[1]", ""):
        return ()
    for chunk in stripped.split(";"):
        op = parse_operator(chunk.strip(), 1, decl, central=False)
        if len(op.terms) != 1:
            raise ValueError(f"{chunk!r} is not a single generator")
        ((m, n), coeff), = op.terms.items()
        if coeff != decl.one:
            raise ValueError(f"{chunk!r} must carry coefficient 1")
        if m[0] >= 0:
            raise ValueError(f"{chunk!r} is not a negative-degree generator")
        gens.append((-m[0], n[0]))
    return tuple(sorted(gens))
