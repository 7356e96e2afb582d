"""Exact coefficient arithmetic.

Scalars are Laurent polynomials in a declared finite set of formal parameters
with arbitrary-precision rational coefficients.  Each coefficient is stored in
one canonical form: a Python ``int`` when it is integral, a ``Fraction`` only
otherwise, so the common integral case never pays for Fraction arithmetic.
A parameter is either plain
(exponents must stay >= 0) or invertible (any integer exponent, e.g. a
parameter standing for a nonzero complex number whose negative powers are
needed).  Division never happens inside Scalar arithmetic; it is confined to
truncated-series quotients and to linear solving, where results are returned
as (numerator, denominator) pairs.

The canonical monomial order is lexicographic on parameter names, then
exponent.  Everything here is immutable after construction and all operations
are pure, so values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Integral
from typing import Iterable, Mapping, NamedTuple, Sequence


class NonInvertibleParameter(ValueError):
    """A Laurent exponent went negative on a parameter not declared invertible."""


class ScalarDivisionError(ArithmeticError):
    """Exact division failed (non-unit divisor or non-divisible operands)."""


class InternalError(Exception):
    """An invariant the computation relies on failed: a defect in weylmod,
    not in its input."""


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` validates them and stores them with ``_set``.
    Instances of one class compare and hash by their field values, print as
    ``Name(field=value, ...)``, and raise ``AttributeError`` on assignment.
    """

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# A monomial key is a tuple of (name, exponent) pairs, sorted by name, with
# all exponents nonzero.  The empty tuple is the constant monomial.
Mono = tuple


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        ne = exps.get(name, 0) + e
        if ne:
            exps[name] = ne
        else:
            del exps[name]
    return tuple(sorted(exps.items()))


def _canon(c):
    """The canonical form of a rational: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, Integral):  # bool, numpy integers
            return int(c)
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canon_values(terms: dict) -> dict:
    """Make every value of ``terms`` canonical, in place."""
    for m, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[m] = c.numerator
    return terms


def _mono_key(mono: Mono, names: Sequence[str]) -> tuple:
    """Exponent vector of ``mono`` over ``names`` (missing names count as 0)."""
    d = dict(mono)
    return tuple(d.get(n, 0) for n in names)


def _mono_cmp_names(a: Mono, b: Mono) -> Sequence[str]:
    return sorted({n for n, _ in a} | {n for n, _ in b})


def _mono_le(a: Mono, b: Mono) -> bool:
    """a <= b in the canonical order (lex on names, then exponent)."""
    names = _mono_cmp_names(a, b)
    return _mono_key(a, names) <= _mono_key(b, names)


class ParamDecl:
    """Declaration of the coefficient ring: parameter names and invertibility.

    ``ParamDecl(invertible=("lambda",), plain=("a1", "a2"))`` declares a ring
    of Laurent polynomials in lambda and ordinary polynomials in a1, a2.
    """

    __slots__ = ("names", "_invertible")

    def __init__(self, invertible: Iterable[str] = (), plain: Iterable[str] = ()):
        inv = tuple(sorted(set(invertible)))
        pl = tuple(sorted(set(plain)))
        dup = set(inv) & set(pl)
        if dup:
            raise ValueError(f"parameters declared both invertible and plain: {sorted(dup)}")
        self.names = tuple(sorted(inv + pl))
        self._invertible = frozenset(inv)

    def is_invertible(self, name: str) -> bool:
        return name in self._invertible

    def has(self, name: str) -> bool:
        return name in self.names

    @property
    def is_empty(self) -> bool:
        return not self.names

    def __eq__(self, other):
        return (
            isinstance(other, ParamDecl)
            and self.names == other.names
            and self._invertible == other._invertible
        )

    def __hash__(self):
        return hash((self.names, self._invertible))

    def __repr__(self):
        parts = [n + "!" if self.is_invertible(n) else n for n in self.names]
        return f"ParamDecl({', '.join(parts)})"

    # -- constructors ------------------------------------------------------

    def rational(self, value) -> "Scalar":
        q = _canon(value)
        return _scalar(self, {(): q} if q else {})

    def param(self, name: str, power: int = 1) -> "Scalar":
        if name not in self.names:
            raise ValueError(f"undeclared parameter {name!r}")
        if power == 0:
            return self.one
        if power < 0 and not self.is_invertible(name):
            raise NonInvertibleParameter(
                f"parameter {name!r} is not declared invertible"
            )
        return _scalar(self, {((name, power),): 1})

    @property
    def zero(self) -> "Scalar":
        return _scalar(self, {})

    @property
    def one(self) -> "Scalar":
        return _scalar(self, {(): 1})


RATIONALS = ParamDecl()


def _merge_decl(a: ParamDecl, b: ParamDecl) -> ParamDecl:
    if a is b or a == b:
        return a
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    raise ValueError(f"cannot mix scalars over {a!r} and {b!r}")


class Scalar:
    """Immutable sparse Laurent polynomial over the rationals.

    Stored as a map from monomial keys to nonzero coefficients in canonical
    form: an ``int`` when the coefficient is integral, a ``Fraction`` only
    otherwise (never a Fraction with denominator 1).  Equal values have
    identical stored form, so ``==`` is exact structural equality.
    """

    __slots__ = ("decl", "terms")

    def __init__(self, decl: ParamDecl, terms: Mapping[Mono, Fraction]):
        self.decl = decl
        self.terms = {m: _canon(c) for m, c in terms.items() if c}

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return self.decl.rational(other)
        return NotImplemented

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def rational_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not a plain rational")
        return Fraction(self.terms[()])

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_unit(self) -> bool:
        """True when the scalar is a single monomial in invertible parameters."""
        if len(self.terms) != 1:
            return False
        (mono, _), = self.terms.items()
        return all(self.decl.is_invertible(n) for n, _ in mono)

    # -- ring operations ---------------------------------------------------
    #
    # Results are built with ``_scalar``: their coefficients are canonical and
    # nonzero by construction, so ``__init__``'s normalisation is skipped.

    def __add__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        decl = self.decl
        if other.decl is not decl:
            decl = _merge_decl(decl, other.decl)
        if not other.terms:
            return self if decl is self.decl else _scalar(decl, self.terms)
        if not self.terms:
            return other if decl is other.decl else _scalar(decl, other.terms)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            nc = terms.get(m, 0) + c
            if not nc:
                del terms[m]
            elif type(nc) is not int and nc.denominator == 1:
                terms[m] = nc.numerator
            else:
                terms[m] = nc
        return _scalar(decl, terms)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.decl, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        # one merge, like __add__, without the negated temporary
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        decl = self.decl
        if other.decl is not decl:
            decl = _merge_decl(decl, other.decl)
        if not other.terms:
            return self if decl is self.decl else _scalar(decl, self.terms)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            nc = terms.get(m, 0) - c
            if not nc:
                del terms[m]
            elif type(nc) is not int and nc.denominator == 1:
                terms[m] = nc.numerator
            else:
                terms[m] = nc
        return _scalar(decl, terms)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        kind = type(other)
        if kind is int or kind is Fraction:
            if other == 1:
                return self
            if not other or not self.terms:
                return _scalar(self.decl, {})
            return _scalar(self.decl, _canon_values(
                {m: c * other for m, c in self.terms.items()}))
        if kind is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        decl = self.decl
        if other.decl is not decl:
            decl = _merge_decl(decl, other.decl)
        st, ot = self.terms, other.terms
        if not st or not ot:
            return _scalar(decl, {})
        if len(ot) == 1:
            mono, big = other, self
        elif len(st) == 1:
            mono, big = self, other
        else:
            terms: dict = {}
            for ma, ca in st.items():
                for mb, cb in ot.items():
                    m = _mono_mul(ma, mb)
                    nc = terms.get(m, 0) + ca * cb
                    if nc:
                        terms[m] = nc
                    elif m in terms:
                        del terms[m]
            return _scalar(decl, _canon_values(terms))
        # a product with a single monomial maps distinct monomials to distinct
        # monomials and, over an integral domain, keeps every term nonzero
        (ma, ca), = mono.terms.items()
        if not ma:
            if ca == 1:
                return big if big.decl is decl else _scalar(decl, big.terms)
            terms = {mb: ca * cb for mb, cb in big.terms.items()}
        else:
            terms = {_mono_mul(ma, mb): ca * cb for mb, cb in big.terms.items()}
        return _scalar(decl, _canon_values(terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k == 0:
            return self.decl.one
        if k < 0:
            return self.inverse() ** (-k)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def inverse(self) -> "Scalar":
        """Inverse of a unit (single monomial with invertible parameters)."""
        if len(self.terms) != 1:
            raise ScalarDivisionError(f"cannot invert non-monomial scalar {self}")
        (mono, coeff), = self.terms.items()
        for name, e in mono:
            if e > 0 and not self.decl.is_invertible(name):
                raise NonInvertibleParameter(
                    f"parameter {name!r} is not declared invertible"
                )
        inv_mono = tuple((n, -e) for n, e in mono)
        return _scalar(self.decl, {inv_mono: _canon(1 / Fraction(coeff))})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- leading term and exact division ------------------------------------

    def _sorted_monos(self) -> list:
        names = sorted({n for m in self.terms for n, _ in m})
        return sorted(self.terms, key=lambda m: _mono_key(m, names), reverse=True)

    def leading(self) -> tuple:
        """(monomial, coefficient) maximal in the canonical order."""
        if not self.terms:
            raise ValueError("zero scalar has no leading term")
        best = None
        for m in self.terms:
            if best is None or _mono_le(best, m):
                best = m
        return best, self.terms[best]

    def exact_div(self, divisor: "Scalar") -> "Scalar":
        """Exact polynomial division; raises if the quotient does not exist.

        Callers must know the quotient exists; a nonzero remainder raises
        ScalarDivisionError.  Coefficients are divided as Fractions (an int
        divided by an int would give a float) and stored canonically.
        """
        if divisor.is_zero():
            raise ScalarDivisionError("division by zero scalar")
        if divisor.is_rational():
            q = divisor.terms[()]
            return Scalar(self.decl, {m: Fraction(c) / q for m, c in self.terms.items()})
        decl = _merge_decl(self.decl, divisor.decl)
        rem = dict(self.terms)
        dm, dc = divisor.leading()
        quot: dict = {}
        while rem:
            lead = None
            for m in rem:
                if lead is None or _mono_le(lead, m):
                    lead = m
            qc = Fraction(rem[lead]) / dc
            # exponent subtraction
            exps = dict(lead)
            ok = True
            for n, e in dm:
                ne = exps.get(n, 0) - e
                if ne:
                    exps[n] = ne
                elif n in exps:
                    del exps[n]
            qm = tuple(sorted(exps.items()))
            for n, e in qm:
                if e < 0 and not decl.is_invertible(n):
                    ok = False
                    break
            if not ok:
                raise ScalarDivisionError(f"{self} is not divisible by {divisor}")
            quot[qm] = quot.get(qm, 0) + qc
            for m, c in divisor.terms.items():
                mm = _mono_mul(qm, m)
                nc = rem.get(mm, 0) - qc * c
                if nc:
                    rem[mm] = nc
                elif mm in rem:
                    del rem[mm]
        return Scalar(decl, quot)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in self._sorted_monos():
            coeff = self.terms[mono]
            factors = []
            if not mono:
                factors.append(str(abs(coeff)))
            else:
                if abs(coeff) != 1:
                    factors.append(str(abs(coeff)))
                for name, e in mono:
                    factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Scalar({self})"

    def to_json(self) -> dict:
        monos = []
        for mono in self._sorted_monos():
            c = self.terms[mono]
            monos.append({"coeff": f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator),
                          "exps": {n: e for n, e in mono}})
        return {"monomials": monos}


def _scalar(decl: ParamDecl, terms: dict) -> Scalar:
    """A Scalar over ``terms`` taken as they are: the caller guarantees that
    every coefficient is canonical and nonzero."""
    s = _new_scalar(Scalar)
    s.decl = decl
    s.terms = terms
    return s


_new_scalar = object.__new__


# ---------------------------------------------------------------------------
# Sparse vectors
# ---------------------------------------------------------------------------


def accumulate(d: dict, key, value) -> None:
    """Add ``value`` into ``d[key]``, dropping the entry when it cancels.

    Zeros are tested by truthiness, which covers Scalar, Fraction and int
    coefficients alike, so a map built this way never stores a zero.
    """
    old = d.get(key)
    if old is not None:
        value = old + value
    if value:
        d[key] = value
    else:
        d.pop(key, None)


def _coeff_prefix(coeff: Scalar):
    """Render a coefficient as a prefix 'c*'; returns (prefix, negated)."""
    if coeff.is_rational():
        q = coeff.rational_value()
        neg = q < 0
        q = abs(q)
        return ("" if q == 1 else f"{q}*", neg)
    if coeff.is_monomial():
        (mono, q), = coeff.terms.items()
        neg = q < 0
        body = Scalar(coeff.decl, {mono: abs(q)})
        return (f"{body}*", neg)
    return (f"({coeff})*", False)


def _term_str(coeff: Scalar, body: str):
    """One rendered additive term; returns (text without sign, negated)."""
    if not body:
        if coeff.is_rational():
            q = coeff.rational_value()
            return (str(abs(q)), q < 0)
        if coeff.is_monomial():
            (mono, q), = coeff.terms.items()
            return (str(Scalar(coeff.decl, {mono: abs(q)})), q < 0)
        return (f"({coeff})", False)
    prefix, neg = _coeff_prefix(coeff)
    return (prefix + body, neg)


class SparseVec:
    """Finite combination of labelled basis vectors with Scalar coefficients.

    ``terms`` maps hashable labels to nonzero Scalars (int and Fraction
    coefficients are converted); a zero is never stored, so ``==`` is
    structural.  A subclass keeps its ambient space in the slot named by
    ``_space``, raises ``_mismatch`` when two operands live in different
    spaces, and renders and orders its labels with ``_label`` and
    ``_sort_key``.
    """

    __slots__ = ("terms",)
    _space = ""
    _mismatch = ValueError
    _sort_key = None  # natural label order

    def __init__(self, space, terms):
        setattr(self, self._space, space)
        self.terms = {k: c if isinstance(c, Scalar) else RATIONALS.rational(c)
                      for k, c in terms.items() if c}

    def _like(self, terms):
        """A vector of the same type and space with the given terms.

        Nothing is re-validated: the caller guarantees that the labels are
        valid in this space and that every value is a nonzero Scalar.  Sums,
        negatives and nonzero multiples of valid vectors are valid, since
        Laurent polynomials over Q form an integral domain.
        """
        v = object.__new__(type(self))
        setattr(v, self._space, getattr(self, self._space))
        v.terms = terms
        return v

    def _check(self, other):
        mine, theirs = getattr(self, self._space), getattr(other, self._space)
        if mine != theirs:
            raise self._mismatch(f"{mine} vs {theirs}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(terms, k, c)
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        # one merge, like __add__, without the negated temporary
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            old = terms.get(k)
            if old is None:
                terms[k] = -c
            else:
                c = old - c
                if c:
                    terms[k] = c
                else:
                    del terms[k]
        return self._like(terms)

    def scale(self, s):
        if not isinstance(s, (Scalar, int, Fraction)):
            s = RATIONALS.rational(s)
        if not s:
            return self._like({})
        return self._like({k: c * s for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (getattr(self, self._space) == getattr(other, self._space)
                and self.terms == other.terms)

    def _pieces(self) -> list:
        """(text without sign, negated) for each term, in printing order."""
        return [_term_str(self.terms[k], self._label(k))
                for k in sorted(self.terms, key=self._sort_key)]

    def __str__(self):
        out = []
        for piece, negated in self._pieces():
            if not out:
                out.append("-" + piece if negated else piece)
            else:
                out.append((" - " if negated else " + ") + piece)
        return "".join(out) or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------


class SeriesError(ValueError):
    """Invalid truncated-series operation (zero denominator, bad valuation)."""


class Series(Frozen):
    """Truncated power series: coefficients of x^0 .. x^order (not / k!)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple):
        if len(coeffs) != order + 1:
            raise ValueError("series length must be order + 1")
        self._set(order=order, coeffs=coeffs)

    @staticmethod
    def zero(order: int, decl: ParamDecl = RATIONALS) -> "Series":
        return Series(order, tuple(decl.zero for _ in range(order + 1)))

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def valuation(self):
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(n, tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(n, tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        out = [None] * (n + 1)
        for k in range(n + 1):
            acc = None
            for i in range(k + 1):
                t = self.coeffs[i] * other.coeffs[k - i]
                acc = t if acc is None else acc + t
            out[k] = acc
        return Series(n, tuple(out))

    def scale(self, s: Scalar) -> "Series":
        return Series(self.order, tuple(c * s for c in self.coeffs))

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(order, self.coeffs[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = Frozen.__hash__


def series_quotient(num: Series, den: Series) -> Series:
    """Exact quotient of truncated series, dividing out the common power of x.

    Requires den nonzero with a unit coefficient at its valuation, and num
    vanishing to at least the same order.  The result q satisfies
    q * den == num up to the returned truncation order.
    """
    v = den.valuation()
    if v is None:
        raise SeriesError("series denominator is identically zero")
    nv = num.valuation()
    if nv is not None and nv < v:
        raise SeriesError(
            f"numerator vanishes to order {nv}, denominator to order {v}"
        )
    lead = den.coeffs[v]
    if not (lead.is_unit() or (lead.is_rational() and not lead.is_zero())):
        raise SeriesError(f"denominator lead {lead} is not a unit")
    inv = lead.inverse()
    order = min(num.order, den.order) - v
    dd = [den.coeffs[v + k] for k in range(order + 1)]
    nn = [num.coeffs[v + k] if v + k <= num.order else None for k in range(order + 1)]
    q: list = []
    for k in range(order + 1):
        acc = nn[k]
        for i in range(1, k + 1):
            acc = acc - dd[i] * q[k - i]
        q.append(acc * inv)
    return Series(order, tuple(q))


def exp_series(a: Scalar, order: int) -> Series:
    """Truncated expansion of e^(a*x): coefficients a^k / k!."""
    coeffs = []
    power = a.decl.one if isinstance(a, Scalar) else RATIONALS.one
    fact = 1
    for k in range(order + 1):
        coeffs.append(power * _canon(Fraction(1, fact)))
        power = power * a
        fact *= k + 1
    return Series(order, tuple(coeffs))


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


class LinearSolution(NamedTuple):
    """Result of exact elimination.

    nullspace vectors have polynomial (Scalar) entries.  The particular
    solution, when the system is consistent and a right-hand side was given,
    is a (numerators, denominator) pair to be read as numerators[i]/den;
    compare candidate solutions by cross-multiplication.
    """

    rank: int
    pivot_cols: list
    nullspace: list
    particular: tuple | None
    consistent: bool


def solve_linear(cols: Sequence[Mapping], rhs: Sequence[Mapping] = ()) -> LinearSolution:
    """Fraction-free elimination over the parameter ring, read off one SpanBasis.

    The matrix is given by its columns, sparse {row key: Scalar} maps whose
    row keys are mutually comparable; a missing key is a zero entry.
    Column j enters the span as its entries, keyed (0, row), plus the tag
    (1, j) with coefficient 1; tags sort after the entries.  A column whose
    entries reduce to zero leaves a tag-only row r, and x_k = r[(1, k)]
    solves m x = 0: a nullspace vector.  The other columns are the pivot
    columns.  A right-hand-side column enters with the tag (1, -1) and is
    consistent when its entries reduce to zero; the residue r then gives
    m x = rhs * den for x_k = -r[(1, k)], den = r[(1, -1)].
    """
    decl = next((e.decl for col in cols for e in col.values() if not e.decl.is_empty),
                RATIONALS)
    span = SpanBasis()

    def residue(col: Mapping, tag: int) -> dict:
        vec = {(0, i): c for i, c in col.items()}
        vec[(1, tag)] = decl.one
        return span.reduce(vec)

    def tags(r: dict) -> list:
        return [r.get((1, k), decl.zero) for k in range(len(cols))]

    pivot_cols: list = []
    nullspace = []
    for j, col in enumerate(cols):
        r = residue(col, j)
        span.add(r)
        if min(r)[0] == 0:
            pivot_cols.append(j)
        else:
            nullspace.append(tags(r))

    consistent = True
    particular = None
    if rhs:
        residues = [residue(col, -1) for col in rhs]
        consistent = all(min(r)[0] == 1 for r in residues)
        if consistent and len(rhs) == 1:
            r, = residues
            particular = ([-x for x in tags(r)], r[(1, -1)])

    return LinearSolution(len(pivot_cols), pivot_cols, nullspace, particular,
                          consistent)


class SpanBasis:
    """Incremental echelon basis for vectors with hashable coordinate keys.

    Vectors are {key: coefficient} dicts with Scalar values or plain
    rationals (int or Fraction); zeros are tested by truthiness, so all of
    them work.  Reduction is by
    cross-multiplication, so the span is taken over the fraction field of
    the parameter ring while all stored entries stay polynomial.  A row of
    Python ints is stored divided by the gcd of its entries: cross-multiplying
    against rows kept unreduced would about double the entry size with
    every row added.
    """

    def __init__(self):
        self.pivots: dict = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @staticmethod
    def _lead(vec: dict):
        return min(vec.keys())

    def reduce(self, vec: Mapping) -> dict:
        v = {k: c for k, c in vec.items() if c}
        while v:
            lead = self._lead(v)
            row = self.pivots.get(lead)
            if row is None:
                return v
            a = v[lead]
            b = row[lead]
            nv = {}
            for k in set(v) | set(row):
                c = v.get(k)
                d = row.get(k)
                if c is None:
                    nc = -(a * d)
                elif d is None:
                    nc = b * c
                else:
                    nc = b * c - a * d
                if nc:
                    nv[k] = nc
            v = nv
        return v

    def add(self, vec: Mapping) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        if all(type(c) is int for c in v.values()):
            g = gcd(*v.values())
            if g != 1:
                v = {k: c // g for k, c in v.items()}
        self.pivots[self._lead(v)] = v
        return True

    def contains(self, vec: Mapping) -> bool:
        return not self.reduce(vec)

    def close(self, vecs: Iterable[Mapping], images) -> None:
        """Add ``vecs``, then the span's closure under ``images``.

        ``images(v)`` yields vectors to add for a vector v that entered the
        span.  The spin is breadth-first from the vectors that were new, a
        level at a time, until a level adds nothing; vectors are added in
        the order the levels produce them, so the pivot rows are too.
        """
        frontier = [v for v in vecs if self.add(v)]
        while frontier:
            frontier = [w for v in frontier for w in images(v) if self.add(w)]
