"""The differential-operator algebras on Laurent polynomial rings.

Basis monomials are t^m D^n with m an integer vector and n a vector of
non-negative integers, one slot per variable, where D_i = t_i d/dt_i.  At
rank 1 the algebra carries a universal one-dimensional central extension; the
central generator is written C.  The convention 0^0 = 1 is used throughout:
``_shift`` expands (X - 0)^k as X^k, and Python's ** already follows it in
the cocycle sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product as iproduct
from math import comb, lcm
from typing import NamedTuple

from .scalars import (
    Frozen, ParamDecl, RATIONALS, Scalar, SpanBasis, SparseVec, _term_str, accumulate,
)


class CtxMismatch(ValueError):
    """Operands live over different algebra contexts."""


class CentralUnsupported(ValueError):
    """Operation undefined in the presence of the central element."""


class AlgebraCtx(Frozen):
    """Which algebra we are in: rank nu, optionally centrally extended."""

    __slots__ = ("rank", "central")

    def __init__(self, rank: int = 1, central: bool = False):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if central and rank != 1:
            raise CentralUnsupported(
                "the central extension exists only at rank 1"
            )
        self._set(rank=rank, central=central)

    # -- element constructors ----------------------------------------------

    def zero(self, decl: ParamDecl = RATIONALS) -> "DiffOp":
        return DiffOp(self, {}, decl.zero)

    def basis(self, m, n, coeff=1, decl: ParamDecl = RATIONALS) -> "DiffOp":
        m = (m,) if isinstance(m, int) else tuple(m)
        n = (n,) if isinstance(n, int) else tuple(n)
        if len(m) != self.rank or len(n) != self.rank:
            raise ValueError(f"multi-index arity must be {self.rank}")
        if any(k < 0 for k in n):
            raise ValueError("D exponents must be non-negative")
        c = coeff if isinstance(coeff, Scalar) else decl.rational(coeff)
        return DiffOp(self, {(m, n): c} if c else {}, c.decl.zero)

    def t(self, m: int = 1, coeff=1) -> "DiffOp":
        return self.basis((m,) + (0,) * (self.rank - 1), (0,) * self.rank, coeff)

    def d_op(self, n: int = 1, coeff=1) -> "DiffOp":
        return self.basis((0,) * self.rank, (n,) + (0,) * (self.rank - 1), coeff)

    def vir_l(self, m: int, coeff=1) -> "DiffOp":
        """Witt generator t^m D (rank 1)."""
        if self.rank != 1:
            raise ValueError("vir_l is a rank-1 constructor")
        return self.basis((m,), (1,), coeff)

    def center(self, coeff=1, decl: ParamDecl = RATIONALS) -> "DiffOp":
        if not self.central:
            raise CentralUnsupported("context has no central element")
        c = coeff if isinstance(coeff, Scalar) else decl.rational(coeff)
        return DiffOp(self, {}, c)


D_ALG = AlgebraCtx(1, central=False)
D_HAT = AlgebraCtx(1, central=True)


def term_sort_key(key):
    """Canonical printing order: m ascending, then n descending."""
    m, n = key
    return (m, tuple(-k for k in n))


def _monomial_str(key) -> str:
    m, n = key
    rank = len(m)
    factors = []
    for i in range(rank):
        name = "t" if rank == 1 else f"t{i + 1}"
        if m[i] != 0:
            factors.append(name if m[i] == 1 else f"{name}^{m[i]}")
    for i in range(rank):
        name = "D" if rank == 1 else f"D{i + 1}"
        if n[i] != 0:
            factors.append(name if n[i] == 1 else f"{name}^{n[i]}")
    return "*".join(factors)


class DiffOp(SparseVec):
    """Finite linear combination of basis monomials plus a central part."""

    __slots__ = ("ctx", "central")
    _space = "ctx"
    _mismatch = CtxMismatch
    _label = staticmethod(_monomial_str)
    _sort_key = staticmethod(term_sort_key)

    def __init__(self, ctx: AlgebraCtx, terms, central: Scalar | None = None):
        super().__init__(ctx, terms)
        self.central = central if central is not None else RATIONALS.zero
        if not ctx.central and not self.central.is_zero():
            raise CentralUnsupported("central coefficient in a centerless context")

    def __add__(self, other: "DiffOp") -> "DiffOp":
        out = super().__add__(other)
        out.central = self.central + other.central
        return out

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        out = super().__sub__(other)
        out.central = self.central - other.central
        return out

    def __neg__(self) -> "DiffOp":
        out = super().__neg__()
        out.central = -self.central
        return out

    def scale(self, s) -> "DiffOp":
        out = super().scale(s)
        out.central = self.central * s
        return out

    def is_zero(self) -> bool:
        return not self.terms and self.central.is_zero()

    def __eq__(self, other):
        same = super().__eq__(other)
        if same is NotImplemented:
            return same
        return same and self.central == other.central

    def __hash__(self):
        return hash(
            (self.ctx, frozenset(self.terms.items()), self.central)
        )

    def _pieces(self) -> list:
        pieces = super()._pieces()
        if not self.central.is_zero():
            pieces.append(_term_str(self.central, "C"))
        return pieces

    def to_json(self) -> dict:
        items = []
        for (m, n) in sorted(self.terms, key=term_sort_key):
            items.append({
                "m": list(m),
                "n": list(n),
                "coeff": self.terms[(m, n)].to_json(),
            })
        out = {"rank": self.ctx.rank, "terms": items}
        if self.ctx.central:
            out["central"] = self.central.to_json()
        return out


# ---------------------------------------------------------------------------
# Structure constants
# ---------------------------------------------------------------------------


def _shift(m: int, k: int) -> dict:
    """(X - m)^k expanded as {exponent: int}, with 0^0 = 1 and no zero stored."""
    if m == 0:
        return {k: 1}
    return {e: comb(k, e) * (-m) ** (k - e) for e in range(k + 1)}


def _slot_product(factors) -> dict:
    """The product of one {exponent: int} polynomial per slot, keyed by the
    tuple of slot exponents."""
    out = {(): 1}
    for f in factors:
        out = {e + (a,): c * k for e, c in out.items() for a, k in f.items()}
    return out


def basis_product(m1, n1, m2, n2) -> dict:
    """(t^m1 D^n1)(t^m2 D^n2) as {(m, n): integer coefficient}.

    The product factors across variables: per slot, D^a t^b D^q =
    t^b (D + b)^a D^q.
    """
    m = tuple(x + y for x, y in zip(m1, m2))
    prod = _slot_product({e + q: c for e, c in _shift(-b, a).items()}
                         for a, b, q in zip(n1, m2, n2))
    return {(m, n): c for n, c in prod.items()}


def basis_bracket(m1, n1, m2, n2) -> dict:
    """[t^m1 D^n1, t^m2 D^n2] as {(m, n): integer coefficient} (no center)."""
    out = basis_product(m1, n1, m2, n2)
    for k, v in basis_product(m2, n2, m1, n1).items():
        accumulate(out, k, -v)
    return out


def cocycle_basis(m1: int, n1: int, m2: int, n2: int) -> Fraction:
    """Central 2-cocycle value on rank-1 basis monomials.

    Nonzero only for m1 + m2 = 0, m1 != 0.  For m1 > 0 it is the signed
    half-sum (-1)^(n1+1)/2 * sum_{i=1..m1} (m1-i)^n1 i^n2 with 0^0 = 1; the
    m1 < 0 value is fixed by antisymmetry, which also matches the pullback
    of the standard gl_infinity cocycle along t^m D^n -> sum_j j^n E_{j+m,j}.
    """
    if m1 == 0 or m1 + m2 != 0:
        return Fraction(0)
    if m1 > 0:
        s = sum((m1 - i) ** n1 * i ** n2 for i in range(1, m1 + 1))
        return Fraction((-1) ** (n1 + 1) * s, 2)
    return -cocycle_basis(m2, n2, m1, n1)


def assoc_product(a: DiffOp, b: DiffOp) -> DiffOp:
    """Associative product; defined on the centerless algebras only."""
    a._check(b)
    if a.ctx.central:
        raise CentralUnsupported("the associative product ignores the center; "
                                 "use a centerless context")
    terms: dict = {}
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            c = c1 * c2
            for key, k in basis_product(m1, n1, m2, n2).items():
                accumulate(terms, key, c * k)
    return DiffOp(a.ctx, terms)


def bracket(a: DiffOp, b: DiffOp) -> DiffOp:
    """Lie bracket; adds the cocycle term in the centrally extended context.

    Central components of the inputs commute with everything and contribute
    nothing; the cocycle pairs only the operator parts.
    """
    a._check(b)
    terms: dict = {}
    central = None
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            c = c1 * c2
            for key, k in basis_bracket(m1, n1, m2, n2).items():
                accumulate(terms, key, c * k)
            if a.ctx.central:
                phi = cocycle_basis(m1[0], n1[0], m2[0], n2[0])
                if phi:
                    add = c * phi
                    central = add if central is None else central + add
    if a.ctx.central:
        if central is None:
            central = a.central.decl.zero if not a.central.decl.is_empty else RATIONALS.zero
        return DiffOp(a.ctx, terms, central)
    return DiffOp(a.ctx, terms)


def cocycle_phi(a: DiffOp, b: DiffOp) -> Scalar:
    """Bilinear extension of the central 2-cocycle (rank 1 only).

    Central components of the arguments are ignored: the cocycle is defined
    on the underlying operator algebra.
    """
    if a.ctx.rank != 1 or b.ctx.rank != 1:
        raise CentralUnsupported("the cocycle is defined at rank 1 only")
    acc = RATIONALS.zero
    for (m1, n1), c1 in a.terms.items():
        for (m2, n2), c2 in b.terms.items():
            phi = cocycle_basis(m1[0], n1[0], m2[0], n2[0])
            if phi:
                acc = acc + c1 * c2 * phi
    return acc


def grade_components(a: DiffOp) -> dict:
    """Split into graded pieces keyed by the t-degree vector; C sits in 0."""
    buckets: dict = {}
    for (m, n), c in a.terms.items():
        buckets.setdefault(m, {})[(m, n)] = c
    zero = (0,) * a.ctx.rank
    if not a.central.is_zero():
        buckets.setdefault(zero, {})
    out = {}
    for m, terms in buckets.items():
        central = a.central if (m == zero and not a.central.is_zero()) else None
        out[m] = DiffOp(a.ctx, terms, central)
    return out


# ---------------------------------------------------------------------------
# Generator-closure probe
# ---------------------------------------------------------------------------


class SpanProbeReport(NamedTuple):
    reached: list
    missing: list
    dimension: int
    depth_used: int


def generated_span_probe(generators, m_bound: int, n_bound: int, depth: int) -> SpanProbeReport:
    """Close the span of ``generators`` under the bracket inside a window.

    Bracket results are truncated to the window |m_i| <= m_bound,
    n_i <= n_bound after each step (terms outside are discarded), so the
    probe reports which windowed basis monomials are certainly reachable;
    a monomial listed as missing may still be reachable through larger
    intermediates.

    With pi the truncation to the window and S_0 the windowed span of the
    generators, step s computes S_{s+1} = S_s + pi[S_s, S_s].  Each S_s is
    a subspace fixed by the inputs alone, not by the vectors chosen to
    span it or the order they are added in, and ``depth_used`` is the last
    step at which it grew, so every reported value is a function of that
    sequence.  These shortcuts leave the sequence as it is:

    - each pair of window monomials is bracketed once, into a table of
      windowed structure constants that holds both orders ([x, y] =
      -[y, x]), and pi is linear, so pi[v, w] is read off the table term
      by term;
    - the pivot rows of S_{s-1} already bracket into S_s, so step s
      brackets each row new in S_s only against the older rows and the
      new rows after it: [w, v] = -[v, w] and [v, v] = 0;
    - once S_s fills the window every later step adds nothing, so the
      probe stops and every monomial is reached;
    - rows are integer vectors: each generator is cleared of denominators
      and ``SpanBasis`` stores integer rows divided by their gcd, and
      scaling a vector leaves its span alone.
    """
    if not generators:
        raise ValueError("need at least one generator")
    ctx = generators[0].ctx
    if ctx.central:
        raise CentralUnsupported("span probe works in the centerless algebra")
    rank = ctx.rank

    basis_keys = [
        (m, n)
        for m in iproduct(*[range(-m_bound, m_bound + 1)] * rank)
        for n in iproduct(*[range(n_bound + 1)] * rank)
    ]
    basis_keys.sort(key=term_sort_key)
    full = len(basis_keys)
    # Vectors over the window with integer entries, keyed by window
    # position, so the echelon pivots on the first nonzero coordinate in the
    # canonical term order; terms outside the window are dropped.
    key_pos = {k: i for i, k in enumerate(basis_keys)}
    span = SpanBasis()
    for g in generators:
        vec = {key_pos[k]: c.rational_value() for k, c in g.terms.items() if k in key_pos}
        den = lcm(*(q.denominator for q in vec.values()))
        span.add({i: (q * den).numerator for i, q in vec.items()})

    # {(i1, i2): [(pos, k), ...]}: the windowed bracket of two window positions
    table: dict = {}

    def windowed_bracket(v: dict, w: dict) -> dict:
        prod: dict = {}
        for i1, c1 in v.items():
            for i2, c2 in w.items():
                terms = table.get((i1, i2))
                if terms is None:
                    terms = table[i1, i2] = [
                        (key_pos[key], k)
                        for key, k in basis_bracket(*basis_keys[i1], *basis_keys[i2]).items()
                        if key in key_pos
                    ]
                    # [x, y] = -[y, x]
                    table[i2, i1] = [(pos, -k) for pos, k in terms]
                c = c1 * c2
                for pos, k in terms:
                    accumulate(prod, pos, c * k)
        return prod

    # new pivot rows are appended to span.pivots, so each step's new rows
    # are the tail rows[start:] added during the previous step
    start = 0
    depth_used = 0
    for step in range(depth):
        rows = list(span.pivots.values())
        if span.dim == full or start == len(rows):
            break
        pairs = ((rows[i], w) for i in range(start, len(rows))
                 for w in chain(rows[:start], rows[i + 1:]))
        for v, w in pairs:
            if span.add(windowed_bracket(v, w)):
                depth_used = step + 1
                if span.dim == full:
                    break
        start = len(rows)

    if span.dim == full:
        return SpanProbeReport(basis_keys, [], full, depth_used)
    reached = []
    missing = []
    for i, key in enumerate(basis_keys):
        if span.contains({i: 1}):
            reached.append(key)
        else:
            missing.append(key)
    return SpanProbeReport(reached, missing, span.dim, depth_used)
