"""Highest-weight machinery for the centrally extended rank-1 algebra.

A highest-weight datum is a central charge c together with a quasipolynomial
phi (a finite sum of p(x) e^(a x) terms with phi(0) = 0).  The eigenvalue
h_n of D^n on the highest-weight vector is read off from the generating
series -sum h_n x^n / n! = phi(x) / (e^x - 1); h is indexed from n = 0, with
h_0 the eigenvalue of the degree-zero basis element t^0 D^0 (the series
determines it, and the straightening action cannot be computed without it).

Verma vectors are stored over canonically ordered monomials in the negative
generators t^-j D^n (j >= 1).  Truncation bounds the *enumerated* basis by
level Sum j <= L and per-generator order n <= N, but the action itself is
exact: straightening never truncates and may produce monomials of order
above N, which simply extend the coordinate set.  Exceeding the level bound
raises, because the hosting truncation can no longer represent the result.
"""

from __future__ import annotations

from typing import NamedTuple

from .scalars import (
    ParamDecl, RATIONALS, Scalar, Series, SpanBasis, SparseVec,
    _term_str, accumulate, exp_series, series_quotient, solve_linear,
)
from .liealg import D_HAT, DiffOp, basis_bracket, cocycle_basis


class LevelOverflow(ValueError):
    """An action result left the level range of the hosting truncation."""


class Quasipolynomial:
    """Finite sum of p_i(x) e^(a_i x) with Scalar coefficients.

    Exponents must be pairwise distinct (checked only when all are plain
    rationals; distinctness of symbolic exponents is the caller's business).
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        cleaned = []
        for poly, a in terms:
            poly = tuple(poly)
            while poly and poly[-1].is_zero():
                poly = poly[:-1]
            if poly:
                cleaned.append((poly, a))
        self.terms = tuple(cleaned)
        rationals = [a.rational_value() for _, a in self.terms if a.is_rational()]
        if len(set(rationals)) != len(rationals):
            raise ValueError("quasipolynomial exponents must be distinct")

    @staticmethod
    def zero() -> "Quasipolynomial":
        return Quasipolynomial([])

    @staticmethod
    def poly(coeffs) -> "Quasipolynomial":
        return Quasipolynomial([(tuple(coeffs), RATIONALS.zero)])

    def value_at_zero(self) -> Scalar:
        acc = RATIONALS.zero
        for poly, _ in self.terms:
            acc = acc + poly[0]
        return acc

    def series(self, order: int) -> Series:
        acc = Series.zero(order)
        for poly, a in self.terms:
            es = exp_series(a, order)
            pl = Series(order, tuple(
                poly[k] if k < len(poly) else RATIONALS.zero
                for k in range(order + 1)
            ))
            acc = acc + pl * es
        return acc

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Quasipolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for poly, a in self.terms:
            body = []
            for k, c in enumerate(poly):
                if c.is_zero():
                    continue
                piece, neg = _term_str(c, "x" if k == 1 else (f"x^{k}" if k else ""))
                body.append(("-" if neg else ("+" if body else "")) + piece
                            if not body else (" - " if neg else " + ") + piece)
            poly_s = "".join(body) or "0"
            if a.is_zero():
                chunks.append(f"({poly_s})")
            else:
                chunks.append(f"({poly_s})*exp(({a})*x)")
        return " + ".join(chunks)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"poly": [c.to_json() for c in poly], "exponent": a.to_json()}
                for poly, a in self.terms
            ]
        }


class HWSpec:
    """Central charge plus quasipolynomial weight data."""

    __slots__ = ("c", "phi", "_h_cache", "_series")

    def __init__(self, c: Scalar, phi: Quasipolynomial):
        if not phi.value_at_zero().is_zero():
            raise ValueError("phi(0) must vanish")
        self.c = c
        self.phi = phi
        self._h_cache: dict = {}
        self._series: Series | None = None

    @staticmethod
    def generic(order: int, extra_invertible=()) -> "HWSpec":
        """Weights h_0..h_order and c as independent generic parameters.

        Built from phi = sum b_i x^i, i = 1..order+1: the map b -> h is
        triangular with unit-like pivots, so fresh b parameters make the h_n
        generic.
        """
        names = [f"b{i}" for i in range(1, order + 2)]
        decl = ParamDecl(invertible=tuple(extra_invertible),
                         plain=tuple(names) + ("c",))
        coeffs = [decl.zero] + [decl.param(n) for n in names]
        return HWSpec(decl.param("c"), Quasipolynomial.poly(coeffs))

    def delta_series(self, order: int) -> Series:
        """phi(x)/(e^x - 1) truncated at x^order.

        Quotient coefficients do not depend on the truncation, so only the
        longest series computed so far is kept; smaller orders are served by
        truncating it, and a longer one is computed to at least twice its
        order, so h_0 .. h_n costs O(log n) quotients.
        """
        got = self._series
        if got is None or got.order < order:
            order_new = order if got is None else max(order, 2 * got.order)
            num = self.phi.series(order_new + 1)
            ex = exp_series(RATIONALS.one, order_new + 1)
            den = ex - Series(order_new + 1, tuple(
                RATIONALS.one if k == 0 else RATIONALS.zero
                for k in range(order_new + 2)
            ))
            got = self._series = series_quotient(num, den)
        return got if got.order == order else got.truncate(order)

    def h(self, n: int) -> Scalar:
        got = self._h_cache.get(n)
        if got is None:
            series = self.delta_series(n)
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            got = -(series[n] * fact)
            self._h_cache[n] = got
        return got


def h_from_phi(spec: HWSpec, n: int) -> Scalar:
    """h_n = -n! [x^n] (phi(x)/(e^x - 1))."""
    return spec.h(n)


# ---------------------------------------------------------------------------
# Truncated Verma modules
# ---------------------------------------------------------------------------

# A PBW monomial is a tuple of (j, n) generator labels sorted ascending,
# denoting the product t^-j1 D^n1 ... t^-jk D^nk applied to the highest
# weight vector; the empty tuple is the highest-weight vector itself.


def monomial_level(mono) -> int:
    return sum(j for j, _ in mono)


class TruncVerma:
    """Level- and order-bounded window on a Verma module.

    Logically immutable; the internal memo tables only ever insert values
    that are pure functions of their keys, so concurrent readers may at
    worst duplicate work.
    """

    def __init__(self, spec: HWSpec, level_bound: int, order_bound: int):
        if level_bound < 0 or order_bound < 0:
            raise ValueError("bounds must be non-negative")
        self.spec = spec
        self.level_bound = level_bound
        self.order_bound = order_bound
        self._basis_memo: dict = {}
        self._apply_memo: dict = {}
        self._left_memo: dict = {}

    def basis_at_level(self, level: int) -> list:
        """All enumerated monomials of the given level (orders <= N)."""
        got = self._basis_memo.get(level)
        if got is not None:
            return got
        gens = [
            (j, n)
            for j in range(1, level + 1)
            for n in range(self.order_bound + 1)
        ]

        out = []

        def rec(idx, remaining, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for k in range(idx, len(gens)):
                j, n = gens[k]
                if j > remaining:
                    continue
                acc.append((j, n))
                rec(k, remaining - j, acc)
                acc.pop()

        if level == 0:
            out.append(())
        else:
            rec(0, level, [])
        out.sort()
        self._basis_memo[level] = out
        return out

    def basis(self) -> list:
        full = []
        for level in range(self.level_bound + 1):
            full.extend(self.basis_at_level(level))
        return full

    def vacuum(self) -> "VermaElem":
        return VermaElem(self, {(): RATIONALS.one})

    def elem(self, terms) -> "VermaElem":
        return VermaElem(self, terms)

    # -- straightening -------------------------------------------------------

    def _apply_basis(self, m: int, n: int, mono) -> dict:
        """t^m D^n applied to a PBW monomial, as {monomial: Scalar}."""
        key = (m, n, mono)
        got = self._apply_memo.get(key)
        if got is not None:
            return got
        if m < 0:
            # a negative generator is a creation operator: insert it
            out = self._left_mul_mono((-m, n), mono)
        elif not mono:
            if m > 0:
                out = {}
            else:
                h = self.spec.h(n)
                out = {(): h} if not h.is_zero() else {}
        else:
            g = mono[0]
            rest = mono[1:]
            out = self._left_mul(g, self._apply_basis(m, n, rest))
            jg, ng = g
            comm = basis_bracket((m,), (n,), (-jg,), (ng,))
            for (mk, nk), k in comm.items():
                for mo, c in self._apply_basis(mk[0], nk[0], rest).items():
                    accumulate(out, mo, c * k)
            phi = cocycle_basis(m, n, -jg, ng)
            if phi:
                accumulate(out, rest, self.spec.c * phi)
        self._apply_memo[key] = out
        return out

    def _left_mul(self, g, vec: dict) -> dict:
        out: dict = {}
        for mono, c in vec.items():
            for mo, k in self._left_mul_mono(g, mono).items():
                accumulate(out, mo, c * k if k != 1 else c)
        return out

    def _left_mul_mono(self, g, mono) -> dict:
        """Insert generator g on the left of a canonical monomial."""
        if monomial_level(mono) + g[0] > self.level_bound:
            raise LevelOverflow(
                f"level {monomial_level(mono) + g[0]} exceeds bound "
                f"{self.level_bound}"
            )
        if not mono or g <= mono[0]:
            return {(g,) + mono: RATIONALS.one}
        key = (g, mono)
        got = self._left_memo.get(key)
        if got is not None:
            return got
        head = mono[0]
        rest = mono[1:]
        out: dict = {}
        inner = self._left_mul_mono(g, rest)
        for mo, c in inner.items():
            for mo2, c2 in self._left_mul_mono(head, mo).items():
                accumulate(out, mo2, c * c2)
        jg, ng = g
        jh, nh = head
        comm = basis_bracket((-jg,), (ng,), (-jh,), (nh,))
        for (mk, nk), k in comm.items():
            # bracket of two negative generators is again negative; no center
            gen = (-mk[0], nk[0])
            for mo, c in self._left_mul_mono(gen, rest).items():
                accumulate(out, mo, c * k)
        self._left_memo[key] = out
        return out


def _gen_str(g) -> str:
    j, n = g
    body = f"t^-{j}"
    if n == 1:
        body += "*D"
    elif n > 1:
        body += f"*D^{n}"
    return body


def _verma_label(mono) -> str:
    return "[" + (" ".join(_gen_str(g) for g in mono) if mono else "1") + "]"


class VermaElem(SparseVec):
    """Finite Scalar combination of PBW monomials inside one truncation."""

    __slots__ = ("tv",)
    _space = "tv"
    _label = staticmethod(_verma_label)

    @staticmethod
    def _sort_key(mono):
        return (monomial_level(mono), mono)

    def __init__(self, tv: TruncVerma, terms):
        if any(monomial_level(mono) > tv.level_bound for mono in terms):
            raise LevelOverflow("monomial beyond the level bound")
        super().__init__(tv, terms)

    def level_components(self) -> dict:
        out: dict = {}
        for mono, c in self.terms.items():
            out.setdefault(monomial_level(mono), {})[mono] = c
        return {lv: VermaElem(self.tv, t) for lv, t in out.items()}

    def to_json(self) -> dict:
        return {
            "terms": [
                {"monomial": [[j, n] for j, n in mono],
                 "coeff": self.terms[mono].to_json()}
                for mono in sorted(self.terms)
            ]
        }


def verma_basis(spec: HWSpec, level_bound: int, order_bound: int) -> TruncVerma:
    return TruncVerma(spec, level_bound, order_bound)


def act_verma(op: DiffOp, v: VermaElem) -> VermaElem:
    """Exact straightened action of the extended algebra on a Verma window."""
    if op.ctx.rank != 1:
        raise ValueError("Verma modules here are over the rank-1 algebra")
    tv = v.tv
    out: dict = {}
    for (m, n), c in op.terms.items():
        for mono, fc in v.terms.items():
            coeff = c * fc
            for mo, k in tv._apply_basis(m[0], n[0], mono).items():
                accumulate(out, mo, coeff * k)
    if not op.central.is_zero():
        cc = op.central * tv.spec.c
        for mono, fc in v.terms.items():
            accumulate(out, mono, fc * cc)
    # _apply_basis raises LevelOverflow before it leaves the window
    return v._like(out)


def weight_of(v: VermaElem):
    """If D v = w v exactly, return w as a (numerator, denominator) pair.

    Returns None when v is not a weight vector for D.  Compare weights by
    cross-multiplication.
    """
    if v.is_zero():
        return None
    dv = act_verma(D_HAT.d_op(1), v)
    mono, c = min(v.terms.items())
    w_num = dv.terms.get(mono, RATIONALS.zero)
    if dv.scale(c) == v.scale(w_num):
        return (w_num, c)
    return None


# ---------------------------------------------------------------------------
# Singular vectors and bounded quotients
# ---------------------------------------------------------------------------


class SingularReport(NamedTuple):
    """Nullspace of the bounded annihilation system.

    The vectors are singular *up to order M within order bound N*: positive
    operators t^j D^mm with 1 <= j <= level and mm <= order_checked kill
    them.  Degree additivity makes higher positive degrees automatic for a
    bounded window, so the order cutoff is the only approximation.
    """

    level: int
    order_checked: int
    order_bound: int
    vectors: list


def singular_vectors(tv: TruncVerma, level: int, order_checked: int) -> SingularReport:
    if level > tv.level_bound:
        raise ValueError("level beyond the truncation bound")
    slice_basis = tv.basis_at_level(level)
    if level == 0:
        return SingularReport(0, order_checked, tv.order_bound,
                              [tv.vacuum()])
    # rows are numbered in first-seen order: the numbering sets the
    # elimination order, and with it the printed nullspace vectors
    row_keys: dict = {}
    cols = []
    for mono in slice_basis:
        col = {}
        for j in range(1, level + 1):
            for mm in range(order_checked + 1):
                for mo, c in tv._apply_basis(j, mm, mono).items():
                    col[row_keys.setdefault((j, mm, mo), len(row_keys))] = c
        cols.append(col)
    sol = solve_linear(cols)
    vectors = []
    for vec in sol.nullspace:
        vectors.append(VermaElem(tv, {
            mono: vec[ci] for ci, mono in enumerate(slice_basis)
        }))
    return SingularReport(level, order_checked, tv.order_bound, vectors)


def weight_space_dims(tv: TruncVerma, singulars) -> list:
    """Level-slice dimensions of the bounded quotient by the given vectors.

    Closes the span of ``singulars`` under basis operators t^m D^n with
    |m| <= level bound and n <= order bound + 1, skipping applications that
    would leave the level window or produce generator orders above
    2 * order bound + 2 (the cap keeps the closure finite).  Every kept
    vector lies exactly in the generated submodule, so the reported quotient
    dimensions are upper bounds: the probe may under-close, never
    over-close.  Singular vectors above the window are invisible, so the
    true simple quotient can only be smaller still.
    """
    L, N = tv.level_bound, tv.order_bound
    order_cap = 2 * N + 2

    def order_ok(elem: VermaElem) -> bool:
        return all(n <= order_cap for mono in elem.terms for _, n in mono)

    ops = [(m, D_HAT.basis(m, n)) for m in range(-L, L + 1) for n in range(N + 2)]
    proto = tv.vacuum()

    def images(terms):
        # every vector in the span lies in one level, so its images do too
        lv = monomial_level(next(iter(terms)))
        v = proto._like(terms)
        for m, op in ops:
            if 0 <= lv - m <= L:
                w = act_verma(op, v)
                if not w.is_zero() and order_ok(w):
                    yield w.terms

    # a pivot row has the level of the vector it came from, so a reduction
    # never mixes levels and the span's rows at each level are the closure
    # there
    span = SpanBasis()
    span.close([comp.terms for s in singulars
                for comp in s.level_components().values()], images)

    # dim(slice) - dim(slice meet closure) = dim(slice + closure) - dim(closure):
    # count the slice monomials that enter the span
    return [sum(1 for mono in tv.basis_at_level(lv) if span.add({mono: RATIONALS.one}))
            for lv in range(L + 1)]
