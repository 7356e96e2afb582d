"""Tensor products of a rank-1 polynomial module with a Verma window.

Elements are finite sums x^j (x) v with v ranging over PBW monomials of the
hosting truncation.  The algebra acts by the Leibniz rule, the center acting
by 0 on the polynomial side plus the central charge on the highest-weight
side.  The probes here exercise the constructive reduction (sampling the
one-parameter operator family and interpolating the samples with the exact
inverse of their Vandermonde matrix), bounded cyclicity, and bounded
intertwiner spaces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .scalars import (
    RATIONALS, Frozen, InternalError, Scalar, SpanBasis, SparseVec, accumulate,
)
from .liealg import D_ALG, D_HAT, DiffOp
from .umod import OmegaSpec, _basis_act_ints, act, act_hv
from .hwmod import LevelOverflow, TruncVerma, VermaElem, _verma_label, monomial_level
from .slots import _PRIMES, BoundsTooLarge, _sparse_echelon_mod_p, _spin_sparse_mod_p
# imported for perfbench/tracer.py, which times them as tensor.colspace_mod_p
# (the spin's step) and tensor.nullspace_mod_p
from .slots import _colspace_mod_p, _nullspace_mod_p  # noqa: F401


class TensorMismatch(ValueError):
    """Tensor operand does not fit the declared spaces."""


class TensorSpec(Frozen):
    """A rank-1 polynomial module tensored with a Verma truncation.

    ``omega.family`` is ``d`` for the differential-operator action; the
    reducible two-parameter family (``hv``) is accepted for degenerate
    control probes driven by its L/I generators.
    """

    __slots__ = ("omega", "hw")

    def __init__(self, omega: OmegaSpec, hw: TruncVerma):
        if omega.rank != 1:
            raise TensorMismatch("tensor factors are rank-1 modules")
        if omega.family not in ("d", "hv"):
            raise TensorMismatch("omega side must be a d- or hv-family module")
        self._set(omega=omega, hw=hw)

    def zero(self) -> "TensorElem":
        return TensorElem(self, {})

    def elem(self, terms) -> "TensorElem":
        return TensorElem(self, terms)

    def basis_keys(self, x_degree: int):
        return [
            (j, mono)
            for j in range(x_degree + 1)
            for mono in self.hw.basis()
        ]


def _tensor_label(key) -> str:
    j, mono = key
    xs = "1" if j == 0 else ("x" if j == 1 else f"x^{j}")
    return f"{xs}(x){_verma_label(mono)}"


class TensorElem(SparseVec):
    """Sparse {(x exponent, PBW monomial): Scalar} combination."""

    __slots__ = ("spec",)
    _space = "spec"
    _mismatch = TensorMismatch
    _label = staticmethod(_tensor_label)

    def __init__(self, spec: TensorSpec, terms):
        if any(j < 0 for j, _ in terms):
            raise TensorMismatch("x exponents must be non-negative")
        if any(monomial_level(mono) > spec.hw.level_bound for _, mono in terms):
            raise LevelOverflow("monomial beyond the level bound")
        super().__init__(spec, terms)

    def x_degree(self) -> int:
        if not self.terms:
            return -1
        return max(j for j, _ in self.terms)

    def component(self, j: int) -> VermaElem:
        """The Verma coefficient of x^j."""
        return VermaElem(self.spec.hw, {
            mono: c for (jj, mono), c in self.terms.items() if jj == j
        })

    def to_json(self) -> dict:
        return {
            "terms": [
                {"x_exp": j,
                 "monomial": [[a, b] for a, b in mono],
                 "coeff": self.terms[(j, mono)].to_json()}
                for (j, mono) in sorted(self.terms)
            ]
        }


def act_tensor(op: DiffOp, w: TensorElem) -> TensorElem:
    """Leibniz action: op.(f (x) v) = (op.f) (x) v + f (x) (op.v).

    The center contributes 0 from the polynomial side plus c from the
    highest-weight side.  Raises LevelOverflow when the Verma side leaves
    the hosting truncation.
    """
    spec = w.spec
    if op.ctx.rank != 1:
        raise TensorMismatch("tensor modules are over the rank-1 algebra")
    omega = spec.omega
    beta = omega.beta_sign
    out: dict = {}
    for (m, n), c in op.terms.items():
        m0, n0 = m[0], n[0]
        sign = beta ** ((1 - n0) % 2)
        prefactor = c * omega.lam_power(m) * sign
        for (j, mono), fc in w.terms.items():
            # polynomial side
            coeff = prefactor * fc
            for exps, k in _basis_act_ints(omega.eps, m, n, (j,)).items():
                accumulate(out, (exps[0], mono), coeff * k)
            # highest-weight side
            for mo, k in spec.hw._apply_basis(m0, n0, mono).items():
                accumulate(out, (j, mo), c * fc * k)
    if not op.central.is_zero():
        cc = op.central * spec.hw.spec.c
        for key, fc in w.terms.items():
            accumulate(out, key, fc * cc)
    return w._like(out)


def vanishing_bound(v: VermaElem) -> int:
    """Smallest K with t^m D^n v = 0 for every m >= K, n >= 0.

    A level-l component dies under any positive degree above l, so the
    bound is max component level plus one.
    """
    if v.is_zero():
        raise ValueError("vanishing bound of the zero vector is undefined")
    return max(monomial_level(mono) for mono in v.terms) + 1


# ---------------------------------------------------------------------------
# Constructive reduction
# ---------------------------------------------------------------------------


def _scaled_weight_op(spec: TensorSpec, m: int, n: int) -> DiffOp:
    """lambda^-m t^m D^n in the extended algebra."""
    lam = spec.omega.lam[0]
    return D_HAT.basis(m, n, lam ** (-m))


def difference_collapse(spec: TensorSpec, w: TensorElem) -> TensorElem:
    """Map a pure x (x) v element to a nonzero multiple of 1 (x) v.

    Applies lambda^-m t^m - lambda^-m' t^m' for m, m' past the vanishing
    bound of every component; on x (x) v this equals beta (m'-m) (1 (x) v).
    """
    if w.x_degree() != 1:
        raise ValueError("difference collapse expects top x-degree exactly 1")
    comps = [w.component(j) for j in range(2)]
    K = max(vanishing_bound(c) for c in comps if not c.is_zero())
    a = act_tensor(_scaled_weight_op(spec, K, 0), w)
    b = act_tensor(_scaled_weight_op(spec, K + 1, 0), w)
    return a - b


def vandermonde_reduce(spec: TensorSpec, w: TensorElem) -> TensorElem:
    """One step of the degree reduction that drives cyclic vectors to 1 (x) v.

    Writes lambda^-m t^m D (w) as a polynomial in m by sampling
    m = K .. K+s+1 past every component's vanishing bound and interpolating
    exactly: one inverse of the Vandermonde matrix, read off the Lagrange
    basis of the sample points, serves every key.  For the eps = 1 sign
    structure the top coefficient is +-(1 (x) v_s); for eps = 0 it vanishes
    identically and the next coefficient +-(x (x) v_s) is extracted instead,
    followed by one difference step when the degree would not otherwise
    drop.
    """
    if w.is_zero():
        raise ValueError("cannot reduce the zero element")
    s = w.x_degree()
    if s == 0:
        return w
    eps = spec.omega.eps
    comps = [w.component(j) for j in range(s + 1)]
    K = max(vanishing_bound(c) for c in comps if not c.is_zero())
    ms = list(range(K, K + s + 2))
    samples = [act_tensor(_scaled_weight_op(spec, m, 1), w) for m in ms]
    keys = sorted({k for u in samples for k in u.terms})
    npow = len(ms)
    # inv[p][r]: coefficient of m^p in the Lagrange polynomial that is 1 at
    # ms[r] and 0 at the other sample points
    inv = [[RATIONALS.zero] * npow for _ in range(npow)]
    for r, mr in enumerate(ms):
        poly, den = [Fraction(1)], 1
        for mq in ms:
            if mq != mr:
                # poly * (m - mq)
                poly = [up - mq * c for up, c in zip([0] + poly, poly + [0])]
                den *= mr - mq
        for p in range(npow):
            inv[p][r] = RATIONALS.rational(poly[p] / den)
    coeff_vecs = [dict() for _ in range(npow)]
    for key in keys:
        vals = [(r, u.terms[key]) for r, u in enumerate(samples) if key in u.terms]
        for p in range(npow):
            val = None
            for r, v in vals:
                if inv[p][r]:
                    val = v * inv[p][r] if val is None else val + v * inv[p][r]
            if val:
                coeff_vecs[p][key] = val
    top = TensorElem(spec, coeff_vecs[s + 1])
    if eps == 1:
        if top.is_zero():
            raise InternalError("top Vandermonde coefficient vanished with eps=1")
        return top
    if not top.is_zero():
        raise InternalError("top Vandermonde coefficient should vanish with eps=0")
    nxt = TensorElem(spec, coeff_vecs[s])
    if nxt.is_zero():
        raise InternalError("next Vandermonde coefficient vanished with eps=0")
    if nxt.x_degree() < s:
        return nxt
    # s = 1 and the extracted piece is again x (x) v: one difference step
    return difference_collapse(spec, nxt)


# ---------------------------------------------------------------------------
# Bounded cyclicity probe
# ---------------------------------------------------------------------------


class TensorProbeReport(NamedTuple):
    verdict: str
    seeds_checked: int
    space_dim: int
    failing_seed: tuple | None = None
    witness_dim: int | None = None


def _host(hw: TruncVerma, m_bound: int) -> TruncVerma:
    """The window hw extended by m_bound levels, where the generators act."""
    return TruncVerma(hw.spec, hw.level_bound + m_bound, hw.order_bound)


def _compressed_moves(spec: TensorSpec, keys, m_bound: int, n_bound: int,
                      host: TruncVerma):
    """Compressed generator actions on the bounded space, one {col key:
    {row key: Scalar}} sparse matrix per generator; components outside the
    window are dropped.

    A generator acts on x^j (x) v as the Kronecker sum P (x) 1 + 1 (x) V,
    plus its central part times the central charge.  The polynomial-side
    map P (j -> {j': Scalar}) and the Verma-side map V (PBW monomial ->
    {monomial: Scalar}) are computed once per generator, and every column
    is assembled from them.  host is ``_host(spec.hw, m_bound)``: it
    reaches m_bound levels past the window and no generator has degree
    below -m_bound, so no action leaves it.  Callers that share a window
    share one host, and with it one straightening memo."""
    omega = spec.omega
    degrees = sorted({j for j, _ in keys})
    def poly_side(apply):
        return {j: {e: c for (e,), c in apply(omega.monomial((j,))).terms.items()}
                for j in degrees}

    # (P, (m, n) of the Verma-side operator t^m D^n or None, central part)
    if omega.family == "d":
        gens = [(poly_side(partial(act, D_ALG.basis((m,), (n,)))), (m, n), None)
                for m in range(-m_bound, m_bound + 1) for n in range(n_bound + 1)]
        # the center: 0 on the polynomial side, the charge on the Verma side
        gens.append(({}, None, host.spec.c))
    else:
        # degenerate control: L_m / I_m act through the hv action on the
        # polynomial side and the embedding t^m D / t^m on the Verma side
        gens = [(poly_side(partial(act_hv, omega, (kind, m))), (m, n), None)
                for m in range(-m_bound, m_bound + 1)
                for kind, n in (("L", 1), ("I", 0))]
    window = set(keys)
    monos = list(dict.fromkeys(mono for _, mono in keys))
    moves = []
    for poly, mn, central in gens:
        verma = {mono: host._apply_basis(*mn, mono) for mono in monos} if mn else {}
        cols = {}
        for key in keys:
            j, mono = key
            col: dict = {}
            for e, c in poly.get(j, {}).items():
                accumulate(col, (e, mono), c)
            for mo, c in verma.get(mono, {}).items():
                accumulate(col, (j, mo), c)
            if central:
                accumulate(col, key, central)
            col = {k: c for k, c in col.items() if k in window}
            if col:
                cols[key] = col
        moves.append(cols)
    return moves


def irreducibility_probe(spec: TensorSpec, x_degree: int, m_bound: int,
                         n_bound: int = 2, exact: bool = False) -> TensorProbeReport:
    """Close each bounded basis seed under the compressed generator actions.

    The action of each generator is computed exactly and then intersected
    with the bounded space (x-degree <= bound, enumerated Verma window), the
    same compression used by the intertwiner systems.  Verdict is
    cyclic-within-bounds when every seed's closure contains 1 (x) 1 and
    spans the whole bounded space; otherwise the first failing seed and its
    exact closure dimension are reported.  Either way this is a statement
    about the bounded model, not a proof about the full module.

    A seed whose closure spans the full space modulo a prime (with symbolic
    parameters specialized to fixed residues) is certified: specialization
    and reduction can only shrink the span, so fullness lifts to the
    symbolic closure, which then also contains 1 (x) 1.  Mod p, a seed whose
    closure holds e(t) for a seed t already certified spans the full space,
    since the closure of t does; 1 (x) 1 is certified first, by a full spin
    (``_modular_full_seeds``, in pure Python).  Seeds that fall short are
    re-examined with exact symbolic arithmetic (always, so a negative
    verdict never rests on the specialization).
    """
    keys = spec.basis_keys(x_degree)
    moves = _compressed_moves(spec, keys, m_bound, n_bound, _host(spec.hw, m_bound))
    one = (0, ())
    full = len(keys)

    fast_full = set()
    if not exact:
        fast_full = _modular_full_seeds(keys, moves)

    for seed in keys:
        if seed in fast_full:
            continue
        span = SpanBasis()
        span.add({seed: RATIONALS.one})
        frontier = [{seed: RATIONALS.one}]
        while frontier:
            new = []
            for vec in frontier:
                for cols in moves:
                    out: dict = {}
                    for key, c in vec.items():
                        for k2, c2 in cols.get(key, {}).items():
                            accumulate(out, k2, c * c2)
                    if out and span.add(out):
                        new.append(out)
            frontier = new
        reaches_one = span.contains({one: RATIONALS.one})
        if span.dim != full or not reaches_one:
            return TensorProbeReport(
                "not-cyclic-within-bounds", keys.index(seed) + 1, full,
                failing_seed=seed, witness_dim=span.dim,
            )
    return TensorProbeReport("cyclic-within-bounds", len(keys), full)


def _modular_full_seeds(keys, moves) -> set:
    """Seeds whose bounded closure is provably full.

    Works over GF(p) with every symbolic parameter sent to a fixed nonzero
    residue.  Evaluation and reduction are ring homomorphisms on the Laurent
    coefficients, so the specialized closure is a quotient-image of the
    symbolic one and its rank is a lower bound; reaching full rank certifies
    a seed.  Each generator is reduced once to sparse residue columns, and
    each seed is spun by ``slots._spin_sparse_mod_p`` in pure Python.  A
    closure is invariant under the generators, so once a seed's span holds
    e(t) for a certified seed t, its closure holds the closure of t, which
    is full.  The closure of 1 (x) 1 is spun to full rank first, and every
    other seed only until its span holds e(t) for some seed certified
    before it; when the closure of 1 (x) 1 falls short mod p, nothing is
    certified, and a seed inside a closure that fell short is not spun.  A
    prime dividing a denominator is skipped; with no usable prime nothing is
    certified.  Misses are handed back for exact treatment.  numpy is never
    loaded.
    """
    assign = _residues(moves)
    pos = {k: i for i, k in enumerate(keys)}
    for p in _PRIMES:
        try:
            gens = [{pos[ck]: [(pos[rk], x) for rk, x in col.items() if x]
                     for ck, col in _residue_cols(cols, p, assign).items()}
                    for cols in moves]
            break
        except ZeroDivisionError:
            continue
    else:
        return set()

    n = len(keys)
    one = pos[(0, ())]
    if len(_spin_sparse_mod_p(gens, n, one, p)) < n:
        return set()
    certified = {one}
    # closures that fell short; a seed inside one has a closure inside it
    short = []
    for seed in range(n):
        if seed in certified or any(span.get(seed) == [] for span in short):
            continue
        span = _spin_sparse_mod_p(gens, n, seed, p, certified)
        # a full span is bare at every lead; a short one holds no certified e(t)
        if any(span.get(t) == [] for t in certified):
            certified.add(seed)
        else:
            short.append(span)
    return {keys[i] for i in certified}


def _residues(moves) -> dict:
    """The fixed nonzero residues 37, 47, 57, ... assigned to the parameters
    of the entries of moves, in name order; empty when every entry is
    rational."""
    names = sorted({
        n
        for cols in moves
        for col in cols.values()
        for c in col.values()
        for mono in c.terms
        for n, _ in mono
    })
    return {n: 37 + 10 * i for i, n in enumerate(names)}


def _scalar_mod_p(s: Scalar, assign: dict, p: int) -> int:
    """s mod p with each parameter sent to assign[name].  Raises
    ZeroDivisionError when p divides a denominator: reduction is then no
    ring homomorphism, so the prime is unusable."""
    total = 0
    for mono, q in s.terms.items():
        if type(q) is int:
            v = q % p
        else:
            if q.denominator % p == 0:
                raise ZeroDivisionError(f"{p} divides the denominator of {q}")
            v = q.numerator * pow(q.denominator, p - 2, p) % p
        for name, e in mono:
            # negative exponents via Fermat: the assigned residues are nonzero
            v = v * pow(assign[name], e % (p - 1), p) % p
        total = (total + v) % p
    return total


def _residue_cols(cols, p, assign=None):
    """The {col key: {row key: Scalar}} matrix cols mod p, each parameter
    sent to its residue in assign (none for a rational matrix), as
    {col key: {row key: residue}}."""
    assign = assign or {}
    return {ck: {rk: _scalar_mod_p(c, assign, p) for rk, c in col.items()}
            for ck, col in cols.items()}


# ---------------------------------------------------------------------------
# Bounded intertwiner spaces
# ---------------------------------------------------------------------------


def intertwiner_dim(spec_a: TensorSpec, spec_b: TensorSpec, x_degree: int,
                    m_bound: int, n_bound: int = 1) -> int:
    """Exact dimension of bounded linear maps commuting with the generators.

    The compressed generator actions A_g, B_g on the two bounded spaces give
    the constraint T A_g = B_g T; the compression is applied identically on
    both sides, so the identity map always survives for equal data.  The
    dimension is certified exactly: explicitly verified kernel vectors give
    the lower bound, and the constraints modulo a prime, with symbolic
    parameters sent to fixed residues, give the upper bound (rank can only
    drop under specialisation).  One sparse elimination meets the two
    (``_modular_kernel_dim``); further primes plus an exact elimination
    stand behind the rare gap.  A prime dividing a denominator the
    elimination reads is skipped.  Two sides on equal windows share one
    host.
    """
    keys_a = spec_a.basis_keys(x_degree)
    keys_b = spec_b.basis_keys(x_degree)
    host_a = _host(spec_a.hw, m_bound)
    host_b = host_a if _same_window(spec_a.hw, spec_b.hw) else _host(spec_b.hw, m_bound)
    moves_a = _compressed_moves(spec_a, keys_a, m_bound, n_bound, host_a)
    moves_b = _compressed_moves(spec_b, keys_b, m_bound, n_bound, host_b)

    # explicitly verified kernel vectors: the identity for equal data
    explicit = int(keys_a == keys_b and moves_a == moves_b)
    assign = _residues(moves_a + moves_b)
    for p in _PRIMES:
        try:
            k = _modular_kernel_dim(moves_a, moves_b, keys_a, keys_b, p,
                                    explicit=explicit, assign=assign)
        except ZeroDivisionError:
            continue
        if k == explicit:
            return k
    # fall through to the exact elimination on a persistent gap
    return _exact_intertwiner_dim(moves_a, moves_b, keys_a, keys_b)


def _same_window(a: TruncVerma, b: TruncVerma) -> bool:
    """Whether two windows are equal by value: the same bounds, central
    charge and weight function, over the same declarations.  Equal windows
    straighten alike, so they can share one host.  (``TruncVerma`` keeps
    identity equality, so elements of two windows never mix.)"""
    if a is b:
        return True
    sa, sb = a.spec, b.spec

    def decls(spec):
        return [spec.c.decl] + [s.decl for poly, e in spec.phi.terms for s in (*poly, e)]

    return ((a.level_bound, a.order_bound) == (b.level_bound, b.order_bound)
            and sa.c == sb.c and sa.phi == sb.phi and decls(sa) == decls(sb))


def _constraint_rows(cols_a, cols_b, pos_a, pos_b):
    """The constraint rows of T A = B T for one generator, A and B given as
    {col key: {row key: coefficient}} on the keys indexed by pos_a, pos_b.

    T is the dim_b x dim_a matrix of unknowns, flattened row-major: T[i, k]
    is unknown pos_b[i] * dim_a + pos_a[k].  Entry (i, u) of T A - B T is
    one {unknown: coefficient} row; zero rows are skipped.
    """
    dim_a = len(pos_a)
    # row i of B as (pos_b[k] * dim_a, -B[i, k]) pairs
    b_rows: dict = {}
    for ck, col in cols_b.items():
        for rk, c in col.items():
            if c:
                b_rows.setdefault(rk, []).append((pos_b[ck] * dim_a, -c))
    for u, ui in pos_a.items():
        col_u = [(pos_a[k], c) for k, c in cols_a.get(u, {}).items() if c]
        for i, ii in pos_b.items():
            # the entries of T A are distinct unknowns; B T may meet one
            row = {ii * dim_a + k: c for k, c in col_u}
            for offset, c in b_rows.get(i, ()):
                accumulate(row, offset + ui, c)
            if row:
                yield row


def _modular_kernel_dim(moves_a, moves_b, keys_a, keys_b, p, explicit=0,
                        assign=None) -> int:
    """An upper bound on the kernel dimension of {T A_g = B_g T} over the
    parameter field, which is exact when it equals ``explicit``, the number
    of kernel vectors known to be independent.  Raises ZeroDivisionError
    when p divides a denominator of a generator that it reads.

    Every generator's constraint rows (``_constraint_rows``), in generator
    order and reduced mod p with each parameter sent to its residue in
    ``assign``, go into one ``slots._sparse_echelon_mod_p``.  The kernel of
    a subset of the constraints mod p bounds the full kernel from above and
    ``explicit`` bounds it from below, so the elimination stops once
    n - rank equals ``explicit``; the generators past that point are never
    reduced.  numpy is never loaded.
    """
    pos_a = {k: i for i, k in enumerate(keys_a)}
    pos_b = {k: i for i, k in enumerate(keys_b)}
    n = len(keys_a) * len(keys_b)
    rows = (row for cols_a, cols_b in zip(moves_a, moves_b)
            for row in _constraint_rows(_residue_cols(cols_a, p, assign),
                                        _residue_cols(cols_b, p, assign), pos_a, pos_b))
    return n - len(_sparse_echelon_mod_p(rows, p, rank_bound=n - explicit))


def _exact_intertwiner_dim(moves_a, moves_b, keys_a, keys_b) -> int:
    """Exact kernel dimension of {T A_g = B_g T}: every constraint row
    (``_constraint_rows``) of every generator goes into one sparse
    ``SpanBasis`` (cross-multiplying elimination over the parameter
    fraction field)."""
    pos_a = {k: i for i, k in enumerate(keys_a)}
    pos_b = {k: i for i, k in enumerate(keys_b)}
    n_unknown = len(keys_a) * len(keys_b)
    if n_unknown > 700:
        raise BoundsTooLarge(
            f"bounded intertwiner system of {n_unknown} unknowns is too large for "
            "the exact fallback (at most 700), and modular certification did not close"
        )
    span = SpanBasis()
    for cols_a, cols_b in zip(moves_a, moves_b):
        for row in _constraint_rows(cols_a, cols_b, pos_a, pos_b):
            span.add(row)
    return n_unknown - span.dim
