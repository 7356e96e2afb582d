"""Tensor products of a rank-1 polynomial module with a Verma window.

Elements are finite sums x^j (x) v with v ranging over PBW monomials of the
Verma window.  The algebra acts by the Leibniz rule, the center acting
by 0 on the polynomial side plus the central charge on the highest-weight
side.  The probes here exercise the constructive reduction (sampling the
one-parameter operator family and interpolating the samples with the exact
inverse of their Vandermonde matrix), bounded cyclicity, and bounded
intertwiner spaces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .scalars import (
    RATIONALS, Frozen, InternalError, Scalar, SpanBasis, SparseVec, accumulate,
)
from .liealg import D_HAT, DiffOp
from .umod import OmegaSpec, _basis_act_ints, _basis_factor, act_hv
from .hwmod import LevelOverflow, TruncVerma, VermaElem, _verma_label, monomial_level
from .slots import (
    _PRIMES, BoundsTooLarge, _sparse_echelon_mod_p, _spin_sparse_mod_p, _spin_words_mod_p,
)
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
    the window.
    """
    spec = w.spec
    if op.ctx.rank != 1:
        raise TensorMismatch("tensor modules are over the rank-1 algebra")
    omega = spec.omega
    out: dict = {}
    for (m, n), c in op.terms.items():
        m0, n0 = m[0], n[0]
        prefactor = c * _basis_factor(omega, m, n)
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
    bound of every component, as ``vandermonde_reduce`` reads it; on
    x (x) v this equals beta (m'-m) (1 (x) v).
    """
    if w.x_degree() != 1:
        raise ValueError("difference collapse expects top x-degree exactly 1")
    K = 1 + max(monomial_level(mono) for _, mono in w.terms)
    a = act_tensor(_scaled_weight_op(spec, K, 0), w)
    b = act_tensor(_scaled_weight_op(spec, K + 1, 0), w)
    return a - b


def vandermonde_reduce(spec: TensorSpec, w: TensorElem) -> TensorElem:
    """One step of the degree reduction that drives cyclic vectors to 1 (x) v.

    Writes lambda^-m t^m D (w) as a polynomial in m by sampling
    m = K .. K+s+1 past every component's vanishing bound (one more than
    the highest level among the keys) and interpolating exactly: one inverse
    of the Vandermonde matrix, read off the Lagrange basis of the sample
    points, serves every key.  For the eps = 1 sign structure the top
    coefficient is +-(1 (x) v_s); for eps = 0 it vanishes identically and
    the next coefficient +-(x (x) v_s) is extracted instead, followed by one
    difference step when the degree would not otherwise drop.
    """
    if w.is_zero():
        raise ValueError("cannot reduce the zero element")
    s = w.x_degree()
    if s == 0:
        return w
    eps = spec.omega.eps
    K = 1 + max(monomial_level(mono) for _, mono in w.terms)
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


def _compressed_moves(spec: TensorSpec, keys, m_bound: int, n_bound: int):
    """Compressed generator actions on the bounded space, one sparse matrix
    {col: [(row, Scalar), ...]} per generator; components outside the
    window are dropped.

    Rows and columns are positions in keys.  This is the one place where
    keys become positions; every reader of the moves works on positions,
    with 1 (x) 1 at position 0 (``TensorSpec.basis_keys`` lists it first).

    A generator acts on x^j (x) v as the Kronecker sum P (x) 1 + 1 (x) V,
    plus its central part times the central charge.  The polynomial-side
    map P (j -> {j': Scalar}) and the Verma-side map V (PBW monomial ->
    {monomial: Scalar}) are computed once per generator, and every column
    is assembled from them.  P is read as ``umod.act`` reads it, the
    ``_basis_factor`` times ``_basis_act_ints``.

    V is straightened on the window itself.  t^m D^n lowers the level by
    exactly m, so a monomial at level l with l - m above the window has its
    whole image dropped, and it is never straightened.  This skip is what
    keeps the window from overflowing: every ``_apply_basis`` or
    ``_left_mul_mono`` call that t^m D^n makes on a level-l monomial works
    at level l - m, a commutator term t^(m-j) D^k too, since it acts on the
    rest of the monomial, at level l - j.  Callers that share a window share
    its straightening memo."""
    omega = spec.omega
    degrees = sorted({j for j, _ in keys})

    # (P, (m, n) of the Verma-side operator t^m D^n or None, central part)
    gens = []
    if omega.family == "d":
        for m in range(-m_bound, m_bound + 1):
            for n in range(n_bound + 1):
                f = _basis_factor(omega, (m,), (n,))
                gens.append(({j: {e: f * k for (e,), k in
                                  _basis_act_ints(omega.eps, (m,), (n,), (j,)).items()}
                              for j in degrees}, (m, n), None))
        # the center: 0 on the polynomial side, the charge on the Verma side
        gens.append(({}, None, spec.hw.spec.c))
    else:
        # degenerate control: L_m / I_m act through the hv action on the
        # polynomial side and the embedding t^m D / t^m on the Verma side
        for m in range(-m_bound, m_bound + 1):
            for kind, n in (("L", 1), ("I", 0)):
                gens.append(({j: {e: c for (e,), c in
                                  act_hv(omega, (kind, m), omega.monomial((j,))).terms.items()}
                              for j in degrees}, (m, n), None))
    pos = {k: i for i, k in enumerate(keys)}
    levels = {mono: monomial_level(mono) for _, mono in keys}
    moves = []
    for poly, mn, central in gens:
        verma = {}
        if mn:
            m, n = mn
            # t^m D^n lowers the level by m: an image above the window is dropped whole
            verma = {mono: spec.hw._apply_basis(m, n, mono) for mono, level in levels.items()
                     if level - m <= spec.hw.level_bound}
        cols = {}
        for i, (j, mono) in enumerate(keys):
            col: dict = {}
            for e, c in poly.get(j, {}).items():
                accumulate(col, (e, mono), c)
            for mo, c in verma.get(mono, {}).items():
                accumulate(col, (j, mo), c)
            if central:
                accumulate(col, (j, mono), central)
            rows = [(pos[k], c) for k, c in col.items() if k in pos]
            if rows:
                cols[i] = rows
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
    moves = _compressed_moves(spec, keys, m_bound, n_bound)
    full = len(keys)

    fast_full = set()
    if not exact:
        fast_full = _modular_full_seeds(keys, moves)

    def images(vec):
        for cols in moves:
            out: dict = {}
            for i, c in vec.items():
                for r, c2 in cols.get(i, ()):
                    accumulate(out, r, c * c2)
            if out:
                yield out

    for i, seed in enumerate(keys):
        if seed in fast_full:
            continue
        span = SpanBasis()
        span.close([{i: RATIONALS.one}], images)
        reaches_one = span.contains({0: RATIONALS.one})  # 1 (x) 1 is position 0
        if span.dim != full or not reaches_one:
            return TensorProbeReport(
                "not-cyclic-within-bounds", i + 1, full,
                failing_seed=seed, witness_dim=span.dim,
            )
    return TensorProbeReport("cyclic-within-bounds", len(keys), full)


def _modular_full_seeds(keys, moves) -> set:
    """The keys of the seeds whose bounded closure is provably full.

    Works over GF(p) with every symbolic parameter sent to its fixed
    nonzero residue (``_scalar_mod_p``).  Evaluation and reduction are ring
    homomorphisms on the Laurent coefficients, so the specialized closure
    is a quotient-image of the symbolic one and its rank is a lower bound;
    reaching full rank certifies a seed.  Each generator is reduced once to
    sparse residue columns (``_residue_cols``), and each seed is spun by
    ``slots._spin_sparse_mod_p`` in pure Python.  A closure is invariant
    under the generators, so once a seed's span holds e(t) for a certified
    seed t, its closure holds the closure of t, which is full.  The closure
    of 1 (x) 1 (position 0) is spun to full rank first, and every other
    seed only until its span holds e(t) for some seed certified before it;
    when the closure of 1 (x) 1 falls short mod p, nothing is certified,
    and a seed inside a closure that fell short is not spun.  A prime
    dividing a denominator is skipped; with no usable prime nothing is
    certified.  Misses are handed back for exact treatment.  numpy is never
    loaded.
    """
    for p in _PRIMES:
        try:
            gens = [_residue_cols(cols, p) for cols in moves]
            break
        except ZeroDivisionError:
            continue
    else:
        return set()

    n = len(keys)
    if len(_spin_sparse_mod_p(gens, n, 0, p)) < n:
        return set()
    certified = {0}
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


def _residue(name: str) -> int:
    """The residue every parameter called name is sent to mod p: a pure
    function of the name, in 1 .. ``_PRIMES[-1]`` - 1 (the least prime), so
    nonzero mod every prime."""
    return pow(3, int.from_bytes(name.encode(), "big"), _PRIMES[-1])


def _scalar_mod_p(s: Scalar, p: int, powers: dict | None = None) -> int:
    """s mod p with each parameter sent to ``_residue(name)``.  Raises
    ZeroDivisionError when p divides a denominator: reduction is then no
    ring homomorphism, so the prime is unusable.  powers, shared by calls
    with the same p, keeps the residue of each parameter power (name, e)
    once it is computed.  The certificates hold at any point that is
    consistent (one value per name, on both sides) and nonzero, so two
    names sharing a residue can only make one fall short, and go to the
    next prime or the exact path, never make an answer wrong."""
    if powers is None:
        powers = {}
    total = 0
    for mono, q in s.terms.items():
        if type(q) is int:
            v = q % p
        else:
            if q.denominator % p == 0:
                raise ZeroDivisionError(f"{p} divides the denominator of {q}")
            v = q.numerator * pow(q.denominator, p - 2, p) % p
        for power in mono:
            r = powers.get(power)
            if r is None:
                name, e = power
                # negative exponents via Fermat: the residues are nonzero
                r = powers[power] = pow(_residue(name), e % (p - 1), p)
            v = v * r % p
        total = (total + v) % p
    return total


def _residue_cols(cols, p):
    """One generator's moves cols mod p (``_scalar_mod_p``), as
    {col: [(row, residue), ...]} with zero residues dropped: the form that
    ``slots._spin_sparse_mod_p``, ``slots._spin_words_mod_p`` and
    ``_constraint_rows`` read."""
    powers: dict = {}
    # one Scalar object often fills many entries; cols keeps each one alive
    # through the call, so its id names it
    seen: dict = {}
    out = {}
    for i, col in cols.items():
        out[i] = res = []
        for r, c in col:
            x = seen.get(id(c))
            if x is None:
                x = seen[id(c)] = _scalar_mod_p(c, p, powers)
            if x:
                res.append((r, x))
    return out


# ---------------------------------------------------------------------------
# Bounded intertwiner spaces
# ---------------------------------------------------------------------------


def intertwiner_dim(spec_a: TensorSpec, spec_b: TensorSpec, x_degree: int,
                    m_bound: int, n_bound: int = 1) -> int:
    """Exact dimension of bounded linear maps commuting with the generators.

    The compressed generator actions A_g, B_g on the two bounded spaces give
    the constraint T A_g = B_g T; the compression is applied identically on
    both sides, so the identity map always survives for equal data.  The
    two sides must be of one family (TensorMismatch otherwise): the
    generators of the d family (t^m D^n) and of the hv control (L_m, I_m)
    have nothing to pair.  The dimension is certified exactly: explicitly
    verified kernel vectors give the lower bound, and the constraints
    modulo a prime, with symbolic parameters sent to fixed residues, give
    the upper bound (rank can only drop under specialisation).  One sparse
    elimination meets the two (``_modular_kernel_dim``): when 1 (x) 1 spans
    side a mod p, on the dim_b entries of T(1 (x) 1), which fix T, else on
    all dim_a * dim_b entries of T.  Further primes plus an exact
    elimination stand behind the rare gap.  A prime dividing a denominator
    the elimination reads is skipped.  When the two windows are equal
    (``_same_window``), side b is read on side a's window, so the window is
    straightened once; with equal modules as well the two sides share one
    set of moves.
    """
    if spec_a.omega.family != spec_b.omega.family:
        raise TensorMismatch("intertwiner sides must be modules of one family")
    if _same_window(spec_a.hw, spec_b.hw):
        spec_b = TensorSpec(spec_b.omega, spec_a.hw)
    keys_a = spec_a.basis_keys(x_degree)
    keys_b = spec_b.basis_keys(x_degree)
    moves_a = _compressed_moves(spec_a, keys_a, m_bound, n_bound)
    if spec_b == spec_a:
        moves_b = moves_a
    else:
        moves_b = _compressed_moves(spec_b, keys_b, m_bound, n_bound)

    # explicitly verified kernel vectors: the identity for equal data
    explicit = int(moves_b is moves_a or (keys_a == keys_b and _same_moves(moves_a, moves_b)))
    for p in _PRIMES:
        try:
            k = _modular_kernel_dim(moves_a, moves_b, keys_a, keys_b, p, explicit=explicit)
        except ZeroDivisionError:
            continue
        if k == explicit:
            return k
    # fall through to the exact elimination on a persistent gap
    return _exact_intertwiner_dim(moves_a, moves_b, keys_a, keys_b)


def _same_moves(moves_a, moves_b) -> bool:
    """Whether two move lists hold equal matrices.  A column lists its rows
    in the order ``_compressed_moves`` met them, and a diagonal entry that
    cancels and comes back moves to the end, so equal matrices can list
    their rows in different orders: the columns are compared as dicts."""
    return len(moves_a) == len(moves_b) and all(
        a.keys() == b.keys() and all(dict(col) == dict(b[i]) for i, col in a.items())
        for a, b in zip(moves_a, moves_b))


def _same_window(a: TruncVerma, b: TruncVerma) -> bool:
    """Whether two windows are equal by value: the same bounds, central
    charge and weight function, over the same declarations.  Equal windows
    straighten alike, so side b of an intertwiner can share side a's
    window.  (``TruncVerma`` keeps identity equality, so elements of two
    windows never mix.)"""
    if a is b:
        return True
    sa, sb = a.spec, b.spec

    def decls(spec):
        return [spec.c.decl] + [s.decl for poly, e in spec.phi.terms for s in (*poly, e)]

    return ((a.level_bound, a.order_bound) == (b.level_bound, b.order_bound)
            and sa.c == sb.c and sa.phi == sb.phi and decls(sa) == decls(sb))


def _constraint_rows(cols_a, cols_b, dim_a, dim_b):
    """The constraint rows of T A = B T for one generator, A and B given as
    sparse {col: [(row, coefficient), ...]} matrices on dim_a and dim_b
    positions, with no zero coefficient.

    T is the dim_b x dim_a matrix of unknowns, flattened row-major: T[i, k]
    is unknown i * dim_a + k.  Entry (i, u) of T A - B T is one
    {unknown: coefficient} row; zero rows are skipped.
    """
    # row i of B as (k * dim_a, -B[i, k]) pairs
    b_rows: dict = {}
    for k, col in cols_b.items():
        for i, c in col:
            b_rows.setdefault(i, []).append((k * dim_a, -c))
    for u in range(dim_a):
        col_u = cols_a.get(u, ())
        for i in range(dim_b):
            # the entries of T A are distinct unknowns; B T may meet one
            row = {i * dim_a + k: c for k, c in col_u}
            for offset, c in b_rows.get(i, ()):
                accumulate(row, offset + u, c)
            if row:
                yield row


def _modular_kernel_dim(moves_a, moves_b, keys_a, keys_b, p, explicit=0) -> int:
    """An upper bound on the kernel dimension of {T A_g = B_g T} over the
    parameter field, which is exact when it equals ``explicit``, the number
    of kernel vectors known to be independent.  Raises ZeroDivisionError
    when p divides a denominator of a generator that it reads.  numpy is
    never loaded.

    The cyclic certificate comes first (``_cyclic_rows``).  When 1 (x) 1
    spans side a mod p, every intertwiner T is fixed by u = T(1 (x) 1), so
    the constraints are linear in the dim_b entries of u.  Each relation
    A_g s_i = sum_j a_j s_j of the spin gives dim_b rows
    (B_g W_i - sum_j a_j W_j) u = 0, W_k being the word of s_k written in
    side b's generators.  It bounds dim Hom from above:

    - the spin's basis vectors are independent mod p, so the same words
      give independent vectors over the parameter field (a minor nonzero
      mod p is a nonzero rational function), and 1 (x) 1 is cyclic there too;
    - the denominators of the a_j divide that minor times denominators of
      the generators, which p does not divide (such a p raises), so the
      system over the parameter field specialises to this one, whose rank
      can only be lower;
    - a subset of the relations only makes the kernel larger.

    Over GF(p) itself the two systems have equal kernels.  The rows go
    into one ``slots._sparse_echelon_mod_p``, which stops once dim_b - rank
    equals ``explicit``; relations past that point are never computed.

    When 1 (x) 1 is not cyclic mod p (it is not with n_bound = 0, no D
    among the generators), or p divides a denominator the certificate
    reads, every generator's constraint rows (``_constraint_rows``) on all
    dim_a * dim_b entries of T, in generator order and reduced mod p by
    ``_residue_cols``, go into one elimination instead, which stops the
    same way; the generators past that point are never reduced.
    """
    dim_a, dim_b = len(keys_a), len(keys_b)
    try:
        rows = _cyclic_rows(moves_a, moves_b, dim_a, dim_b, p)
        if rows is not None:
            return dim_b - len(_sparse_echelon_mod_p(rows, p, rank_bound=dim_b - explicit))
    except ZeroDivisionError:
        pass
    n = dim_a * dim_b
    rows = (row for cols_a, cols_b in zip(moves_a, moves_b)
            for row in _constraint_rows(_residue_cols(cols_a, p), _residue_cols(cols_b, p),
                                        dim_a, dim_b))
    return n - len(_sparse_echelon_mod_p(rows, p, rank_bound=n - explicit))


def _cyclic_rows(moves_a, moves_b, dim_a, dim_b, p):
    """The constraints of T A_g = B_g T on u = T(1 (x) 1) mod p, as lazy
    {entry of u: residue} rows, or None when 1 (x) 1 (position 0) does not
    span side a mod p (``slots._spin_words_mod_p``).  Side a's generators
    are reduced at once, side b's when a word or a relation first reads
    them; a residue p cannot take raises ZeroDivisionError, then or later."""
    res_a = [_residue_cols(cols, p) for cols in moves_a]
    spin = _spin_words_mod_p(res_a, dim_a, 0, p)
    if spin is None:
        return None
    words, relations = spin
    # B_g by rows, {row: [(column, residue), ...]}
    rows_b: dict = {}

    def times(g, w):
        """B_g w for w a list of dim_b {entry of u: residue} rows."""
        b = rows_b.get(g)
        if b is None:
            res = res_a[g] if moves_b is moves_a else _residue_cols(moves_b[g], p)
            b = rows_b[g] = {}
            for k, col in res.items():
                for r, x in col:
                    b.setdefault(r, []).append((k, x))
        out = []
        for r in range(dim_b):
            row: dict = {}
            for t, y in b.get(r, ()):
                for c, x in w[t].items():
                    row[c] = row.get(c, 0) + x * y
            out.append({c: x % p for c, x in row.items() if x % p})
        return out

    # W[k]: the word of s_k in side b's generators, so that T s_k = W[k] u
    W = [[{c: 1} for c in range(dim_b)]] + [None] * (len(words) - 1)

    def word(k):
        chain = []
        while W[k] is None:
            chain.append(k)
            k = words[k][1]
        for j in reversed(chain):
            g, i = words[j]
            W[j] = times(g, W[i])
        return W[chain[0]] if chain else W[k]

    def rows():
        for g, i, coords in relations:
            m = times(g, word(i))
            for j, a in coords.items():
                for row, wrow in zip(m, word(j)):
                    for c, x in wrow.items():
                        row[c] = row.get(c, 0) - a * x
            yield from m
    return rows()


def _exact_intertwiner_dim(moves_a, moves_b, keys_a, keys_b) -> int:
    """Exact kernel dimension of {T A_g = B_g T}: every constraint row
    (``_constraint_rows``) of every generator goes into one sparse
    ``SpanBasis`` (cross-multiplying elimination over the parameter
    fraction field)."""
    dim_a, dim_b = len(keys_a), len(keys_b)
    n_unknown = dim_a * dim_b
    if n_unknown > 700:
        raise BoundsTooLarge(
            f"bounded intertwiner system of {n_unknown} unknowns is too large for "
            "the exact fallback (at most 700), and modular certification did not close"
        )
    span = SpanBasis()
    for cols_a, cols_b in zip(moves_a, moves_b):
        for row in _constraint_rows(cols_a, cols_b, dim_a, dim_b):
            span.add(row)
    return n_unknown - span.dim
