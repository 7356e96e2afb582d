"""Polynomial module families that are free of rank 1 over the Cartan part.

Four families live on polynomial rings in x_1..x_nu with exact coefficients:

* family ``d`` (rank 1) and ``dnu`` (any rank): the differential-operator
  algebra acts by t^m D^n . f = beta^(1-|n|) Lambda^m prod_i (x_i - eps*m_i)^{n_i}
  f(x - m), with eps in {0, 1} and beta = (-1)^(1-eps);
* family ``vir``: the vector-field subalgebra acts through
  L_m . f = lambda^m (x - m*alpha) f(x - m) with the center acting by zero;
* family ``hv``: adds the degree-zero multiplication operators,
  I_m . f = beta * lambda^m f(x - m).

Shifts f(x - m) are expanded by exact binomials; everything stays in the
Laurent-polynomial coefficient ring, so identities checked with symbolic
parameters hold for every nonzero complex instantiation at once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import compress, product as iproduct
from typing import NamedTuple

from .scalars import (
    RATIONALS, Frozen, InternalError, Scalar, SpanBasis, SparseVec, accumulate,
)
from .liealg import AlgebraCtx, DiffOp, _shift, _slot_product, bracket, assoc_product
from . import liealg, slots
from .slots import BoundsTooLarge, memo_table


class FamilyMismatch(ValueError):
    """Operator or vector fed to a module of the wrong family or rank."""


_FAMILIES = ("d", "vir", "hv", "dnu")


class OmegaSpec(Frozen):
    """Parameters of one polynomial module.

    ``lam`` holds one invertible scalar per variable.  ``eps`` selects the
    sign structure for the d/dnu families (beta_sign = (-1)^(1-eps));
    ``alpha``/``beta`` are the vir/hv parameters.
    """

    __slots__ = ("family", "lam", "eps", "alpha", "beta")

    def __init__(self, family: str, lam: tuple, eps: int | None = None,
                 alpha: Scalar | None = None, beta: Scalar | None = None):
        if family not in _FAMILIES:
            raise FamilyMismatch(f"unknown family {family!r}")
        if not lam:
            raise ValueError("need at least one lambda parameter")
        for s in lam:
            if not (s.is_unit() or (s.is_rational() and not s.is_zero())):
                raise ValueError(f"lambda component {s} is not invertible")
        if family in ("d", "dnu"):
            if eps not in (0, 1):
                raise ValueError("eps must be 0 or 1")
        else:
            if len(lam) != 1:
                raise ValueError("vir/hv modules are rank 1")
            if alpha is None:
                raise ValueError("alpha required for vir/hv modules")
            if family == "hv" and beta is None:
                raise ValueError("beta required for hv modules")
        if family == "d" and len(lam) != 1:
            raise ValueError("family 'd' is rank 1; use 'dnu' for higher rank")
        self._set(family=family, lam=lam, eps=eps, alpha=alpha, beta=beta)

    @property
    def rank(self) -> int:
        return len(self.lam)

    @property
    def beta_sign(self) -> int:
        """(-1)^(1-eps); +1 exactly when eps = 1."""
        if self.eps is None:
            raise FamilyMismatch("beta_sign is defined for the d/dnu families")
        return (-1) ** (1 - self.eps)

    def lam_power(self, m) -> Scalar:
        out = None
        for s, k in zip(self.lam, m):
            p = s ** k
            out = p if out is None else out * p
        return out

    def zero_vec(self) -> "PolyVec":
        return PolyVec(self, {})

    def monomial(self, exps, coeff=1) -> "PolyVec":
        exps = (exps,) if isinstance(exps, int) else tuple(exps)
        if len(exps) != self.rank:
            raise ValueError(f"need {self.rank} exponents")
        if any(e < 0 for e in exps):
            raise ValueError("x exponents must be non-negative")
        c = coeff if isinstance(coeff, Scalar) else RATIONALS.rational(coeff)
        return PolyVec(self, {exps: c} if c else {})


def omega_d(lam: Scalar, eps: int) -> OmegaSpec:
    return OmegaSpec("d", (lam,), eps=eps)

def omega_dnu(lams, eps: int) -> OmegaSpec:
    return OmegaSpec("dnu", tuple(lams), eps=eps)

def omega_vir(lam: Scalar, alpha: Scalar) -> OmegaSpec:
    return OmegaSpec("vir", (lam,), alpha=alpha)

def omega_hv(lam: Scalar, alpha: Scalar, beta: Scalar) -> OmegaSpec:
    return OmegaSpec("hv", (lam,), alpha=alpha, beta=beta)


def _poly_label(exps) -> str:
    names = ["x"] if len(exps) == 1 else [f"x{i + 1}" for i in range(len(exps))]
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


class PolyVec(SparseVec):
    """Element of a polynomial module: sparse exponent map with Scalar values."""

    __slots__ = ("spec",)
    _space = "spec"
    _mismatch = FamilyMismatch
    _label = staticmethod(_poly_label)

    @staticmethod
    def _sort_key(exps):
        return (-sum(exps), tuple(-k for k in exps))

    def degree(self) -> int:
        """Total degree; -1 for the zero vector."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def to_json(self) -> dict:
        spec = {"family": self.spec.family, "rank": self.spec.rank}
        if self.spec.eps is not None:
            spec["eps"] = self.spec.eps
        return {
            "spec": spec,
            "monomials": [
                {"exps": list(e), "coeff": self.terms[e].to_json()}
                for e in sorted(self.terms)
            ],
        }


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _basis_act_ints(eps: int, m, n, j) -> dict:
    """Integer part of t^m D^n acting on x^j: {exponents: int coefficient}.

    Covers prod_i (x_i - eps*m_i)^{n_i} (x_i - m_i)^{j_i}, which is
    (x_i - m_i)^(n_i + j_i) at eps = 1 and x_i^n_i (x_i - m_i)^j_i at eps = 0;
    the caller applies the beta sign and the Lambda^m prefactor.
    """
    if eps:
        return _slot_product(_shift(mi, ni + ji) for mi, ni, ji in zip(m, n, j))
    return _slot_product({e + ni: c for e, c in _shift(mi, ji).items()}
                         for mi, ni, ji in zip(m, n, j))


def act(op: DiffOp, v: PolyVec) -> PolyVec:
    """Action of the (extended) differential-operator algebra; C acts by 0."""
    spec = v.spec
    if spec.family not in ("d", "dnu"):
        raise FamilyMismatch(f"act expects a d/dnu module, got {spec.family!r}")
    if op.ctx.rank != spec.rank:
        raise FamilyMismatch(
            f"operator rank {op.ctx.rank} vs module rank {spec.rank}"
        )
    beta = spec.beta_sign
    out: dict = {}
    for (m, n), c in op.terms.items():
        sign = beta ** ((1 - sum(n)) % 2)
        prefactor = c * spec.lam_power(m) * sign
        for j, fc in v.terms.items():
            coeff = prefactor * fc
            for exps, k in _basis_act_ints(spec.eps, m, n, j).items():
                accumulate(out, exps, coeff * k)
    return PolyVec(spec, out)


def act_hv(spec: OmegaSpec, gen, f: PolyVec) -> PolyVec:
    """Action of L_m or I_m on the rank-1 vir and hv families.

    ``gen`` is ("L", m) or ("I", m).  L_m f = lambda^m (x - m*alpha) f(x - m)
    on both families, the center acting by zero; I_m f = beta * lambda^m
    f(x - m) exists on the hv family only.
    """
    if spec.family not in ("vir", "hv"):
        raise FamilyMismatch(f"act_hv expects a vir or hv module, got {spec.family!r}")
    kind, m = gen
    if kind not in ("L", "I"):
        raise ValueError(f"generator kind must be 'L' or 'I', got {kind!r}")
    if kind == "I" and spec.family != "hv":
        raise FamilyMismatch("I_m generators act on hv modules only")
    shifted: dict = {}
    for (j,), c in f.terms.items():
        for e, k in _shift(m, j).items():
            accumulate(shifted, (e,), c * k)
    lam_m = spec.lam[0] ** m
    if kind == "I":
        s = lam_m * spec.beta
        return PolyVec(spec, {e: c * s for e, c in shifted.items()})
    out: dict = {}
    malpha = spec.alpha * m
    for (j,), c in shifted.items():
        add = c * lam_m
        accumulate(out, (j + 1,), add)
        accumulate(out, (j,), -(add * malpha))
    return PolyVec(spec, out)


# ---------------------------------------------------------------------------
# Module-axiom verification
# ---------------------------------------------------------------------------


class AxiomReport(NamedTuple):
    ok: bool
    checked: int
    counterexample: tuple | None = None


def _family_generators(spec: OmegaSpec, m_bound: int, n_bound: int):
    """(label, apply) pairs for the family's basis operators within bounds."""
    gens = []
    if spec.family in ("d", "dnu"):
        ctx = AlgebraCtx(spec.rank, central=False)
        for m in iproduct(*[range(-m_bound, m_bound + 1)] * spec.rank):
            for n in iproduct(*[range(n_bound + 1)] * spec.rank):
                gens.append(((m, n), ctx.basis(m, n)))
    else:
        kinds = ("L",) if spec.family == "vir" else ("L", "I")
        for m in range(-m_bound, m_bound + 1):
            for kind in kinds:
                gens.append(((kind, m), (kind, m)))
    return gens


def _hv_bracket_terms(g1, g2):
    """Bracket of L/I generators in the degree-(0,1) subalgebra.

    [L_m, L_n] = (n-m) L_{m+n}; [L_m, I_n] = n I_{m+n}; [I_m, I_n] = 0.
    """
    k1, m = g1
    k2, n = g2
    if k1 == "L" and k2 == "L":
        return [(("L", m + n), Fraction(n - m))]
    if k1 == "L" and k2 == "I":
        return [(("I", m + n), Fraction(n))]
    if k1 == "I" and k2 == "L":
        return [(("I", m + n), Fraction(-m))]
    return []


def _exact_failure(flags, n_monos: int, cases):
    """The exact comparison behind every module-axiom and split verdict.

    ``flags`` holds one boolean per operator pair in loop order: the pairs a
    table fast path could not clear, or every pair for an ``action=`` oracle
    or a refused table.  Only flagged pairs are compared.  ``cases()`` is
    called at the first flagged pair and returns ``sides``; ``sides(p)``
    gives pair p's two operators and its (f, lhs, rhs) per monomial, in
    order.  Returns (checked, counterexample): p * n_monos + k + 1 and
    (a, b, f, lhs, rhs) at the first failure, else n_pairs * n_monos and None.
    """
    sides = None
    for p in compress(range(len(flags)), flags):
        sides = sides or cases()
        a, b, rows = sides(p)
        for k, (f, lhs, rhs) in enumerate(rows):
            if lhs != rhs:
                return p * n_monos + k + 1, (a, b, f, lhs, rhs)
    return len(flags) * n_monos, None


def verify_module_axiom(
    spec: OmegaSpec,
    m_bound: int,
    n_bound: int,
    deg_bound: int,
    action=None,
) -> AxiomReport:
    """Check [a,b].f = a.(b.f) - b.(a.f) over basis operators and monomials.

    With symbolic parameters this certifies the action for all admissible
    parameter values at once.  Unordered pairs (a <= b) are checked; the
    swapped identity is the exact negation, so coverage over ordered pairs
    follows from bilinearity.  A table fast path clears the pairs whose two
    sides agree as integer tables: ``_verify_axiom_dnu_fast`` on d/dnu and
    ``_hv_formal_mismatches`` on vir/hv (every pair stays when the vir/hv
    tables are refused).  The exact loop ``_exact_failure`` compares the
    rest and decides the verdict.  ``action`` overrides the module action
    and sends every pair through that loop; tests use it both for mutants
    and as the oracle of the fast paths.
    """
    d_family = spec.family in ("d", "dnu")
    exps = [e for e in iproduct(*[range(deg_bound + 1)] * spec.rank)
            if sum(e) <= deg_bound]
    if action is None and d_family:
        flags = _verify_axiom_dnu_fast(spec, m_bound, n_bound, deg_bound)
    else:
        labels = [la for la, _ in _family_generators(spec, m_bound, n_bound)]
        flags = [True] * (len(labels) * (len(labels) + 1) // 2)
        if action is None:
            try:
                flags = _hv_formal_mismatches(spec.family, labels, m_bound, deg_bound)
            except BoundsTooLarge:
                pass
    if d_family:
        action = action or act
        bracket_side = lambda a, b: partial(action, bracket(a, b))
    else:
        action = action or partial(act_hv, spec)

        def bracket_side(a, b):
            terms = _hv_bracket_terms(a, b)
            return lambda f: sum((action(g, f).scale(RATIONALS.rational(k))
                                  for g, k in terms), spec.zero_vec())

    def cases():
        gens = _family_generators(spec, m_bound, n_bound)
        pairs = [(a, b) for i, a in enumerate(gens) for b in gens[i:]]
        monos = [spec.monomial(e) for e in exps]

        def sides(p):
            (la, a), (lb, b) = pairs[p]
            lhs = bracket_side(a, b)
            return la, lb, ((f, lhs(f), action(a, action(b, f)) - action(b, action(a, f)))
                            for f in monos)
        return sides

    checked, counter = _exact_failure(flags, len(exps), cases)
    return AxiomReport(counter is None, checked, counter)


@memo_table(lambda: (_shift, slots.check_exact))
def _hv_action_table(kinds, m_max: int, j_max: int):
    """Integer action constants of the vir/hv generators, without lambda^m,
    as a read-only int64 array kept by ``memo_table``.

    ``S[g, e, j, i, k]`` is the coefficient of x^e alpha^i beta^k in
    lambda^-m g.x^j for the generator g = (kinds[t], m) at position
    (m + m_max) * len(kinds) + t, |m| <= m_max, j <= j_max, e <= j_max + 1
    and i, k in {0, 1}: L_m gives (x - m*alpha)(x - m)^j and I_m gives
    beta*(x - m)^j.
    """
    from .slots import int_table

    entries = {}
    for m in range(-m_max, m_max + 1):
        for t, kind in enumerate(kinds):
            g = (m + m_max) * len(kinds) + t
            for j in range(j_max + 1):
                for e, c in _shift(m, j).items():
                    if kind == "L":
                        entries[g, e + 1, j, 0, 0] = c
                        entries[g, e, j, 1, 0] = -m * c
                    else:
                        entries[g, e, j, 0, 1] = c
    return int_table(((2 * m_max + 1) * len(kinds), j_max + 2, j_max + 1, 2, 2),
                     entries, "vir/hv action table")


def _hv_formal_mismatches(family: str, gens, m_bound: int, deg_bound: int):
    """Per pair gens[i] <= gens[j] in loop order: do the formal axiom tables differ?

    Both sides of the axiom for a pair (a, b) are lambda^(m_a + m_b) times
    integer polynomials in x, alpha and beta, of degree at most 2 in the
    parameters.  The tables compare those polynomials on x^j, j <= deg_bound,
    with the bracket side read off ``_hv_bracket_terms``.  A term it returns
    that the tables cannot carry (a non-integral coefficient, or a generator
    outside |m| <= 2*m_bound) marks the pair as differing.  Equal tables
    imply equal actions for every parameter value; differing tables do not
    imply the converse, so the caller compares those pairs exactly.
    """
    import numpy as np
    from .slots import check_exact, int_table

    kinds = ("L",) if family == "vir" else ("L", "I")
    in1 = deg_bound + 1
    mid1 = deg_bound + 2
    single = _hv_action_table(kinds, 2 * m_bound, deg_bound + 1)
    pos = {(kind, m): (m + 2 * m_bound) * len(kinds) + t
           for m in range(-2 * m_bound, 2 * m_bound + 1) for t, kind in enumerate(kinds)}
    own = single[[pos[g] for g in gens]]
    amax = int(np.abs(single).max())
    # at most mid1 * 4 products per entry, then one difference
    check_exact(8 * mid1 * amax ** 2, np.int64, "vir/hv compositions")
    # a.(b.x^j), one parameter monomial alpha^x beta^y of a at a time
    outer, inner = own[:, :, :mid1], own[:, :mid1, :in1]
    comp = np.zeros((len(gens), len(gens), mid1 + 1, in1, 3, 3), dtype=np.int64)
    for x, y in iproduct(range(2), repeat=2):
        comp[..., x:x + 2, y:y + 2] += np.einsum("aek,bkjuv->abejuv", outer[..., x, y], inner)
    iu, ju = np.triu_indices(len(gens))
    rhs = comp[iu, ju] - comp[ju, iu]

    weights, suspect = {}, np.zeros(len(iu), dtype=bool)
    weight_sum = 0
    for p, (i, j) in enumerate(zip(iu, ju)):
        total = 0
        for g, k in _hv_bracket_terms(gens[i], gens[j]):
            k = Fraction(k)
            if g not in pos or k.denominator != 1:
                suspect[p] = True
            else:
                weights[p, pos[g]] = weights.get((p, pos[g]), 0) + int(k)
                total += abs(int(k))
        weight_sum = max(weight_sum, total)
    check_exact(weight_sum * amax, np.int64, "vir/hv bracket side")
    weights = int_table((len(iu), len(single)), weights, "vir/hv bracket weights")
    lhs = np.zeros_like(rhs)
    lhs[..., :2, :2] = np.einsum("pg,gejxy->pejxy", weights, single[:, :, :in1])
    return suspect | (lhs != rhs).any(axis=(1, 2, 3, 4))


@memo_table(lambda: (_basis_act_ints, _shift, _slot_product, slots.check_exact))
def _action_table(eps: int, m_max: int, n_max: int, j_max: int):
    """Rank-1 action constants as a read-only int64 array.

    ``A[m + m_max, n, e, j]`` is the coefficient of x^e in
    (x - eps*m)^n (x - m)^j, the integer part of t^m D^n acting on x^j, for
    |m| <= m_max, n <= n_max and j <= j_max.  A rank-nu action matrix is the
    Kronecker product of one such matrix per slot, times the beta sign and
    Lambda^m.  Filled from rank-1 ``_basis_act_ints`` calls on the first call
    per key, then read from ``memo_table``.
    """
    from .slots import int_table

    entries = {}
    for m in range(-m_max, m_max + 1):
        for n in range(n_max + 1):
            for j in range(j_max + 1):
                for (e,), k in _basis_act_ints(eps, (m,), (n,), (j,)).items():
                    if e > n + j:
                        raise InternalError(f"t^{m} D^{n} raises the degree of x^{j} past {n + j}")
                    entries[m + m_max, n, e, j] = k
    return int_table((2 * m_max + 1, n_max + 1, n_max + j_max + 1, j_max + 1),
                     entries, "action table")


@memo_table(lambda: (_action_table, _basis_act_ints, _shift, _slot_product,
                     slots.product_table, liealg.basis_product, liealg._shift,
                     liealg._slot_product, slots.check_exact))
def _rank1_tables(eps: int, mb: int, nb: int, deg_bound: int):
    """Integer action tables of the rank-1 operators t^m D^n, |m| <= mb, n <= nb.

    Returns (prod_act, comp), read-only and kept by ``memo_table``, indexed
    [x, y, e, j] by operators listed m-major and the inputs x^j,
    j <= deg_bound.  The key holds the two tables it contracts and what
    their builders read.

    * ``prod_act[x, y]`` is the action of the product op_x op_y:
      sum_r T[n_x, m_y, n_y, r] beta^r A[m_x + m_y, r], the product table
      contracted with the action table.  The true action is
      beta * Lambda^(m_x + m_y) * prod_act, since beta^(1 - r) = beta * beta^r.
    * ``comp[x, y]`` is op_x.(op_y.x^j) without Lambda^(m_x + m_y): the
      product of the two action matrices and of their signs
      beta^((1 - n) % 2), which is beta^(n_x + n_y).
    """
    import numpy as np
    from .slots import check_exact, product_table

    beta = (-1) ** (1 - eps)
    in1 = deg_bound + 1
    mid1 = deg_bound + nb + 1
    out1 = deg_bound + 2 * nb + 1
    m1 = np.repeat(np.arange(-mb, mb + 1), nb + 1)
    n1 = np.tile(np.arange(nb + 1), 2 * mb + 1)
    act1 = _action_table(eps, 2 * mb, 2 * nb, deg_bound + nb)
    prod1 = product_table(nb, mb, nb)
    ab_coeff = prod1[n1[:, None], m1[None, :] + mb, n1[None, :], :] \
        * beta ** np.arange(2 * nb + 1)
    ab_act = act1[m1[:, None] + m1[None, :] + 2 * mb, :, :out1, :in1]
    check_exact(int(np.abs(ab_coeff).max()) * int(np.abs(ab_act).max()) * (2 * nb + 1),
                np.int64, "product-action table")
    prod_act = np.einsum("xyr,xyrei->xyei", ab_coeff, ab_act)
    own = act1[m1 + 2 * mb, n1]
    check_exact(int(np.abs(own).max()) ** 2 * mid1, np.int64, "action compositions")
    comp = own[:, None, :out1, :mid1] @ own[None, :, :mid1, :in1]
    comp *= (beta ** (n1[:, None] + n1[None, :]))[:, :, None, None]
    return prod_act, comp


def _verify_axiom_dnu_fast(spec: OmegaSpec, m_bound: int, n_bound: int,
                           deg_bound: int):
    """Per pair in ``verify_module_axiom``'s order: do its d/dnu sides differ?

    Both sides of the axiom on a pair (a, b) are Lambda^(m_a + m_b) times an
    integer matrix on the input monomials.  Actions and products factor slot
    by slot, so with the tables of ``_rank1_tables`` their difference is
    beta (x)_s comp[a_s, b_s] - beta (x)_s comp[b_s, a_s]
    - (x)_s prod_act[a_s, b_s] + (x)_s prod_act[b_s, a_s] on the columns of
    the input monomials, and ``kron_sums_vanish`` tells exactly whether it
    is zero: a pair is flagged exactly when some monomial breaks the axiom.
    """
    import numpy as np
    from .slots import kron_sums_vanish

    rank, beta = spec.rank, spec.beta_sign
    prod_act, comp = _rank1_tables(spec.eps, m_bound, n_bound, deg_bound)
    n1 = len(comp)
    terms = np.stack([comp, comp.swapaxes(0, 1), prod_act, prod_act.swapaxes(0, 1)], axis=2)
    # slot exponents of the input monomials: column c is x^in_slot[:, c]
    in_slot = np.indices((deg_bound + 1,) * rank).reshape(rank, -1)
    in_slot = in_slot[:, in_slot.sum(axis=0) <= deg_bound]
    vanish = kron_sums_vanish([terms.reshape(n1 * n1, *terms.shape[2:])] * rank,
                              (beta, -beta, -1, 1), cols=in_slot)
    # slot_ops[s, i]: slot s of the i-th operator t^m D^n, listed m-major
    grid = np.indices((2 * m_bound + 1,) * rank + (n_bound + 1,) * rank).reshape(2 * rank, -1)
    slot_ops = grid[:rank] * (n_bound + 1) + grid[rank:]
    iu, ju = np.triu_indices(slot_ops.shape[1])
    return ~vanish[tuple(slot_ops[:, iu] * n1 + slot_ops[:, ju])]


# ---------------------------------------------------------------------------
# Irreducibility witnesses
# ---------------------------------------------------------------------------


def degree_reduction_witness(spec: OmegaSpec, f: PolyVec):
    """Chain of difference operators driving f down to a nonzero constant.

    Each step applies beta^-1 lambda_i^-1 t_i - beta^-1 (as an algebra
    element), which realizes f |-> f(..., x_i - 1, ...) - f and drops the
    x_i-degree by exactly one.  The chain has length equal to the total
    degree of f and certifies that the submodule generated by f contains 1.
    """
    if f.is_zero():
        raise ValueError("cannot reduce the zero vector")
    if spec.family not in ("d", "dnu"):
        raise FamilyMismatch("degree reduction works on the d/dnu families")
    ctx = AlgebraCtx(spec.rank, central=False)
    beta_inv = RATIONALS.rational(spec.beta_sign)  # beta^2 = 1
    chain = []
    cur = f
    while cur.degree() > 0:
        var = None
        for exps in cur.terms:
            for i, e in enumerate(exps):
                if e > 0 and sum(exps) == cur.degree():
                    var = i
                    break
            if var is not None:
                break
        e_i = tuple(1 if i == var else 0 for i in range(spec.rank))
        zero = (0,) * spec.rank
        step_op = ctx.basis(e_i, zero, beta_inv * spec.lam[var].inverse()) \
            - ctx.basis(zero, zero, beta_inv)
        cur = act(step_op, cur)
        if cur.is_zero():
            raise InternalError("difference step annihilated a positive-degree vector")
        chain.append((step_op, cur))
    return chain


class SimplicityReport(NamedTuple):
    reducible: bool
    verdict: str
    witness: list | None = None
    seed: int | None = None
    degree_bound: int = 0


def _probe_generators(spec: OmegaSpec, m_range: int):
    if spec.family in ("d", "dnu"):
        ctx = AlgebraCtx(spec.rank, central=False)
        gens = []
        for i in range(spec.rank):
            for m in range(-m_range, m_range + 1):
                mv = tuple(m if k == i else 0 for k in range(spec.rank))
                for n in range(3):
                    nv = tuple(n if k == i else 0 for k in range(spec.rank))
                    op = ctx.basis(mv, nv)
                    gens.append(lambda f, op=op: act(op, f))
        return gens
    return [(lambda f, g=g: act_hv(spec, g, f))
            for _, g in _family_generators(spec, m_range, 0)]


def simplicity_probe(spec: OmegaSpec, degree_bound: int) -> SimplicityReport:
    """Bounded search for a proper invariant subspace.

    For each monomial seed of total degree <= degree_bound - 2 the probe
    closes the span under all generator applications whose result stays
    within the degree window, then accepts the span as a witness only if it
    is a proper subspace in every degree slice from the seed degree up to the
    bound.  Seeds at the top two degrees are skipped: their closures look
    invariant only because every application overflows the window.  A clean
    sweep is reported as "no proper invariant subspace within bound", never
    as a proof of simplicity.
    """
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    gens = _probe_generators(spec, degree_bound + 2)
    rank = spec.rank
    if rank != 1 and spec.family != "dnu":
        raise FamilyMismatch("unexpected rank for this family")

    def slice_dim(d):
        return sum(1 for e in iproduct(*[range(d + 1)] * rank) if sum(e) == d)

    full_dims = [slice_dim(d) for d in range(degree_bound + 1)]

    seeds = [
        e for e in iproduct(*[range(degree_bound - 1)] * rank)
        if sum(e) <= degree_bound - 2
    ]
    proto = spec.zero_vec()

    def images(terms):
        v = proto._like(terms)
        for g in gens:
            w = g(v)
            if not w.is_zero() and w.degree() <= degree_bound:
                yield w.terms

    for seed in seeds:
        span = SpanBasis()
        span.close([spec.monomial(seed).terms], images)
        # per-degree dimensions of the closure
        got = [0] * (degree_bound + 1)
        for lead in span.pivots:
            got[sum(lead)] += 1
        # cumulative: closure dim at degree <= d versus full dim
        proper_everywhere = True
        nontrivial = False
        for d in range(sum(seed), degree_bound + 1):
            cdim = sum(got[: d + 1])
            fdim = sum(full_dims[: d + 1])
            if cdim > 0:
                nontrivial = True
            if cdim >= fdim:
                proper_everywhere = False
                break
        if proper_everywhere and nontrivial:
            witness = [dict(row) for row in span.pivots.values()]
            return SimplicityReport(
                True, "invariant-subspace-within-bound",
                witness=witness, seed=seed, degree_bound=degree_bound,
            )
    return SimplicityReport(
        False, "no-proper-invariant-subspace-within-bound",
        degree_bound=degree_bound,
    )


def _assoc_split_mismatches(eps: int, m_bound: int, n_bound: int, deg_bound: int):
    """Per ordered pair (a, b), a-major: does act(a*b) x^j != a.(b.x^j) for some j?

    a and b run over t^m D^n, m-major.  Both sides are Lambda^(m_a + m_b)
    times integer polynomials, so the comparison is between the
    product-action table and the per-slot compositions of
    ``_rank1_tables``, signs folded in.
    """
    prod_act, comp = _rank1_tables(eps, m_bound, n_bound, deg_bound)
    return ((-1) ** (1 - eps) * prod_act != comp).any(axis=(2, 3)).ravel()


def assoc_action_split(spec: OmegaSpec, m_bound: int, n_bound: int,
                       deg_bound: int, action=None):
    """Test whether the module is also a module over the associative product.

    Returns (holds, counterexample): act(a*b, f) versus act(a, act(b, f))
    over the windowed basis pairs, with the first failing (a, b, f, lhs, rhs)
    in the order a, then b, then f.  The eps = 1 family satisfies it; the
    eps = 0 family has explicit counterexamples.  Integer tables
    (``_assoc_split_mismatches``) flag the pairs that differ, and the exact
    loop ``_exact_failure`` compares them; ``action`` overrides the module
    action and flags every pair, as does a bound too large for the tables.
    """
    if spec.family != "d":
        raise FamilyMismatch("the associative split is a rank-1 d-family check")
    n_ops = (2 * m_bound + 1) * (n_bound + 1)
    flags = [True] * n_ops ** 2
    if action is None:
        action = act
        try:
            flags = _assoc_split_mismatches(spec.eps, m_bound, n_bound, deg_bound)
        except BoundsTooLarge:
            pass

    def cases():
        ctx = AlgebraCtx(1, central=False)
        monos = [spec.monomial((k,)) for k in range(deg_bound + 1)]

        def gen(i):
            # the i-th of the m-major basis t^m D^n of ``_family_generators``
            m, n = divmod(i, n_bound + 1)
            return ctx.basis(m - m_bound, n)

        def sides(p):
            a, b = map(gen, divmod(p, n_ops))
            ab = assoc_product(a, b)
            return a, b, ((f, action(ab, f), action(a, action(b, f))) for f in monos)
        return sides

    counter = _exact_failure(flags, deg_bound + 1, cases)[1]
    return counter is None, counter
