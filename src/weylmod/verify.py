"""Named verification suites behind ``weylmod verify``.

Each suite re-derives a family of identities with exact arithmetic and
returns a structured result; the default bounds are the ones the test suite
pins.  Suites are deterministic: the only randomness is the seeded sampling
inside the irreducibility suite's combination vectors.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import comb, lcm
from typing import NamedTuple

from .scalars import ParamDecl, RATIONALS
from .liealg import (
    AlgebraCtx, D_ALG, D_HAT, bracket, cocycle_basis,
    generated_span_probe,
)
from . import umod as U
from . import hwmod as H
from . import tensor as T
from .slots import memo_table


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    checks: int
    seconds: float
    detail: str = ""

    def line(self, timings: bool = False) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        stamp = f", {self.seconds:.2f}s" if timings else ""
        return f"{self.name}: {status} [{self.checks} checks{stamp}]{extra}"


class _Failed(Exception):
    """Leaves a ``_Suite`` block at its first failing check."""


class _Suite:
    """Counts a suite's checks and stops the suite at its first failing one.

    ``with _Suite(name) as s:`` holds the suite's claims.  ``s.check(ok,
    detail, *args, n=1)`` counts n checks; a failing one records
    ``detail.format(*args)``, so a passing check formats nothing, and leaves
    the block.  ``s.result`` is then the suite's ``SuiteResult``.
    """

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.ok = True
        self.detail = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def check(self, ok, detail: str, *args, n: int = 1):
        self.checks += n
        if not ok:
            self.ok = False
            self.detail = detail.format(*args) if args else detail
            raise _Failed

    def __exit__(self, kind, exc, tb):
        self.result = SuiteResult(self.name, self.ok, self.checks,
                                  time.perf_counter() - self.t0, self.detail)
        return kind is _Failed


# ---------------------------------------------------------------------------
# 1. displayed bracket identities
# ---------------------------------------------------------------------------


def suite_bracket_identities(bounds=None) -> SuiteResult:
    ctx = D_ALG
    with _Suite("bracket-identities") as s:
        for m in range(-5, 6):
            s.check(bracket(ctx.d_op(2), ctx.t(m))
                    == ctx.basis(m, 1, 2 * m) + ctx.basis(m, 0, m * m),
                    "[D^2, t^m] = 2m t^m D + m^2 t^m fails at m={}", m)
            s.check(bracket(ctx.d_op(2), ctx.basis(m, 1))
                    == ctx.basis(m, 1, m * m) + ctx.basis(m, 2, 2 * m),
                    "[D^2, t^m D] = m^2 t^m D + 2m t^m D^2 fails at m={}", m)
        s.check(bracket(ctx.basis(-1, 2), ctx.basis(1, 2)) == ctx.d_op(3, 4),
                "[t^-1 D^2, t D^2] = 4 D^3 fails")
        s.check(bracket(ctx.d_op(3), ctx.basis(1, 1))
                == ctx.basis(1, 3, 3) + ctx.basis(1, 2, 3) + ctx.basis(1, 1),
                "[D^3, tD] = 3tD^3 + 3tD^2 + tD fails")
        s.check(bracket(ctx.basis(1, 2), ctx.basis(-1, 1)) == ctx.d_op(2, -3) + ctx.d_op(1),
                "[tD^2, t^-1 D] = -3D^2 + D fails")
        # [t^-1 D^k, t D^2] = (k+2) D^(k+1) + (k+1)(k-2)/2 D^k + sum C(k,i) D^(k+2-i)
        for k in range(7):
            rhs = ctx.d_op(k + 1, k + 2) + ctx.d_op(k, Fraction((k + 1) * (k - 2), 2))
            for i in range(3, k + 1):
                rhs = rhs + ctx.d_op(k + 2 - i, comb(k, i))
            s.check(bracket(ctx.basis(-1, k), ctx.basis(1, 2)) == rhs,
                    "[t^-1 D^k, t D^2] fails at k={}", k)
    return s.result


# ---------------------------------------------------------------------------
# 2. Jacobi + antisymmetry
# ---------------------------------------------------------------------------


def _degrees(bound: int, rank: int) -> list:
    return list(iproduct(range(-bound, bound + 1), repeat=rank))


def _ngrid(bound: int, rank: int) -> list:
    return list(iproduct(range(bound + 1), repeat=rank))


def _hat_keys(mb: int, nb: int) -> list:
    return [(m, n) for m in range(-mb, mb + 1) for n in range(nb + 1)]


@memo_table(lambda: (cocycle_basis,))
def _cocycle_values(mb: int, nb: int):
    """({(m + 2 mb, r, c): den * phi(t^m D^r, c)}, den) for the nonzero values
    of ``_hat_bracket_table``'s cocycle table, kept by ``memo_table``.

    phi(t^m D^r, t^m_c D^n_c) vanishes off the grading m + m_c = 0, m != 0,
    so only the entries with m = -m_c and m_c != 0 are filled.
    """
    phi = {(2 * mb - mc, r, c): cocycle_basis(-mc, r, mc, nc)
           for c, (mc, nc) in enumerate(_hat_keys(mb, nb)) if mc
           for r in range(2 * nb + 1)}
    den = lcm(*(v.denominator for v in phi.values()))
    return {k: int(v * den) for k, v in phi.items() if v}, den


def _hat_bracket_table(mb: int, nb: int):
    """The rank-1 bracket and cocycle tables over the keys (m, n), |m| <= mb,
    n <= nb, which the Jacobi and cocycle suites share.

    Returns (keys, br, phi, den) with int64 tables: br[a, b, r] is the
    coefficient of t^(m_a + m_b) D^r in [a, b] = ab - ba, read off
    ``product_table(nb, mb, nb)``, and
    phi[m + 2 mb, r, c] = den * phi(t^m D^r, c) for |m| <= 2 mb, r <= 2 nb,
    scaled by the common denominator den of those values (den = 2), filled
    from ``_cocycle_values``.  Both are guarded for their contraction in
    ``_cocycle_tensor``.
    """
    import numpy as np
    from .slots import check_exact, int_table, product_table

    keys = _hat_keys(mb, nb)
    km, kn = np.array(keys, dtype=np.intp).T
    table = product_table(nb, mb, nb)
    phi, den = _cocycle_values(mb, nb)
    # bracket entries are below 2 |table|; S sums 2 nb + 1 products, and
    # the cocycle identity three values of S
    check_exact(3 * (2 * nb + 1) * 2 * int(np.abs(table).max())
                * max(map(abs, phi.values()), default=1), np.int64, "cocycle contraction")
    phi = int_table((4 * mb + 1, 2 * nb + 1, len(keys)), phi, "cocycle values")
    br = table[kn[:, None], km[None, :] + mb, kn[None, :], :] \
        - table[kn[None, :], km[:, None] + mb, kn[:, None], :]
    return keys, br, phi, den


def _hat_apply(ad_mid, br, deg, x, y, z):
    """The vector part of [x, [y, z]] for broadcasting index arrays x, y, z:
    [y, z] sits at the mid degree deg[y] + deg[z], where the ad block of x
    maps it."""
    import numpy as np

    return np.einsum("tqr,tq->tr", ad_mid[x, deg[y] + deg[z]], br[y, z])


def _jacobi_rank1_tables(m_bound: int, n_bound: int):
    """Antisymmetry and Jacobi of the centrally extended rank-1 algebra.

    The elements are the keys ((m,), (n,)), |m| <= m_bound, n <= n_bound,
    and the center "C".  Antisymmetry is checked on all ordered pairs,
    row-major; the Jacobiator is then alternating, so Jacobi is checked on
    the triples of ``itertools.combinations``.  The bracket table, the
    cocycle values phi(a, b) and S = den * phi([a, b], c) come from one
    ``_cocycle_tensor`` call.  The Jacobiator's vector part is an int64
    contraction with the ad blocks of the keys at the mid degrees, sliced
    from ``product_table(2 n_bound, 2 m_bound, 2 n_bound)`` and guarded by
    an absolute-value shadow of the actual tables; its central part is
    -(S[x,y,z] + S[y,z,x] + S[z,x,y]) / den, since phi(x, [y, z]) =
    -phi([y, z], x).
    """
    import numpy as np
    from .slots import check_exact, product_table

    table = product_table(2 * n_bound, 2 * m_bound, 2 * n_bound)
    check_exact(2 * int(np.abs(table).max()), np.int64, "rank-1 ad blocks")
    keys, s, br, phi, _ = _cocycle_tensor(m_bound, n_bound)
    km, kn = np.array(keys, dtype=np.intp).T
    elems = [((m,), (n,)) for m, n in keys] + ["C"]
    n_el = len(elems)

    # the center gets a zero row and column
    br = np.pad(br, ((0, 1), (0, 1), (0, 0)))
    pair = np.pad(phi[km + 2 * m_bound, kn], (0, 1))
    bad = (br != -br.transpose(1, 0, 2)).any(axis=2) | (pair != -pair.T)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n_el)
        return False, i * n_el + j + 1, f"antisymmetry fails at {elems[i]}, {elems[j]}"
    checks = n_el * n_el

    # ad_mid[o, d, q, r]: the coefficient of t^(m_o + d) D^r in
    # [o, t^d D^q] = o t^d D^q - t^d D^q o, for |d| <= 2 m_bound, q <= 2 n_bound
    nr = 3 * n_bound + 1
    ad_mid = table[kn, ..., :nr] - table[:, km + 2 * m_bound, kn, :nr].swapaxes(0, 1)[:, None]
    shadow = np.abs(br).max(axis=(0, 1)).astype(np.float64) @ np.abs(ad_mid).astype(np.float64)
    check_exact(3 * shadow.max(), np.int64, "rank-1 Jacobiator")
    # the center gets a zero ad block and cocycle slice, at degree index 0
    ad_mid = np.pad(ad_mid, ((0, 1), (0, 0), (0, 0), (0, 0)))
    central = np.pad(s + s.transpose(1, 2, 0) + s.transpose(2, 0, 1), (0, 1))
    deg = np.append(km + m_bound, 0)
    # one first index i at a time, over its pairs i < j < k in row-major order
    pj, pk = np.triu_indices(n_el, 1)
    for i in range(n_el - 2):
        y, z = pj[pj > i], pk[pj > i]
        vec = sum(_hat_apply(ad_mid, br, deg, *c) for c in ((i, y, z), (y, z, i), (z, i, y)))
        bad = vec.any(axis=1) | (central[i, y, z] != 0)
        if bad.any():
            t = int(np.argmax(bad))
            return False, checks + t + 1, \
                f"Jacobi fails at triple {elems[i]}, {elems[y[t]]}, {elems[z[t]]}"
        checks += len(y)
    return True, checks, ""


def suite_jacobi(bounds=None) -> SuiteResult:
    bounds = bounds or {}
    with _Suite("jacobi-antisymmetry") as s:
        # rank 1 with the center adjoined, then rank 2
        ok, n, detail = _jacobi_rank1_tables(bounds.get("m", 3), bounds.get("n", 3))
        s.check(ok, detail, n=n)
        ok, n, detail = _jacobi_rank2_matrices(bounds.get("m2", 2), bounds.get("n2", 2))
        s.check(ok, detail, n=n)
    return s.result


def _jacobi_rank2_matrices(mb: int, nb: int):
    """Antisymmetry and Jacobi of the rank-2 algebra on its windowed basis.

    Products factor over the slots, so [a, b] = ab - ba is a sum of two
    Kronecker products of slot products, and J(b, c) = ad([b, c]) -
    ad(b) ad(c) + ad(c) ad(b) on the source window a sum of 12 Kronecker
    products of slot maps, one block per source degree, decided exactly by
    ``kron_sums_vanish``.  J(b, c) = 0 checks Jacobi against every source
    element at once, and antisymmetry (on all ordered pairs first) extends
    the pairs c >= b to all ordered triples.  The slot maps are sliced from
    the rank-1 ``product_table(2 nb, 2 mb, 2 nb)``.
    """
    import numpy as np
    from .slots import check_exact, kron_sums_vanish, product_table

    nq, nk, nr = nb + 1, 2 * nb + 1, 3 * nb + 1
    table = product_table(2 * nb, 2 * mb, 2 * nb)
    check_exact(nk * int(np.abs(table).max()) ** 2, np.int64, "rank-2 Jacobi slot maps")
    # table indices of the source degrees mu and of the slot elements t^m D^n
    mu = np.arange(mb, 3 * mb + 1)
    em, en = np.repeat(mu, nq), np.tile(np.arange(nq), 2 * mb + 1)
    # [b_s, c_s, mu]: L_c and R_c on the source blocks, L_b at the degrees
    # m_c + mu, R_b, the product u = b_s c_s, and L_u and R_u
    l_src = table[en[:, None], mu, :nq, :nk].swapaxes(-1, -2)
    r_src = table[:nq, em, en, :nk].transpose(1, 2, 0)
    l_mid = table[en[:, None, None], em[:, None] + mu - 2 * mb, :nk, :nr].swapaxes(-1, -2)
    r_mid = table[:nk, em, en, :nr].transpose(1, 2, 0)
    u = table[en[:, None], em, en, :nk]
    l_u = np.tensordot(u, table[:nk, mu, :nq, :nr], axes=1).swapaxes(-1, -2)
    r_u = np.einsum("bck,qbckr->bcrq", u, table[:nq, em[:, None] + em - 2 * mb, :nk, :nr])
    n1 = len(em)
    maps = [np.broadcast_to(m, (n1, n1, len(mu), nr, nq)) for m in (
        l_u, r_u[:, :, None], l_mid @ l_src, l_mid @ r_src[:, None],
        r_mid[:, None, None] @ l_src, (r_mid[:, None] @ r_src)[:, :, None])]
    # ad([b, c]) = L_u - R_u - L_v + R_v with v = c_s b_s, minus
    # ad(b) ad(c) = L_b L_c - L_b R_c - R_b L_c + R_b R_c, plus its swap
    terms = np.stack(maps + [m.swapaxes(0, 1) for m in maps], axis=2)
    jacobi = kron_sums_vanish([terms.reshape(n1 * n1, 12, -1, nq)] * 2,
                              (1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1))
    # [a, b] + [b, a] = ab - ba + ba - ab
    prods = np.stack([u, u.swapaxes(0, 1), u.swapaxes(0, 1), u], axis=2)
    antisym = kron_sums_vanish([prods.reshape(n1 * n1, 4, nk, 1)] * 2, (1, -1, 1, -1))

    src = [(d, n) for d in _degrees(mb, 2) for n in _ngrid(nb, 2)]
    # the slot tuple of each ordered pair of source elements
    grid = np.indices((2 * mb + 1,) * 2 + (nq,) * 2).reshape(4, -1)
    slot = grid[:2] * nq + grid[2:]
    pair = tuple(slot[:, :, None] * n1 + slot[:, None, :])
    # one check per ordered pair, then one per source element and pair c >= b
    n = len(src)
    iu, ju = np.triu_indices(n)
    bad = np.concatenate([~antisym[pair].ravel(), ~jacobi[pair][iu, ju]])
    k = int(np.argmax(bad))
    if not bad[k]:
        return True, n * n + len(iu) * n, ""
    if k < n * n:
        return False, k + 1, f"rank-2 antisymmetry fails at {src[k // n]}, {src[k % n]}"
    k -= n * n
    return False, n * n + (k + 1) * n, f"rank-2 Jacobi fails at {src[iu[k]]}, {src[ju[k]]}"


# ---------------------------------------------------------------------------
# 3. cocycle
# ---------------------------------------------------------------------------


def _cocycle_tensor(mb: int, nb: int):
    """den * phi([a, b], c) over the keys (m, n), |m| <= mb, n <= nb.

    Returns (keys, S, br, phi, den): the tables of ``_hat_bracket_table``
    and S[a, b, c], the int64 contraction of the bracket table br with the
    cocycle values phi(t^m D^r, c).
    """
    import numpy as np

    keys, br, phi, den = _hat_bracket_table(mb, nb)
    km = np.array([m for m, _ in keys], dtype=np.intp)
    # one key a at a time, so that the gathered cocycle values stay
    # keys^2 * (2 nb + 1) large
    s = np.stack([np.einsum("br,brc->bc", br[a], phi[km[a] + km + 2 * mb])
                  for a in range(len(keys))])
    return keys, s, br, phi, den


def suite_cocycle(bounds=None) -> SuiteResult:
    import numpy as np

    bounds = bounds or {}
    with _Suite("cocycle") as s:
        # 2-cocycle identity phi([a,b],c) + phi([b,c],a) + phi([c,a],b) = 0
        # over all ordered triples, reported at the first failing triple in
        # lexicographic order
        keys, t, *_ = _cocycle_tensor(bounds.get("m", 3), bounds.get("n", 3))
        bad = np.flatnonzero(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1))
        k = int(bad[0]) if bad.size else t.size - 1
        s.check(not bad.size, "cocycle identity fails at {}, {}, {}",
                *(keys[i] for i in np.unravel_index(k, t.shape)), n=k + 1)
        # Virasoro central values
        for m in range(-6, 7):
            s.check(cocycle_basis(m, 1, -m, 1) == Fraction(m ** 3 - m, 12),
                    "Virasoro value wrong at m={}", m)
        # vanishing for m1 = 0
        for n1, m2, n2 in iproduct(range(7), range(-6, 7), range(7)):
            s.check(cocycle_basis(0, n1, m2, n2) == 0, "m1=0 should vanish")
    return s.result


# ---------------------------------------------------------------------------
# 4. module axiom
# ---------------------------------------------------------------------------


def suite_module_axiom(bounds=None) -> SuiteResult:
    bounds = bounds or {}
    mb = bounds.get("m", 3)
    nb = bounds.get("n", 3)
    deg = bounds.get("deg", 4)
    decl = ParamDecl(invertible=("lambda",), plain=("alpha", "beta"))
    lam = decl.param("lambda")
    decl2 = ParamDecl(invertible=("l1", "l2"))
    lams = (decl2.param("l1"), decl2.param("l2"))
    # each family with its failure detail; "{}" takes the counterexample
    families = [(U.omega_d(lam, eps), f"d-family eps={eps}: {{}}") for eps in (1, 0)] + [
        (U.omega_hv(lam, decl.param("alpha"), decl.param("beta")), "hv family"),
        (U.omega_vir(lam, decl.param("alpha")), "vir family"),
        (U.omega_dnu(lams, 1), "rank-2 eps=1"),
        (U.omega_dnu(lams, 0), "rank-2 eps=0"),
    ]
    with _Suite("module-axiom") as s:
        for spec, detail in families:
            rep = U.verify_module_axiom(spec, mb, nb, deg)
            s.check(rep.ok, detail, (rep.counterexample or ())[:3], n=rep.checked)
    return s.result


# ---------------------------------------------------------------------------
# 5. associative-action split
# ---------------------------------------------------------------------------


def suite_assoc_split(bounds=None) -> SuiteResult:
    bounds = bounds or {}
    mb = bounds.get("m", 3)
    nb = bounds.get("n", 3)
    deg = bounds.get("deg", 3)
    with _Suite("assoc-split") as s:
        decl = ParamDecl(invertible=("lambda",))
        lam = decl.param("lambda")
        holds1, _ = U.assoc_action_split(U.omega_d(lam, 1), mb, nb, deg)
        holds0, counter = U.assoc_action_split(U.omega_d(lam, 0), mb, nb, deg)
        pairs = (2 * mb + 1) * (nb + 1)
        s.check(holds1 and not holds0 and counter is not None,
                "eps=1 must satisfy, eps=0 must break the product law",
                n=2 * pairs * pairs * (deg + 1))
    return s.result


# ---------------------------------------------------------------------------
# 6. irreducibility witnesses
# ---------------------------------------------------------------------------


def suite_irreducibility(bounds=None, seed=0) -> SuiteResult:
    bounds = bounds or {}
    max_deg = bounds.get("deg", 8)
    probe_deg = bounds.get("probe_deg", 6)
    rng = random.Random(seed)

    decl = ParamDecl(invertible=("lambda",))
    lam = decl.param("lambda")
    with _Suite("irreducibility") as s:
        for eps in (1, 0):
            spec = U.omega_d(lam, eps)
            for d in range(max_deg + 1):
                # plain monomial, then a seeded random combination of that degree
                vectors = [spec.monomial((d,))]
                combo = spec.zero_vec()
                for k in range(d + 1):
                    coeff = rng.randint(-5, 5)
                    if k == d and coeff == 0:
                        coeff = 1
                    combo = combo + spec.monomial((k,), coeff)
                vectors.append(combo)
                for f in vectors:
                    if f.is_zero():
                        continue
                    # one check per vector: the chain's length, then its end
                    chain = U.degree_reduction_witness(spec, f)
                    fd = f.degree()
                    s.check(fd == 0 or len(chain) == fd,
                            "chain length {} != degree {}", len(chain), fd)
                    s.check(fd == 0 or (chain[-1][1].degree() == 0 and not chain[-1][1].is_zero()),
                            "chain did not end at a nonzero constant", n=0)

        # rank-2 spot checks of the same reduction
        decl2 = ParamDecl(invertible=("l1", "l2"))
        spec2 = U.omega_dnu((decl2.param("l1"), decl2.param("l2")), 0)
        for exps in ((2, 1), (0, 3), (4, 4)):
            chain = U.degree_reduction_witness(spec2, spec2.monomial(exps))
            s.check(len(chain) == sum(exps) and chain[-1][1].degree() == 0,
                    "rank-2 chain wrong")

        # reducible controls and simple families
        dl = ParamDecl(invertible=("lambda",))
        lam2 = dl.param("lambda")
        s.check(U.simplicity_probe(U.omega_hv(lam2, dl.zero, dl.zero), probe_deg).reducible,
                "missed the codimension-1 submodule of the hv family")
        s.check(U.simplicity_probe(U.omega_vir(lam2, dl.zero), probe_deg).reducible,
                "missed the codimension-1 submodule of the vir family")
        for eps in (0, 1):
            s.check(not U.simplicity_probe(U.omega_d(lam2, eps), probe_deg).reducible,
                    "false invariant subspace for eps={}", eps)
    return s.result


# ---------------------------------------------------------------------------
# 7. highest weight
# ---------------------------------------------------------------------------


def _bernoulli(n: int) -> list:
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += comb(m + 1, j) * out[j]
        out.append(-s / (m + 1))
    return out


def suite_highest_weight(bounds=None) -> SuiteResult:
    from .scalars import Series, exp_series

    with _Suite("highest-weight") as s:
        # h_n = -B_n for phi = x, against the independent recurrence
        phi = H.Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])
        spec = H.HWSpec(RATIONALS.zero, phi)
        bern = _bernoulli(8)
        for n in range(9):
            s.check(spec.h(n) == RATIONALS.rational(-bern[n]), "h_{} != -B_{}", n, n)

        # bracket compatibility on the (L=2, N=2) window with symbolic weights
        gen = H.HWSpec.generic(8)
        window = H.verma_basis(gen, 2, 2)
        host = H.verma_basis(gen, 6, 2)
        ops = [D_HAT.basis(m, n) for m in range(-2, 3) for n in range(3)]
        ops.append(D_HAT.center())
        basis = window.basis()
        for i, a in enumerate(ops):
            for b in ops[i:]:
                br = bracket(a, b)
                for mono in basis:
                    v = host.elem({mono: 1})
                    lhs = H.act_verma(br, v)
                    rhs = H.act_verma(a, H.act_verma(b, v)) - H.act_verma(b, H.act_verma(a, v))
                    s.check(lhs == rhs, "straightening breaks at {}, {}, {}", a, b, mono)

        # D^k 1 = h_k 1
        tv1 = H.verma_basis(gen, 1, 0)
        for k in range(7):
            s.check(H.act_verma(D_HAT.d_op(k), tv1.vacuum()) == tv1.vacuum().scale(gen.h(k)),
                    "D^{} weight wrong", k)

        # generic level-1 nullspace is trivial at (N=0, M=2)
        tv = H.verma_basis(gen, 1, 0)
        s.check(not H.singular_vectors(tv, 1, 2).vectors,
                "generic weights admitted a level-1 singular vector")
        # trivial weights: every level-1 vector is singular at (N=1, M=3)
        triv = H.HWSpec(RATIONALS.zero, H.Quasipolynomial.zero())
        tvt = H.verma_basis(triv, 2, 1)
        rep = H.singular_vectors(tvt, 1, 3)
        s.check(len(rep.vectors) == len(tvt.basis_at_level(1)),
                "trivial weights should make all of level 1 singular")
        # singular vectors are weight vectors and the quotient kills level 1
        for v in rep.vectors:
            s.check(H.weight_of(v) is not None, "singular vector is not a weight vector")
        s.check(H.weight_space_dims(tvt, rep.vectors)[1] == 0,
                "level-1 quotient dimension should vanish")
        # Delta round trip at order 8
        order = 8
        fact = [1] * (order + 1)
        for k in range(1, order + 1):
            fact[k] = fact[k - 1] * k
        delta = Series(order, tuple(gen.h(n) * Fraction(-1, fact[n]) for n in range(order + 1)))
        ex = exp_series(RATIONALS.one, order)
        one = Series(order, tuple(RATIONALS.one if k == 0 else RATIONALS.zero
                                  for k in range(order + 1)))
        back = delta * (ex - one)
        phis = gen.phi.series(order)
        s.check(all(back[k] == phis[k] for k in range(order + 1)), "series round trip failed")
    return s.result


# ---------------------------------------------------------------------------
# 8. tensor suite
# ---------------------------------------------------------------------------


def suite_tensor(bounds=None) -> SuiteResult:
    bounds = bounds or {}
    d = bounds.get("deg", 3)
    L = bounds.get("L", 2)
    N = bounds.get("N", 1)
    mb = bounds.get("m", 4)

    decl = ParamDecl(invertible=("lambda",), plain=("c",))
    lam = decl.param("lambda")
    phi = H.Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])
    hw_spec = H.HWSpec(decl.param("c"), phi)

    with _Suite("tensor") as s:
        for eps in (1, 0):
            hw = H.verma_basis(hw_spec, L + 5, N)
            ts = T.TensorSpec(U.omega_d(lam, eps), hw)
            # pivotal identity on 1 (x) v for m, m' in [K, K+4]
            for mono in [()] + hw.basis_at_level(1) + hw.basis_at_level(2):
                v = ts.elem({(0, mono): 1})
                K = T.vanishing_bound(H.VermaElem(hw, {mono: 1}))
                for m in range(K, K + 5):
                    for mp in range(K, K + 5):
                        lhs = T.act_tensor(T._scaled_weight_op(ts, m, 1), v) \
                            - T.act_tensor(T._scaled_weight_op(ts, mp, 1), v)
                        s.check(lhs == v.scale(eps * (mp - m)),
                                "pivotal identity fails eps={} m={} m'={}", eps, m, mp)
            # strict degree reduction from every windowed seed with 1 <= x-degree <= 3
            for xd in range(1, 4):
                for mono in hw.basis_at_level(0) + hw.basis_at_level(1) + hw.basis_at_level(2):
                    if sum(j for j, _ in mono) > L:
                        continue
                    r = T.vandermonde_reduce(ts, ts.elem({(xd, mono): 1, (0, ()): 1}))
                    s.check(not r.is_zero() and r.x_degree() < xd,
                            "reduction failed eps={} s={} {}", eps, xd, mono)
        # bounded cyclicity at (d, L, N, |m|)
        for eps in (1, 0):
            hw = H.verma_basis(hw_spec, L, N)
            ts = T.TensorSpec(U.omega_d(lam, eps), hw)
            rep = T.irreducibility_probe(ts, d, mb, 2)
            s.check(rep.verdict == "cyclic-within-bounds", "probe verdict {} for eps={}",
                    rep.verdict, eps, n=rep.seeds_checked)
        # degenerate control finds the invariant subspace
        oh = U.omega_hv(decl.param("lambda"), decl.zero, decl.zero)
        tsh = T.TensorSpec(oh, H.verma_basis(hw_spec, L, N))
        s.check(T.irreducibility_probe(tsh, d, mb).verdict == "not-cyclic-within-bounds",
                "control probe missed the witness")

        # intertwiner dimensions at rational instantiations
        hws = H.HWSpec(RATIONALS.rational(Fraction(1, 2)), phi)

        def mk(lamq, eps):
            return T.TensorSpec(U.omega_d(RATIONALS.rational(lamq), eps),
                                H.verma_basis(hws, L, N))

        s.check(T.intertwiner_dim(mk(2, 1), mk(2, 1), d, mb, 1) >= 1,
                "identity intertwiner missing")
        s.check(T.intertwiner_dim(mk(2, 1), mk(3, 1), d, mb, 1) == 0,
                "lambda 2 vs 3 should give 0")
        s.check(T.intertwiner_dim(mk(2, 0), mk(2, 1), d, mb, 1) == 0,
                "eps mismatch should give 0")
    return s.result


# ---------------------------------------------------------------------------
# 9. generator closure
# ---------------------------------------------------------------------------


def suite_span(bounds=None) -> SuiteResult:
    depth = (bounds or {}).get("depth", 8)
    ctx2 = AlgebraCtx(2)
    # (window, generators, m bound, n bound)
    windows = [
        ("rank-1", [D_ALG.t(1), D_ALG.t(-1), D_ALG.d_op(2)], 2, 3),
        ("rank-2", [ctx2.basis((1, 0), (0, 0)), ctx2.basis((-1, 0), (0, 0)),
                    ctx2.basis((0, 1), (0, 0)), ctx2.basis((0, -1), (0, 0)),
                    ctx2.basis((0, 0), (1, 1)),
                    ctx2.basis((0, 0), (2, 0)), ctx2.basis((0, 0), (0, 2))], 1, 1),
    ]
    with _Suite("span-closure") as s:
        for what, gens, mb, nb in windows:
            rep = generated_span_probe(gens, mb, nb, depth)
            s.check(not rep.missing, "{} window missing {}", what, rep.missing[:4],
                    n=len(rep.reached) + len(rep.missing))
    return s.result


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


SUITES = {
    "bracket-identities": suite_bracket_identities,
    "jacobi-antisymmetry": suite_jacobi,
    "cocycle": suite_cocycle,
    "module-axiom": suite_module_axiom,
    "assoc-split": suite_assoc_split,
    "irreducibility": suite_irreducibility,
    "highest-weight": suite_highest_weight,
    "tensor": suite_tensor,
    "span-closure": suite_span,
}

# the bounds keys each suite reads; any other key would be ignored
SUITE_BOUNDS = {
    "bracket-identities": (),
    "jacobi-antisymmetry": ("m", "n", "m2", "n2"),
    "cocycle": ("m", "n"),
    "module-axiom": ("m", "n", "deg"),
    "assoc-split": ("m", "n", "deg"),
    "irreducibility": ("deg", "probe_deg"),
    "highest-weight": (),
    "tensor": ("deg", "L", "N", "m"),
    "span-closure": ("depth",),
}

# every key of SUITE_BOUNDS, in the order usage errors list them
BOUND_KEYS = ("m", "n", "deg", "m2", "n2", "probe_deg", "L", "N", "depth")


def run_suites(names, bounds=None, seed=0):
    results = []
    for name in sorted(names):
        fn = SUITES[name]
        if name == "irreducibility":
            results.append(fn(bounds, seed=seed))
        else:
            results.append(fn(bounds))
    return results
