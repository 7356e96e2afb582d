"""Per-slot integer tables behind the numpy fast paths of the suites.

The product (t^a D^p)(t^b D^q) factors across variables, and so does the
action of t^m D^n on the polynomial modules.  Rank-nu structure constants and
action matrices are therefore Kronecker products of small rank-1 tables,
which are filled from the library's own rank-1 structure constants once per
process and key (``memo_table``).
Machine arithmetic on these tables is trusted only under an absolute-value
bound checked by ``check_exact``; the GF(p) layer of the modular certificates
keeps to the same exact ranges.  numpy is imported inside the functions so
that importing weylmod stays cheap; the sparse GF(p) kernels
(``_sparse_echelon_mod_p``, ``_colspace_mod_p``, ``_spin_sparse_mod_p``) are
pure Python and never import it.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from types import MappingProxyType

from . import liealg
from .scalars import InternalError

# Integers of absolute value below these limits are exact in the dtype.
_EXACT_BITS = {"float64": 53, "int64": 63}


class BoundsTooLarge(OverflowError):
    """The requested bounds are refused as too large: they need integers
    beyond a machine dtype's exact range, or a system beyond the size an
    exact path accepts."""


def check_exact(bound, dtype, what: str) -> None:
    """Raise BoundsTooLarge unless integers up to ``bound`` in absolute value
    are exact in ``dtype`` (float64 below 2^53, int64 below 2^63).

    ``bound`` must dominate every entry and every partial sum of the
    computation, as an absolute-value shadow does; sums are then exact in any
    summation order.  It may be a float shadow: its relative rounding error is
    far below the 2^-20 margin kept here.
    """
    import numpy as np

    bits = _EXACT_BITS[np.dtype(dtype).name]
    if not bound < 2.0 ** bits * (1 - 2.0 ** -20):
        raise BoundsTooLarge(
            f"{what} may exceed the exact integer range of "
            f"{np.dtype(dtype).name} (2^{bits}) at these bounds"
        )


# Tables kept per builder by ``memo_table``, least recently used dropped first.
_MEMO_SIZE = 64


def memo_table(reads):
    """Decorator: build each integer table once per process and key.

    The key is the builder's arguments plus ``reads()``, the functions the
    builder and its callees look up as module globals when they run.  A
    replaced structure constant (a mutant, a call counter or a refusing
    guard) therefore misses the memo and sees every call.  Stored arrays are
    read-only and stored dicts are read-only views.  A builder that raises
    stores nothing, so a refused bound raises again on the next call.
    """
    def wrap(build):
        @lru_cache(maxsize=_MEMO_SIZE)
        def stored(deps, *args):
            return _read_only(build(*args))

        @wraps(build)
        def table(*args):
            return stored(reads(), *args)

        table.cache_info = stored.cache_info
        return table
    return wrap


def _read_only(value):
    """``value`` with its arrays made read-only and its dicts wrapped in views."""
    if isinstance(value, tuple):
        return tuple(map(_read_only, value))
    if isinstance(value, dict):
        return MappingProxyType(value)
    if hasattr(value, "setflags"):
        value.setflags(write=False)
    return value


@memo_table(lambda: (liealg.basis_product, liealg._shift, liealg._slot_product, check_exact))
def product_table(p_max: int, m_max: int, q_max: int):
    """Rank-1 structure constants as a read-only int64 array.

    ``T[p, b + m_max, q, r]`` is the coefficient of t^(a+b) D^r in
    (t^a D^p)(t^b D^q) for p <= p_max, |b| <= m_max and q <= q_max; it does
    not depend on a.  A rank-nu coefficient is the product over slots of one
    entry per slot.  Filled from rank-1 ``basis_product`` calls on the first
    call per key, then read from ``memo_table``.
    """
    entries = {}
    for p in range(p_max + 1):
        for b in range(-m_max, m_max + 1):
            for q in range(q_max + 1):
                for ((m,), (r,)), c in liealg.basis_product((0,), (p,), (b,), (q,)).items():
                    if m != b or r > p + q:
                        raise InternalError(f"D^{p} t^{b} D^{q} has a term t^{m} D^{r} "
                                            "outside the grading")
                    entries[p, b + m_max, q, r] = c
    return int_table((p_max + 1, 2 * m_max + 1, q_max + 1, p_max + q_max + 1),
                     entries, "product table")


def int_table(shape, entries: dict, what: str):
    """An int64 array of ``shape`` holding the Python ints ``entries``
    ({index: value}, zeros elsewhere), guarded before any entry is stored."""
    import numpy as np

    check_exact(max((abs(v) for v in entries.values()), default=0), np.int64, what)
    table = np.zeros(shape, dtype=np.int64)
    for idx, v in entries.items():
        table[idx] = v
    return table


def kron_rows(factors):
    """Row-wise Kronecker product of per-slot matrices with shared columns.

    ``out[..., (i_0, i_1, ...), c] = prod_s factors[s][..., i_s, c]``, rows
    in ``itertools.product`` order (slot 0 most significant).  Leading axes
    broadcast.
    """
    import numpy as np

    out = factors[0]
    for f in factors[1:]:
        k = np.multiply(out[..., :, None, :], f[..., None, :, :], order="C")
        out = k.reshape(k.shape[:-3] + (k.shape[-3] * k.shape[-2], k.shape[-1]))
    return out


# GF(p) arithmetic.  Primes below 2^20, so that a float64 sum of K = 8192
# products of two residues is exact (see ``_matmul_mod_p``).
_PRIMES = (1048573, 1048571, 1048559)


def _matmul_mod_p(a, b, p):
    """a @ b over GF(p) for arrays of integers in [0, p), as float64.

    BLAS float64 products are exact while every partial sum stays below 2^B,
    B = ``_EXACT_BITS["float64"]``.  The inner dimension is summed in chunks
    of K = (2^B - p) // (p - 1)^2 terms (8192 for ``_PRIMES``), each chunk
    reduced mod p before the next is added (delayed reduction, as in
    FFLAS-FFPACK); the margin p keeps ``_mod_p`` exact on a chunk's sum.
    Either operand may carry leading batch dimensions, which broadcast.
    """
    import numpy as np

    chunk = (2 ** _EXACT_BITS["float64"] - p) // (p - 1) ** 2
    if not chunk:
        raise ValueError(f"products of residues mod {p} are not exact in float64")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    inner = a.shape[-1]
    if inner <= chunk:
        return _mod_p(a @ b, p)
    out = _mod_p(a[..., :chunk] @ b[..., :chunk, :], p)
    for lo in range(chunk, inner, chunk):
        out += _mod_p(a[..., lo:lo + chunk] @ b[..., lo:lo + chunk, :], p)
        out = _mod_p(out, p)
    return out


def _mod_p(x, p):
    """x mod p, in place, for float64 integers with |x| + p below 2^B.

    x - p floor(x / p) with the quotient rounded: it is off by at most one,
    and one correction each way fixes that.  Every intermediate is an
    integer below 2^B (B as in ``_matmul_mod_p``), so the result is exact;
    numpy's float ``%`` is several times slower.
    """
    import numpy as np

    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    x[x < 0] += p
    x[x >= p] -= p
    return x


def _echelon_mod_p(m, p):
    """Reduced row echelon form of m over GF(p) by Gauss-Jordan elimination.

    Returns (r, pivot_cols): row i of r has a 1 in column pivot_cols[i] and
    zeros in every other pivot column; rows past the rank are zero.  The
    elimination runs on an int64 copy of m (integer entries, in any range);
    entries stay below p, so every intermediate product fits in int64.
    """
    import numpy as np

    m = m.astype(np.int64)
    m %= p
    rows, cols = m.shape
    pivot_cols: list = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        mask = m[:, c] != 0
        mask[r] = False
        if mask.any():
            m[mask] = (m[mask] - np.outer(m[mask, c], m[r])) % p
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


def _nullspace_mod_p(m, p):
    """Column nullspace basis of m over GF(p), read off the echelon form."""
    import numpy as np

    r, pivot_cols = _echelon_mod_p(m, p)
    pivots = set(pivot_cols)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    null = np.zeros((m.shape[1], len(free)), dtype=np.int64)
    null[free, range(len(free))] = 1
    null[pivot_cols] = -r[:len(pivot_cols), free] % p
    return null


def _sparse_echelon_mod_p(rows, p, rank_bound=None) -> dict:
    """Row echelon form over GF(p) of sparse rows, in pure Python.

    ``rows`` is an iterable of {column: integer} dicts, integers in any
    range.  Returns {pivot column: [(column, residue), ...]}: each stored
    row is 1 at its pivot column, the least column it holds, and the list
    holds its other nonzero entries.  An incoming row is reduced against
    the stored rows from its least column upwards until its least column is
    new, and stored rows are never revisited, so the work follows the
    fill-in of the incoming rows alone.  The pivot columns are those of the
    reduced row echelon form, the least column set of any echelon basis of
    the row space, and so the ones ``_echelon_mod_p`` picks on the dense
    matrix.  With ``rank_bound``, a known upper bound on the rank, no row is
    read past the one that reaches it: the rows read so far span them all.
    """
    pivots: dict = {}
    for row in rows:
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            lead = min(v)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(v.pop(lead), p - 2, p)
                pivots[lead] = [(c, x * inv % p) for c, x in v.items()]
                break
            f = v.pop(lead)
            for c, x in prow:
                nx = (v.get(c, 0) - f * x) % p
                if nx:
                    v[c] = nx
                else:
                    del v[c]
        if len(pivots) == rank_bound:
            break
    return pivots


def _colspace_mod_p(span: dict, vecs, p) -> dict:
    """Extend ``span`` by the sparse vectors ``vecs`` over GF(p), in place,
    and return the rows added.

    ``span`` holds ``_sparse_echelon_mod_p``'s pivot rows,
    {lead: [(column, residue), ...]}, in reduced echelon form: each row is 1
    at its lead, its least column, and 0 at every other lead, so the row
    space holds e(i) exactly when the row with lead i is bare
    (``span.get(i) == []``).  ``vecs`` are {column: integer} dicts.  Each
    vector is reduced against the span in one pass, the residues go into
    one ``_sparse_echelon_mod_p``, and the rows it finds are reduced
    against each other and the old rows against them.
    """
    residues = [v for v in (_reduce_mod_p({c: x % p for c, x in vec.items() if x % p},
                                          span, p) for vec in vecs) if v]
    new: dict = {}
    # highest lead first: a row holds no lead below its own
    for lead, rest in sorted(_sparse_echelon_mod_p(residues, p).items(), reverse=True):
        new[lead] = list(_reduce_mod_p(dict(rest), new, p).items())
    for lead, rest in span.items():
        if any(c in new for c, _ in rest):
            span[lead] = list(_reduce_mod_p(dict(rest), new, p).items())
    span.update(new)
    return new


def _reduce_mod_p(v: dict, rows, p) -> dict:
    """v minus its multiples of the rows of a reduced echelon basis
    (pivot-row format, as in ``_colspace_mod_p``) at their leads, in place.
    The rows hold no other lead, so one pass leaves v with no lead at all."""
    for lead in [c for c in v if c in rows]:
        f = v.pop(lead)
        for c, x in rows[lead]:
            nx = (v.get(c, 0) - f * x) % p
            if nx:
                v[c] = nx
            else:
                del v[c]
    return v


def _spin_sparse_mod_p(gens, n: int, seed: int, p, stop=()) -> dict:
    """The reduced echelon basis (``_colspace_mod_p``'s pivot rows) of the
    closure of e(seed) under the generators ``gens`` over GF(p), or of a part
    of it that holds e(t) for some t in ``stop``.

    Each generator is a sparse residue matrix on columns 0..n-1,
    {column: [(row, residue), ...]}.  The spin is Parker's (R. A. Parker,
    "The computer calculation of modular characters", 1984): each level maps
    the rows the last level added by every generator and extends the span by
    the images in one ``_colspace_mod_p`` step, until a level adds nothing,
    the span has rank n or it holds e(t) for some t in ``stop``.
    """
    span = {seed: []}
    frontier = [{seed: 1}]
    while frontier and len(span) < n and not any(span.get(t) == [] for t in stop):
        images = []
        for vec in frontier:
            for gen in gens:
                out: dict = {}
                for c, x in vec.items():
                    for r, y in gen.get(c, ()):
                        out[r] = out.get(r, 0) + x * y
                if out:
                    images.append(out)
        frontier = [{lead: 1, **dict(rest)}
                    for lead, rest in _colspace_mod_p(span, images, p).items()]
    return span


def _primes():
    """``_PRIMES``, then the primes below them, largest first."""
    yield from _PRIMES
    for p in range(_PRIMES[-1] - 2, 2, -2):
        if all(p % d for d in range(3, int(p ** 0.5) + 1, 2)):
            yield p


def kron_sums_vanish(terms, coeffs, cols=None):
    """Which sums sum_k coeffs[k] (x)_s terms[s][p_s, k] are zero matrices?

    ``terms[s]`` is an int64 stack [P_s, K, rows, cols] of slot-s matrices,
    and the answer a boolean array [P_0, P_1, ...].  ``cols``, one index
    array per slot, keeps the Kronecker columns whose slot-s index is
    ``cols[s][c]``.  The squared Frobenius norm of the sum is
    sum_kl c_k c_l prod_s <X_k, X_l>_s (C. F. Van Loan, "The ubiquitous
    Kronecker product", J. Comput. Appl. Math. 123, 2000), summed over the
    kept columns: per-slot Gram tables and one integer product give it.
    """
    import numpy as np

    grams = []
    for s, x in enumerate(terms):
        # one [K, rows] matrix per p and kept column, or per p
        u = (x[..., cols[s]].transpose(0, 3, 1, 2) if cols is not None
             else x.reshape(len(x), 1, x.shape[1], -1))
        check_exact(u.shape[-1] * int(np.abs(x).max()) ** 2, np.int64, "Gram tables")
        grams.append((u @ u.swapaxes(-1, -2)).reshape(len(x), -1))
    w = np.tile(np.outer(coeffs, coeffs).ravel(), grams[0].shape[1] // len(coeffs) ** 2)
    return _weighted_products_vanish(grams, w).reshape([len(g) for g in grams])


def _weighted_products_vanish(factors, w):
    """Per tuple (p_0, p_1, ...), row-major: is sum_i w[i] prod_s factors[s][p_s, i] 0?

    Exact: in int64 when an absolute-value shadow of every entry and partial
    sum is below 2^63, else modulo primes below 2^20 until their product
    exceeds the shadow, as a sum that is 0 modulo each of them is then 0.
    """
    import numpy as np

    def sums(fs, w, p=None):
        out = w[None]
        for f in fs[:-1]:
            out = kron_rows([out, f]) % p if p else kron_rows([out, f])
        return (_matmul_mod_p(out, fs[-1].T, p) if p else out @ fs[-1].T).ravel()

    # exact; factors taken as at least 1 bound the partial products too
    top = np.array([np.maximum(np.abs(f).max(axis=0), 1) for f in factors], dtype=object)
    shadow = (np.abs(w).astype(object) * top.prod(axis=0)).sum()
    if shadow < 2 ** _EXACT_BITS["int64"]:
        return sums(factors, w) == 0
    nonzero, modulus, primes = False, 1, _primes()
    while modulus <= shadow:
        p = next(primes)
        nonzero = nonzero | (sums([f % p for f in factors], w % p, p) != 0)
        modulus *= p
    return ~nonzero
