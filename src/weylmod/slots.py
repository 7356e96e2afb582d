"""Per-slot integer tables behind the numpy fast paths of the suites.

The product (t^a D^p)(t^b D^q) factors across variables, and so does the
action of t^m D^n on the polynomial modules.  Rank-nu structure constants and
action matrices are therefore Kronecker products of small rank-1 tables,
which are filled once from the library's own rank-1 structure constants.
Machine arithmetic on these tables is trusted only under an absolute-value
bound checked by ``check_exact``.  numpy is imported inside the functions so
that importing weylmod stays cheap.
"""

from __future__ import annotations

from . import liealg
from .scalars import InternalError

# Integers of absolute value below these limits are exact in the dtype.
_EXACT_BITS = {"float64": 53, "int64": 63}


class BoundsTooLarge(OverflowError):
    """The requested bounds need integers beyond a machine dtype's exact range."""


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


def product_table(p_max: int, m_max: int, q_max: int):
    """Rank-1 structure constants as an int64 array.

    ``T[p, b + m_max, q, r]`` is the coefficient of t^(a+b) D^r in
    (t^a D^p)(t^b D^q) for p <= p_max, |b| <= m_max and q <= q_max; it does
    not depend on a.  A rank-nu coefficient is the product over slots of one
    entry per slot.  Filled from rank-1 ``basis_product`` calls.
    """
    import numpy as np

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


def kron_slots(factors):
    """Kronecker product of per-slot matrices, batched over leading axes.

    ``factors[s][..., i, j]`` are the slot-s matrices; the result indexes
    rows and columns by multi-indices with slot 0 most significant, which is
    the order ``itertools.product`` lists them in.  Leading axes broadcast.
    """
    import numpy as np

    out = factors[0]
    for f in factors[1:]:
        # C order, so that the reshape below is a view and not a copy
        k = np.multiply(out[..., :, None, :, None], f[..., None, :, None, :], order="C")
        out = k.reshape(k.shape[:-4] + (k.shape[-4] * k.shape[-3],
                                        k.shape[-2] * k.shape[-1]))
    return out


def kron_rows(factors):
    """Row-wise Kronecker product of per-slot matrices with shared columns.

    ``out[..., (i_0, i_1, ...), c] = prod_s factors[s][..., i_s, c]``, rows
    ordered as in ``kron_slots``.  It is the Kronecker product restricted to
    the columns whose slot-s index is ``cols[s][c]`` once each factor's
    columns are taken as ``f[..., cols[s]]``.  Leading axes broadcast.
    """
    import numpy as np

    out = factors[0]
    for f in factors[1:]:
        k = np.multiply(out[..., :, None, :], f[..., None, :, :], order="C")
        out = k.reshape(k.shape[:-3] + (k.shape[-3] * k.shape[-2], k.shape[-1]))
    return out
