"""The per-slot tables behind the numpy fast paths, against the library's
structure constants, and the overflow guard on every machine product."""

import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylmod import slots, umod as U, verify as V
from weylmod.liealg import basis_bracket, basis_product, cocycle_basis
from weylmod.scalars import ParamDecl
from weylmod.slots import check_exact, kron_rows, product_table


def test_check_exact_limits():
    check_exact(2 ** 53 - 2 ** 34, np.float64, "x")
    check_exact(2 ** 63 - 2 ** 44, np.int64, "x")
    check_exact(float(2 ** 52), np.float64, "x")
    with pytest.raises(OverflowError):
        check_exact(2 ** 53, np.float64, "x")
    with pytest.raises(OverflowError):
        check_exact(2 ** 63, np.int64, "x")
    with pytest.raises(OverflowError):
        check_exact(10 ** 400, np.int64, "x")


def test_rank2_products_factor_over_slots():
    table = product_table(2, 2, 2)
    grid = [(m, n) for m in range(-2, 3) for n in range(3)]
    for (a0, p0), (a1, p1) in iproduct(grid, repeat=2):
        for (b0, q0), (b1, q1) in iproduct(grid, repeat=2):
            got = basis_product((a0, a1), (p0, p1), (b0, b1), (q0, q1))
            want = {}
            for r0, r1 in iproduct(range(p0 + q0 + 1), range(p1 + q1 + 1)):
                c = int(table[p0, b0 + 2, q0, r0]) * int(table[p1, b1 + 2, q1, r1])
                if c:
                    want[((a0 + b0, a1 + b1), (r0, r1))] = c
            assert got == want


def test_kron_helpers_match_numpy_kron():
    rng = np.random.default_rng(0)
    a = rng.integers(-5, 6, size=(3, 2, 4))
    b = rng.integers(-5, 6, size=(3, 3, 2))
    cols = list(iproduct(range(4), range(2)))[::3]
    rows = kron_rows([a[..., [c[0] for c in cols]], b[..., [c[1] for c in cols]]])
    for k in range(3):
        assert np.array_equal(rows[k], np.kron(a[k], b[k])[:, ::3])


def test_hat_bracket_table_matches_basis_bracket_and_cocycle():
    # the rank-1 tables of the Jacobi and cocycle suites
    for mb, nb in ((0, 0), (1, 2), (2, 1)):
        keys, br, phi, den = V._hat_bracket_table(mb, nb)
        assert keys == [(m, n) for m in range(-mb, mb + 1) for n in range(nb + 1)]
        assert br.dtype == phi.dtype == np.int64
        for (i, (ma, na)), (j, (mc, nc)) in iproduct(enumerate(keys), repeat=2):
            want = [0] * (2 * nb + 1)
            for (km, kn), v in basis_bracket((ma,), (na,), (mc,), (nc,)).items():
                assert km == (ma + mc,)
                want[kn[0]] += v
            assert br[i, j].tolist() == want
        for m, r, (c, key) in iproduct(range(-2 * mb, 2 * mb + 1), range(2 * nb + 1),
                                       enumerate(keys)):
            assert phi[m + 2 * mb, r, c] == den * cocycle_basis(m, r, *key)


def test_cocycle_tensor_matches_phi_of_bracket():
    keys, s, _, _, den = V._cocycle_tensor(1, 2)
    assert den == 2

    def phi_of_bracket(a, b, c):
        total = Fraction(0)
        for (km, kn), v in basis_bracket((a[0],), (a[1],), (b[0],), (b[1],)).items():
            total += v * cocycle_basis(km[0], kn[0], c[0], c[1])
        return total

    for (i, a), (j, b), (k, c) in iproduct(enumerate(keys), repeat=3):
        assert s[i, j, k] == den * phi_of_bracket(a, b, c)


def _huge_product_table(p_max, m_max, q_max):
    return np.full((p_max + 1, 2 * m_max + 1, q_max + 1, p_max + q_max + 1),
                   2 ** 40, dtype=np.int64)


def test_fast_paths_refuse_tables_beyond_the_exact_range(monkeypatch):
    real = slots.product_table
    monkeypatch.setattr(slots, "product_table", _huge_product_table)
    decl = ParamDecl(invertible=("l1", "l2"))
    spec = U.omega_dnu((decl.param("l1"), decl.param("l2")), 1)
    with pytest.raises(OverflowError):
        U.verify_module_axiom(spec, 1, 1, 1)
    with pytest.raises(OverflowError):
        V._jacobi_rank2_matrices(1, 1)
    monkeypatch.setattr(slots, "product_table",
                        lambda *a: _huge_product_table(*a) << 22)
    with pytest.raises(OverflowError):
        V.suite_cocycle({"m": 1, "n": 1})
    with pytest.raises(OverflowError, match="rank-1 ad blocks"):
        V.suite_jacobi({"m": 1, "n": 1, "m2": 0, "n2": 0})
    # the rank-1 Jacobiator guard reads the actual ad and bracket tables,
    # which a constant product table would make zero
    monkeypatch.setattr(slots, "product_table", lambda *a: real(*a) << 40)
    with pytest.raises(OverflowError, match="rank-1 Jacobiator"):
        V.suite_jacobi({"m": 1, "n": 1, "m2": 0, "n2": 0})


def test_axiom_path_refuses_actions_beyond_the_exact_range(monkeypatch):
    real = U._action_table
    monkeypatch.setattr(U, "_action_table", lambda *a: real(*a) * 2 ** 27)
    decl = ParamDecl(invertible=("lambda",))
    with pytest.raises(OverflowError):
        U.verify_module_axiom(U.omega_d(decl.param("lambda"), 0), 1, 1, 1)


def test_refusals_are_typed_and_come_before_any_int64_fill():
    assert issubclass(slots.BoundsTooLarge, OverflowError)
    with pytest.raises(slots.BoundsTooLarge):
        slots.int_table((2,), {(0,): 1, (1,): -2 ** 70}, "x")
    assert slots.int_table((3,), {(2,): -5}, "x").tolist() == [0, 0, -5]
    # cocycle values past 2^63: numpy would fail converting them
    with pytest.raises(slots.BoundsTooLarge, match="cocycle contraction"):
        V._cocycle_tensor(3, 20)


# the four integer tables kept by ``memo_table``, with their argument lists
_MEMO_TABLES = [
    (slots.product_table, lambda eps, a, b, c: (a, b, c)),
    (U._action_table, lambda eps, a, b, c: (eps, a, b, c)),
    (U._hv_action_table, lambda eps, a, b, c: ((("L",), ("L", "I"))[eps], a, c)),
    (V._cocycle_values, lambda eps, a, b, c: (a, b)),
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_memoised_tables_equal_a_fresh_build(eps, a, b, c):
    for table, args in _MEMO_TABLES:
        args = args(eps, a, b, c)
        got, fresh = table(*args), table.__wrapped__(*args)
        if isinstance(got, tuple):
            assert got[0] == fresh[0] and got[1] == fresh[1]
        else:
            assert got.dtype == fresh.dtype and np.array_equal(got, fresh)
        # a second call is a hit on the same stored table
        hits = table.cache_info().hits
        assert table(*args) is got and table.cache_info().hits == hits + 1


def test_memoised_tables_are_read_only():
    for table, args in _MEMO_TABLES:
        got = table(*args(1, 1, 1, 1))
        if isinstance(got, tuple):
            with pytest.raises(TypeError):
                got[0][0, 0, 0] = 1
        else:
            with pytest.raises(ValueError):
                got[(0,) * got.ndim] = 1


def test_mutants_miss_a_warm_memo(monkeypatch):
    # the tables at these bounds are stored before each mutant is patched
    # in; the mutant is part of the key, so its tables are built afresh
    from weylmod import liealg
    from test_jacobi import _shifted_cocycle
    from test_umod import (_product_with_doubled_first_order_terms,
                           _product_without_second_order_terms, spec_d)

    bounds = {"m": 2, "n": 2, "m2": 1, "n2": 1}

    def verdicts():
        return ([U.verify_module_axiom(spec_d(eps), 2, 2, 3).ok for eps in (0, 1)]
                + [U.assoc_action_split(spec_d(1), 2, 2, 3)[0],
                   V.suite_jacobi(bounds).ok, V.suite_cocycle(bounds).ok])

    assert verdicts() == [True] * 5
    for mutant in (_product_without_second_order_terms,
                   _product_with_doubled_first_order_terms):
        with monkeypatch.context() as mp:
            mp.setattr(liealg, "basis_product", mutant)
            misses = U._rank1_tables.cache_info().misses
            assert verdicts()[:4] == [False] * 4
            assert U._rank1_tables.cache_info().misses > misses
            # warm on the mutant's own key, the split still fails
            hits = U._rank1_tables.cache_info().hits
            assert not U.assoc_action_split(spec_d(1), 2, 2, 3)[0]
            assert U._rank1_tables.cache_info().hits == hits + 1
    with monkeypatch.context() as mp:
        phi = _shifted_cocycle(True)
        mp.setattr(liealg, "cocycle_basis", phi)
        mp.setattr(V, "cocycle_basis", phi)
        assert verdicts()[3:] == [False, False]
    assert verdicts() == [True] * 5


@pytest.mark.parametrize("eps", [0, 1])
def test_rank1_tables_are_kept_read_only_and_equal_a_fresh_build(eps):
    got = U._rank1_tables(eps, 2, 2, 3)
    fresh = U._rank1_tables.__wrapped__(eps, 2, 2, 3)
    for table, built in zip(got, fresh):
        assert table.dtype == built.dtype and np.array_equal(table, built)
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1
    assert U._rank1_tables(eps, 2, 2, 3) is got


def test_refused_bounds_are_refused_again():
    # coefficients near 20^20 and 30^20, past 2^63: nothing is stored
    for build, args, what in ((slots.product_table, (20, 20, 0), "product table"),
                              (U._action_table, (1, 30, 0, 20), "action table")):
        size = build.cache_info().currsize
        for _ in range(2):
            with pytest.raises(slots.BoundsTooLarge, match=what):
                build(*args)
        assert build.cache_info().currsize == size


def _exact_weighted_products(factors, w):
    """sum_i w[i] prod_s factors[s][p_s, i] in Python ints, per tuple
    (p_0, p_1, ...) listed row-major as ``_weighted_products_vanish`` does."""
    out = []
    for idx in iproduct(*[range(len(f)) for f in factors]):
        out.append(sum(int(w[i]) * np.prod([int(f[p, i]) for f, p in zip(factors, idx)],
                                           dtype=object) for i in range(len(w))))
    return np.array(out, dtype=object)


def test_weighted_products_vanish_modulo_primes_past_int64():
    p = slots._PRIMES[0]
    rng = np.random.default_rng(3)
    a = rng.integers(-2 ** 40, 2 ** 40, size=(5, 6))
    b = rng.integers(-2 ** 40, 2 ** 40, size=(4, 6))
    w = rng.integers(-3, 4, size=6)
    w[:2] = 1
    x = int(a[2, 0])
    # pair (0, 0) sums to zero; pair (1, 1) to p, which is 0 modulo the
    # first prime only; pair (2, 3) to x * y - y * x = 0 as well
    a[0], b[0] = 0, 0
    a[1], b[1] = 0, 0
    a[1, :2], b[1, :2] = (x, 1), (p, p - x * p)
    a[2, 2:], b[3] = 0, 0
    b[3, :2] = (int(a[2, 1]), -x)
    exact = _exact_weighted_products([a, b], w)
    assert abs(exact).max() > 2 ** 63
    assert exact[1 * 4 + 1] == p and exact[2 * 4 + 3] == 0
    for factors in ([a, b], [a, b, a[:3]], [b]):
        got = slots._weighted_products_vanish(factors, w)
        assert got.tolist() == (_exact_weighted_products(factors, w) == 0).tolist()


def test_axiom_certificate_takes_primes_past_the_first_three(monkeypatch):
    # the dnu norms at (3, 3, 4), eps = 1, have a shadow near 2^83: 5 primes
    seen = []
    real = slots._matmul_mod_p
    monkeypatch.setattr(slots, "_matmul_mod_p", lambda a, b, p: seen.append(p) or real(a, b, p))
    decl = ParamDecl(invertible=("l1", "l2"))
    spec = U.omega_dnu((decl.param("l1"), decl.param("l2")), 1)
    assert not U._verify_axiom_dnu_fast(spec, 3, 3, 4).any()
    assert seen[:3] == list(slots._PRIMES) and len(set(seen)) > 3


def test_rank2_certificates_stay_below_150_mb():
    # both rank-2 certificates at their default bounds, in one fresh
    # interpreter; ru_maxrss is in kilobytes on Linux
    code = ("import resource\n"
            "from weylmod.verify import run_suites\n"
            "assert all(r.ok for r in run_suites(['jacobi-antisymmetry', 'module-axiom']))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert int(out.stdout) < 150 * 1024
