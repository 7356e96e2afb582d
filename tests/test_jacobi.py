"""The rank-1 centrally extended Jacobi check on int64 tables, against a
term-by-term oracle built from ``liealg.bracket``, on correct and mutated
structure constants."""

import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product as iproduct

import pytest

from weylmod import liealg, verify as V
from weylmod.liealg import D_HAT, bracket

from test_umod import _product_without_second_order_terms


def _oracle(mb, nb):
    """(ok, checks, detail) of the rank-1 half of ``suite_jacobi``, bracket by
    bracket: antisymmetry on ordered pairs, then the cyclic sum on triples."""
    elems = [((m,), (n,)) for m in range(-mb, mb + 1) for n in range(nb + 1)] + ["C"]
    ops = [D_HAT.center() if e == "C" else D_HAT.basis(*e) for e in elems]
    checks = 0
    for i, j in iproduct(range(len(ops)), repeat=2):
        checks += 1
        if not (bracket(ops[i], ops[j]) + bracket(ops[j], ops[i])).is_zero():
            return False, checks, f"antisymmetry fails at {elems[i]}, {elems[j]}"
    for i, j, k in combinations(range(len(ops)), 3):
        x, y, z = ops[i], ops[j], ops[k]
        checks += 1
        if not (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                + bracket(z, bracket(x, y))).is_zero():
            return False, checks, f"Jacobi fails at triple {elems[i]}, {elems[j]}, {elems[k]}"
    return True, checks, ""


def _shifted_cocycle(antisymmetric):
    """cocycle_basis with phi(t, t^-1) raised by 1; with ``antisymmetric``,
    phi(t^-1, t) is lowered by 1 as well, so only the cocycle identity breaks."""
    real = liealg.cocycle_basis

    def phi(m1, n1, m2, n2):
        # never through the recursion of the real function, which would
        # reach this mutant again
        value = real(m1, n1, m2, n2) if m1 >= 0 else -real(m2, n2, m1, n1)
        if (m1, n1, m2, n2) == (1, 0, -1, 0):
            value += 1
        if antisymmetric and (m1, n1, m2, n2) == (-1, 0, 1, 0):
            value -= 1
        return Fraction(value)
    return phi


@pytest.mark.parametrize("bounds", [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (1, 2)])
def test_rank1_tables_match_the_bracket_oracle(bounds):
    want = _oracle(*bounds)
    assert want[0]
    assert V._jacobi_rank1_tables(*bounds) == want


@pytest.mark.parametrize("mutant", ["product", "asymmetric cocycle", "antisymmetric cocycle"])
def test_rank1_mutants_fail_where_the_oracle_fails(mutant, monkeypatch):
    if mutant == "product":
        monkeypatch.setattr(liealg, "basis_product", _product_without_second_order_terms)
    else:
        phi = _shifted_cocycle(mutant == "antisymmetric cocycle")
        monkeypatch.setattr(liealg, "cocycle_basis", phi)
        monkeypatch.setattr(V, "cocycle_basis", phi)
    want = _oracle(2, 2)
    assert not want[0]
    res = V.suite_jacobi({"m": 2, "n": 2, "m2": 0, "n2": 0})
    assert (res.ok, res.checks, res.detail) == want
    if mutant == "antisymmetric cocycle":
        assert want[2].startswith("Jacobi fails")


def test_suite_jacobi_makes_no_basis_bracket_calls(monkeypatch):
    real = liealg.basis_bracket
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("weylmod") and getattr(module, "basis_bracket", None) is real:
            monkeypatch.setattr(module, "basis_bracket", counted)
    assert V.suite_jacobi({"m": 2, "n": 2, "m2": 1, "n2": 1}).ok
    assert calls == []
    # the counter itself is live
    bracket(D_HAT.basis(1, 1), D_HAT.basis(-1, 2))
    assert calls


def test_suite_jacobi_builds_one_product_table(monkeypatch):
    # one memoised product table per shape: the rank-1 ad blocks (2n, 2m, 2n),
    # the cocycle bracket table (n, m, n) and the rank-2 slot maps
    # (2n2, 2m2, 2n2), 637 + 112 + 225 = 974 basis_product calls on a cold
    # memo (the counter is part of its key) and none on a warm one
    real = liealg.basis_product
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(liealg, "basis_product", counted)
    res = V.suite_jacobi()
    assert (res.ok, res.checks) == (True, 5775745)
    assert len(calls) == 7 * 13 * 7 + 4 * 7 * 4 + 5 * 9 * 5 == 974
    calls.clear()
    assert V.suite_jacobi().checks == 5775745
    assert calls == []


def test_suite_jacobi_fills_the_cocycle_table_once(monkeypatch):
    # den * phi(t^m D^r, c) for r <= 2n and the 24 keys c with m_c != 0, on
    # the grading m = -m_c only: the pair values phi(a, b) are a slice of
    # it, not a second fill
    real = V.cocycle_basis
    calls = []
    monkeypatch.setattr(V, "cocycle_basis", lambda *a: calls.append(a) or real(*a))
    assert V.suite_jacobi().ok
    assert len(calls) == 7 * 24 == 168
    assert all(m1 == -m2 != 0 for m1, _, m2, _ in calls)


def _rank2_oracle(mb, nb):
    """(ok, checks, detail) of ``_jacobi_rank2_matrices``, bracket by bracket:
    antisymmetry on ordered pairs, then [[b, c], a] = [b, [c, a]] - [c, [b, a]]
    for every source element a, n_src checks per pair c >= b."""
    ctx = liealg.AlgebraCtx(2)
    src = [(m, n) for m in iproduct(range(-mb, mb + 1), repeat=2)
           for n in iproduct(range(nb + 1), repeat=2)]
    ops = [ctx.basis(*e) for e in src]
    checks = 0
    for i, j in iproduct(range(len(ops)), repeat=2):
        checks += 1
        if not (bracket(ops[i], ops[j]) + bracket(ops[j], ops[i])).is_zero():
            return False, checks, f"rank-2 antisymmetry fails at {src[i]}, {src[j]}"
    for i, j in combinations_with_replacement(range(len(ops)), 2):
        b, c = ops[i], ops[j]
        bc = bracket(b, c)
        checks += len(ops)
        if any(bracket(bc, a) != bracket(b, bracket(c, a)) - bracket(c, bracket(b, a))
               for a in ops):
            return False, checks, f"rank-2 Jacobi fails at {src[i]}, {src[j]}"
    return True, checks, ""


@pytest.mark.parametrize("bounds", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_rank2_certificate_matches_the_bracket_oracle(bounds):
    want = _rank2_oracle(*bounds)
    assert want[0]
    assert V._jacobi_rank2_matrices(*bounds) == want


def test_rank2_certificate_fails_where_the_oracle_fails(monkeypatch):
    monkeypatch.setattr(liealg, "basis_product", _product_without_second_order_terms)
    want = _rank2_oracle(1, 1)
    assert want == (False, 1368, "rank-2 Jacobi fails at ((-1, -1), (0, 0)), ((-1, -1), (0, 1))")
    assert V._jacobi_rank2_matrices(1, 1) == want
