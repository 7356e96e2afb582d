"""The failure path of every ``weylmod verify`` suite: each suite stops at its
first failing check and reports (ok, checks, detail), counting up to and
including that check.  The mutants below break one library function each."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from weylmod import hwmod as H, liealg, tensor as T, umod as U, verify as V
from weylmod.scalars import RATIONALS

from test_umod import _product_without_second_order_terms


def _h_off_at_3(monkeypatch):
    real = H.HWSpec.h
    monkeypatch.setattr(H.HWSpec, "h",
                        lambda self, n: real(self, n) + RATIONALS.one if n == 3 else real(self, n))


def _short_chains(monkeypatch):
    # the witness drops its last step from degree 4 on
    real = U.degree_reduction_witness
    monkeypatch.setattr(U, "degree_reduction_witness",
                        lambda spec, f: real(spec, f)[:-1] if f.degree() > 3 else real(spec, f))


def _cocycle_m1_zero(monkeypatch):
    real = V.cocycle_basis
    monkeypatch.setattr(V, "cocycle_basis", lambda m1, n1, m2, n2: Fraction(1)
                        if (m1, n1, m2) == (0, 3, 1) else real(m1, n1, m2, n2))


def _bracket_off_at_k4(monkeypatch):
    # [t^-1 D^4, t D^2] gains a constant term: the 30th of the 32 identities
    real, ctx = V.bracket, liealg.D_ALG
    monkeypatch.setattr(V, "bracket", lambda a, b: real(a, b) + ctx.d_op(0)
                        if a == ctx.basis(-1, 4) else real(a, b))


def _patch(owner, name, value):
    return lambda monkeypatch: monkeypatch.setattr(owner, name, value)


# case: (suite, bounds, mutant, (ok, checks, detail))
_PRODUCT_MUTANT = _patch(liealg, "basis_product", _product_without_second_order_terms)
CASES = {
    "bracket-identities": ("bracket-identities", None, _PRODUCT_MUTANT,
                           (False, 1, "[D^2, t^m] = 2m t^m D + m^2 t^m fails at m=-5")),
    "bracket-identities-late": ("bracket-identities", None, _bracket_off_at_k4,
                                (False, 30, "[t^-1 D^k, t D^2] fails at k=4")),
    "jacobi-rank-2": (
        "jacobi-antisymmetry", {"m": 0, "n": 0, "m2": 1, "n2": 1}, _PRODUCT_MUTANT,
        (False, 1372, "rank-2 Jacobi fails at ((-1, -1), (0, 0)), ((-1, -1), (0, 1))")),
    "cocycle": ("cocycle", {"m": 1, "n": 1}, _cocycle_m1_zero,
                (False, 552, "m1=0 should vanish")),
    "module-axiom": (
        "module-axiom", {"m": 1, "n": 2, "deg": 2}, _PRODUCT_MUTANT,
        (False, 7, "d-family eps=1: (((-1,), (0,)), ((-1,), (2,)), PolyVec(1))")),
    "assoc-split": (
        "assoc-split", {"m": 1, "n": 1, "deg": 2},
        _patch(U, "assoc_action_split", lambda *a: (True, None)),
        (False, 216, "eps=1 must satisfy, eps=0 must break the product law")),
    "irreducibility": ("irreducibility", None, _short_chains,
                       (False, 9, "chain length 3 != degree 4")),
    "irreducibility-control": (
        "irreducibility", None,
        _patch(U, "simplicity_probe",
               lambda spec, deg: SimpleNamespace(reducible=spec.family == "d")),
        (False, 40, "missed the codimension-1 submodule of the hv family")),
    "highest-weight": ("highest-weight", None, _h_off_at_3, (False, 4, "h_3 != -B_3")),
    "highest-weight-quotient": (
        "highest-weight", None, _patch(H, "weight_space_dims", lambda *a: [1, 1, 1]),
        (False, 1789, "level-1 quotient dimension should vanish")),
    "tensor": ("tensor", None, _patch(T, "intertwiner_dim", lambda *a: 1),
               (False, 515, "lambda 2 vs 3 should give 0")),
    "span-closure": (
        "span-closure", {"depth": 1}, None,
        (False, 20, "rank-1 window missing "
                    "[((-2,), (3,)), ((-2,), (2,)), ((-2,), (1,)), ((-2,), (0,))]")),
}


@pytest.mark.parametrize("case", CASES)
def test_suite_stops_at_its_first_failure(case, monkeypatch):
    suite, bounds, mutant, want = CASES[case]
    if mutant:
        mutant(monkeypatch)
    res = V.SUITES[suite](bounds)
    assert res.name == suite
    assert (res.ok, res.checks, res.detail) == want


class _ReadKeys(dict):
    """Bounds that record every key a suite reads."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("suite", sorted(V.SUITES))
def test_suite_bounds_name_the_keys_each_suite_reads(suite):
    # ``weylmod verify`` refuses a key outside SUITE_BOUNDS[suite], so the
    # table must hold every key the suite reads and nothing else
    assert set(V.SUITE_BOUNDS) == set(V.SUITES)
    assert {k for keys in V.SUITE_BOUNDS.values() for k in keys} == set(V.BOUND_KEYS)
    bounds = _ReadKeys({"m": 1, "n": 1, "deg": 2, "m2": 0, "n2": 0, "probe_deg": 2,
                        "L": 1, "N": 0, "depth": 1})
    V.SUITES[suite](bounds)
    assert bounds.read == set(V.SUITE_BOUNDS[suite])


def test_passing_checks_format_no_detail(monkeypatch):
    # the 1790 straightening checks of highest-weight name DiffOps in their
    # detail; printing one per passing check would dominate the suite
    from weylmod.scalars import SparseVec

    printed = []
    real = SparseVec.__str__
    monkeypatch.setattr(SparseVec, "__str__", lambda self: printed.append(1) or real(self))
    for suite in ("bracket-identities", "highest-weight"):
        assert V.SUITES[suite]().ok
    assert printed == []
    assert str(liealg.D_ALG.t(1)) and printed
