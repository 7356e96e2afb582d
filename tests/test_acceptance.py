"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every comparison below is exact (tolerance zero); the only numeric caps are
the stated wall-clock budgets.  Each test prints one PASS/FAIL line (visible
with pytest -s), then asserts.
"""

import sys
import time

from conftest import GOLDEN_DIR, run_cli

from weylmod import verify as V


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{extra}", file=sys.stderr, flush=True)
    assert ok, f"{criterion} failed: {detail}"


def _run(suite_name, bounds=None, budget=None, **kw):
    t0 = time.time()
    result = V.SUITES[suite_name](bounds, **kw) if kw else V.SUITES[suite_name](bounds)
    elapsed = time.time() - t0
    ok = result.ok and (budget is None or elapsed <= budget)
    detail = f"{result.checks} checks in {elapsed:.2f}s"
    if not result.ok:
        detail += f"; {result.detail}"
    if budget is not None and elapsed > budget:
        detail += f"; exceeded {budget}s budget"
    return ok, detail


def test_criterion_01_bracket_identities():
    ok, detail = _run("bracket-identities", budget=1.0)
    report("criterion-1 bracket identities", ok, detail)


def test_criterion_02_jacobi_antisymmetry():
    ok, detail = _run("jacobi-antisymmetry", budget=120.0)
    report("criterion-2 Jacobi and antisymmetry", ok, detail)


def test_criterion_03_cocycle():
    ok, detail = _run("cocycle", budget=60.0)
    report("criterion-3 cocycle", ok, detail)


def test_criterion_04_module_axiom():
    ok, detail = _run("module-axiom", budget=300.0)
    report("criterion-4 module axiom, symbolic parameters", ok, detail)


def test_criterion_05_assoc_split():
    ok, detail = _run("assoc-split")
    report("criterion-5 associative-action split", ok, detail)


def test_criterion_06_irreducibility_witnesses():
    ok, detail = _run("irreducibility", seed=0)
    report("criterion-6 irreducibility witnesses", ok, detail)


def test_criterion_07_highest_weight():
    ok, detail = _run("highest-weight")
    report("criterion-7 highest-weight machinery", ok, detail)


def test_criterion_08_tensor():
    ok, detail = _run("tensor", budget=600.0)
    report("criterion-8 tensor modules", ok, detail)


def test_criterion_09_generator_closure():
    ok, detail = _run("span-closure")
    report("criterion-9 generator closure", ok, detail)


def test_criterion_10_cli():
    from test_cli import GOLDEN_COMMANDS
    t0 = time.time()
    problems = []
    for name, argv in GOLDEN_COMMANDS:
        code, out, err = run_cli(argv)
        if code != 0:
            problems.append(f"{name}: exit {code}")
            continue
        path = GOLDEN_DIR / f"{name}.txt"
        if not path.exists() or out != path.read_text():
            problems.append(f"{name}: output drifted")

    # parse/print round-trip corpus
    import test_grammar as G
    from weylmod.grammar import (
        parse_operator, parse_polynomial, parse_quasipolynomial, parse_scalar,
    )
    from weylmod.umod import PolyVec, omega_d
    corpus = 0
    spec = omega_d(G.DECL.param("lambda"), 1)
    for text in G.OPERATOR_CORPUS:
        op = parse_operator(text, decl=G.DECL)
        if parse_operator(str(op), decl=G.DECL, central=op.ctx.central) != op:
            problems.append(f"operator round trip: {text!r}")
        corpus += 1
    for text in G.OPERATOR_CORPUS_RANK2:
        op = parse_operator(text, rank=2, decl=G.DECL)
        if parse_operator(str(op), rank=2, decl=G.DECL) != op:
            problems.append(f"rank-2 operator round trip: {text!r}")
        corpus += 1
    from weylmod.grammar import parse_param_decl
    from weylmod.umod import omega_dnu
    decl2 = parse_param_decl("l1!,l2!,a,b")
    spec2 = omega_dnu((decl2.param("l1"), decl2.param("l2")), 1)
    for text in G.POLY_CORPUS_RANK2:
        poly = parse_polynomial(text, rank=2, decl=decl2)
        if parse_polynomial(str(PolyVec(spec2, poly)), rank=2, decl=decl2) != poly:
            problems.append(f"rank-2 polynomial round trip: {text!r}")
        corpus += 1
    for text in G.POLY_CORPUS:
        poly = parse_polynomial(text, decl=G.DECL)
        if parse_polynomial(str(PolyVec(spec, poly)), decl=G.DECL) != poly:
            problems.append(f"polynomial round trip: {text!r}")
        corpus += 1
    for text in G.QUASI_CORPUS:
        q = parse_quasipolynomial(text, decl=G.DECL)
        if parse_quasipolynomial(str(q), decl=G.DECL) != q:
            problems.append(f"quasipolynomial round trip: {text!r}")
        corpus += 1
    for text in G.SCALAR_CORPUS:
        s = parse_scalar(text, decl=G.DECL)
        if parse_scalar(str(s), decl=G.DECL) != s:
            problems.append(f"scalar round trip: {text!r}")
        corpus += 1

    # full verification runs clean through the CLI, with the pinned lines
    # and check counts
    code, out, err = run_cli(["verify", "--suite", "all"])
    if code != 0:
        problems.append(f"verify --suite all exited {code}")
    if out != (GOLDEN_DIR / "verify_all.txt").read_text():
        problems.append("verify --suite all output drifted from golden/verify_all.txt")
    elapsed = time.time() - t0
    if elapsed > 1200:
        problems.append(f"exceeded the 20 minute budget ({elapsed:.0f}s)")
    report(
        "criterion-10 CLI golden files, round trips, full verify",
        not problems,
        f"{len(GOLDEN_COMMANDS)} golden commands, {corpus} round trips, "
        f"verify in {elapsed:.0f}s" + ("; " + "; ".join(problems) if problems else ""),
    )
