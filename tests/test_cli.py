import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli
from weylmod.scalars import InternalError, ScalarDivisionError

# every documented subcommand appears here with a golden file
GOLDEN_COMMANDS = [
    ("bracket", ["bracket", "D^2", "t^3"]),
    ("bracket_json", ["bracket", "D^2", "t^3", "--json"]),
    ("bracket_central", ["bracket", "t", "t^-1", "--central"]),
    ("bracket_rank2", ["bracket", "D1^2", "t1^2*t2", "--rank", "2"]),
    ("product", ["product", "t*D", "t^2"]),
    ("cocycle", ["cocycle", "t^2*D", "t^-2*D"]),
    ("act_d", ["act", "D^3", "x", "--family", "d", "--eps", "0"]),
    ("act_vir", ["act", "L_2", "1", "--family", "vir", "--alpha", "alpha"]),
    ("act_hv", ["act", "I_-2", "x", "--family", "hv", "--alpha", "alpha",
                "--beta", "beta"]),
    ("act_rank2", ["act", "D1*D2", "x1", "--family", "dnu", "--eps", "1",
                   "--lam", "l1;l2", "--rank", "2"]),
    ("grade", ["grade", "t^3*D^2 + D + C", "--central"]),
    ("span_probe", ["span-probe", "--gen", "t", "--gen", "t^-1", "--gen", "D^2",
                    "--bounds", "m=1,n=2,depth=6"]),
    ("verma", ["verma", "--phi", "x", "--c", "0", "--bounds", "L=2,N=1"]),
    ("verma_json", ["verma", "--phi", "x", "--c", "0", "--bounds", "L=1,N=1",
                    "--json"]),
    ("act_verma", ["act-verma", "D", "t^-1", "--phi", "b*x", "--c", "c",
                   "--bounds", "L=2,N=1"]),
    ("singular", ["singular", "--phi", "0", "--c", "0",
                  "--bounds", "L=2,N=1,level=1,M=3"]),
    ("hseq", ["hseq", "--phi", "x", "--c", "0", "--n", "6"]),
    ("hseq_json", ["hseq", "--phi", "x", "--c", "0", "--n", "3", "--json"]),
    ("tensor_act", ["tensor-act", "D", "--xexp", "0", "--mono", "1",
                    "--phi", "x", "--c", "c", "--bounds", "L=2,N=1"]),
    ("tensor_probe", ["tensor-probe", "--bounds", "d=2,L=1,N=1,m=3,n=2",
                      "--phi", "x", "--c", "c"]),
    ("tensor_probe_control", ["tensor-probe", "--control-hv",
                              "--bounds", "d=2,L=1,N=1,m=3",
                              "--phi", "x", "--c", "c"]),
    ("intertwiner", ["intertwiner", "--lam-a", "2", "--lam-b", "3",
                     "--phi", "x", "--c", "1/2",
                     "--bounds", "d=2,L=1,N=1,m=3,n=1"]),
    ("intertwiner_symbolic", ["intertwiner", "--lam-a", "lambda", "--lam-b", "lambda",
                              "--phi", "x", "--c", "1/2",
                              "--bounds", "d=3,L=2,N=1,m=4,n=1"]),
    ("verify_single", ["verify", "--suite", "bracket-identities"]),
    ("verify_json", ["verify", "--suite", "span-closure", "--json"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
def test_golden(name, argv, golden):
    code, out, err = run_cli(argv)
    assert code == 0, err
    golden(name, out)


def test_outputs_are_byte_identical_across_hash_seeds():
    for argv in (["bracket", "t^2*D + t^-1", "t^-2*D^3 + D"],
                 ["verma", "--phi", "x", "--c", "0", "--bounds", "L=2,N=2"],
                 ["singular", "--phi", "0", "--c", "0",
                  "--bounds", "L=2,N=1,level=1,M=2"]):
        code1, out1, _ = run_cli(argv, hash_seed="1")
        code2, out2, _ = run_cli(argv, hash_seed="271828")
        assert code1 == code2 == 0
        assert out1 == out2


def test_parse_error_exit_code():
    code, out, err = run_cli(["bracket", "D^^", "t"])
    assert code == 2
    assert "error" in err
    assert "position" in err


def test_usage_error_exit_code():
    code, _, err = run_cli(["act", "L_x", "1", "--family", "vir"])
    assert code == 2


def test_i_generator_on_vir_is_a_family_error():
    # the vir family has no I_m: act_hv refuses it, in one line
    code, out, err = run_cli(["act", "I_1", "1", "--family", "vir"])
    assert (code, out) == (2, "")
    assert err == "weylmod: error: I_m generators act on hv modules only\n"


def test_hseq_rejects_negative_n():
    code, out, err = run_cli(["hseq", "--phi", "x", "--c", "0", "--n", "-1"])
    assert code == 2
    assert out == ""
    assert "--n must be non-negative" in err


@pytest.mark.parametrize("argv", [
    ["bracket", "1/0*t", "D"],
    ["act", "D", "x", "--lam", "1/0", "--eps", "1"],
    ["verma", "--c", "1/0"],
    ["hseq", "--phi", "1/0"],
])
def test_zero_denominator_is_a_parse_error(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "weylmod: error: zero denominator in 1/0 (at position 0)\n"


@pytest.mark.parametrize("argv,message", [
    (["tensor-act", "D", "--xexp", "-1", "--mono", "t^-1*D", "--phi", "x", "--c", "c"],
     "x exponents must be non-negative"),
    (["tensor-act", "C", "--mono", "t^-5", "--phi", "x", "--c", "c", "--bounds", "L=2,N=1"],
     "monomial beyond the level bound"),
])
def test_tensor_elements_outside_the_window_are_refused(argv, message):
    # as act D x^-1 and a Verma monomial past the window are refused
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"weylmod: error: {message}\n"


def test_importing_the_cli_loads_no_numpy():
    # numpy is imported inside the functions that use it, so that a CLI
    # process pays for it only when a fast path runs
    import weylmod

    src = str(Path(weylmod.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, weylmod.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _loads_numpy(name):
    """(exit code, stdout, stderr) of the golden command ``name`` run by
    cli.main in a fresh interpreter that then prints whether numpy was
    loaded and the exit code."""
    import weylmod

    argv = dict(GOLDEN_COMMANDS)[name]
    src = str(Path(weylmod.__file__).resolve().parents[1])
    code = ("import sys; from weylmod import cli; code = cli.main(sys.argv[1:]); "
            "print('numpy' in sys.modules, code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    golden = (Path(__file__).parent / "golden" / f"{name}.txt").read_text()
    return proc.returncode, proc.stdout.removeprefix(golden), proc.stderr


def test_full_rank_intertwiner_loads_no_numpy():
    # the golden intertwiner's first constraint block has full rank mod p,
    # so the sparse elimination answers 0 before any numpy code runs
    assert _loads_numpy("intertwiner") == (0, "False 0\n", "")


def test_symbolic_intertwiner_loads_no_numpy():
    # 1024 unknowns over Q(lambda): the sparse elimination mod p, lambda
    # sent to a residue, meets the identity's kernel without numpy
    assert _loads_numpy("intertwiner_symbolic") == (0, "False 0\n", "")


@pytest.mark.parametrize("name", ["tensor_probe", "tensor_probe_control", "singular"])
def test_tensor_probe_loads_no_numpy(name):
    # the probe's modular certificate spins sparse residue columns in pure
    # Python, so neither golden probe, cyclic or control, loads numpy; nor
    # does the exact elimination of the singular-vector system
    assert _loads_numpy(name) == (0, "False 0\n", "")


def test_intertwiner_beyond_the_exact_fallback_exits_3(monkeypatch, capsys):
    # with the modular route forced to leave a gap, the 1024-unknown system
    # reaches the exact fallback, which refuses it with one typed line
    from weylmod import cli, tensor as T

    monkeypatch.setattr(T, "_modular_kernel_dim", lambda *args, explicit=0, **kw: explicit + 1)
    assert cli.main(dict(GOLDEN_COMMANDS)["intertwiner_symbolic"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("weylmod: error: ")
    assert "1024 unknowns" in err and "Traceback" not in err


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples and Frozen classes; the dataclasses module
    # and the inspect, ast, dis and tokenize modules it pulls in took about a
    # fifth of a light command's start-up.  Only modules the import adds
    # count, so a site that loads them itself passes.
    import weylmod

    src = str(Path(weylmod.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import weylmod, weylmod.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_verify_failure_exit_code():
    # an unknown suite is a usage error
    code, _, err = run_cli(["verify", "--suite", "nope"])
    assert code == 2


@pytest.mark.parametrize("n", [14, 20])
def test_bounds_too_large_exit_code(n):
    # the cocycle values at these bounds do not fit int64: a typed one-line
    # refusal from the range guard, not a traceback
    code, out, err = run_cli(["verify", "--suite", "cocycle", "--bounds", f"m=3,n={n}"])
    assert code == 3
    assert out == ""
    assert err == ("weylmod: error: cocycle contraction may exceed the exact "
                   "integer range of int64 (2^63) at these bounds\n")


@pytest.mark.parametrize("argv, reads", [
    (["verify", "--suite", "cocycle", "--bounds", "m=1,foo=3"], "m, n"),
    (["verma", "--bounds", "L=1,n=2"], "L, N"),
    (["bracket", "t", "D", "--bounds", "m=1"], "no bounds"),
    (["verify", "--bounds", "m=1,foo=3"], "m, n, deg, m2, n2, probe_deg, L, N, depth"),
])
def test_unknown_bounds_key_is_a_usage_error(argv, reads):
    # a key the command never reads used to be ignored, so the command ran
    # at its default bounds and reported success.  verify names the keys of
    # the selected suite (under cocycle it used to name every suite's keys).
    key = argv[-1].split(",")[-1].split("=")[0]
    if argv[0] == "verify":
        suite = argv[argv.index("--suite") + 1] if "--suite" in argv else "all"
        scope = f" for suite {suite!r}; it reads"
    else:
        scope = "; this command reads"
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"weylmod: error: unknown bound {key!r}{scope} {reads}\n"


@pytest.mark.parametrize("suite, bounds, key, reads", [
    ("bracket-identities", "m=1,depth=0", "m", "no bounds"),
    ("highest-weight", "L=0,N=0", "L", "no bounds"),
    ("cocycle", "m=1,deg=2", "deg", "m, n"),
    ("jacobi-antisymmetry", "probe_deg=1", "probe_deg", "m, n, m2, n2"),
    ("module-axiom", "m=1,L=1", "L", "m, n, deg"),
    ("irreducibility", "m=1", "m", "deg, probe_deg"),
    ("tensor", "deg=1,depth=1", "depth", "deg, L, N, m"),
    ("span-closure", "n=1", "n", "depth"),
])
def test_bounds_key_the_suite_does_not_read_is_a_usage_error(suite, bounds, key, reads):
    # a key the selected suite never reads used to be ignored, so the suite
    # ran at its default bounds: bracket-identities printed PASS [32 checks]
    code, out, err = run_cli(["verify", "--suite", suite, "--bounds", bounds])
    assert (code, out) == (2, "")
    assert err == (f"weylmod: error: unknown bound {key!r} for suite {suite!r}; "
                   f"it reads {reads}\n")


def test_repeated_bounds_key_is_a_usage_error():
    # the later value used to override the earlier one silently: this ran
    # at depth 0 and reported a verification failure
    code, out, err = run_cli(["verify", "--suite", "span-closure",
                              "--bounds", "depth=8,depth=0"])
    assert (code, out) == (2, "")
    assert err == "weylmod: error: bound 'depth' is given twice\n"


@pytest.mark.parametrize("argv, name", [
    (["act", "t", "x", "--family", "d", "--eps", "1", "--lam", "x", "--params", "x!"], "x"),
    (["bracket", "t", "D", "--params", "a,D2"], "D2"),
    (["hseq", "--phi", "x", "--c", "0", "--params", "exp,C"], "exp"),
])
def test_reserved_parameter_names_are_a_usage_error(argv, name):
    # a parameter named like a grammar atom can never be written in input,
    # and output using it is ambiguous: `--lam x --params 'x!'` printed x*x - x
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"weylmod: error: parameter name {name!r} is reserved by the grammar\n"


def test_seed_is_a_verify_option_only():
    code, out, err = run_cli(["bracket", "D", "t", "--seed", "3"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed 3" in err
    code, out, _ = run_cli(["verify", "--suite", "bracket-identities", "--seed", "3"])
    assert code == 0 and "PASS" in out


RANK1_ONLY = ["cocycle", "verma", "act-verma", "singular", "hseq", "tensor-act",
              "tensor-probe", "intertwiner", "verify"]


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", RANK1_ONLY)
def test_rank1_commands_refuse_other_ranks(command, via, monkeypatch, capsys):
    from weylmod import cli

    argv = next(a for _, a in GOLDEN_COMMANDS if a[0] == command)
    if via == "flag":
        argv = argv + ["--rank", "3"]
    else:
        monkeypatch.setenv("WEYLMOD_RANK", "3")
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"weylmod: error: {command} works at rank 1 only, not rank 3\n"


def test_rank1_commands_take_rank_1(monkeypatch, capsys, golden):
    # an explicit --rank 1 wins over the environment
    from weylmod import cli

    monkeypatch.setenv("WEYLMOD_RANK", "2")
    assert cli.main(["cocycle", "t^2*D", "t^-2*D", "--rank", "1"]) == 0
    golden("cocycle", capsys.readouterr().out)


def test_env_rank_and_json_precedence():
    code, out, _ = run_cli(["bracket", "D1", "t1*t2"],
                           env_extra={"WEYLMOD_RANK": "2"})
    assert code == 0 and out.strip() == "t1*t2"
    code, out, _ = run_cli(["cocycle", "t", "t^-1"],
                           env_extra={"WEYLMOD_JSON": "1"})
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    # flags win over the environment: --rank overrides WEYLMOD_RANK
    code, out, _ = run_cli(["bracket", "D", "t", "--rank", "1"],
                           env_extra={"WEYLMOD_RANK": "2"})
    assert code == 0 and out.strip() == "t"


def test_json_has_schema_everywhere():
    for name, argv in GOLDEN_COMMANDS:
        if "--json" in argv:
            code, out, _ = run_cli(argv)
            doc = json.loads(out)
            assert doc["schema"] == 1


@pytest.mark.parametrize("exc_cls", [InternalError, ScalarDivisionError,
                                     AssertionError])
def test_internal_errors_exit_3_with_one_line(monkeypatch, capsys, exc_cls):
    from weylmod import cli

    def broken(a, b):
        raise exc_cls("invariant broken")

    monkeypatch.setattr(cli, "bracket", broken)
    code = cli.main(["bracket", "D", "t"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == f"weylmod: internal error: {exc_cls.__name__}: invariant broken\n"


def test_runtime_errors_are_not_internal_errors(monkeypatch):
    # the exact intertwiner fallback's RuntimeError keeps its own path
    from weylmod import cli

    def too_large(a, b):
        raise RuntimeError("too large")

    monkeypatch.setattr(cli, "bracket", too_large)
    with pytest.raises(RuntimeError):
        cli.main(["bracket", "D", "t"])


@pytest.mark.parametrize("suite,module,name,off_grading", [
    ("cocycle", "liealg", "basis_product",
     lambda m1, n1, m2, n2: {((m1[0] + m2[0] + 1,), n2): 1}),
    ("assoc-split", "umod", "_basis_act_ints",
     lambda eps, m, n, j: {(n[0] + j[0] + 1,): 1}),
], ids=["cocycle", "assoc-split"])
def test_grading_defects_are_internal_errors(monkeypatch, capsys, suite, module,
                                             name, off_grading):
    # a structure constant outside the grading is a defect in weylmod, not
    # a usage error
    import importlib
    from weylmod import cli

    monkeypatch.setattr(importlib.import_module(f"weylmod.{module}"), name, off_grading)
    code = cli.main(["verify", "--suite", suite])
    out, err = capsys.readouterr()
    assert code == 3
    assert err.startswith("weylmod: internal error: InternalError:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["hseq", "--phi", "x", "--c", "0", "--n", "40"],
                                  ["verify", "--suite", "cocycle"]])
def test_a_closed_stdout_exits_quietly(argv):
    # the reader is gone before the first write (`weylmod ... | head -0`):
    # the command keeps its own exit code and writes no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "weylmod.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_stdout_that_refuses_writes_keeps_the_command_exit_code(monkeypatch):
    # a verification failure still exits 1 when its report cannot be
    # written, and the rest of the output goes to devnull
    from weylmod import cli
    from weylmod.verify import SuiteResult

    class GoneReader:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(cli, "run_suites",
                        lambda names, bounds, seed: [SuiteResult("cocycle", False, 1, 0.0)])
    monkeypatch.setattr(sys, "stdout", GoneReader())
    assert cli.main(["verify", "--suite", "cocycle"]) == 1
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


@pytest.mark.parametrize("argv, flag, name", [
    (["hseq", "--phi", "x", "--params", "a"], "--c", "c"),
    (["verma", "--params", "lambda!"], "--c", "c"),
    (["tensor-act", "D", "--c", "0", "--params", "a"], "--lam", "lambda"),
    (["act", "D", "x", "--family", "d", "--eps", "1", "--params", "a"], "--lam", "lambda"),
])
def test_an_undeclared_default_parameter_names_its_flag(argv, flag, name):
    # the default of --c is the parameter c and that of --lam the parameter
    # lambda; when --params leaves it out, the error names the flag the user
    # never passed instead of an unknown name in scalar input
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == (f"weylmod: error: {flag} defaults to the parameter {name!r}, which --params "
                   f"does not declare; pass {flag} or declare {name}\n")


def test_a_declared_default_parameter_is_read():
    code, out, err = run_cli(["hseq", "--phi", "x", "--params", "c", "--n", "1"])
    assert (code, err) == (0, "")
    assert out.endswith("h_1 = 1/2\n")
    code, out, _ = run_cli(["hseq", "--phi", "x", "--params", "a", "--c", "0", "--n", "1"])
    assert code == 0 and out.endswith("h_1 = 1/2\n")
