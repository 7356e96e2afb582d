"""One workload in one fresh process: set up, run the jobs, report.

Run by ``run.py``; talks to it through JSON lines on stdout:

* ``{"event": "ready", ...}`` once set-up (imports, input generation and
  warm-up) is done, so the parent can time set-up from process start;
* ``{"event": "done", ...}`` with one record per job.

Modes: ``setup`` stops after the ready line; ``run`` times the jobs;
``trace`` runs the jobs once untraced and once with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as J  # noqa: E402

# Seconds after which a run starts no further job, so that a far slower
# program still ends within the 180 s a run may take.  A traced run makes
# two passes and gives each half.  A stopped run says so in its result.
JOB_TIME_CAP = 120.0


def emit(**payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def cli_env() -> dict:
    """Environment of a weylmod child: inherited pins, no weylmod overrides."""
    env = dict(os.environ)
    env.pop("WEYLMOD_RANK", None)
    env.pop("WEYLMOD_JSON", None)
    return env


def run_inprocess(job_list, cap, tracer=None) -> list:
    records = []
    stop_at = perf_counter() + cap
    for idx, (job, state) in enumerate(job_list):
        if perf_counter() > stop_at:
            break
        if tracer:
            tracer.begin_job(idx, job.kind)
        t0 = perf_counter()
        try:
            checks, problem = job.run(state)
            status = "wrong" if problem else "ok"
        except Exception as exc:  # a raising job is a failed job
            checks, status = 0, "failed"
            problem = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        dt = perf_counter() - t0
        if tracer:
            tracer.end_job()
        records.append({"kind": job.kind, "params": job.params, "seconds": dt,
                        "checks": checks, "status": status, "problem": problem})
    return records


def classify_cli(job, code: int, out: str, err: str):
    if code == 0 and out == job.expected:
        return "ok", None
    if job.known_failure and code == 1 and job.known_failure in err:
        return "failed", f"known failure: {err.strip().splitlines()[-1]}"
    if code != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return "failed", f"exit {code}: {tail[0]}"
    return "wrong", "stdout differs from the expected output"


def run_cli(job_list, cap, traced=None) -> list:
    """One fresh weylmod process per job.  ``traced`` is None for a plain
    ``python -m weylmod.cli`` child, else True/False for the bootstrap child
    with or without the tracer; the bootstrap reports its timings and
    counters on its last stderr line."""
    records = []
    env = cli_env()
    stop_at = perf_counter() + cap
    for idx, (job, _) in enumerate(job_list):
        if perf_counter() > stop_at:
            break
        argv = job.params["argv"]
        if traced is None:
            cmd = [sys.executable, "-m", "weylmod.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "clichild.py"), "1" if traced else "0",
                   str(idx), *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
        dt = perf_counter() - t0
        err = proc.stderr
        record = {"kind": job.kind, "params": job.params, "seconds": dt, "checks": 1}
        if traced is not None:
            head, _, last = err.rstrip("\n").rpartition("\n")
            report = json.loads(last)
            report["interp_start_s"] = report.pop("t_entry") - t0
            record["child"] = report
            err = head
        record["status"], record["problem"] = classify_cli(job, proc.returncode, proc.stdout, err)
        if record["status"] != "ok":
            record["checks"] = 0
        records.append(record)
    return records


def start_tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    w = args.workload
    trace_mode = args.mode == "trace"

    t_import = perf_counter()
    if w != "cli":
        import numpy  # noqa: F401
        import weylmod
        if not Path(weylmod.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"weylmod imported from {weylmod.__file__}, not this checkout")
    import_s = perf_counter() - t_import

    rounds = J.rounds_for(w, args.seconds)
    if trace_mode:
        # two passes, untraced and traced, over a third of the work each
        rounds = max(1, rounds // 3)
    job_list = J.build(w, args.seed, rounds, ROOT)
    if w == "cli":
        # warm the interpreter's files and the compiled modules once
        subprocess.run([sys.executable, "-m", "weylmod.cli", "bracket", "D", "t"],
                       capture_output=True, env=cli_env(), cwd=ROOT)
    else:
        J.warmup(w)
    emit(event="ready", import_s=import_s)
    if args.mode == "setup":
        return 0

    result = {"event": "done"}
    cap = JOB_TIME_CAP / 2 if trace_mode else JOB_TIME_CAP
    if w == "cli":
        if trace_mode:
            result["untraced"] = run_cli(job_list, cap, traced=False)
            result["jobs"] = run_cli(job_list, cap, traced=True)
        else:
            result["jobs"] = run_cli(job_list, cap)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    elif trace_mode:
        # the traced pass gets fresh jobs: same seed, same parameters
        traced_list = J.build(w, args.seed, rounds, ROOT)
        result["untraced"] = run_inprocess(job_list, cap)
        tracer = start_tracer()
        result["jobs"] = run_inprocess(traced_list, cap, tracer)
    else:
        result["jobs"] = run_inprocess(job_list, cap)
    if w != "cli":
        usage = resource.getrusage(resource.RUSAGE_SELF)
    if trace_mode:
        if w == "cli":
            tracer = start_tracer()
        tracer.begin_job(len(job_list), "coverage")
        J.coverage()
        tracer.end_job()
        tracer.uninstall()
        result["counters"] = tracer.counters()
        result["spans"] = tracer.span_dicts()
    result["maxrss_kb"] = usage.ru_maxrss
    result["stopped_early"] = len(result["jobs"]) < len(job_list)
    emit(**result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
