"""weylmod benchmark: four closed-loop workloads, one client, one job at a time.

From the root of a checkout:

    python3 perfbench/run.py --workload axiom --seed 1 --seconds 20 --trace 0

``--workload`` is one of axiom, verma, tensor, cli, or ``all``.  Each
workload runs in its own fresh process with PYTHONHASHSEED pinned and
BLAS/OpenMP threads capped at the CPU count.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs the tracer self-test and
a traced run, and reports the per-layer metrics and the tracing overhead.
Every answer is checked; wrong and failed jobs are listed.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as J  # noqa: E402
import tracer as TR  # noqa: E402

SETUP_SAMPLES = 3        # set-up-only workers before and again after the timed one
INTERP_SAMPLES = 5       # bare interpreter starts per traced run
TAIL_BEYOND = 10         # job_tail_s has at least this many jobs beyond it
MISSED = 1e9             # seconds shown when a statistic lands on a failed job

END_TO_END = (("job_p50_s", "s"), ("job_tail_s", "s"), ("checks_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": nproc(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy_version, "loadavg": [round(x, 2) for x in os.getloadavg()]}


def spawn_worker(workload: str, seed: int, seconds: float, mode: str):
    """Run one worker; returns (seconds to its ready line, ready, done)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or not first:
        raise RuntimeError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    ready = json.loads(first)
    done = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return setup_s, ready, done


def latencies(records) -> list:
    """Job seconds, with a failed or wrong job as +inf: it misses any limit."""
    return [r["seconds"] if r["status"] == "ok" else float("inf") for r in records]


def tail(lat):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond."""
    xs = sorted(lat)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n


def shown(x: float) -> float:
    return MISSED if x == float("inf") else x


def verdicts(records):
    """(attempted, failed, correct, listing lines) of a job list."""
    lines, failed, correct = [], 0, True
    for idx, r in enumerate(records):
        if r["status"] == "ok":
            continue
        failed += 1
        known = r["status"] == "failed" and str(r["problem"]).startswith("known failure")
        correct = correct and known
        lines.append(f"{r['status'].upper()} job {idx} {r['kind']} "
                     f"{json.dumps(r['params'])}: {r['problem']}")
    return len(records), failed, correct, lines


def end_to_end(records, setups, maxrss_kb):
    lat = latencies(records)
    tail_s, pct = tail(lat)
    job_time = sum(r["seconds"] for r in records)
    checks = sum(r["checks"] for r in records if r["status"] == "ok")
    values = {"job_p50_s": shown(statistics.median(lat)), "job_tail_s": shown(tail_s),
              "checks_per_s": checks / job_time, "setup_s": statistics.median(setups),
              "peak_rss_mb": maxrss_kb / 1024}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = {"job_tail_s": f"p{pct:.1f} of {len(lat)} jobs, {TAIL_BEYOND} beyond",
             "setup_s": f"median of {len(setups)} set-ups",
             "checks_per_s": f"{checks} checks in {job_time:.2f} s of job time"}
    return metrics, notes


def interp_start() -> float:
    env = child_env()
    samples = []
    for _ in range(INTERP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def traced(workload, seed, seconds):
    """Self-test, then one traced worker; returns (metrics, notes, done, ok)."""
    test = subprocess.run([sys.executable, str(HERE / "selftest.py")], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True)
    selftest_ok = test.returncode == 0
    print(test.stdout.strip() or test.stderr.strip())

    _, ready, done = spawn_worker(workload, seed, seconds, "trace")
    records, untraced = done["jobs"], done["untraced"]
    children = [r["child"] for r in records if "child" in r]
    merged = TR.merge([c["counters"] for c in children] + [done["counters"]])
    spans = [s for c in children for s in c["spans"]] + done["spans"]
    if workload == "cli":
        plain = [r["child"] for r in untraced]
        import_s = statistics.median(c["import_s"] for c in plain)
        main_s = statistics.median(c["main_s"] for c in plain)
    else:
        # the one in-process cli.main call is the coverage pass's
        import_s, main_s = ready["import_s"], merged["incl_s"]["cli.main"]
    overhead = statistics.median(latencies(records)) - statistics.median(latencies(untraced))
    merged["extra"].update({
        "verify.checks_total": sum(r["checks"] for r in records if r["status"] == "ok"),
        "cli.interp_start_s": interp_start(), "cli.import_s": import_s,
        "cli.main_s": main_s, "trace.overhead_s": shown(overhead)})
    out = ROOT / ".bench_build" / "perfbench" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(spans))
    notes = {"trace.overhead_s": "traced minus untraced job_p50_s, "
                                 f"{len(records)} jobs each",
             "spans": f"{len(spans)} spans in {out.relative_to(ROOT)}"}
    return TR.layer_metrics(merged), notes, done, selftest_ok


def run_workload(workload, seed, seconds, trace):
    print(f"== {workload}: seed {seed}, {seconds:g} s, trace {trace}, "
          f"machine {json.dumps(machine())}")
    if trace:
        metrics, notes, done, selftest_ok = traced(workload, seed, seconds)
    else:
        # set-up is timed in 2 * SETUP_SAMPLES + 1 fresh processes spread
        # over the run; setup_s is their median
        def setup_only():
            return [spawn_worker(workload, seed, seconds, "setup")[0]
                    for _ in range(SETUP_SAMPLES)]
        setups = setup_only()
        setup_s, ready, done = spawn_worker(workload, seed, seconds, "run")
        setups += [setup_s] + setup_only()
        metrics, notes = end_to_end(done["jobs"], setups, done["maxrss_kb"])
        selftest_ok = True
    attempted, failed, correct, lines = verdicts(done["jobs"])
    correct = correct and selftest_ok
    if done["stopped_early"]:
        lines.append(f"STOPPED after {attempted} jobs: the run hit its time cap")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':34s} {failed / attempted:>16.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    if "spans" in notes:
        print(f"  {notes['spans']}")
    for line in lines:
        print(f"  {line}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def check_declared(results, trace) -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for res in results:
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != declared:
            raise SystemExit(f"perfbench: metrics {sorted(set(got) ^ set(declared))} "
                             "differ from BENCHMARK.json")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "weylmod" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: {ROOT} holds no weylmod checkout (src/weylmod, tests/golden)",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/weylmod", "perfbench"],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)

    names = J.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    check_declared(results, args.trace)
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{w}.{k}": v for w, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
