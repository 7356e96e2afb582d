"""One weylmod CLI process for the traced cli run.

Usage: ``clichild.py <traced 0|1> <job id> <weylmod arguments...>``

Behaves like ``python -m weylmod.cli`` on stdout and exit code, and writes
one JSON line last on stderr: the process entry time, the time to import
``weylmod.cli``, the time in ``cli.main``, and (when traced) the tracer's
counters and spans.
"""

from time import perf_counter

T_ENTRY = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    traced = sys.argv[1] == "1"
    job = int(sys.argv[2])
    argv = sys.argv[3:]
    t0 = perf_counter()
    from weylmod import cli
    report = {"t_entry": T_ENTRY, "import_s": perf_counter() - t0}
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin_job(job, "cli")
    t1 = perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        code = 1
    report["main_s"] = perf_counter() - t1
    if tracer:
        tracer.end_job()
        tracer.uninstall()
        report["counters"] = tracer.counters()
        report["spans"] = tracer.span_dicts()
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
