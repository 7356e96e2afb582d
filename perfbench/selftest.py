"""Tracer self-test: wrapper call counts must equal cProfile's ncalls.

Runs the tiny coverage calls (``jobs.coverage``: the warm-up jobs of both
in-process workloads plus one in-process CLI call) with the tracer
installed and cProfile on at once.
cProfile counts calls of the original code objects however they are
reached, so a call that bypasses a wrapper (an import site or a method
alias the tracer missed) shows up as a difference.

Run from the checkout root: ``python3 perfbench/selftest.py``.  Exits 0 when
every count matches and most targets were exercised, 1 otherwise.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs as J  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    profiler = cProfile.Profile()
    profiler.enable()
    J.coverage()
    profiler.disable()
    sites = len(tracer.installed)
    tracer.uninstall()

    ncalls = {(fn, line): nc for (fn, line, _), (_, nc, *_rest)
              in pstats.Stats(profiler).stats.items()}
    bad, idle = [], []
    for key, original in tracer.originals.items():
        code = original.__code__
        want = ncalls.get((code.co_filename, code.co_firstlineno), 0)
        got = tracer.calls.get(key, 0)
        if got != want:
            bad.append(f"{key}: tracer {got}, cProfile {want}")
        if not want:
            idle.append(key)
    print(f"tracer self-test: {len(tracer.originals)} targets, "
          f"{sites} wrapped sites, {len(bad)} mismatches, "
          f"{len(idle)} not exercised {sorted(idle)}")
    for line in bad:
        print(f"  MISMATCH {line}")
    missing = len(TARGETS) - len(tracer.originals)
    return 1 if bad or missing or len(idle) > len(TARGETS) // 10 else 0


if __name__ == "__main__":
    sys.exit(main())
