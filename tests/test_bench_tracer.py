import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_selftest_resolves_every_target():
    # the traced benchmark wraps library functions by name; a renamed or
    # bypassed target shows up here as a nonzero exit
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 mismatches" in proc.stdout
    # exact_div is public but has no library caller; every other layer must
    # be reached by the coverage pass
    assert "1 not exercised ['scalars.exact_div']" in proc.stdout
