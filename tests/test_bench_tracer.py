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
    # exact_div is public but has no library caller.  The intertwiner
    # certifies every system the coverage pass builds, symbolic ones
    # included, with one sparse elimination mod p: it reaches neither the
    # exact fallback nor the dense nullspace.  Every other layer must be
    # reached by the coverage pass.
    assert ("3 not exercised ['scalars.exact_div', 'tensor.exact_intertwiner', "
            "'tensor.nullspace_mod_p']") in proc.stdout
