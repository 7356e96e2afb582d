import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

# subprocesses import weylmod from this checkout too, as pytest's
# ``pythonpath`` setting makes the test process do
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR),
                                                         os.environ.get("PYTHONPATH")]))


def run_cli(argv, env_extra=None, hash_seed="0"):
    """Run the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env.pop("WEYLMOD_RANK", None)
    env.pop("WEYLMOD_JSON", None)
    env["PYTHONHASHSEED"] = hash_seed
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "weylmod.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def golden():
    regen = os.environ.get("WEYLMOD_REGEN_GOLDEN") == "1"

    def check(name: str, text: str):
        path = GOLDEN_DIR / f"{name}.txt"
        if regen:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
            return
        assert path.exists(), f"golden file {path} missing; set WEYLMOD_REGEN_GOLDEN=1"
        assert text == path.read_text(), f"output drifted from {path}"

    return check
