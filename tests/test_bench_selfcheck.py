import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    # the benchmark wraps and calls package functions by name, so a rename
    # or deletion in the package shows up here before a benchmark run; a
    # numeric warning fails it as it fails a test in this process (the
    # pytest warning filters do not reach a subprocess)
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"], cwd=ROOT, capture_output=True,
        text=True, timeout=600, env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
