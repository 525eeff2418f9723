#!/usr/bin/env python3
"""alignvae benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N     # every workload in turn

Each workload runs in its own child process (``worker.py``) with the
package sources from ``src`` and the BLAS libraries pinned to one thread,
so runs do not compete with themselves for the cores. The child prints
the result as the last line of standard output; with ``--workload all``
the launcher prints one JSON object keyed by workload name instead.
Exits 2 when the package sources are not beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_workload(name: str, args, capture: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None, text=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alignvae benchmark")
    ap.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "alignvae" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            return run_workload(args.workload, args, capture=False).returncode
        results, code = {}, 0
        for name in spec.WORKLOADS:
            proc = run_workload(name, args, capture=True)
            lines = proc.stdout.strip().splitlines()
            results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            code = code or proc.returncode
    except subprocess.TimeoutExpired as e:
        print(f"error: workload did not finish within {e.timeout} s", file=sys.stderr)
        return 3
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
