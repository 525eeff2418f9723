#!/usr/bin/env python3
"""Quick self-check of the benchmark harness on tiny sizes (a few seconds).

    python3 bench/selfcheck.py

Checks that every workload, shrunk to toy dimensions, runs traced and
untraced with all checks passing and reports exactly the metrics
BENCHMARK.json declares; that the probe catches an objective with its KL
term dropped and a backward pass with one gradient's sign flipped; that
a tracer target that no longer exists is reported missing; that self
time subtracts child spans; that measured times are scaled by the
calibration kernel; and that the launcher fails without printing
a result when the package sources are absent. Exits 1 on the first
failed expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calib  # noqa: E402
import spec  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
from alignvae import autodiff  # noqa: E402
from alignvae import model as model_mod  # noqa: E402

TMP_DIR = HERE / "_out" / "selfcheck"


def expect(ok, what) -> None:
    """Like ``assert``, but kept under ``python -O``."""
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")


def tiny(w):
    return dataclasses.replace(
        w, vocab=12, d=4, d_x=6, d_s=3, batch=5, n_neg=4, len_range=(2, 4),
        val_pairs=2, lexsub_instances=3, lexsub_candidates=3, baseline_pairs=8,
        ibm1_iterations=2,
    )


def check_workloads():
    for w in spec.WORKLOADS.values():
        for trace in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = worker.execute(tiny(w), 3, 0.2, trace, out_dir=TMP_DIR)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            expect(code == 0 and result["correct"], (w.name, trace, result))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            expect(result["attempted"] >= 1 and result["failed"] == 0, (w.name, trace))
            wanted = spec.PER_LAYER if trace else spec.END_TO_END
            expect(list(result["metrics"]) == [m["name"] for m in wanted], (w.name, trace))
            for m in wanted:
                expect(result["metrics"][m["name"]]["unit"] == m["unit"], m["name"])
            print(f"ok   {w.name} trace={int(trace)}: "
                  f"{result['attempted']} checks, {len(result['metrics'])} metrics")


def trained_tiny_run(name):
    run = worker.WorkloadRun(tiny(spec.WORKLOADS[name]), 5, 0.2, False)
    run.setup()
    run.train()
    return run


def check_dropped_kl_is_caught():
    run = trained_tiny_run("train-bow-v20k")
    original = model_mod.kl_to_standard_normal
    model_mod.kl_to_standard_normal = lambda u, s: model_mod.ad.mul(0.0, original(u, s))
    try:
        run.probe()
    finally:
        model_mod.kl_to_standard_normal = original
    # both bounds of every probe pair are wrong
    expect(sum(m.startswith("probe") and "ELBO" in m for m in run.checks.messages)
           == 2 * len(run.inp.probe), run.checks.messages)
    print("ok   the probe fails an objective without its KL term")


def check_flipped_gradient_is_caught():
    run = trained_tiny_run("train-hier-v30")
    original = autodiff.Tape.backward

    def flipped(tape, root, params=None):
        grads = original(tape, root, params)
        grads["M2"] = -grads["M2"]
        return grads

    autodiff.Tape.backward = flipped
    try:
        run.probe()
    finally:
        autodiff.Tape.backward = original
    expect(run.checks.messages and all("d/dM2" in m for m in run.checks.messages)
           and len(run.checks.messages) == len(run.inp.probe), run.checks.messages)
    print("ok   the probe fails a gradient with a flipped sign")


def check_missing_function_is_reported():
    extra = (("model", "no_such_function", "model.nothing"),)
    saved = tracer_mod.LAYER_FUNCTIONS
    tracer_mod.LAYER_FUNCTIONS = saved + extra
    try:
        tr = tracer_mod.Tracer().install()
        tr.uninstall()
    finally:
        tracer_mod.LAYER_FUNCTIONS = saved
    expect(tr.missing == ["model.no_such_function"], tr.missing)
    expect("model.nothing" not in tr.available, tr.available)
    print("ok   a vanished tracer target is listed as missing")


def check_self_time():
    tr = tracer_mod.Tracer()
    t_outer = tr._open(0)
    t_inner = tr._open(1)
    _, inner_dur, _ = tr._close(t_inner)
    _, outer_dur, outer_self = tr._close(t_outer)
    expect(abs(outer_self - (outer_dur - inner_dur)) < 1e-12, (outer_self, outer_dur, inner_dur))
    print("ok   self time is a span minus its children")


def check_scaling():
    """A host that runs the kernel at twice REF_S halves every scaled time."""
    run = worker.WorkloadRun(tiny(spec.WORKLOADS["train-hier-v30"]), 5, 0.2, False)
    saved = calib.measure
    calib.measure = lambda window_s=0.0: (2 * 2 * calib.REF_S, 2)
    try:
        run.calibrated(lambda: run.samples.setdefault("x", []).extend([0.5, 0.25]))
    finally:
        calib.measure = saved
    run.scale()
    expect(run.scaled["x"] == [0.25, 0.125], run.scaled)
    print("ok   times are scaled by the reference over the kernel time")


def check_fails_without_sources():
    bare = TMP_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-hier-v30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print("ok   launcher exits non-zero with no result when the sources are absent")


def main() -> int:
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    worker.PHASE_MIN_S = 0.01  # toy passes take about a millisecond
    check_self_time()
    check_scaling()
    check_missing_function_is_reported()
    check_dropped_kl_is_caught()
    check_flipped_gradient_is_caught()
    check_workloads()
    check_fails_without_sources()
    shutil.rmtree(TMP_DIR, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
