"""Run parameters of each workload.

Workload names and why-texts, metric names, units, directions and
bounds are declared once, in ``BENCHMARK.json`` at the repository root;
this module reads them from there. Plain data with no third-party
imports, so the launcher can read it without starting numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
END_TO_END = tuple(BENCHMARK["end_to_end"])
PER_LAYER = tuple(BENCHMARK["per_layer"])
RUN_SECONDS = BENCHMARK["run_seconds"]

# op kinds named by the per-layer metrics autodiff.op.<kind>.n_per_update
OP_KINDS = tuple(
    m["name"][len("autodiff.op."):-len(".n_per_update")]
    for m in PER_LAYER
    if m["name"].startswith("autodiff.op.") and m["name"].endswith(".n_per_update")
)

# The real run that fixes the shape of an epoch: the learning-signal
# acceptance run trains on 2,800 pairs and validates on 200 after every
# epoch, 14 training pairs per validation pair. Every workload keeps
# that ratio, so validation and the snapshot weigh on the training rate
# as they do in a real run. A training run is one epoch: the validation
# AER is then taken early in learning, where it varies least between
# seeds: after the ten updates of the hierarchical workload its quartile
# spread over ten seeds is 7.5% of the median, after 42 it was 36%.
TRAIN_PER_VAL = 14


@dataclass(frozen=True)
class Workload:
    name: str
    encoder: str  # "bow" | "birnn"
    hierarchical: bool
    vocab: int  # dictionary types per side; the vocabulary holds all of them
    val_pairs: int  # also timed by align and embed; TRAIN_PER_VAL times as many train
    lexsub_instances: int
    baseline_pairs: int  # IBM1 and neural IBM1 train on this many pairs
    ibm1_iterations: int = 5
    probe_pairs: int = 2
    d: int = 100
    d_x: int = 128
    d_s: int = 16
    batch: int = 100
    n_neg: int = 1000
    len_range: tuple = (3, 8)
    lexsub_candidates: int = 5
    # checkpoint round trips per run, spread over the first two rounds;
    # None: as many as fit in the phase's time in every round
    ckpt_passes: int | None = None

    @property
    def train_pairs(self) -> int:
        return TRAIN_PER_VAL * self.val_pairs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-hier-v30", encoder="bow", hierarchical=True, vocab=30,
            val_pairs=70, lexsub_instances=40,
            baseline_pairs=500,
        ),
        Workload(
            name="train-bow-v20k", encoder="bow", hierarchical=False, vocab=20000,
            val_pairs=10, lexsub_instances=40,
            baseline_pairs=100, ckpt_passes=2,
        ),
        Workload(
            name="train-birnn-v2k", encoder="birnn", hierarchical=False, vocab=2000,
            val_pairs=20, lexsub_instances=10,
            baseline_pairs=100, ckpt_passes=6,
        ),
    )
}

if [w["name"] for w in BENCHMARK["workloads"]] != list(WORKLOADS):
    raise RuntimeError("BENCHMARK.json and spec.py name different workloads")
