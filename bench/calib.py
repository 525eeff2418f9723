"""Host-speed calibration: a fixed reference kernel, timed next to the work.

The CPU speed of the shared 2-core host this benchmark was tuned on moves
between levels up to about 2x apart, in episodes from under a second to
minutes. Interpreter-bound code slows down the most, code that streams
large arrays the least, and process CPU time moves with wall time. A run
that falls in a slow episode therefore reads slow as a whole, and no
statistic over the run's own samples can tell.

So the worker times this kernel before and after every timed pass of
work and scales the pass's time by ``REF_S`` over the mean kernel time
near it: a reported time or rate is the one the pass would have shown on
a host where the kernel takes ``REF_S`` seconds. The kernel depends on
numpy and the standard library only, never on the package under test, so
a change to the package moves the scaled figures exactly as it moves the
raw ones. The raw figures stay in the report.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

import numpy as np

# Kernel time at the slower, more common speed level of the tuning host
# (2-core x86-64, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS
# thread), so a typical pass is scaled little. Only a unit: runs are
# compared with each other, never with this number.
REF_S = 0.0040

# A calibration point is at least REPEATS kernel runs and lasts at least
# WINDOW_FRAC of the pass before it: the speed level flips within a
# fraction of a second, so a long pass needs a long window beside it to
# estimate the share of time it spent at each level.
REPEATS = 2
WINDOW_FRAC = 0.1

_rng = np.random.default_rng(0)
_H = _rng.standard_normal((8, 128))
_W = _rng.standard_normal((128, 100))
_BIG = _rng.standard_normal(400_000)
_BIG_OUT = np.empty_like(_BIG)
_FLOATS = _rng.standard_normal(1_000).tolist()


def kernel() -> None:
    """A fixed mix of the kinds of work the package does."""
    # interpreter: closures and appends, as recording a tape does
    acc = []
    for i in range(2000):
        acc.append((i, lambda g, i=i: g * i))
    # small arrays: per-call overhead, as per-pair ops at small V
    for _ in range(60):
        np.tanh(_H @ _W)
    # streaming: an Adam-like pass over a large array
    np.multiply(_BIG, 0.9, out=_BIG_OUT)
    np.add(_BIG_OUT, _BIG, out=_BIG_OUT)
    # text: float formatting and parsing, as a JSON checkpoint does
    json.loads(json.dumps(_FLOATS))


def measure(window_s: float = 0.0) -> tuple[float, int]:
    """Kernel runs for at least ``window_s`` seconds and at least
    ``REPEATS`` runs, after one untimed run that brings the kernel's data
    back into the caches. Returns (seconds, runs) of the timed runs."""
    was_enabled = gc.isenabled()
    gc.disable()  # a collection would scan the caller's heap, not time the host
    try:
        kernel()
        runs = 0
        t0 = perf_counter()
        while True:
            kernel()
            runs += 1
            seconds = perf_counter() - t0
            if runs >= REPEATS and seconds >= window_s:
                return seconds, runs
    finally:
        if was_enabled:
            gc.enable()
