"""Run one workload in this process and print its result as the last line.

Started by ``run.py`` with the BLAS thread count pinned and ``src`` on
``PYTHONPATH``. The run is a closed loop with one caller: set-up, an
untimed warm-up, then rounds for ``--seconds`` (at least ``MIN_ROUNDS``).
In each round every phase repeats its pass for at least ``PHASE_MIN_S``,
each pass through an entry point the package keeps: set-up, train
(``training.train``, one epoch on a fixed number of pairs, so the loss
and validation AER do not depend on how fast the code is; every run must
give the same model), align, lexsub, embed, ibm1, nibm, and a checkpoint
save + load (``ckpt_passes`` of them in all, spread over the first
``MIN_ROUNDS`` rounds, where a workload sets it).
After the rounds, the probe checks the trained model's
bound and gradient against the numpy reference in ``checks.py``.

The host's speed drifts in episodes from under a second to minutes. So
the kernel in ``calib.py`` is timed before the first pass and after every
pass, and each pass's time is scaled to the reference speed by the kernel
times near it (``scale``); a rate is the work of all passes over their
summed scaled time, and each phase's passes are spread over the whole
rounds window rather than one slice of it.

With ``--trace 1`` training runs twice untraced and once under the tracer
(the ratio of the last two is the tracing overhead), the rounds run traced without the
set-up, train and checkpoint passes, and per-layer metrics are reported
instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from alignvae import alignment, baselines, corpus, hiermodel, semeval, training
from alignvae import model as model_mod
from alignvae.autodiff import Tape
from alignvae.model import ModelConfig
from alignvae.training import TrainConfig

import calib
import checks as checks_mod
import spec
from inputs import make_inputs
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"

MIN_ROUNDS = 2
PHASE_MIN_S = 0.5


class _BatchWatch:
    """Checks every batch ELBO returned by the trainer's per-batch update."""

    def __init__(self, checks):
        self.checks = checks
        self.original = getattr(training, "_batch_update", None)

    def __enter__(self):
        if self.original is not None:
            original, checks = self.original, self.checks

            def watched(*args, **kwargs):
                value = original(*args, **kwargs)
                checks.check(np.isfinite(value), f"non-finite batch ELBO {value!r}")
                return value

            training._batch_update = watched
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            training._batch_update = self.original
        return False


class WorkloadRun:
    def __init__(self, w, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR):
        self.w = w
        self.out_dir = out_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cfg = ModelConfig(encoder=w.encoder, d=w.d, d_x=w.d_x,
                               hierarchical=w.hierarchical, d_s=w.d_s)
        self.train_cfg = TrainConfig(epochs=1, batch_size=w.batch, lr=1e-3,
                                     n_neg=w.n_neg, seed=seed, css=True)
        self.checks = checks_mod.Checks()
        self.values: dict[str, float] = {}
        self.phase_s: dict[str, float] = {}  # wall seconds per phase, for the report
        self.samples: dict[str, list[float]] = {}  # seconds per pass of each repeated phase
        self.scaled: dict[str, list[float]] = {}  # the same, scaled to calib.REF_S
        self.points: list[tuple] = []  # calibration points: (start, end, seconds, kernel runs)
        self.passes: list[tuple] = []  # timed samples: (name, pass start, pass end, seconds)
        self.timeline: list[tuple] = []  # (sample name, seconds, mean kernel seconds near it)
        self.rates: list[tuple] = []  # (sample name, metric, units per pass) of the rounds
        self.last: dict[str, object] = {}  # latest output of each repeated phase
        self.rounds = 0
        self.ckpt_path = out_dir / f"ckpt-{os.getpid()}.json"
        self.tracer: Tracer | None = None
        self.inp = None
        self.ckpt = None
        self.store = None

    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name

    # -- phases -----------------------------------------------------------

    def setup(self):
        """One timed set-up: input generation and parameter allocation.
        Every repeat of one seed must give the same inputs."""
        t0 = perf_counter()
        inp = make_inputs(self.w, self.seed)
        model_mod.build_params(self.cfg, len(inp.vocab1), len(inp.vocab2), self.seed)
        self.samples.setdefault("setup", []).append(perf_counter() - t0)
        if self.inp is None:
            self.inp = inp
        else:
            self.checks.check(inp.train == self.inp.train and inp.val == self.inp.val,
                              "setup: a repeat gave different inputs")

    def warm_up(self):
        inp = self.inp
        tiny_cfg = TrainConfig(epochs=1, batch_size=self.w.batch, n_neg=self.w.n_neg,
                               seed=self.seed, css=True)
        ckpt = training.train(inp.train[:4], inp.vocab1, inp.vocab2, self.cfg, tiny_cfg,
                              inp.val[:2], {1: inp.val_gold[1], 2: inp.val_gold[2]})
        store = ckpt.build_store()
        for pair in inp.val[:2]:
            alignment.viterbi_align(pair, store, self.cfg)
        semeval.mean_gap(inp.lexsub[:1], inp.vocab1, store, self.cfg)
        semeval.type_embeddings_for_corpus([p.x for p in inp.val[:2]], store, self.cfg)
        semeval.sentence_embedding(inp.val[0].x, store, self.cfg)
        bv1, bv2 = inp.baseline_vocabs
        baselines.ibm1_train(inp.baseline[:10], len(bv1), len(bv2), 1)

    def train(self):
        """One training run, timed from the call to the epoch's log line:
        initialisation, batching, CSS supports, updates, validation and
        snapshot, as a user sees them. Every run must give the same model."""
        inp, checks = self.inp, self.checks
        lines: list[str] = []
        stamps: list[float] = []

        def log(line):  # the trainer logs once per epoch, after validation
            stamps.append(perf_counter())
            lines.append(line)

        with _BatchWatch(checks):
            t0 = perf_counter()
            ckpt = training.train(inp.train, inp.vocab1, inp.vocab2, self.cfg, self.train_cfg,
                                  inp.val, inp.val_gold, log_fn=log)
        self.samples.setdefault("train_call", []).append(stamps[-1] - t0)
        checks.check(len(lines) == 1, f"{len(lines)} epoch lines")
        elbo = float(lines[0].split("\t")[1])
        checks.check(np.isfinite(elbo) and elbo < 0, f"epoch ELBO {elbo!r}")
        aer = ckpt.best_val_aer
        checks.check(aer is not None and 0.0 <= aer <= 1.0, f"validation AER {aer!r}")
        if self.ckpt is not None:
            checks.check(aer == self.ckpt.best_val_aer
                         and all(a.tobytes() == ckpt.params[n].tobytes()
                                 for n, a in self.ckpt.params.items()),
                         "train: a repeated run gave a different model")
            return
        self.ckpt = ckpt
        self.store = ckpt.build_store()
        self.values["train_loss_per_pair"] = -elbo
        self.values["val_aer"] = aer

    def _bound(self, pair, eps_z, eps_s, css_pair):
        if self.cfg.hierarchical:
            return hiermodel.elbo_s(pair, self.store, self.cfg, 1.0, eps_s, eps_z, css_pair)
        return model_mod.elbo(pair, self.store, self.cfg, 1.0, eps_z, css_pair)

    def probe(self):
        """Bound of the trained model with the exact softmax and with a CSS
        support, and the gradient of the CSS bound (the one training
        follows), against the numpy reference. Alpha is 1, so the KL
        terms count in full."""
        cfg, store = self.cfg, self.store
        params = {name: t.data for name, t in store.items()}
        rng = np.random.default_rng(corpus.derive_seed(self.seed, "bench:directions"))
        for k, (pair, eps_z, eps_s) in enumerate(self.inp.probe):
            for label, css_pair in (("exact", (None, None)), ("css", self.inp.probe_css)):
                def reference(p, css_pair=css_pair):
                    return checks_mod.reference_elbo(pair, p, cfg.encoder, cfg.hierarchical,
                                                     1.0, eps_z, eps_s, css_pair)

                with Tape() as tape:
                    value = self._bound(pair, eps_z, eps_s, css_pair)
                got, want = value.item(), reference(params)
                err = checks_mod.rel_err(got, want)
                self.checks.check(err <= checks_mod.ELBO_RTOL,
                                  f"probe {k} {label}: ELBO {got!r} vs reference {want!r} "
                                  f"(rel {err:.2e})")
                if label != "css":
                    continue
                grads = tape.backward(value, params=store)
                for name, u, fd in checks_mod.directional_derivatives(reference, params, rng):
                    ad_val = float(np.sum(grads[name] * u))
                    err = abs(ad_val - fd)
                    tol = checks_mod.GRAD_RTOL * max(abs(ad_val), abs(fd)) + checks_mod.GRAD_ATOL
                    self.checks.check(err <= tol,
                                      f"probe {k}: d/d{name} {ad_val!r} vs central "
                                      f"difference {fd!r}")

    # Each repeated phase is a (name, metric, units per pass, pass, check)
    # entry; ``run_rounds`` repeats every entry's pass in every round.

    def round_phases(self):
        """Phases read the trained model from ``self.store`` when they run,
        because the first training pass sets it."""
        inp, w, cfg = self.inp, self.w, self.cfg
        bv1, bv2 = inp.baseline_vocabs
        nibm_cfg = baselines.NIBMConfig(encoder="bow", d_x=w.d_x)
        ids = [p.x for p in inp.val]
        phases = []
        if not self.trace:
            phases += [("setup", None, 0, self.setup, lambda _: None),
                       ("train", None, 0, self.train, lambda _: None)]
        phases += [
            ("align", "align_pairs_per_s", len(inp.val),
             lambda: [alignment.viterbi_align(p, self.store, cfg) for p in inp.val],
             self.check_align),
            ("lexsub", "lexsub_instances_per_s", len(inp.lexsub),
             lambda: semeval.mean_gap(inp.lexsub, inp.vocab1, self.store, cfg),
             self.check_lexsub),
            ("embed", "embed_sents_per_s", len(ids),
             lambda: (semeval.type_embeddings_for_corpus(ids, self.store, cfg),
                      [semeval.sentence_embedding(x, self.store, cfg) for x in ids]),
             lambda out: self.check_embed(out, ids)),
            ("ibm1", "ibm1_pairs_per_s", len(inp.baseline) * w.ibm1_iterations,
             lambda: baselines.ibm1_train(inp.baseline, len(bv1), len(bv2), w.ibm1_iterations),
             self.check_ibm1),
            ("nibm", "nibm_pairs_per_s", len(inp.baseline),
             lambda: baselines.train_nibm(inp.baseline, bv1, bv2, nibm_cfg, epochs=1,
                                          batch_size=w.batch, n_neg=w.n_neg, seed=self.seed),
             self.check_nibm),
        ]
        if not self.trace:
            phases.append(("ckpt", None, 0, self.checkpoint, self.check_checkpoint))
        return phases

    def run_rounds(self, phases):
        """Rounds until ``seconds`` have elapsed and at least ``MIN_ROUNDS``
        have run. In each round every phase repeats its pass until it has
        run for ``PHASE_MIN_S``, except a checkpoint phase with a fixed
        number of passes; a phase that raises leaves the rotation."""
        live = list(phases)
        start = perf_counter()
        opened = False  # after the first pass, the point closing a pass opens the next

        def one_pass(entry):
            name = entry[0]
            t0 = perf_counter()
            try:
                self.last[name] = entry[3]()
            except Exception:  # phase boundary: report and keep measuring the rest
                traceback.print_exc(file=sys.stderr)
                self.checks.fail(f"{name}: raised")
                live.remove(entry)
                return
            self.samples.setdefault(name, []).append(perf_counter() - t0)

        def more(name, t0):
            """Whether this round's block of the phase needs another pass."""
            total = self.w.ckpt_passes if name == "ckpt" else None
            if total is None:
                return perf_counter() - t0 < PHASE_MIN_S
            per_round = -(-total // MIN_ROUNDS)
            return len(self.samples.get(name, ())) < min(total, per_round * (self.rounds + 1))

        while live and (self.rounds < MIN_ROUNDS or perf_counter() - start < self.seconds):
            for entry in list(live):
                self.phase(entry[0])
                t0 = perf_counter()
                while entry in live and more(entry[0], t0):
                    self.calibrated(lambda: one_pass(entry), opening=not opened)
                    opened = True
            self.rounds += 1
        for name, metric, units, _, check in phases:
            times = self.samples.get(name)
            if not times or name not in self.last:
                continue
            self.phase_s[name] = sum(times)
            if metric is not None:
                self.rates.append((name, metric, units))
            self._guarded(f"{name}-check", lambda: check(self.last[name]))

    def calibrated(self, fn, opening=True):
        """Run ``fn`` as one timed pass, with a calibration point before it
        (unless the point that closed the previous pass opens this one)
        and one after it, and note when each sample it recorded ran."""
        if opening:
            self._point(0.0)
        marks = {name: len(times) for name, times in self.samples.items()}
        t0 = perf_counter()
        fn()
        t1 = perf_counter()
        for name, times in self.samples.items():
            self.passes += [(name, t0, t1, dt) for dt in times[marks.get(name, 0):]]
        self._point(calib.WINDOW_FRAC * (t1 - t0))

    def _point(self, window_s):
        t0 = perf_counter()
        seconds, runs = calib.measure(window_s)
        self.points.append((t0, perf_counter(), seconds, runs))

    def scale(self):
        """Fill ``scaled``: each sample times ``calib.REF_S`` over the mean
        kernel time of every calibration point that overlaps its pass
        widened by half the pass's length on each side. A short pass gets
        the points right beside it; a long one also those of its
        neighbours, which estimate better the share of time the host spent
        at each speed level."""
        self.scaled, self.timeline = {}, []
        for name, t0, t1, dt in self.passes:
            half = (t1 - t0) / 2 + 1e-3
            near = [(s, n) for p0, p1, s, n in self.points if p1 >= t0 - half and p0 <= t1 + half]
            kernel = sum(s for s, _ in near) / sum(n for _, n in near)
            self.scaled.setdefault(name, []).append(dt * calib.REF_S / kernel)
            self.timeline.append((name, dt, kernel))

    def check_align(self, _):
        val = self.inp.val
        links = [alignment.viterbi_align(p, self.store, self.cfg) for p in val]
        for sid, (pair, found) in enumerate(zip(val, links), start=1):
            self.checks.check(checks_mod.links_in_bounds(found, pair),
                              f"align: link outside sentence {sid}")
        # the best snapshot must reproduce the AER it was selected with
        score, _ = alignment.corpus_aer(dict(enumerate(links, start=1)), self.inp.val_gold)
        self.checks.check(score == self.ckpt.best_val_aer,
                          f"align: AER {score!r} != selected {self.ckpt.best_val_aer!r}")

    def check_lexsub(self, out):
        mean, per_instance = out
        self.checks.check(len(per_instance) == len(self.inp.lexsub) and 0.0 <= mean <= 1.0,
                          f"lexsub: mean GAP {mean!r}")
        for k, g in enumerate(per_instance):
            self.checks.check(0.0 <= g <= 1.0, f"lexsub: GAP {g!r} of instance {k}")

    def check_embed(self, out, ids):
        types, sents = out
        d = self.cfg.d
        self.checks.check(set(types) == {t for x in ids for t in x[1:]},
                          "embed: type table does not match the corpus types")
        for tid, vec in types.items():
            self.checks.check(checks_mod.finite_vector(vec, d), f"embed: type {tid}")
        for k, vec in enumerate(sents):
            self.checks.check(checks_mod.finite_vector(vec, d), f"embed: sentence {k}")

    def check_ibm1(self, out):
        table, trace = out
        finite = all(np.isfinite(trace))
        rising = all(b >= a - 1e-9 * abs(a) for a, b in zip(trace, trace[1:]))
        self.checks.check(finite and rising, f"ibm1: log-likelihood trace {trace!r}")
        self.checks.check(np.allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-9),
                          "ibm1: table rows do not sum to 1")

    def check_nibm(self, params):
        self.checks.check(all(np.all(np.isfinite(t.data)) for _, t in params.items()),
                          "nibm: non-finite parameters")

    def checkpoint(self):
        """One save, then one load + ``build_store``, each timed."""
        t0 = perf_counter()
        training.save_checkpoint(self.ckpt, self.ckpt_path)
        t1 = perf_counter()
        loaded = training.load_checkpoint(self.ckpt_path)
        restored = loaded.build_store()
        t2 = perf_counter()
        self.samples.setdefault("ckpt_save", []).append(t1 - t0)
        self.samples.setdefault("ckpt_load", []).append(t2 - t1)
        self.values["ckpt_mb"] = self.ckpt_path.stat().st_size / 1e6
        return loaded, restored

    def check_checkpoint(self, out):
        loaded, restored = out
        ckpt = self.ckpt
        same = (
            loaded.model_cfg == ckpt.model_cfg
            and loaded.vocab_l1 == ckpt.vocab_l1
            and loaded.vocab_l2 == ckpt.vocab_l2
            and restored.names() == list(ckpt.params)
            and all(
                restored[n].data.shape == a.shape and restored[n].data.tobytes() == a.tobytes()
                for n, a in ckpt.params.items()
            )
        )
        self.checks.check(same, "ckpt: round trip is not bit-equal")

    # -- whole runs -------------------------------------------------------

    def _guarded(self, name, fn):
        """Run one phase and return its result; an exception counts as a
        failed operation and returns None."""
        self.phase(name)
        t0 = perf_counter()
        try:
            return fn()
        except Exception:  # phase boundary: report and keep measuring the rest
            traceback.print_exc(file=sys.stderr)
            self.checks.fail(f"{name}: raised")
            return None
        finally:
            self.phase_s[name] = perf_counter() - t0

    def run_end_to_end(self):
        self.calibrated(lambda: self._guarded("setup", self.setup))
        self._guarded("warm-up", self.warm_up)
        try:
            self.run_rounds(self.round_phases())
        finally:
            self.ckpt_path.unlink(missing_ok=True)
        if self.store is not None:
            self._guarded("probe", self.probe)
        self.scale()
        self.values.update(self.timings(self.scaled))
        self.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def timings(self, samples) -> dict[str, float]:
        """The timed end-to-end metrics from ``samples`` (raw or scaled)."""
        out = {}
        train_pairs = len(self.inp.train) if self.inp is not None else 0
        for name, metric, units in self.rates + [("train_call", "train_pairs_per_s",
                                                  train_pairs)]:
            if samples.get(name):
                out[metric] = units * len(samples[name]) / sum(samples[name])
        if samples.get("setup"):
            out["setup_s"] = statistics.median(samples["setup"])
        # a save or load of a large checkpoint takes one of two times, about
        # 2x apart, from one to the next; the mean of a few is steadier
        # than their median
        for metric, name in (("ckpt_save_s", "ckpt_save"), ("ckpt_load_s", "ckpt_load")):
            if samples.get(name):
                out[metric] = statistics.mean(samples[name])
        return out

    def run_traced(self):
        self._guarded("setup", self.setup)
        self._guarded("warm-up", self.warm_up)
        # the first full-size training pays first-touch costs; the second
        # is the untraced reference for the tracing overhead
        self._guarded("train-first", self.train)
        if self.store is None:
            return
        self._guarded("train-untraced", self.train)
        self._guarded("probe", self.probe)
        self.tracer = Tracer().install()
        try:
            self._guarded("train", self.train)
            self.run_rounds(self.round_phases())
        finally:
            self.tracer.uninstall()


def layer_metrics(run: WorkloadRun) -> dict[str, float]:
    """Per-layer metrics from the traced run; absent when a span is missing."""
    tr, w = run.tracer, run.w
    out: dict[str, float] = {}
    if tr is None:  # training failed before tracing began
        return out

    def put(name, needs, compute):
        if all(n in tr.available for n in needs):
            out[name] = float(compute())

    updates = tr.durations_ms("training.update", phase="train")
    n_upd = len(updates) or float("nan")
    pairs = len(run.inp.train)
    calls = run.samples.get("train_call", [])  # first, untraced, traced
    traced_ms = 1000.0 * calls[2] if len(calls) == 3 else float("nan")

    def upd(span):
        return tr.total_ms(span, phase="train", in_update=True) / n_upd

    up = ["training.update"]
    rec = up + ["autodiff.record"]
    put("autodiff.nodes_per_pair", rec, lambda: sum(tr.kind_n.values()) / pairs)
    put("autodiff.record_ms_per_update", rec, lambda: 1000.0 * tr.record_s / n_upd)
    put("autodiff.backward_self_ms_per_update", up + ["autodiff.backward"],
        lambda: tr.self_ms("autodiff.backward", phase="train", in_update=True) / n_upd)
    put("autodiff.grad_mb_per_update", rec, lambda: tr.grad_bytes / 1e6 / n_upd)
    for kind in spec.OP_KINDS:
        put(f"autodiff.op.{kind}.n_per_update", rec, lambda k=kind: tr.kind_n.get(k, 0) / n_upd)
        put(f"autodiff.op.{kind}.fwd_ms_per_update", rec,
            lambda k=kind: 1000.0 * tr.kind_fwd.get(k, 0.0) / n_upd)
        put(f"autodiff.op.{kind}.bwd_ms_per_update", rec,
            lambda k=kind: 1000.0 * tr.kind_bwd.get(k, 0.0) / n_upd)
    for metric, span in (
        ("model.encoder_ms_per_update", "model.encoder"),
        ("model.posterior_ms_per_update", "model.posterior"),
        ("model.sample_ms_per_update", "model.sample"),
        ("model.l1_head_ms_per_update", "model.l1_head"),
        ("model.l2_marginal_ms_per_update", "model.l2_marginal"),
        ("model.kl_ms_per_update", "model.kl"),
        ("hiermodel.sentence_posterior_ms_per_update", "hiermodel.sentence_posterior"),
        ("hiermodel.prior_ms_per_update", "hiermodel.prior"),
        ("corpus.css_support_ms_per_update", "corpus.css_support"),
        ("training.adam_ms_per_update", "training.adam"),
    ):
        put(metric, up + [span], lambda s=span: upd(s))
    css = tr.css_sizes or [(float("nan"), float("nan"))]
    put("corpus.css_C_mean", ["corpus.css_support"], lambda: np.mean([c for c, _ in css]))
    put("corpus.css_N_mean", ["corpus.css_support"], lambda: np.mean([n for _, n in css]))
    put("corpus.batching_ms_per_epoch", ["corpus.batching"],
        lambda: tr.total_ms("corpus.batching", phase="train"))
    put("training.update_ms_p50", up, lambda: np.percentile(updates, 50))
    put("training.update_ms_p90", up, lambda: np.percentile(updates, 90))
    put("training.snapshot_ms", ["training.snapshot"],
        lambda: np.mean(tr.durations_ms("training.snapshot", phase="train")))
    put("training.validation_ms_per_epoch", ["training.validation"],
        lambda: tr.total_ms("training.validation", phase="train"))
    put("training.validation_frac", ["training.validation"],
        lambda: tr.total_ms("training.validation", phase="train") / traced_ms)
    put("training.snapshot_frac", ["training.snapshot"],
        lambda: tr.total_ms("training.snapshot", phase="train") / traced_ms)

    n_aligned = len(tr.select("alignment.viterbi", phase="align")) or float("nan")
    for metric, span in (
        ("alignment.posterior_ms_per_pair", "alignment.posterior"),
        ("alignment.l2_head_ms_per_pair", "alignment.l2_head"),
        ("alignment.links_ms_per_pair", "alignment.links"),
    ):
        put(metric, ["alignment.viterbi", span],
            lambda s=span: tr.total_ms(s, phase="align") / n_aligned)
    ranked = tr.select("semeval.rank", phase="lexsub")
    n_ranked = len(ranked) or float("nan")
    put("semeval.encodes_per_instance", ["semeval.rank", "semeval.encode"],
        lambda: len(tr.select("semeval.encode", phase="lexsub")) / n_ranked)
    put("semeval.rank_ms_per_instance", ["semeval.rank"],
        lambda: tr.total_ms("semeval.rank", phase="lexsub") / n_ranked)
    put("semeval.embed_ms_per_sentence", ["semeval.embed"],
        lambda: np.mean(tr.durations_ms("semeval.embed", phase="embed")))
    put("baselines.ibm1_em_step_ms", ["baselines.ibm1_em_step"],
        lambda: np.mean(tr.durations_ms("baselines.ibm1_em_step", phase="ibm1")))
    n_nibm_updates = len(tr.select("training.adam", phase="nibm")) or float("nan")
    put("baselines.nibm_update_ms", ["baselines.nibm", "training.adam"],
        lambda: tr.total_ms("baselines.nibm", phase="nibm") / n_nibm_updates)
    if len(calls) == 3:
        out["trace.overhead_frac"] = calls[2] / calls[1] - 1.0
    return out


def provenance(run: WorkloadRun) -> dict:
    inp = run.inp
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    first_seed = corpus.derive_seed(run.seed, "shuffle:0")
    first = corpus.make_batches(inp.train, run.w.batch, first_seed)[0]
    supports = [
        corpus.build_css_support(first, vocab, side, run.w.n_neg, 0)
        for vocab, side in ((inp.vocab1, "l1"), (inp.vocab2, "l2"))
    ]
    bv1, bv2 = inp.baseline_vocabs
    return {
        "workload": run.w.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "V": [len(inp.vocab1), len(inp.vocab2)],
        "baseline_V": [len(bv1), len(bv2)],
        "css_first_batch": {s.side: {"C": len(s.c_ids), "N": len(s.n_ids)} for s in supports},
        "train_pairs": len(inp.train),
        "val_pairs": len(inp.val),
        "rounds": run.rounds,
        "calib_ref_s": calib.REF_S,
        "dims": {"d": run.w.d, "d_x": run.w.d_x, "d_s": run.w.d_s},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    return execute(spec.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def execute(w, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> int:
    """Run workload ``w``, write its report under ``out_dir``, print the result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run = WorkloadRun(w, seed, seconds, trace, out_dir)
    if trace:
        run.run_traced()
        wanted = spec.PER_LAYER
        values = layer_metrics(run)
    else:
        run.run_end_to_end()
        wanted = spec.END_TO_END
        values = run.values
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values and np.isfinite(values[m["name"]])
    }
    result = {
        "correct": run.checks.failed == 0,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": metrics,
    }
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    report = {
        "provenance": provenance(run),
        "failed_frac": run.checks.failed / max(run.checks.attempted, 1),
        "failures": run.checks.messages,
        "phase_s": run.phase_s,
        "samples_s": run.samples,
        "scaled_s": run.scaled,
        "kernel_s": [s / n for _, _, s, n in run.points],
        "timeline": run.timeline,
        "unscaled": None if trace else run.timings(run.samples),
        "result": result,
    }
    if run.tracer is not None:
        run.tracer.write(out_dir / f"{tag}-spans.jsonl")
        report["missing_functions"] = run.tracer.missing
        report["op_kinds_seen"] = sorted(run.tracer.kind_n)
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    width = max(len(name) for name in metrics) if metrics else 0
    print(f"# {tag}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"#   {name:<{width}}  {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(f"#   {'failed_frac':<{width}}  {report['failed_frac']:.6g} frac "
          f"({run.checks.failed}/{run.checks.attempted})", file=sys.stderr)
    print("#   phase seconds: " + ", ".join(f"{k} {v:.2f}" for k, v in run.phase_s.items()),
          file=sys.stderr)
    for message in run.checks.messages[:20]:
        print(f"#   FAILED: {message}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
