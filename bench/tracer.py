"""Span tracer that wraps the program's layer functions from outside.

``Tracer.install`` replaces named functions with timing wrappers in every
``alignvae`` module that holds them, wraps each autodiff op and
``Tape.record``/``Tape.backward``, and gives every recorded backward
closure a per-kind timer. Layer calls become spans kept in memory, each
with its parent span and the id of the training update it ran in; op
calls only feed per-kind accumulators, because a birnn update records
tens of thousands of them. A span's self time is its duration minus the
time covered by its children, op calls included. ``uninstall`` restores
every original.

A function that no longer exists is listed in ``missing``; metrics that
need it are then reported absent rather than as zero.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from alignvae import autodiff

# (module, attribute, span name); several functions may feed one span name
LAYER_FUNCTIONS = (
    ("training", "_batch_update", "training.update"),
    ("training", "adam_step", "training.adam"),
    ("training", "_snapshot", "training.snapshot"),
    ("training", "_validation_aer", "training.validation"),
    ("corpus", "build_css_support", "corpus.css_support"),
    ("corpus", "make_batches", "corpus.batching"),
    ("model", "encode", "model.encoder"),
    ("model", "infer_posterior", "model.posterior"),
    ("hiermodel", "infer_word_posterior_conditioned", "model.posterior"),
    ("model", "reparam_sample", "model.sample"),
    ("model", "_l1_sum", "model.l1_head"),
    ("model", "_l2_log_marginals", "model.l2_marginal"),
    ("model", "gaussian_kl_rows", "model.kl"),
    ("hiermodel", "infer_sentence_posterior", "hiermodel.sentence_posterior"),
    ("hiermodel", "prior_mean", "hiermodel.prior"),
    ("alignment", "viterbi_align", "alignment.viterbi"),
    ("model", "posterior_means", "alignment.posterior"),
    ("alignment", "_hier_posterior_means", "alignment.posterior"),
    ("model", "l2_head_log_probs", "alignment.l2_head"),
    ("alignment", "argmax_links", "alignment.links"),
    ("semeval", "rank_candidates", "semeval.rank"),
    ("model", "posterior_params_np", "semeval.encode"),
    ("semeval", "sentence_embedding", "semeval.embed"),
    ("baselines", "ibm1_em_step", "baselines.ibm1_em_step"),
    ("baselines", "train_nibm", "baselines.nibm"),
)

UPDATE_SPAN = "training.update"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "alignvae" or name.startswith("alignvae."))]


def _op_functions():
    """Public autodiff functions that record a tape node through ``_emit``."""
    ops = {}
    for name, fn in vars(autodiff).items():
        code = getattr(fn, "__code__", None)
        if (code is not None and not name.startswith("_")
                and getattr(fn, "__module__", None) == autodiff.__name__
                and "_emit" in code.co_names):
            ops[name] = fn
    return ops


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple] = []  # (id, parent, update, phase, name, start, end, self)
        self.missing: list[str] = []
        self.available: set[str] = set()
        self.css_sizes: list[tuple[int, int]] = []
        self.kind_n = defaultdict(int)
        self.kind_fwd = defaultdict(float)
        self.kind_bwd = defaultdict(float)
        self.record_s = 0.0
        self.grad_bytes = 0
        self._stack: list[list] = []  # [child seconds, span id]
        self._update: int | None = None
        self._n_updates = 0
        self._last_kind: str | None = None
        self._undo: list[tuple] = []
        self._by_name: dict | None = None

    # -- span bookkeeping -------------------------------------------------

    def _open(self, span_id=None):
        self._stack.append([0.0, span_id])
        return perf_counter()

    def _close(self, t0):
        t1 = perf_counter()
        frame = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][0] += dur
        return t1, dur, dur - frame[0]

    def _parent_id(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, original, wrapper):
        """Swap ``original`` for ``wrapper`` wherever the package holds it."""
        targets = [owner] + [m for m in _package_modules() if m is not owner]
        for target in targets:
            if target.__dict__.get(attr) is original:
                setattr(target, attr, wrapper)
                self._undo.append((target, attr, original))

    def _span_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id in call order
            parent = tracer._parent_id()
            is_update = name == UPDATE_SPAN and tracer.phase == "train"
            if is_update:
                tracer._update = tracer._n_updates
            update = tracer._update
            t0 = tracer._open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, dur, self_s = tracer._close(t0)
                tracer.spans[span_id] = (span_id, parent, update, tracer.phase, name,
                                         t0, t1, self_s)
                if is_update:
                    tracer._update = None
                    tracer._n_updates += 1
            if name == "corpus.css_support" and update is not None:
                tracer.css_sizes.append((len(result.c_ids), len(result.n_ids)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._last_kind = None
            t0 = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                _, _, self_s = tracer._close(t0)
                if tracer._update is not None:
                    tracer.kind_fwd[tracer._last_kind or name] += self_s

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_bwd(self, bwd, kind):
        tracer = self

        def timed(g):
            t0 = tracer._open()
            try:
                out = bwd(g)
            finally:
                _, dur, _ = tracer._close(t0)
            if tracer._update is not None:
                tracer.kind_bwd[kind] += dur
                tracer.grad_bytes += sum(getattr(a, "nbytes", 8) for a in out if a is not None)
            return out

        return timed

    def install(self) -> "Tracer":
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        for mod_name, attr, span in LAYER_FUNCTIONS:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self.available.add(span)
            self._replace(mod, attr, fn, self._span_wrapper(fn, span))
        for name, fn in _op_functions().items():
            self._replace(autodiff, name, fn, self._op_wrapper(fn, name))
        self._wrap_tape()
        return self

    def _wrap_tape(self):
        tape_cls = getattr(autodiff, "Tape", None)
        record = getattr(tape_cls, "record", None)
        backward = getattr(tape_cls, "backward", None)
        if record is None or backward is None:
            self.missing.append("autodiff.Tape.record/backward")
            return
        tracer = self

        def traced_record(tape, out, parents, bwd, kind):
            if bwd is not None:
                bwd = tracer._timed_bwd(bwd, kind)
            t0 = tracer._open()
            try:
                return record(tape, out, parents, bwd, kind)
            finally:
                _, dur, _ = tracer._close(t0)
                tracer._last_kind = kind
                if tracer._update is not None:
                    tracer.record_s += dur
                    tracer.kind_n[kind] += 1

        setattr(tape_cls, "record", traced_record)
        self._undo.append((tape_cls, "record", record))
        self.available.add("autodiff.record")
        setattr(tape_cls, "backward", self._span_wrapper(backward, "autodiff.backward"))
        self._undo.append((tape_cls, "backward", backward))
        self.available.add("autodiff.backward")

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- queries ----------------------------------------------------------

    def select(self, name, phase=None, in_update=None):
        """Spans named ``name``, optionally limited to a phase and to
        spans inside (True) or outside (False) a training update. Call
        only after tracing has finished: the first call indexes the spans."""
        if self._by_name is None:
            self._by_name = defaultdict(list)
            for span in self.spans:
                if span is not None:
                    self._by_name[span[4]].append(span)
        out = []
        for span in self._by_name.get(name, ()):
            if phase is not None and span[3] != phase:
                continue
            if in_update is not None and (span[2] is not None) != in_update:
                continue
            out.append(span)
        return out

    def total_ms(self, name, **kw) -> float:
        return 1000.0 * sum(s[6] - s[5] for s in self.select(name, **kw))

    def self_ms(self, name, **kw) -> float:
        return 1000.0 * sum(s[7] for s in self.select(name, **kw))

    def durations_ms(self, name, **kw) -> list[float]:
        return [1000.0 * (s[6] - s[5]) for s in self.select(name, **kw)]

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the columns, then
        one array per span with times in microseconds from the first span."""
        keys = ["id", "parent", "update", "phase", "name", "start_us", "end_us", "self_us"]
        origin = next((s[5] for s in self.spans if s is not None), 0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": keys, "missing": self.missing}) + "\n")
            for sid, parent, update, phase, name, t0, t1, self_s in filter(None, self.spans):
                fh.write(json.dumps([sid, parent, update, phase, name,
                                     round((t0 - origin) * 1e6), round((t1 - origin) * 1e6),
                                     round(self_s * 1e6)]) + "\n")
