"""Optimization loop: Glorot init, Adam, KL annealing, model selection.

One update = one mini-batch. The batch loss is the summed negative ELBO
over its pairs, supports for the sampled softmax are rebuilt per batch
outside the recorded computation, and the annealing weight advances one
tick per update. After every epoch the model is scored by alignment
error rate on the validation set and the best checkpoint is kept.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import alignment, autodiff as ad, model as model_mod
from .autodiff import ParameterStore, Tape
from .corpus import (
    Batch,
    Vocabulary,
    build_css_support,
    derive_seed,
    make_batches,
)
from .errors import CheckpointError, ContractError, TrainingError
from .model import ModelConfig

ANNEAL_STEP = 1e-3
ANNEAL_INTERVAL = 500

CHECKPOINT_FORMAT = "alignvae-checkpoint"
CHECKPOINT_VERSION = 1


def glorot_init(shape, seed: int) -> np.ndarray:
    """Uniform draw on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ContractError(f"glorot_init expects a 2-d shape, got {shape}")
    fan_out, fan_in = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    return rng.uniform(-limit, limit, size=shape)


def anneal_alpha(update_count: int) -> float:
    """KL weight: +1e-3 every 500 updates, capped at 1."""
    if update_count < 0:
        raise ContractError(f"update_count must be >= 0, got {update_count}")
    return min(1.0, ANNEAL_STEP * (update_count // ANNEAL_INTERVAL))


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: ParameterStore, grads: dict, state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter store.

    Every gradient is checked first, so a non-finite one raises
    ``TrainingError`` with the parameters and the state untouched. The
    moments are updated in place through one temporary array, in the same
    operation order as ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)``
    and ``w = w - lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    for name in params.names():
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for name, tensor in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m, v = state.m[name], state.v[name]
        buf = np.empty_like(tensor.data)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=buf)
        v *= state.beta2
        np.multiply(g, g, out=buf)
        v += np.multiply(buf, 1.0 - state.beta2, out=buf)
        step = np.divide(m, c1)
        step *= state.lr
        np.divide(v, c2, out=buf)
        np.sqrt(buf, out=buf)
        buf += state.eps
        step /= buf
        tensor.data = tensor.data - step
    return state


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 100
    lr: float = 1e-3
    n_neg: int = 1000
    seed: int = 1
    css: bool = True


@dataclass
class Checkpoint:
    """Everything needed to restore a trained model."""

    model_cfg: ModelConfig
    vocab_l1: list[str]
    vocab_l2: list[str]
    params: dict  # name -> np.ndarray
    update_count: int = 0
    best_val_aer: float | None = None
    best_epoch: int | None = None

    def build_store(self) -> ParameterStore:
        """The stored values as a parameter store.

        The checkpoint must hold exactly the parameters its config
        declares, each with the declared shape; otherwise
        ``CheckpointError``.
        """
        shapes = model_mod.param_shapes(
            self.model_cfg, len(self.vocab_l1), len(self.vocab_l2)
        )
        missing = [name for name in shapes if name not in self.params]
        extra = [name for name in self.params if name not in shapes]
        if missing or extra:
            raise CheckpointError(
                f"checkpoint parameters do not match the config: "
                f"missing {missing}, unexpected {extra}"
            )
        store = ParameterStore()
        for name, shape in shapes.items():
            value = self.params[name]
            if np.shape(value) != shape:
                raise CheckpointError(
                    f"parameter {name!r}: stored shape {np.shape(value)} "
                    f"!= declared shape {shape}"
                )
            store.add(name, value)
        return store

    def vocabularies(self) -> tuple[Vocabulary, Vocabulary]:
        return Vocabulary(self.vocab_l1[2:]), Vocabulary(self.vocab_l2[2:])


def _snapshot(params, cfg, vocab1, vocab2, update_count, aer, epoch) -> Checkpoint:
    return Checkpoint(
        model_cfg=cfg,
        vocab_l1=list(vocab1.tokens),
        vocab_l2=list(vocab2.tokens),
        params=params.copy_values(),
        update_count=update_count,
        best_val_aer=aer,
        best_epoch=epoch,
    )


def _validation_aer(val_pairs, val_gold, params, cfg) -> float:
    preds = {}
    for sid, pair in enumerate(val_pairs, start=1):
        preds[sid] = alignment.viterbi_align(pair, params, cfg)
    score, _ = alignment.corpus_aer(preds, val_gold)
    return score


def train(
    train_pairs,
    vocab1: Vocabulary,
    vocab2: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    val_pairs=None,
    val_gold=None,
    log_path=None,
    log_fn=None,
) -> Checkpoint:
    """Train on encoded pairs and return the best checkpoint by validation AER.

    Fully deterministic given the config seed: epoch shuffles, support
    sampling and reparameterization noise all draw from sub-seeds derived
    from (seed, purpose). With no validation gold the final-epoch model is
    returned (with a warning via ``log_fn`` when given).
    """
    seed = train_cfg.seed
    params = model_mod.build_params(model_cfg, len(vocab1), len(vocab2), seed)
    adam = AdamState(lr=train_cfg.lr)
    has_gold = bool(val_pairs) and bool(val_gold) and any(
        g.sure or g.possible for g in val_gold.values()
    )
    if (val_pairs or val_gold) and not has_gold and log_fn is not None:
        log_fn("warning: empty validation gold; model selection falls back to final epoch")

    best: Checkpoint | None = None
    best_aer = math.inf
    update_count = 0
    lines = []
    for epoch in range(train_cfg.epochs):
        batches = make_batches(
            train_pairs, train_cfg.batch_size, derive_seed(seed, f"shuffle:{epoch}")
        )
        elbo_total = 0.0
        for batch in batches:
            alpha = anneal_alpha(update_count)
            elbo_total += _batch_update(
                batch, params, model_cfg, train_cfg, vocab1, vocab2, alpha, adam,
                derive_seed(seed, f"batch:{update_count}"),
            )
            update_count += 1
        mean_elbo = elbo_total / len(train_pairs)
        alpha_now = anneal_alpha(update_count)
        if has_gold:
            val_aer = _validation_aer(val_pairs, val_gold, params, model_cfg)
        else:
            val_aer = float("nan")
        lines.append(f"{epoch}\t{mean_elbo!r}\t{alpha_now!r}\t{val_aer!r}")
        if log_fn is not None:
            log_fn(lines[-1])
        if has_gold and val_aer < best_aer:
            best_aer = val_aer
            best = _snapshot(params, model_cfg, vocab1, vocab2, update_count, val_aer, epoch)
    if best is None:
        # no epochs ran or no usable validation gold
        best = _snapshot(
            params, model_cfg, vocab1, vocab2, update_count,
            best_aer if math.isfinite(best_aer) else None,
            train_cfg.epochs - 1 if train_cfg.epochs > 0 else None,
        )
    if log_path is not None:
        _write_atomic(log_path, ["\n".join(lines) + ("\n" if lines else "")])
    return best


def _batch_update(batch: Batch, params, model_cfg, train_cfg, vocab1, vocab2,
                  alpha, adam, batch_seed) -> float:
    """Forward/backward/Adam for one batch; returns the summed ELBO value."""
    if train_cfg.css:
        css_pair = (
            build_css_support(batch, vocab1, "l1", train_cfg.n_neg,
                              derive_seed(batch_seed, "css:l1")),
            build_css_support(batch, vocab2, "l2", train_cfg.n_neg,
                              derive_seed(batch_seed, "css:l2")),
        )
    else:
        css_pair = (None, None)
    noise = np.random.default_rng(derive_seed(batch_seed, "noise"))
    # per pair, in batch order: eps_z, then eps_s for the sentence latent
    eps_z, eps_s = [], []
    for pair in batch:
        eps_z.append(noise.standard_normal((pair.m, model_cfg.d)))
        if model_cfg.hierarchical:
            eps_s.append(noise.standard_normal(model_cfg.d_s))
    with Tape() as tape:
        summed = model_mod.batch_elbo(
            batch.pairs, params, model_cfg, alpha, np.concatenate(eps_z),
            np.stack(eps_s) if eps_s else None, css_pair,
        )
        loss = ad.neg(summed)
    if not np.isfinite(loss.data):
        raise TrainingError(f"non-finite batch loss: {float(loss.data)}")
    grads = tape.backward(loss, params=params)
    adam_step(params, grads, adam)
    return float(summed.data)


# ---------------------------------------------------------------------------
# checkpoint document


def _write_atomic(path, pieces) -> None:
    """Write the strings ``pieces`` to ``path`` through a temporary file in
    the same directory that replaces ``path`` only once all are written, so
    a failure midway leaves any old file as it was and no temporary file."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Single structured text document; floats round-trip exactly.

    The bytes are those of ``json.dump(doc)`` plus a newline, but each
    parameter is encoded on its own by the C encoder behind ``json.dumps``
    (``json.dump`` runs the pure-Python one), so neither the whole
    document nor every parameter's list of floats is held at once. The
    file is replaced atomically.
    """
    head = json.dumps({
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.model_cfg),
        "vocab_l1": ckpt.vocab_l1,
        "vocab_l2": ckpt.vocab_l2,
        "update_count": ckpt.update_count,
        "best_val_aer": ckpt.best_val_aer,
        "best_epoch": ckpt.best_epoch,
    })

    def pieces():
        yield head[:-1] + ', "params": {'
        for k, (name, arr) in enumerate(ckpt.params.items()):
            entry = {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            yield (", " if k else "") + json.dumps(name) + ": " + json.dumps(entry)
        yield "}}\n"

    _write_atomic(path, pieces())


def load_checkpoint(path, expect: dict | None = None) -> Checkpoint:
    """Read a checkpoint; ``expect`` pins config keys that must match."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"malformed checkpoint file {path}: {e}") from e
    for key in ("format", "version", "config", "vocab_l1", "vocab_l2", "params"):
        if key not in doc:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    if doc["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not an alignvae checkpoint: format={doc['format']!r}")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc['version']} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    known = {f.name for f in fields(ModelConfig)}
    if not isinstance(doc["config"], dict):
        raise CheckpointError("checkpoint field 'config' is not a mapping")
    unknown = sorted(set(doc["config"]) - known)
    if unknown:
        raise CheckpointError(f"unknown model config keys in checkpoint: {unknown}")
    cfg = ModelConfig(**doc["config"])
    if expect:
        for key, wanted in expect.items():
            actual = getattr(cfg, key)
            if actual != wanted:
                raise CheckpointError(
                    f"config mismatch for {key!r}: checkpoint has {actual!r}, "
                    f"invocation expects {wanted!r}"
                )
    params = {}
    for name, entry in doc["params"].items():
        try:
            arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"malformed parameter {name!r}: {e}") from e
        params[name] = arr
    return Checkpoint(
        model_cfg=cfg,
        vocab_l1=doc["vocab_l1"],
        vocab_l2=doc["vocab_l2"],
        params=params,
        update_count=doc.get("update_count", 0),
        best_val_aer=doc.get("best_val_aer"),
        best_epoch=doc.get("best_epoch"),
    )
