"""Optimization loop: Adam, KL annealing, model selection, checkpoints.

One update = one mini-batch of ``fit``, the loop NIBM shares. The batch loss
is the summed negative ELBO over its pairs, supports for the sampled softmax
are rebuilt per batch outside the recorded computation, and the annealing
weight advances one tick per update. After every epoch the model is scored
by alignment error rate on the validation set and the best checkpoint is kept.
"""

from __future__ import annotations

import base64
import json
import math
import mmap
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import alignment, autodiff as ad, model as model_mod
from .autodiff import ParameterStore, Tape
from .corpus import (
    NULL_TOKEN,
    UNK_TOKEN,
    Vocabulary,
    build_css_support,
    derive_seed,
    make_batches,
    write_text,
)
from .errors import CheckpointError, ContractError, DataError, DomainError, TrainingError
from .model import ModelConfig

ANNEAL_STEP = 1e-3
ANNEAL_INTERVAL = 500
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_ADAM_BLOCK_ROWS = 1024  # rows per Adam pass: a 20k x 100 table in 20 blocks of 800 KB

CHECKPOINT_FORMAT = "alignvae-checkpoint"
CHECKPOINT_VERSION = 2
# float64 values per base64 piece on save: whole 3-byte groups, so the pieces
# join to the text of the whole array, and 768 KB, so no parameter-sized copy
_B64_PIECE_VALUES = 3 * 2**15


def anneal_alpha(update_count: int) -> float:
    """KL weight: +1e-3 every 500 updates, capped at 1."""
    if update_count < 0:
        raise ContractError(f"update_count must be >= 0, got {update_count}")
    return min(1.0, ANNEAL_STEP * (update_count // ANNEAL_INTERVAL))


@dataclass
class AdamState:
    lr: float = 1e-3
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ContractError(f"learning rate lr must be finite and > 0, got {self.lr!r}")


def adam_step(params: ParameterStore, grads: dict, state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter store.

    A gradient is a dense array of its parameter's shape, or a
    :class:`~alignvae.autodiff.RowGrad` with strictly increasing ids in
    ``[0, rows)`` and values of shape ``[len(ids), *shape[1:]]`` (what
    ``Tape.backward(..., row_grads=True)`` returns), which stands for the
    dense table with those rows and zeros elsewhere; a gradient of any
    other shape or a ``RowGrad`` with any other ids raises
    ``ContractError`` naming the parameter. Every gradient is checked
    first (a ``RowGrad`` by its values), so a refused gradient, or a
    non-finite one (which raises ``TrainingError``), leaves the
    parameters and the state untouched.
    Then each parameter is updated in place by one rule for both forms:
    ``m`` and ``v`` decay by b1 and b2 over every row, ``(1-b1)*g`` and
    ``(1-b2)*(g*g)`` are added into the gradient's own rows (every row of
    a dense one), and ``w = w - lr * m_hat / (sqrt(v_hat) + eps)`` steps
    every row, one expression per block of ``_ADAM_BLOCK_ROWS`` leading
    rows; b1, b2 and eps are the ``ADAM_*`` constants.
    So the two forms give the same bytes, except that where the dense
    update adds ``+0.0`` to an ``m`` of ``-0.0``, an untouched row keeps
    ``-0.0`` (and a ``w`` of ``-0.0`` then steps to ``+0.0``). Each
    parameter keeps its array object, so a caller that needs the values
    from before the step must take them with ``params.copy_values()``.
    An overflow of float64 raises ``TrainingError`` naming the parameter;
    the parameters before it keep their new values. One in a gradient's
    square leaves that parameter's values untouched (its moments may
    have moved); one in the step (a learning rate near its limit) leaves
    the blocks before it stepped.
    """
    updates = []  # (rows, values) per parameter: a RowGrad's ids, or every row
    for name, tensor in params.items():
        g, shape = grads[name], np.shape(tensor.data)
        if type(g) is ad.RowGrad:
            ids, n_rows = g.ids, len(np.atleast_1d(tensor.data))
            if ids.size and (ids[0] < 0 or ids[-1] >= n_rows or np.any(ids[1:] <= ids[:-1])):
                raise ContractError(f"row gradient for parameter {name!r} needs strictly "
                                    f"increasing ids in [0, {n_rows})")
            rows, g, shape = ids, g.values, (len(ids), *shape[1:])
        else:
            rows, g = slice(None), np.asarray(g)  # a Python float as its 0-d array
        if np.shape(g) != shape:
            raise ContractError(f"gradient for parameter {name!r} has shape {np.shape(g)}, "
                                f"needs {shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        updates.append((rows, g))
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for (name, tensor), (rows, g) in zip(params.items(), updates):
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        # views: a 0-d array becomes one row, and each update writes through
        w, m, v = np.atleast_1d(tensor.data, state.m[name], state.v[name])
        try:  # the inputs are finite, so only an overflow can make inf or NaN
            with np.errstate(over="raise", invalid="raise"):
                m *= ADAM_BETA1
                v *= ADAM_BETA2
                m[rows] += g * (1.0 - ADAM_BETA1)
                v[rows] += (g * g) * (1.0 - ADAM_BETA2)
                for lo in range(0, len(w), _ADAM_BLOCK_ROWS):
                    b = slice(lo, lo + _ADAM_BLOCK_ROWS)  # the last block may be shorter
                    w[b] -= m[b] / c1 * state.lr / (np.sqrt(v[b] / c2) + ADAM_EPS)
        except FloatingPointError:
            raise TrainingError(f"Adam update of parameter {name!r} overflowed: training diverged") from None
    return state


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 100
    lr: float = 1e-3
    n_neg: int = 1000
    seed: int = 1
    css: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < math.inf:  # as AdamState, but before training logs anything
            raise ContractError(f"learning rate lr must be finite and > 0, got {self.lr!r}")
        if self.n_neg < 0:
            raise ContractError(f"n_neg must be >= 0, got {self.n_neg}")


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
    preds = dict(enumerate(alignment.align_pairs(val_pairs, params, cfg), start=1))
    score, _ = alignment.corpus_aer(preds, val_gold)
    return score


def ascent_step(objective, params: ParameterStore, adam: AdamState) -> float:
    """One Adam step up the scalar ``objective()``, recorded on its own tape;
    returns its value. Overflow in the pass raises no warning: a non-finite
    loss, or a posterior scale that a diverging run drove to 0 (every scale
    is a softplus output, so the objective's ``DomainError`` means that),
    raises ``TrainingError`` first."""
    with np.errstate(all="ignore"):
        with Tape() as tape:
            try:
                value = objective()
            except DomainError:
                raise TrainingError("posterior scale underflowed to 0: training diverged") from None
            loss = ad.neg(value)
        if not np.isfinite(loss.data):
            raise TrainingError(f"non-finite batch loss: {float(loss.data)}")
        grads = tape.backward(loss, params=params, row_grads=True)
    adam_step(params, grads, adam)
    return float(value.data)


def fit(pairs, params: ParameterStore, train_cfg: TrainConfig, label: str, step,
        on_epoch=None) -> int:
    """The one training loop. Epoch e shuffles ``pairs`` into batches by the
    sub-seed ``{label}shuffle:{e}``; update n calls ``step(batch, n, adam)``,
    which returns a float, and after each epoch ``on_epoch(epoch, total, n)``
    gets the epoch's sum of step values and the updates so far. Returns n.
    An empty ``pairs`` raises ``ContractError``: there is nothing to fit."""
    if not pairs:
        raise ContractError("training needs at least one sentence pair, got none")
    adam = AdamState(lr=train_cfg.lr)
    n = 0
    for epoch in range(train_cfg.epochs):
        total = 0.0
        for batch in make_batches(pairs, train_cfg.batch_size,
                                  derive_seed(train_cfg.seed, f"{label}shuffle:{epoch}")):
            total += step(batch, n, adam)
            n += 1
        if on_epoch is not None:
            on_epoch(epoch, total, n)
    return n


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
    returned. ``log_fn``, when given, receives each epoch's metrics line.
    """
    seed = train_cfg.seed
    params = model_mod.build_params(model_cfg, len(vocab1), len(vocab2), seed)
    has_gold = bool(val_pairs) and bool(val_gold) and any(
        g.sure or g.possible for g in val_gold.values()
    )

    best: Checkpoint | None = None
    lines = []

    def step(batch, n, adam):
        return _batch_update(batch, params, model_cfg, train_cfg, vocab1, vocab2,
                             anneal_alpha(n), adam, derive_seed(seed, f"batch:{n}"))

    def on_epoch(epoch, elbo_total, update_count):
        nonlocal best
        val_aer = _validation_aer(val_pairs, val_gold, params, model_cfg) if has_gold else math.nan
        lines.append(f"{epoch}\t{elbo_total / len(train_pairs)!r}"
                     f"\t{anneal_alpha(update_count)!r}\t{val_aer!r}")
        if log_fn is not None:
            log_fn(lines[-1])
        if has_gold and (best is None or val_aer < best.best_val_aer):
            best = _snapshot(params, model_cfg, vocab1, vocab2, update_count, val_aer, epoch)

    update_count = fit(train_pairs, params, train_cfg, "", step, on_epoch)
    if best is None:
        # no epochs ran or no usable validation gold
        best = _snapshot(params, model_cfg, vocab1, vocab2, update_count, None,
                         train_cfg.epochs - 1 if train_cfg.epochs else None)
    if log_path is not None:
        write_text(log_path, ["\n".join(lines) + ("\n" if lines else "")])
    return best


def _batch_update(batch: list, params, model_cfg, train_cfg, vocab1, vocab2,
                  alpha, adam, batch_seed) -> float:
    """Forward/backward/Adam for one batch of pairs; returns the summed ELBO value."""
    css_pair = tuple(
        build_css_support(batch, vocab, side, train_cfg.n_neg,
                          derive_seed(batch_seed, f"css:{side}")) if train_cfg.css else None
        for vocab, side in ((vocab1, "l1"), (vocab2, "l2"))
    )
    noise = np.random.default_rng(derive_seed(batch_seed, "noise"))
    # per pair, in batch order: eps_z, then eps_s for the sentence latent
    eps_z, eps_s = [], []
    for pair in batch:
        eps_z.append(noise.standard_normal((pair.m, model_cfg.d)))
        if model_cfg.hierarchical:
            eps_s.append(noise.standard_normal(model_cfg.d_s))
    return ascent_step(lambda: model_mod.batch_elbo(
        batch, params, model_cfg, alpha, np.concatenate(eps_z),
        np.stack(eps_s) if eps_s else None, css_pair,
    ), params, adam)


# ---------------------------------------------------------------------------
# checkpoint document


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Single structured text document; floats round-trip exactly.

    Each parameter is stored as its shape and, under ``"b64"``, the base64
    text of its C-order little-endian float64 bytes. The bytes are those
    of ``json.dump(doc)`` plus a newline, but the header and each
    parameter's shape are encoded on their own by the C encoder behind
    ``json.dumps`` (``json.dump`` runs the pure-Python one) and each
    payload is coded ``_B64_PIECE_VALUES`` values at a time, so neither the
    whole document nor a parameter's whole text is held at once. It is
    written through ``corpus.write_text``.
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
            shape = json.dumps({"shape": list(arr.shape)})
            yield (", " if k else "") + json.dumps(name) + ": " + shape[:-1] + ', "b64": "'
            # base64 text needs no JSON escaping, so it skips the encoder's scan
            flat = np.asarray(arr, dtype="<f8").ravel()
            for lo in range(0, flat.size, _B64_PIECE_VALUES):
                yield base64.b64encode(flat[lo:lo + _B64_PIECE_VALUES].tobytes()).decode("ascii")
            yield '"}'
        yield "}}\n"

    write_text(path, pieces())


def _decode_param(name, entry, version: int) -> np.ndarray:
    """One stored parameter as a new float64 array.

    A version-1 entry is ``{"shape", "data"}`` with ``data`` a flat list of
    JSON numbers; a version-2 entry is ``{"shape", "b64"}`` with exactly
    ``8 * prod(shape)`` base64-coded little-endian float64 bytes. Anything
    else, or a value that is not finite, raises ``CheckpointError`` naming
    the parameter.
    """
    key = "data" if version == 1 else "b64"
    try:
        if not isinstance(entry, dict) or entry.keys() != {"shape", key}:
            raise ValueError(f"expected an object with the keys 'shape' and {key!r}")
        shape, value = entry["shape"], entry[key]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError("shape is not a list of non-negative ints")
        size = math.prod(shape)
        if version == 1:
            # exact types, as for the config: JSON true and "1.5" are not numbers
            if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
                raise ValueError("data is not a flat list of numbers")
            if len(value) != size:
                raise ValueError(f"{len(value)} values for shape {shape}")
            arr = np.array(value, dtype=np.float64)
        else:
            if not isinstance(value, str):
                raise ValueError("b64 is not a string")
            n_bytes = 8 * size
            # b64decode also takes surplus padding, so the text must have the
            # length the writer gives these bytes; checked before allocating
            if len(value) != 4 * -(-n_bytes // 3):
                raise ValueError(f"{len(value)} base64 characters, shape {shape} "
                                 f"needs {4 * -(-n_bytes // 3)}")
            # decoded one save piece at a time into the array, so no
            # parameter-sized bytes are made; each piece must fill its span
            arr = np.empty(size, dtype="<f8")
            out, step = arr.view(np.uint8), 8 * _B64_PIECE_VALUES
            for lo in range(0, n_bytes, step):
                piece = base64.b64decode(value[lo // 3 * 4:(lo + step) // 3 * 4], validate=True)
                span = out[lo:lo + step]
                if len(piece) != len(span):
                    raise ValueError(f"base64 characters from {lo // 3 * 4} decode to "
                                     f"{len(piece)} bytes, not {len(span)}")
                span[:] = np.frombuffer(piece, dtype=np.uint8)
            arr = arr.astype(np.float64, copy=False)
    except (ValueError, OverflowError) as e:  # OverflowError: an int beyond float range
        raise CheckpointError(f"malformed parameter {name!r}: {e}") from e
    if not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint parameter {name!r} holds a non-finite value")
    return arr.reshape(shape)


def _read_document(path) -> str:
    """The UTF-8 text of ``path``, decoded from a memory map of the file where
    it allows one, so the file's bytes are not first copied into memory. JSON
    takes a carriage return as white space outside strings and refuses it
    inside them, so line ends need no translation."""
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # an empty file, a pipe or a device
            data = fh.read()
        try:
            return str(data, "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
        finally:
            if isinstance(data, mmap.mmap):
                data.close()


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint document written by ``save_checkpoint``, of this
    version or of version 1 (every parameter as a list of numbers)."""
    try:
        doc = json.loads(_read_document(path))
    except (json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"malformed checkpoint file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint file {path} does not hold a JSON object")
    for key in ("format", "version", "config", "vocab_l1", "vocab_l2", "params"):
        if key not in doc:
            raise CheckpointError(f"checkpoint missing field {key!r}")
    if doc["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not an alignvae checkpoint: format={doc['format']!r}")
    version = doc["version"]
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"checkpoint version {version!r} unsupported (expected 1 or {CHECKPOINT_VERSION})"
        )
    config = doc["config"]
    if not isinstance(config, dict):
        raise CheckpointError("checkpoint field 'config' is not a mapping")
    unknown = sorted(set(config) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise CheckpointError(f"unknown model config keys in checkpoint: {unknown}")
    for key, kind in get_type_hints(ModelConfig).items():
        if key not in config:
            raise CheckpointError(f"checkpoint config lacks field {key!r}")
        # exact types: JSON true is not an int, nor 4.0
        if type(config[key]) is not kind:
            raise CheckpointError(
                f"checkpoint config field {key!r} is not of type {kind.__name__}: "
                f"{config[key]!r}"
            )
    cfg = ModelConfig(**config)
    for key in ("vocab_l1", "vocab_l2"):
        vocab = doc[key]
        # ``Checkpoint.vocabularies`` must rebuild it exactly, so that every
        # token keeps the id its parameter rows were trained at
        if (not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab)
                or vocab[:2] != [NULL_TOKEN, UNK_TOKEN] or len(set(vocab)) != len(vocab)):
            raise CheckpointError(
                f"checkpoint field {key!r} is not a list of distinct strings "
                f"starting {NULL_TOKEN!r}, {UNK_TOKEN!r}"
            )
    if not isinstance(doc["params"], dict):
        raise CheckpointError("checkpoint field 'params' is not a mapping")
    # optional fields: exact JSON types as for the config, counts not negative
    for key, kinds, what in (("update_count", (int,), "an int >= 0"),
                             ("best_val_aer", (float, type(None)), "a float or null"),
                             ("best_epoch", (int, type(None)), "an int >= 0 or null")):
        value = doc.get(key)
        if key in doc and (type(value) not in kinds or (type(value) is int and value < 0)):
            raise CheckpointError(f"checkpoint field {key!r} is not {what}: {value!r}")
    # each entry is dropped once decoded, so its text is freed before the next
    entries = doc["params"]
    params = {name: _decode_param(name, entries.pop(name), version) for name in list(entries)}
    return Checkpoint(
        model_cfg=cfg,
        vocab_l1=doc["vocab_l1"],
        vocab_l2=doc["vocab_l2"],
        params=params,
        update_count=doc.get("update_count", 0),
        best_val_aer=doc.get("best_val_aer"),
        best_epoch=doc.get("best_epoch"),
    )
