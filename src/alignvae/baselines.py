"""Alignment baselines: classic IBM1 trained by EM, and its neural variant.

Both operate on the same NULL-padded id sequences as the joint model so
AER numbers are directly comparable. The neural variant (NIBM) is a
conditional model of the L2 side only: token representations feed a
single-hidden-layer tanh MLP whose output head can use the same
sampled-support normalizer as the main model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .alignment import _decode_pairs, argmax_links
from .autodiff import ParameterStore, Tensor
from .corpus import (
    CSSupport,
    SentencePair,
    Vocabulary,
    build_css_support,
    derive_seed,
    read_text,
    write_text,
)
from .errors import ContractError, DataError
from .training import TrainConfig, ascent_step, fit


# ---------------------------------------------------------------------------
# IBM Model 1


def ibm1_uniform(v_x: int, v_y: int) -> np.ndarray:
    """Uniform translation table t(y|x) = 1/v_y."""
    return np.full((v_x, v_y), 1.0 / v_y)


def _pair_scores(pair: SentencePair, t: np.ndarray):
    """The pair's ``np.ix_`` index into ``t`` and t(y_j | x_i) there, [m, n]."""
    idx = np.ix_(np.asarray(pair.x, dtype=np.intp), np.asarray(pair.y, dtype=np.intp))
    return idx, t[idx]


def _e_step(pairs, t: np.ndarray):
    """Per pair: its index, t(y_j | x_i) / colsum_j and sum_j log(colsum_j / m)."""
    for pair in pairs:
        idx, probs = _pair_scores(pair, t)
        colsum = probs.sum(axis=0)
        yield idx, probs / colsum, float(np.log(colsum / len(probs)).sum())


def ibm1_em_step(pairs, t: np.ndarray):
    """One EM sweep: ``(new_table, ibm1_log_likelihood(pairs, t))``.

    E-step: per pair and L2 position, responsibilities over all L1
    positions (NULL included; the uniform prior cancels); their column
    sums give the log-likelihood of the input table. M-step: expected
    counts normalized per L1 row. Rows that collected no mass stay
    uniform.
    """
    counts = np.zeros_like(t)
    loglik = 0.0
    for idx, gamma, pair_loglik in _e_step(pairs, t):
        np.add.at(counts, idx, gamma)
        loglik += pair_loglik
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=ibm1_uniform(*t.shape), where=totals > 0), loglik


def ibm1_log_likelihood(pairs, t: np.ndarray) -> float:
    """Corpus log-likelihood sum_j log sum_i (1/m) t(y_j | x_i)."""
    total = 0.0
    for *_, pair_loglik in _e_step(pairs, t):
        total += pair_loglik
    return total


def ibm1_train(pairs, v_x: int, v_y: int, iterations: int = 10):
    """EM from the uniform table; returns (table, log-liks of the table
    after 0..iterations sweeps): one E-step pass per sweep, one final pass."""
    if iterations < 0:
        raise ContractError(f"IBM1 iterations (em_iters) must be >= 0, got {iterations}")
    t = ibm1_uniform(v_x, v_y)
    trace = []
    for _ in range(iterations):
        t, loglik = ibm1_em_step(pairs, t)
        trace.append(loglik)
    return t, trace + [ibm1_log_likelihood(pairs, t)]


def ibm1_align(pair: SentencePair, t: np.ndarray) -> set:
    """Links argmax_i t(y_j | x_i), decoded by ``argmax_links``."""
    return argmax_links(_pair_scores(pair, t)[1])


def save_ibm1_table(t: np.ndarray, vocab_x: Vocabulary, vocab_y: Vocabulary,
                    path, min_prob: float = 1e-6) -> None:
    """Text export: one ``x_token y_token prob`` line per entry >= min_prob,
    in row-major order, written through ``corpus.write_text``."""
    xs, ys = np.nonzero(t >= min_prob)
    write_text(path, (
        f"{vocab_x.token(xi)} {vocab_y.token(yi)} {p!r}\n"
        for xi, yi, p in zip(xs.tolist(), ys.tolist(), t[xs, ys].tolist())
    ))


def load_ibm1_table(path):
    """Read a table export into ``(t, rows, cols)``: a dense array and maps
    from L1 token to row and from L2 token to column of ``t``.

    Row 0 and column 0 are all zero and stand for every token the file
    does not list, so such a token scores 0 against everything.
    Probabilities must be finite and non-negative, and no ``x y`` entry
    may appear twice.
    """
    rows: dict[str, int] = {}
    cols: dict[str, int] = {}
    entries: dict[tuple[int, int], tuple[float, int]] = {}  # (x, y) -> (prob, line)
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'x y prob', got {line!r}")
        try:
            p = float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad probability {parts[2]!r}") from None
        if not 0.0 <= p < np.inf:
            raise DataError(
                f"{path}:{lineno}: probability {parts[2]!r} is not finite and non-negative"
            )
        xi = rows.setdefault(parts[0], len(rows) + 1)
        yi = cols.setdefault(parts[1], len(cols) + 1)
        if (xi, yi) in entries:
            raise DataError(f"{path}:{lineno}: entry '{parts[0]} {parts[1]}' "
                            f"already given on line {entries[xi, yi][1]}")
        entries[xi, yi] = p, lineno
    t = np.zeros((len(rows) + 1, len(cols) + 1))
    if entries:
        t[tuple(zip(*entries))] = [p for p, _ in entries.values()]
    return t, rows, cols


# ---------------------------------------------------------------------------
# neural IBM1


@dataclass
class NIBMConfig:
    encoder: str = "bow"  # "bow" | "birnn"
    d_x: int = 128


def build_nibm_params(cfg: NIBMConfig, v_x: int, v_y: int, seed: int) -> ParameterStore:
    shapes = model_mod.encoder_param_shapes(cfg.encoder, v_x, cfg.d_x)
    shapes.update({"mlp_W": (cfg.d_x, cfg.d_x), "mlp_b": (cfg.d_x,),
                   "out_W": (v_y, cfg.d_x), "out_b": (v_y,)})
    return model_mod.init_params(shapes, seed)


def _nibm_repr(x: model_mod.Ragged, params: ParameterStore, cfg: NIBMConfig) -> Tensor:
    """Per-token representations [T, d_x] of a Ragged batch: MLP over
    embeddings or states."""
    base = model_mod.encode(ad.rows(params["E"], x.ids), x, params, cfg)
    return ad.tanh(ad.linear(base, params["mlp_W"], params["mlp_b"]))


def nibm_batch_log_likelihood(pairs, params: ParameterStore, cfg: NIBMConfig,
                              css: CSSupport | None = None) -> Tensor:
    """Summed over the pairs' L2 tokens: logsumexp_i log P(y_j | repr(x_i)) - log m,
    as one graph over the flat token layout of ``model.Ragged``."""
    x = model_mod.Ragged([p.x for p in pairs])
    y = model_mod.Ragged([p.y for p in pairs])
    reps = _nibm_repr(x, params, cfg)
    return ad.total(
        model_mod._l2_log_marginals(reps, x, y, params["out_W"], params["out_b"], css)
    )


def nibm_align(pair: SentencePair, params: ParameterStore, cfg: NIBMConfig) -> set:
    """Viterbi links under the exact NIBM head, through the joint model's
    decode loop (``alignment._decode_pairs``) with ``out_W``/``out_b``."""
    return _decode_pairs([pair], lambda x: _nibm_repr(x, params, cfg).data,
                         params["out_W"], params["out_b"])[0]


def train_nibm(pairs, vocab1: Vocabulary, vocab2: Vocabulary, cfg: NIBMConfig,
               epochs: int = 5, batch_size: int = 100, lr: float = 1e-3,
               n_neg: int = 1000, seed: int = 1, css: bool = True) -> ParameterStore:
    """Adam on the negative conditional log-likelihood through ``training.fit``,
    with no latent variable and no KL; sub-seeds ``nibm-shuffle:{epoch}``
    and ``nibm-css:{update}``."""
    train_cfg = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr, n_neg=n_neg,
                            seed=seed, css=css)
    params = build_nibm_params(cfg, len(vocab1), len(vocab2), seed)

    def step(batch, n, adam):
        support = (build_css_support(batch, vocab2, "l2", n_neg, derive_seed(seed, f"nibm-css:{n}"))
                   if css else None)
        return ascent_step(lambda: nibm_batch_log_likelihood(batch, params, cfg, support),
                           params, adam)

    fit(pairs, params, train_cfg, "nibm-", step)
    return params
