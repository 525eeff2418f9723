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
from .autodiff import ParameterStore, Tape, Tensor
from .corpus import CSSupport, SentencePair, Vocabulary, derive_seed, make_batches
from .errors import ContractError, DataError


# ---------------------------------------------------------------------------
# IBM Model 1


def ibm1_uniform(v_x: int, v_y: int) -> np.ndarray:
    """Uniform translation table t(y|x) = 1/v_y."""
    return np.full((v_x, v_y), 1.0 / v_y)


def ibm1_em_step(pairs, t: np.ndarray) -> np.ndarray:
    """One EM sweep over the corpus, returning a fresh normalized table.

    E-step: per pair and L2 position, responsibilities over all L1
    positions (NULL included; the uniform prior cancels). M-step:
    expected counts normalized per L1 row. Rows that collected no mass
    stay uniform.
    """
    v_x, v_y = t.shape
    counts = np.zeros_like(t)
    for pair in pairs:
        x = np.asarray(pair.x)
        y = np.asarray(pair.y)
        probs = t[np.ix_(x, y)]  # [m, n]
        denom = probs.sum(axis=0, keepdims=True)
        gamma = probs / denom
        np.add.at(counts, (x[:, None], y[None, :]), gamma)
    totals = counts.sum(axis=1, keepdims=True)
    out = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 1.0 / v_y)
    return out


def ibm1_log_likelihood(pairs, t: np.ndarray) -> float:
    """Corpus log-likelihood sum_j log sum_i (1/m) t(y_j | x_i)."""
    total = 0.0
    for pair in pairs:
        probs = t[np.ix_(np.asarray(pair.x), np.asarray(pair.y))]
        total += float(np.log(probs.mean(axis=0)).sum())
    return total


def ibm1_train(pairs, v_x: int, v_y: int, iterations: int = 10):
    """EM from the uniform table; returns (table, per-iteration log-liks)."""
    t = ibm1_uniform(v_x, v_y)
    trace = [ibm1_log_likelihood(pairs, t)]
    for _ in range(iterations):
        t = ibm1_em_step(pairs, t)
        trace.append(ibm1_log_likelihood(pairs, t))
    return t, trace


def ibm1_align(pair: SentencePair, t: np.ndarray) -> set:
    """argmax_i t(y_j | x_i); word ties to the lowest position, NULL only
    on a strict win (dropped from the link set)."""
    from .alignment import argmax_links

    scores = t[np.ix_(np.asarray(pair.x), np.asarray(pair.y))]
    return argmax_links(scores)


def save_ibm1_table(t: np.ndarray, vocab_x: Vocabulary, vocab_y: Vocabulary,
                    path, min_prob: float = 1e-6) -> None:
    """Text export: one ``x_token y_token prob`` line per entry >= min_prob."""
    with open(path, "w", encoding="utf-8") as fh:
        for xi in range(t.shape[0]):
            for yi in range(t.shape[1]):
                p = float(t[xi, yi])
                if p >= min_prob:
                    fh.write(f"{vocab_x.token(xi)} {vocab_y.token(yi)} {p!r}\n")


def load_ibm1_table(path) -> dict:
    """Read a table export into a {(x_token, y_token): prob} dict."""
    table: dict[tuple[str, str], float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'x y prob', got {line!r}")
            try:
                table[(parts[0], parts[1])] = float(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad probability {parts[2]!r}") from None
    return table


def ibm1_align_tokens(l1_tokens, l2_tokens, table: dict, null_token: str) -> set:
    """Align raw token sequences with a table dict (for the CLI path)."""
    from .alignment import argmax_links

    padded = [null_token, *l1_tokens]
    scores = np.array(
        [[table.get((x, y), 0.0) for y in l2_tokens] for x in padded]
    ).reshape(len(padded), len(l2_tokens))
    if not l2_tokens:
        return set()
    return argmax_links(scores)


def marginal_argmax_accuracy(pairs, log_prob_matrix_fn) -> float:
    """Token-level prediction accuracy of the L2 marginal.

    For each pair, ``log_prob_matrix_fn(pair)`` must return [m, v_y] log
    probabilities per L1 position; the prediction for every L2 slot is
    the class maximizing the position-marginal, scored against the
    observed token. This is the natural accuracy reading for models that
    marginalize alignments.
    """
    hit = n = 0
    for pair in pairs:
        logp = log_prob_matrix_fn(pair)  # [m, v_y]
        hi = logp.max(axis=0)
        marginal = hi + np.log(np.exp(logp - hi).sum(axis=0))
        pred = int(np.argmax(marginal))
        for y in pair.y:
            hit += int(pred == y)
            n += 1
    return hit / n if n else 0.0


# ---------------------------------------------------------------------------
# neural IBM1


@dataclass
class NIBMConfig:
    encoder: str = "bow"  # "bow" | "birnn"
    d_x: int = 128

    def validate(self):
        if self.encoder not in ("bow", "birnn"):
            raise ContractError(f"unknown encoder {self.encoder!r}")


def build_nibm_params(cfg: NIBMConfig, v_x: int, v_y: int, seed: int) -> ParameterStore:
    cfg.validate()
    shapes = {"E": (v_x, cfg.d_x)}
    if cfg.encoder == "birnn":
        shapes.update(model_mod.lstm_param_shapes(cfg.d_x))
    shapes.update({"mlp_W": (cfg.d_x, cfg.d_x), "mlp_b": (cfg.d_x,),
                   "out_W": (v_y, cfg.d_x), "out_b": (v_y,)})
    return model_mod.init_params(shapes, seed)


def _nibm_repr(x_ids, params: ParameterStore, cfg: NIBMConfig) -> Tensor:
    """Per-token representations [T, d_x]: MLP over embeddings or states."""
    base = model_mod.encode(x_ids, params, cfg)
    return ad.tanh(ad.matmul(base, ad.transpose(params["mlp_W"]), bias=params["mlp_b"]))


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


def nibm_log_likelihood(pair: SentencePair, params: ParameterStore,
                        cfg: NIBMConfig, css: CSSupport | None = None) -> Tensor:
    """sum_j [logsumexp_i log P(y_j | repr(x_i)) - log m], a scalar tensor."""
    return nibm_batch_log_likelihood([pair], params, cfg, css)


def nibm_align(pair: SentencePair, params: ParameterStore, cfg: NIBMConfig) -> set:
    """Viterbi links under the exact NIBM head."""
    from .alignment import argmax_links

    reps = _nibm_repr(pair.x, params, cfg)
    logits = reps.data @ params["out_W"].data.T + params["out_b"].data
    hi = logits.max(axis=1, keepdims=True)
    log_probs = logits - (hi + np.log(np.exp(logits - hi).sum(axis=1, keepdims=True)))
    return argmax_links(log_probs[:, np.asarray(pair.y, dtype=np.intp)])


def train_nibm(pairs, vocab1: Vocabulary, vocab2: Vocabulary, cfg: NIBMConfig,
               epochs: int = 5, batch_size: int = 100, lr: float = 1e-3,
               n_neg: int = 1000, seed: int = 1, css: bool = True) -> ParameterStore:
    """Adam on the negative conditional log-likelihood, mirroring the
    main training loop but with no latent variable and no KL."""
    from .corpus import build_css_support
    from .training import AdamState, adam_step

    params = build_nibm_params(cfg, len(vocab1), len(vocab2), seed)
    adam = AdamState(lr=lr)
    update = 0
    for epoch in range(epochs):
        for batch in make_batches(pairs, batch_size, derive_seed(seed, f"nibm-shuffle:{epoch}")):
            support = (
                build_css_support(batch, vocab2, "l2", n_neg,
                                  derive_seed(seed, f"nibm-css:{update}"))
                if css
                else None
            )
            with Tape() as tape:
                loss = ad.neg(nibm_batch_log_likelihood(batch, params, cfg, support))
            grads = tape.backward(loss, params=params)
            adam_step(params, grads, adam)
            update += 1
    return params
