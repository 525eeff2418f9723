"""Alignment baselines: classic IBM1 trained by EM, and its neural variant.

Both operate on the same NULL-padded id sequences as the joint model so AER
numbers are directly comparable. IBM1 reads a pair list from padded grids with
no loop over pairs, and builds their table-independent layout once per list.
The neural variant (NIBM) is a conditional model of the L2 side only: token
representations feed a single-hidden-layer tanh MLP whose output head can use
the same sampled-support normalizer as the main model.
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


def ibm1_layout(pairs, shape):
    """What IBM1's padded grids take from the list ``pairs`` alone, built once
    per list: ``(shape, chunks)`` with, per chunk of ``model.eval_chunks``, the
    mask ``real`` [B, m_max, n_max] of pair b's own [m, n] block, the real cells'
    flat indices into a table of ``shape`` in C order (pair, i, j), and m and n."""
    chunks = []
    for x, y in zip(model_mod.eval_chunks([p.x for p in pairs]),
                    model_mod.eval_chunks([p.y for p in pairs])):
        ids, masks = [], []
        for side in (x, y):
            masks.append(np.arange(side.lengths.max(initial=0)) < side.lengths[:, None])
            ids.append(np.zeros(masks[-1].shape, dtype=np.intp))
            ids[-1][masks[-1]] = side.ids
        real = masks[0][:, :, None] & masks[1][:, None, :]
        # x * V_y + y; each ravel checks one side's ids against the shape
        cells = (np.ravel_multi_index((ids[0], 0), shape)[:, :, None]
                 + np.ravel_multi_index((0, ids[1]), shape)[:, None, :])[real]
        chunks.append((real, cells, x.lengths, y.lengths))
    return tuple(shape), chunks


def _e_step(layout, t: np.ndarray):
    """The real cells' flat indices into ``t`` and responsibilities
    t(y_j | x_i) / colsum_j, in order (pair, i, j), and the log-likelihood:
    the bytes of a loop over the pairs' own [m, n] blocks."""
    if t.shape != layout[0]:  # the flat cell indices hold for that shape only
        raise ContractError(f"IBM1 table of shape {t.shape} for a layout of shape {layout[0]}")
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))]  # no pairs: no cells
    for real, cells, m, n in layout[1]:
        grid = np.zeros(real.shape)  # t(y_j | x_i) at [b, i, j] of pair b's block, else 0
        grid[real] = np.take(t, cells)
        colsum = (np.arange(grid.shape[2]) >= n[:, None]) * 1.0  # padding 1.0: no 0/0, no log 0
        for i in range(grid.shape[1]):  # a block's axis-0 sum adds row after row
            colsum += grid[:, i]
        for size in set(m[n == 1].tolist()):  # but numpy sums an [m, 1] block pairwise
            rows = (n == 1) & (m == size)
            colsum[rows, 0] = grid[rows, :size, 0].sum(axis=1)
        logs, loglik = np.log(colsum / m[:, None]), np.zeros(len(n))
        for size in set(n.tolist()):  # and 8 or more terms too: exactly n per pair
            loglik[n == size] = logs[n == size, :size].sum(axis=1)
        parts.append((cells, (grid / colsum[:, None])[real], loglik))
    cells, gamma, loglik = (np.concatenate(part) for part in zip(*parts))
    return cells, gamma, float(np.cumsum(np.append(0.0, loglik))[-1])  # pair after pair


def ibm1_em_step(layout, t: np.ndarray):
    """One EM sweep: ``(new_table, ibm1_log_likelihood(layout, t))``.

    E-step on the padded grids of an ``ibm1_layout``: per L2 position,
    responsibilities over all L1 positions (NULL included; the uniform
    prior cancels); their column sums give the log-likelihood of the input
    table. M-step: expected counts, one ``np.bincount`` in pair order,
    normalized per L1 row. Rows that collected no mass stay uniform.
    """
    cells, gamma, loglik = _e_step(layout, t)
    counts = np.bincount(cells, weights=gamma, minlength=t.size).reshape(t.shape)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=ibm1_uniform(*t.shape), where=totals > 0), loglik


def ibm1_log_likelihood(layout, t: np.ndarray) -> float:
    """Corpus log-likelihood sum_j log sum_i (1/m) t(y_j | x_i)."""
    return _e_step(layout, t)[2]


def ibm1_train(pairs, v_x: int, v_y: int, iterations: int = 10):
    """EM from the uniform table over one ``ibm1_layout``; returns (table, log-liks
    of the table after 0..iterations sweeps): one E-step per sweep, one final pass."""
    if iterations < 0:
        raise ContractError(f"IBM1 iterations (em_iters) must be >= 0, got {iterations}")
    t, layout = ibm1_uniform(v_x, v_y), ibm1_layout(pairs, (v_x, v_y))
    trace = []
    for _ in range(iterations):
        t, loglik = ibm1_em_step(layout, t)
        trace.append(loglik)
    return t, trace + [ibm1_log_likelihood(layout, t)]


def ibm1_align(pairs, t: np.ndarray) -> list[set]:
    """Links argmax_i t(y_j | x_i) of every pair in the list ``pairs``, each decoded
    by ``argmax_links`` from its own [m, n] block: its m * n consecutive cells."""
    return [argmax_links(block.reshape(a, b)) for _, cells, m, n in ibm1_layout(pairs, t.shape)[1]
            for block, a, b in zip(np.split(np.take(t, cells), np.cumsum(m * n)[:-1]),
                                   m.tolist(), n.tolist())]


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


def nibm_align(pairs, params: ParameterStore, cfg: NIBMConfig) -> list[set]:
    """Viterbi links of every pair in the list ``pairs`` under the exact NIBM
    head, through the joint model's decode loop (``alignment._decode_pairs``)
    with ``out_W``/``out_b``."""
    return _decode_pairs(pairs, lambda x: _nibm_repr(x, params, cfg).data,
                         params["out_W"], params["out_b"])


def train_nibm(pairs, vocab1: Vocabulary, vocab2: Vocabulary, cfg: NIBMConfig,
               epochs: int = 5, **train) -> ParameterStore:
    """Adam on the negative conditional log-likelihood through ``training.fit``,
    with no latent variable and no KL; sub-seeds ``nibm-shuffle:{epoch}``
    and ``nibm-css:{update}``. ``train`` holds any other ``TrainConfig``
    field, defaulting as there."""
    train_cfg = TrainConfig(epochs=epochs, **train)
    n_neg, seed = train_cfg.n_neg, train_cfg.seed
    params = build_nibm_params(cfg, len(vocab1), len(vocab2), seed)

    def step(batch, n, adam):
        support = (build_css_support(batch, vocab2, "l2", n_neg, derive_seed(seed, f"nibm-css:{n}"))
                   if train_cfg.css else None)
        return ascent_step(lambda: nibm_batch_log_likelihood(batch, params, cfg, support),
                           params, adam)

    fit(pairs, params, train_cfg, "nibm-", step)
    return params
