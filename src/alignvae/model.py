"""Joint generative model of a sentence pair and its inference networks.

Generative side: every L1 token is emitted from its own latent embedding
through an affine + softmax head; every L2 token is emitted from the
latent at a uniformly chosen L1 position (position 0 is NULL), so its
likelihood marginalizes the alignment. Inference side: a BoW or BiRNN
encoder feeds two affine heads producing per-token diagonal-Gaussian
posteriors (softplus keeps scales positive); one function,
``infer_posterior``, holds them for both models, the hierarchical one
adding its sentence blocks before the softplus; the sentence posterior
and the prior mean it conditions live here too. Training can swap the exact
softmax normalizers for the sampled-support estimate carried by a
CSSupport; evaluation always uses the full support.

Batch layout: ``batch_elbo`` builds one graph for a whole batch. The L1
tokens of all B pairs are concatenated into one flat [T] id array
(``Ragged``: T = sum of the m_b, with a sentence id per token), and so
are the L2 tokens ([N]). Every per-token tensor (encodings, posteriors,
noise, latents, L1 logits) is [T, ...] in that order. The BiLSTM steps
both directions over time for all B sentences at once, each sentence
left-aligned (the backward one reversed within the sentence), and
gathers the states back into flat order. The L2 marginal gathers
log P(y_j | z_i) into an [N, m_max] grid with -inf past each L1
sentence's end and takes a row-wise log-sum-exp. With a CSS support the
heads are [T, |C| + |N|]; without one (``css = false``) a batch
materialises [T, V] logits for each head. ``elbo`` and
``hiermodel.elbo_s`` are batches of one.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import CSSupport, SentencePair, derive_seed
from .errors import ContractError, NumericalError, ShapeError

_LSTM_GATES = "ifoc"
_LSTM_DIRS = ("fwd", "bwd")


@dataclass
class ModelConfig:
    encoder: str = "bow"  # "bow" | "birnn"
    d: int = 100  # latent embedding width
    d_x: int = 128  # deterministic embedding width
    hierarchical: bool = False
    d_s: int = 16  # sentence latent width


def encoder_param_shapes(encoder: str, v_x: int, d_x: int) -> dict[str, tuple[int, ...]]:
    """Shapes of an encoder's parameters in store order: the embedding table
    ``E``, then for ``"birnn"`` both LSTM directions' gate weights and biases."""
    if encoder not in ("bow", "birnn"):
        raise ContractError(f"unknown encoder {encoder!r}")
    if d_x < 1:
        raise ContractError(f"d_x must be >= 1, got {d_x}")
    shapes = {"E": (v_x, d_x)}
    if encoder == "birnn":
        for direction in _LSTM_DIRS:
            for gate in _LSTM_GATES:
                shapes[f"lstm_{direction}_W{gate}"] = (d_x, d_x)
                shapes[f"lstm_{direction}_U{gate}"] = (d_x, d_x)
                shapes[f"lstm_{direction}_b{gate}"] = (d_x,)
    return shapes


def param_shapes(cfg: ModelConfig, v_x: int, v_y: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a model, in store order."""
    d, d_x, d_s = cfg.d, cfg.d_x, cfg.d_s
    shapes = encoder_param_shapes(cfg.encoder, v_x, d_x)
    if min(d, d_s) < 1:
        raise ContractError(f"d and d_s must be >= 1, got d={d}, d_s={d_s}")
    shapes.update({
        "M1": (d, d_x), "d1": (d,), "M2": (d, d_x), "d2": (d,),
        "W1": (v_x, d), "b1": (v_x,), "W2": (v_y, d), "b2": (v_y,),
    })
    if cfg.hierarchical:
        shapes.update({
            "sent_Mu": (d_s, d_x), "sent_bu": (d_s,), "sent_Ms": (d_s, d_x), "sent_bs": (d_s,),
            "prior_V1": (d_s, d_s), "prior_c1": (d_s,), "prior_V2": (d, d_s), "prior_c2": (d,),
            "N1": (d, d_s), "N2": (d, d_s), "G1": (v_x, d_s),
        })
    return shapes


def glorot_init(shape, seed: int) -> np.ndarray:
    """Uniform draw on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) != 2:
        raise ContractError(f"glorot_init expects a 2-d shape, got {shape}")
    fan_out, fan_in = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    return rng.uniform(-limit, limit, size=shape)


def host_memory_bytes() -> int | None:
    """The host's physical memory in bytes, or None where the platform does
    not report it. A cgroup or container limit below it is not seen."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no os.sysconf, or no such name
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def init_params(shapes: dict[str, tuple[int, ...]], seed: int) -> ParameterStore:
    """A store holding every named shape: matrices get Glorot draws seeded
    per parameter name, vectors start at zero. Before anything is allocated,
    a shape with more float64 values than numpy can index in one array
    raises ``ContractError``, and so does a model whose training state, 32
    bytes per value (the value, its gradient, Adam's m and v), exceeds
    ``host_memory_bytes()``."""
    for name, shape in shapes.items():
        if math.prod(shape) > np.iinfo(np.intp).max // 8:
            raise ContractError(f"parameter {name} of shape {shape} is too large "
                                "for one float64 array")
    need, have = 32 * sum(math.prod(shape) for shape in shapes.values()), host_memory_bytes()
    if have is not None and need > have:
        raise ContractError(f"training this model needs {need:,} bytes (32 per parameter "
                            f"value), more than the host's {have:,} bytes of memory")
    store = ParameterStore()
    for name, shape in shapes.items():
        if len(shape) == 2:
            store.add(name, glorot_init(shape, derive_seed(seed, f"init:{name}")))
        else:
            store.add(name, np.zeros(shape))
    return store


def build_params(cfg: ModelConfig, v_x: int, v_y: int, seed: int) -> ParameterStore:
    """Allocate and initialize every parameter for a model config."""
    return init_params(param_shapes(cfg, v_x, v_y), seed)


# ---------------------------------------------------------------------------
# batch layout


class Ragged:
    """Id sequences of B sentences laid end to end.

    Sentence b occupies ``ids[starts[b]:starts[b] + lengths[b]]`` and
    ``seg[t]`` is the sentence of token t. Every per-token tensor of a
    batch ([T, ...]) uses this flat order.
    """

    __slots__ = ("ids", "lengths", "starts", "seg")

    def __init__(self, seqs):
        # plain-int bookkeeping: evaluation builds one for every single sentence
        lengths = [len(s) for s in seqs]
        self.lengths = np.array(lengths, dtype=np.intp)
        self.ids = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.intp,
                               count=sum(lengths))
        self.starts = np.array([0, *itertools.accumulate(lengths)][:-1], dtype=np.intp)
        self.seg = np.repeat(np.arange(len(lengths)), self.lengths)

    @property
    def size(self) -> int:
        return len(self.lengths)

    def positions(self) -> np.ndarray:
        """Position of every token within its own sentence, [T]."""
        return np.arange(len(self.ids)) - self.starts[self.seg]

    def steps(self, reverse: bool) -> np.ndarray:
        """[m_max, B] flat index of the token sentence b feeds at step t of a
        scan over all sentences at once: position t, or position m_b - 1 - t
        when ``reverse``. A sentence that has ended repeats its last
        token; those steps come after all of its real ones."""
        t = np.minimum(np.arange(self.lengths.max())[:, None], self.lengths - 1)
        return self.starts + (self.lengths - 1 - t if reverse else t)


# ---------------------------------------------------------------------------
# encoders


def _lstm_states(inputs: Tensor, steps: np.ndarray, params, direction: str) -> list[Tensor]:
    """Hidden states of one LSTM direction, scanned over all sentences at once.

    ``inputs`` [T, d_x] are the token inputs in flat order and ``steps``
    [m_max, B] the token each sentence feeds at each step (see
    ``Ragged.steps``). Returns the m_max step states, each [B, d_x].
    Standard gated cell: sigmoid input/forget/output gates, tanh
    candidate, zero initial states, no peepholes, forget bias 0.
    """

    def p(tag):
        return params[f"lstm_{direction}_{tag}"]

    # input projections of every token at once; the recurrent part per step
    proj = {g: ad.linear(inputs, p(f"W{g}"), p(f"b{g}")) for g in _LSTM_GATES}

    def pre(g, idx, h):
        x_g = ad.rows(proj[g], idx)
        return x_g if h is None else ad.linear(h, p(f"U{g}"), x_g)

    h = c = None  # zero initial states: the first step skips U h and f * c
    states = []
    for idx in steps:
        gate_i = ad.sigmoid(pre("i", idx, h))
        gate_o = ad.sigmoid(pre("o", idx, h))
        new = ad.mul(gate_i, ad.tanh(pre("c", idx, h)))
        c = new if c is None else ad.add(ad.mul(ad.sigmoid(pre("f", idx, h)), c), new)
        h = ad.mul(gate_o, ad.tanh(c))
        states.append(h)
    return states


def encode_birnn(emb: Tensor, x: Ragged, params: ParameterStore) -> Tensor:
    """Per-position sum of forward and backward LSTM states over ``emb`` [T, d_x].

    Both directions run on left-aligned sentences, the backward one
    reversed within each sentence, so padding steps only ever follow a
    sentence's real steps and need no mask; one step-major table of both
    directions' states [2 * m_max * B, d_x] is gathered twice into flat order.
    """
    if x.lengths.min() < 1:
        raise ShapeError("encode_birnn: empty sentence")
    m_max, pos = x.lengths.max(), x.positions()
    states = (_lstm_states(emb, x.steps(reverse=False), params, "fwd")
              + _lstm_states(emb, x.steps(reverse=True), params, "bwd"))
    table = ad.reshape(ad.stack(states), (2 * m_max * x.size, -1))
    bwd_step = m_max + x.lengths[x.seg] - 1 - pos  # the backward steps follow the forward ones
    return ad.add(ad.rows(table, pos * x.size + x.seg), ad.rows(table, bwd_step * x.size + x.seg))


def encode(emb: Tensor, x: Ragged, params: ParameterStore, cfg: ModelConfig) -> Tensor:
    """Token encodings [T, d_x] from the token embeddings ``emb`` (the rows of
    E at ``x.ids``): bow returns them as they are, birnn runs ``encode_birnn``."""
    return encode_birnn(emb, x, params) if cfg.encoder == "birnn" else emb


# ---------------------------------------------------------------------------
# posterior and sampling


def infer_sentence_posterior(emb: Tensor, x: Ragged, params: ParameterStore):
    """Diagonal-Gaussian parameters of the sentence latent given x.

    Each sentence is summarized by the mean of its token embeddings ``emb``
    [T, d_x], the rows the encoder reads (so the result is order-invariant),
    taken as one ``segment_mean``, then mapped by two affine heads.
    Returns [B, d_s] locations and [B, d_s] scales for the Ragged batch.
    """
    pooled = ad.segment_mean(emb, x.lengths)
    u_k = ad.linear(pooled, params["sent_Mu"], params["sent_bu"])
    s_k = ad.softplus(ad.linear(pooled, params["sent_Ms"], params["sent_bs"]))
    return u_k, s_k


def prior_mean(s: Tensor, params: ParameterStore) -> Tensor:
    """Conditional prior mean for token embeddings: one tanh hidden layer.
    ``s`` [T, d_s] holds the sentence draw of each token, one row per row."""
    hidden = ad.tanh(ad.linear(s, params["prior_V1"], params["prior_c1"]))
    return ad.linear(hidden, params["prior_V2"], params["prior_c2"])


def infer_posterior(h: Tensor, params: ParameterStore, s_tok: Tensor | None = None):
    """Location and scale heads over the shared encoding h [T, d_x]: [T, d] each.

    With the sentence draw of each token ``s_tok`` [T, d_s] (hierarchical
    model), the affine map over [s ; h_t] adds the blocks ``N1``/``N2``
    before the softplus, each a ``linear`` of ``s_tok`` whose bias is the
    base head, so zeroed blocks give the unconditioned posterior exactly.
    """
    u = ad.linear(h, params["M1"], params["d1"])
    s_pre = ad.linear(h, params["M2"], params["d2"])
    if s_tok is not None:
        u = ad.linear(s_tok, params["N1"], u)
        s_pre = ad.linear(s_tok, params["N2"], s_pre)
    return u, ad.softplus(s_pre)


def reparam_sample(u: Tensor, s: Tensor, eps: np.ndarray) -> Tensor:
    """z = u + s * eps with externally supplied unit-normal noise of u's shape."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != u.data.shape:
        raise ShapeError(f"reparam_sample: noise shape {eps.shape} != {u.data.shape}")
    return ad.add(u, ad.mul(s, ad.constant(eps)))


# ---------------------------------------------------------------------------
# categorical heads, exact and sampled-support


def _head_logits(z: Tensor, weights: Tensor, bias: Tensor, css: CSSupport | None,
                 s_block=None, s: Tensor | None = None) -> Tensor:
    """Unnormalized class scores [m, support] for latents z [m, d].

    With a CSSupport, scores cover only C followed by N (in support order);
    otherwise the full vocabulary. The sentence draw ``s`` [m, d_s], one row
    per row of z, adds ``s @ s_block.T`` as one ``linear`` biased by the logits.
    """
    if css is not None:
        weights, bias = ad.rows(weights, css.support_ids), ad.rows(bias, css.support_ids)
        if s is not None:
            s_block = ad.rows(s_block, css.support_ids)
    logits = ad.linear(z, weights, bias)
    return logits if s is None else ad.linear(s, s_block, logits)


def css_log_normalizer(z, css: CSSupport, weights, bias) -> Tensor:
    """Sampled-support estimate of log sum_x exp(z . w_x + b_x) for one
    latent ``z`` [d], as a scalar.

    Sums exactly over the explicit set C and reweights the sampled
    negatives N by kappa, all inside one stable log-sum-exp.
    """
    if not css.c_ids:
        raise ContractError("CSS support has empty explicit class set C")
    logits = _head_logits(ad.constant(np.reshape(z, (1, -1))), weights, bias, css)
    return ad.total(ad.logsumexp_rows(logits, shift=css.log_weights))


def l1_log_prob(z_i, x_i: int, params: ParameterStore, css: CSSupport | None = None) -> Tensor:
    """Log probability of one L1 token given its latent embedding [d]."""
    return _l1_sum(ad.constant(np.reshape(z_i, (1, -1))), [x_i], params, css)


def _cell_log_probs(z: Tensor, zrow, ids, weights: Tensor, bias: Tensor,
                    css: CSSupport | None, s_block=None, s: Tensor | None = None):
    """log P(ids | z[zrow]) as (picked, norm), for the caller to subtract
    ``norm[zrow]``: each cell's logit, picked from the flattened logits (at
    its support position under a CSSupport) in the shape ``zrow`` and ``ids``
    broadcast to, and the log normalizer [m] of each row of z, sampled
    negatives weighted by kappa; ``s_block`` and ``s`` are as in ``_head_logits``."""
    logits = _head_logits(z, weights, bias, css, s_block, s)
    cols = np.asarray(ids, dtype=np.intp) if css is None else css.columns(ids)
    picked = ad.rows(ad.reshape(logits, (-1,)), zrow * logits.shape[1] + cols)
    return picked, ad.logsumexp_rows(logits, shift=None if css is None else css.log_weights)


def _l1_sum(z: Tensor, x_ids, params: ParameterStore, css: CSSupport | None,
            s: Tensor | None = None) -> Tensor:
    """Sum over tokens of log P(x_t | z_t), row t's normalizer as computed:
    ``x_ids`` [T] in the rows' order; ``s`` is the sentence draw per row [T, d_s], if any."""
    picked, norm = _cell_log_probs(z, np.arange(len(x_ids)), x_ids, params["W1"], params["b1"],
                                   css, params["G1"] if s is not None else None, s)
    return ad.total(ad.sub(picked, norm))


def _l2_log_marginals(z: Tensor, x: Ragged, y: Ragged, weights: Tensor, bias: Tensor,
                      css: CSSupport | None) -> Tensor:
    """Vector [N] of log P(y_j | z of y_j's L1 sentence) under the uniform
    alignment prior, for every L2 token of the batch in flat order.

    ``z`` holds one row per L1 token in ``x``'s flat order. The log
    probabilities log P(y_j | z_i) fill an [N, m_max] grid, row j holding
    the positions i of y_j's own L1 sentence; cells past that sentence's
    end repeat its first position and get -inf, so a row-wise
    log-sum-exp marginalizes each token over exactly its m positions.
    """
    m = x.lengths[y.seg]  # [N]
    cell = np.arange(x.lengths.max())
    real = cell < m[:, None]
    zrow = x.starts[y.seg][:, None] + np.where(real, cell, 0)  # [N, m_max]
    picked, norm = _cell_log_probs(z, zrow, y.ids[:, None], weights, bias, css)
    logp = ad.sub(picked, ad.rows(norm, zrow))
    per_j = ad.logsumexp_rows(logp, shift=np.where(real, 0.0, -np.inf))
    return ad.sub(per_j, ad.constant(np.log(m.astype(np.float64))))


# ---------------------------------------------------------------------------
# divergences


def gaussian_kl_rows(u, s, mu=None, sigma=None) -> Tensor:
    """Per-row KL[N(u, s^2) || N(mu, sigma^2)] for diagonal Gaussians.

    ``u`` and ``s`` are [m, d] tensors or arrays; ``mu``/``sigma`` broadcast
    and default to the standard normal. Every KL in the package is this one
    op, ``ad.gaussian_kl``, so equal inputs give bit-equal outputs; a
    non-positive scale raises its ``DomainError``.
    """
    d = u.shape[-1:]
    return ad.gaussian_kl(u, s, np.zeros(d) if mu is None else mu,
                          np.ones(d) if sigma is None else sigma)


def kl_to_standard_normal(u: Tensor, s: Tensor) -> Tensor:
    """Per-token KL to the prior: 0.5 sum_d (s^2 + u^2 - 1 - ln s^2), as [m]."""
    return gaussian_kl_rows(u, s)


# ---------------------------------------------------------------------------
# the training objective


def batch_elbo(pairs, params: ParameterStore, cfg: ModelConfig, alpha: float,
               eps_z: np.ndarray, eps_s: np.ndarray | None = None,
               css_pair=None) -> Tensor:
    """Single-sample evidence lower bound summed over a batch of pairs, as
    one graph over the flat token layout of ``Ragged``.

    ``eps_z`` [T, d] holds the noise of every L1 token in flat order (the
    pairs' draws concatenated). ``cfg.hierarchical`` alone picks the bound;
    ``eps_s`` [B, d_s] is given exactly when it is set (``ContractError``
    otherwise), and the bound is then the sentence-latent one: s is drawn
    per pair from its posterior, broadcast to the pair's tokens, and
    conditions the token posteriors, their prior mean and the L1 head;
    its divergence is added on top.
    One draw z is shared by the L1 and L2 likelihood terms; every KL sum
    is weighted by the annealing factor ``alpha``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must be in [0, 1], got {alpha}")
    if (eps_s is not None) != cfg.hierarchical:
        raise ContractError(f"eps_s is {'missing' if eps_s is None else 'given'}, "
                            f"but cfg.hierarchical is {cfg.hierarchical}")
    css_l1, css_l2 = css_pair if css_pair is not None else (None, None)
    x = Ragged([p.x for p in pairs])
    y = Ragged([p.y for p in pairs])
    emb = ad.rows(params["E"], x.ids)  # the one gather of E: encoder and sentence mean
    h = encode(emb, x, params, cfg)
    s_tok = None
    if cfg.hierarchical:
        u_k, s_k = infer_sentence_posterior(emb, x, params)
        s_tok = ad.rows(reparam_sample(u_k, s_k, eps_s), x.seg)
    u, s = infer_posterior(h, params, s_tok)
    kl = (gaussian_kl_rows(u, s, prior_mean(s_tok, params)) if cfg.hierarchical
          else kl_to_standard_normal(u, s))
    z = reparam_sample(u, s, eps_z)
    like = ad.add(
        _l1_sum(z, x.ids, params, css_l1, s_tok),
        ad.total(_l2_log_marginals(z, x, y, params["W2"], params["b2"], css_l2)),
    )
    weight = ad.constant(float(alpha))
    bound = ad.sub(like, ad.mul(weight, ad.total(kl)))
    if not cfg.hierarchical:
        return bound
    return ad.sub(bound, ad.mul(weight, ad.total(gaussian_kl_rows(u_k, s_k))))


def elbo(pair: SentencePair, params: ParameterStore, cfg: ModelConfig,
         alpha: float, eps: np.ndarray, css_pair=None) -> Tensor:
    """Single-sample bound for one sentence pair of a flat model (no
    sentence latent): ``batch_elbo`` of a batch of one, with noise ``eps`` [m, d]."""
    return batch_elbo([pair], params, cfg, alpha, eps, None, css_pair)


# ---------------------------------------------------------------------------
# evaluation-time helpers (no tape)

EVAL_CHUNK = 512  # sentences per Ragged batch of evaluation, and pairs per IBM1 grid


def eval_chunks(seqs):
    """Ragged batches of at most ``EVAL_CHUNK`` consecutive id sequences of
    the list ``seqs``, in order."""
    for lo in range(0, len(seqs), EVAL_CHUNK):
        yield Ragged(seqs[lo:lo + EVAL_CHUNK])


def posterior_params_np(x: Ragged, params: ParameterStore, cfg: ModelConfig):
    """(locations, scales) [T, d] of the token posteriors of a Ragged batch:
    the one posterior that every evaluation command reads.
    The numpy heads follow ``infer_posterior``'s operation order, so they
    equal it bit for bit; one numpy gather of E feeds the encoder and, in a
    hierarchical model, the sentence mean: each token is conditioned on its
    sentence's posterior mean (the location of ``infer_sentence_posterior``,
    pooled by the same ``ad.segment_mean`` off the tape). Weights too large
    for float64 raise ``NumericalError`` instead of a warning."""
    # numpy, not the tape-free autodiff heads: on hier-v30 dims those took a
    # one-sentence call from 53 to 95 us and align and embed ~30% slower
    with np.errstate(all="ignore"):
        emb = params["E"].data[x.ids]
        h = encode(ad.constant(emb), x, params, cfg).data
        u = h @ params["M1"].data.T
        u += params["d1"].data
        s_pre = h @ params["M2"].data.T
        s_pre += params["d2"].data
        if cfg.hierarchical:
            pooled = ad.segment_mean(emb, x.lengths).data
            s_tok = (pooled @ params["sent_Mu"].data.T + params["sent_bu"].data)[x.seg]
            u += s_tok @ params["N1"].data.T
            s_pre += s_tok @ params["N2"].data.T
        s = ad._softplus_values(s_pre)
        # NaN and infinities carry into a sum, a sum past float64 overflows
        finite = math.isfinite(u.sum() + s.sum())
    if not finite:
        raise NumericalError("non-finite posterior: the model's weights overflow float64")
    return u, s


def posterior_means(x: Ragged, params: ParameterStore, cfg: ModelConfig) -> np.ndarray:
    """The locations of ``posterior_params_np``, for alignment; its own
    name lets ``bench/tracer.py`` time the align posterior."""
    return posterior_params_np(x, params, cfg)[0]


def l2_head_log_probs(u: np.ndarray, weights: Tensor, bias: Tensor) -> np.ndarray:
    """Exact log-softmax over all classes of the head ``u @ weights.T + bias``,
    numpy only: [..., V] for latents [..., d]. A non-finite result raises
    ``NumericalError``."""
    with np.errstate(all="ignore"):
        logits = u @ weights.data.T + bias.data
        hi = logits.max(axis=-1, keepdims=True)
        norm = hi + np.log(np.exp(logits - hi).sum(axis=-1, keepdims=True))
        log_probs = logits - norm
        finite = math.isfinite(log_probs.sum())  # as in ``posterior_params_np``
    if not finite:
        raise NumericalError("non-finite log-probability in the exact head: "
                             "the model's weights overflow float64")
    return log_probs


# ---------------------------------------------------------------------------
# brute-force marginal likelihood oracle (tiny instances only)


def exact_log_marginal(pair: SentencePair, params: ParameterStore, cfg: ModelConfig,
                       n_draws: int = 100_000, seed: int = 0):
    """Monte Carlo estimate of the exact log marginal likelihood.

    Samples z_1..z_m from the standard-normal prior, averages the exact
    joint likelihood in log space, and reports the delta-method standard
    error of the log estimate. Intended for tiny instances (d <= 4,
    m <= 4); runs in plain numpy, independent of the autodiff path.
    Flat models only: the sentence latent is not integrated.
    """
    if cfg.hierarchical:
        raise ContractError("exact_log_marginal covers flat models only, but cfg.hierarchical is True")
    rng = np.random.default_rng(seed)
    m, n = pair.m, pair.n
    d = cfg.d
    x = np.asarray(pair.x)
    y = np.asarray(pair.y)

    z = rng.standard_normal((n_draws, m, d))
    log_px = l2_head_log_probs(z, params["W1"], params["b1"])[:, np.arange(m), x]  # [T, m]
    log_py = l2_head_log_probs(z, params["W2"], params["b2"])[:, :, y]  # [T, m, n]
    hi_j = log_py.max(axis=1, keepdims=True)
    log_marg_j = (
        hi_j[:, 0, :] + np.log(np.exp(log_py - hi_j).sum(axis=1)) - np.log(m)
    )  # [T, n]

    log_joint = log_px.sum(axis=1) + log_marg_j.sum(axis=1)  # [T]
    hi = log_joint.max()
    w = np.exp(log_joint - hi)
    mean_w = w.mean()
    estimate = hi + np.log(mean_w)
    se = w.std(ddof=1) / (mean_w * np.sqrt(n_draws))
    return float(estimate), float(se)
