"""Joint generative model of a sentence pair and its inference networks.

Generative side: every L1 token is emitted from its own latent embedding
through an affine + softmax head; every L2 token is emitted from the
latent at a uniformly chosen L1 position (position 0 is NULL), so its
likelihood marginalizes the alignment. Inference side: a BoW or BiRNN
encoder feeds two affine heads producing per-token diagonal-Gaussian
posteriors (softplus keeps scales positive). Training can swap the exact
softmax normalizers for the sampled-support estimate carried by a
CSSupport; evaluation always uses the full support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import CSSupport, SentencePair, derive_seed
from .errors import ContractError

_LSTM_GATES = "ifoc"
_LSTM_DIRS = ("fwd", "bwd")


@dataclass
class ModelConfig:
    encoder: str = "bow"  # "bow" | "birnn"
    d: int = 100  # latent embedding width
    d_x: int = 128  # deterministic embedding width
    hierarchical: bool = False
    d_s: int = 16  # sentence latent width

    def validate(self) -> None:
        if self.encoder not in ("bow", "birnn"):
            raise ContractError(f"unknown encoder {self.encoder!r}")
        if min(self.d, self.d_x, self.d_s) < 1:
            raise ContractError("model dimensions must be positive")


def lstm_param_shapes(d_x: int) -> dict[str, tuple[int, ...]]:
    """Shapes of both LSTM directions' gate weights and biases."""
    shapes = {}
    for direction in _LSTM_DIRS:
        for gate in _LSTM_GATES:
            shapes[f"lstm_{direction}_W{gate}"] = (d_x, d_x)
            shapes[f"lstm_{direction}_U{gate}"] = (d_x, d_x)
            shapes[f"lstm_{direction}_b{gate}"] = (d_x,)
    return shapes


def param_shapes(cfg: ModelConfig, v_x: int, v_y: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every trainable tensor of a model, in store order."""
    cfg.validate()
    d, d_x, d_s = cfg.d, cfg.d_x, cfg.d_s
    shapes = {"E": (v_x, d_x)}
    if cfg.encoder == "birnn":
        shapes.update(lstm_param_shapes(d_x))
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


def init_params(shapes: dict[str, tuple[int, ...]], seed: int) -> ParameterStore:
    """A store holding every named shape: matrices get Glorot draws seeded
    per parameter name, vectors start at zero."""
    from .training import glorot_init  # deferred: training imports this module

    store = ParameterStore()
    for name, shape in shapes.items():
        if len(shape) == 2:
            store.add(name, glorot_init(shape, derive_seed(seed, f"init:{name}")))
        else:
            store.add(name, np.zeros(shape))
    return store


def build_params(cfg: ModelConfig, v_x: int, v_y: int, seed: int) -> ParameterStore:
    """Allocate and initialize every trainable tensor for a model config."""
    return init_params(param_shapes(cfg, v_x, v_y), seed)


# ---------------------------------------------------------------------------
# encoders


def encode_bow(x_ids, params: ParameterStore) -> Tensor:
    """Per-token table lookup; h_i depends only on x_i."""
    return ad.rows(params["E"], np.asarray(x_ids, dtype=np.intp))


def _lstm_states(inputs, params, direction: str):
    """Hidden states of one LSTM direction over a list of input vectors.

    Standard gated cell: sigmoid input/forget/output gates, tanh
    candidate, zero initial states, no peepholes, forget bias 0.
    """

    def p(tag):
        return params[f"lstm_{direction}_{tag}"]

    d_h = p("bi").data.shape[0]
    h = ad.constant(np.zeros(d_h))
    c = ad.constant(np.zeros(d_h))
    states = []
    for x_t in inputs:
        def preact(g, h=h, x_t=x_t):
            return ad.add(ad.add(ad.matmul(p(f"W{g}"), x_t), ad.matmul(p(f"U{g}"), h)), p(f"b{g}"))

        gate_i = ad.sigmoid(preact("i"))
        gate_f = ad.sigmoid(preact("f"))
        gate_o = ad.sigmoid(preact("o"))
        cand = ad.tanh(preact("c"))
        c = ad.add(ad.mul(gate_f, c), ad.mul(gate_i, cand))
        h = ad.mul(gate_o, ad.tanh(c))
        states.append(h)
    return states


def encode_birnn(x_ids, params: ParameterStore) -> Tensor:
    """Elementwise sum of forward and backward LSTM states per position."""
    idx = np.asarray(x_ids, dtype=np.intp)
    table = ad.rows(params["E"], idx)
    inputs = [ad.row(table, t) for t in range(len(idx))]
    fwd = _lstm_states(inputs, params, "fwd")
    bwd = _lstm_states(list(reversed(inputs)), params, "bwd")
    bwd = list(reversed(bwd))
    return ad.stack([ad.add(f, b) for f, b in zip(fwd, bwd)])


def encode(x_ids, params: ParameterStore, cfg: ModelConfig) -> Tensor:
    return encode_birnn(x_ids, params) if cfg.encoder == "birnn" else encode_bow(x_ids, params)


# ---------------------------------------------------------------------------
# posterior and sampling


def infer_posterior(h: Tensor, params: ParameterStore):
    """Location and scale heads over the shared encoding: [m, d] each."""
    u = ad.add(ad.matmul(h, ad.transpose(params["M1"])), params["d1"])
    s = ad.softplus(ad.add(ad.matmul(h, ad.transpose(params["M2"])), params["d2"]))
    return u, s


def reparam_sample(u: Tensor, s: Tensor, eps: np.ndarray) -> Tensor:
    """z = u + s * eps with externally supplied unit-normal noise."""
    return ad.add(u, ad.mul(s, ad.constant(np.asarray(eps, dtype=np.float64))))


# ---------------------------------------------------------------------------
# categorical heads, exact and sampled-support


def _head_logits(z: Tensor, weights: Tensor, bias: Tensor, css: CSSupport | None,
                 s_block=None, s_vec: Tensor | None = None) -> Tensor:
    """Unnormalized class scores [m, support] for latents z [m, d].

    With a CSSupport, scores cover only C followed by N (in support order);
    otherwise the full vocabulary. ``s_block``/``s_vec`` add a per-class
    contribution from a sentence latent.
    """
    if css is None:
        logits = ad.add(ad.matmul(z, ad.transpose(weights)), bias)
        if s_vec is not None:
            logits = ad.add(logits, ad.matmul(s_block, s_vec))
        return logits
    sub_w = ad.rows(weights, css.support_ids)
    sub_b = ad.rows(bias, css.support_ids)
    logits = ad.add(ad.matmul(z, ad.transpose(sub_w)), sub_b)
    if s_vec is not None:
        logits = ad.add(logits, ad.matmul(ad.rows(s_block, css.support_ids), s_vec))
    return logits


def _log_normalizers(logits: Tensor, css: CSSupport | None) -> Tensor:
    """Per-row log normalizer [m]; sampled supports add log-kappa offsets."""
    if css is None or not css.n_ids:
        return ad.logsumexp_rows(logits)
    return ad.logsumexp_rows(ad.add(logits, ad.constant(css.log_weights)))


def css_log_normalizer(z, css: CSSupport, weights, bias) -> Tensor:
    """Sampled-support estimate of log sum_x exp(z . w_x + b_x).

    Sums exactly over the explicit set C and reweights the sampled
    negatives N by kappa, all inside one stable log-sum-exp.
    """
    if not css.c_ids:
        raise ContractError("CSS support has empty explicit class set C")
    z = z if isinstance(z, Tensor) else ad.constant(z)
    single = z.data.ndim == 1
    zmat = ad.reshape(z, (1, z.data.shape[0])) if single else z
    norms = _log_normalizers(_head_logits(zmat, weights, bias, css), css)
    return ad.row(norms, 0) if single else norms


def l1_log_prob(z_i, x_i: int, params: ParameterStore, css: CSSupport | None = None,
                s_vec: Tensor | None = None) -> Tensor:
    """Log probability of one L1 token given its latent embedding."""
    z = z_i if isinstance(z_i, Tensor) else ad.constant(z_i)
    zmat = ad.reshape(z, (1, z.data.shape[0]))
    s_block = params["G1"] if s_vec is not None else None
    logits = _head_logits(zmat, params["W1"], params["b1"], css, s_block, s_vec)
    norm = _log_normalizers(logits, css)
    col = css.position_of(x_i) if css is not None else int(x_i)
    picked = ad.gather_rc(logits, np.array([0]), np.array([col]))
    return ad.row(ad.sub(picked, norm), 0)


def _l1_sum(z: Tensor, x_ids, params: ParameterStore, css: CSSupport | None,
            s_vec: Tensor | None = None) -> Tensor:
    """Sum over tokens of log P(x_i | z_i) (and sentence latent, if any)."""
    idx = np.asarray(x_ids, dtype=np.intp)
    s_block = params["G1"] if s_vec is not None else None
    logits = _head_logits(z, params["W1"], params["b1"], css, s_block, s_vec)
    norms = _log_normalizers(logits, css)
    cols = (
        np.array([css.position_of(i) for i in idx])
        if css is not None
        else idx
    )
    picked = ad.gather_rc(logits, np.arange(len(idx)), cols)
    return ad.total(ad.sub(picked, norms))


def _l2_log_marginals(z: Tensor, y_ids, weights: Tensor, bias: Tensor,
                      css: CSSupport | None) -> Tensor:
    """Vector [n] of log P(y_j | z_1..z_m) under the uniform alignment prior."""
    idx = np.asarray(y_ids, dtype=np.intp)
    m = z.data.shape[0]
    logits = _head_logits(z, weights, bias, css)
    norms = _log_normalizers(logits, css)
    cols = (
        np.array([css.position_of(i) for i in idx])
        if css is not None
        else idx
    )
    sel = ad.take_cols(logits, cols)  # [m, n]
    logp = ad.sub(sel, ad.reshape(norms, (m, 1)))  # log P(y_j | z_i)
    per_j = ad.logsumexp_rows(ad.transpose(logp))  # [n]
    return ad.sub(per_j, ad.constant(np.log(float(m))))


def l2_log_marginal(z, y_j: int, params: ParameterStore, css: CSSupport | None = None) -> Tensor:
    """log sum_i (1/m) P(y_j | z_i) over all m positions including NULL."""
    zt = z if isinstance(z, Tensor) else ad.constant(np.asarray(z, dtype=np.float64))
    return ad.row(
        _l2_log_marginals(zt, np.array([y_j]), params["W2"], params["b2"], css), 0
    )


# ---------------------------------------------------------------------------
# divergences


def gaussian_kl_rows(u: Tensor, s: Tensor, mu: Tensor | None = None,
                     sigma: Tensor | None = None) -> Tensor:
    """Per-row KL[N(u, s^2) || N(mu, sigma^2)] for diagonal Gaussians.

    ``u`` and ``s`` are [m, d]; ``mu``/``sigma`` broadcast and default to
    the standard normal. This single graph shape is shared by every KL in
    the package so that equal inputs give bit-equal outputs.
    """
    if mu is None:
        mu = ad.constant(np.zeros(u.data.shape[1]))
    if sigma is None:
        sigma = ad.constant(np.ones(u.data.shape[1]))
    t1 = ad.sub(ad.log(sigma), ad.log(s))
    diff = ad.sub(u, mu)
    quad = ad.div(
        ad.add(ad.mul(s, s), ad.mul(diff, diff)),
        ad.mul(ad.constant(2.0), ad.mul(sigma, sigma)),
    )
    per_dim = ad.add(t1, ad.sub(quad, ad.constant(0.5)))
    return ad.sum_rows(per_dim)


def kl_to_standard_normal(u: Tensor, s: Tensor) -> Tensor:
    """Per-token KL to the prior: 0.5 sum_d (s^2 + u^2 - 1 - ln s^2), as [m]."""
    return gaussian_kl_rows(u, s)


# ---------------------------------------------------------------------------
# the training objective


def elbo(pair: SentencePair, params: ParameterStore, cfg: ModelConfig,
         alpha: float, eps: np.ndarray, css_pair=None) -> Tensor:
    """Single-sample evidence lower bound for one sentence pair.

    One reparameterized draw z (from ``eps``) is shared by the L1 and L2
    likelihood terms; the KL sum is weighted by the annealing factor
    ``alpha``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must be in [0, 1], got {alpha}")
    css_l1, css_l2 = css_pair if css_pair is not None else (None, None)
    h = encode(pair.x, params, cfg)
    u, s = infer_posterior(h, params)
    z = reparam_sample(u, s, eps)
    like = ad.add(
        _l1_sum(z, pair.x, params, css_l1),
        ad.total(_l2_log_marginals(z, pair.y, params["W2"], params["b2"], css_l2)),
    )
    kl = ad.total(kl_to_standard_normal(u, s))
    return ad.sub(like, ad.mul(ad.constant(float(alpha)), kl))


# ---------------------------------------------------------------------------
# evaluation-time helpers (no tape)


def posterior_means(x_ids, params: ParameterStore, cfg: ModelConfig) -> np.ndarray:
    """Posterior location vectors [m, d] computed without recording."""
    h = encode(x_ids, params, cfg)
    u, _ = infer_posterior(h, params)
    return u.data


def posterior_params_np(x_ids, params: ParameterStore, cfg: ModelConfig):
    """(locations, scales) as plain arrays, for evaluation code."""
    h = encode(x_ids, params, cfg)
    u, s = infer_posterior(h, params)
    return u.data, s.data


def l2_head_log_probs(u: np.ndarray, params: ParameterStore) -> np.ndarray:
    """Exact log P(y | z = u_i) for every class: [m, v_y], numpy only."""
    logits = u @ params["W2"].data.T + params["b2"].data
    hi = logits.max(axis=1, keepdims=True)
    norm = hi + np.log(np.exp(logits - hi).sum(axis=1, keepdims=True))
    return logits - norm


# ---------------------------------------------------------------------------
# brute-force marginal likelihood oracle (tiny instances only)


def exact_log_marginal(pair: SentencePair, params: ParameterStore, cfg: ModelConfig,
                       n_draws: int = 100_000, seed: int = 0):
    """Monte Carlo estimate of the exact log marginal likelihood.

    Samples z_1..z_m from the standard-normal prior, averages the exact
    joint likelihood in log space, and reports the delta-method standard
    error of the log estimate. Intended for tiny instances (d <= 4,
    m <= 4); runs in plain numpy, independent of the autodiff path.
    """
    rng = np.random.default_rng(seed)
    m, n = pair.m, pair.n
    d = cfg.d
    w1, b1 = params["W1"].data, params["b1"].data
    w2, b2 = params["W2"].data, params["b2"].data
    x = np.asarray(pair.x)
    y = np.asarray(pair.y)

    z = rng.standard_normal((n_draws, m, d))
    logits1 = z @ w1.T + b1  # [T, m, v_x]
    hi1 = logits1.max(axis=2, keepdims=True)
    norm1 = (hi1 + np.log(np.exp(logits1 - hi1).sum(axis=2, keepdims=True)))[:, :, 0]
    log_px = logits1[:, np.arange(m), x] - norm1  # [T, m]

    logits2 = z @ w2.T + b2  # [T, m, v_y]
    hi2 = logits2.max(axis=2, keepdims=True)
    norm2 = (hi2 + np.log(np.exp(logits2 - hi2).sum(axis=2, keepdims=True)))[:, :, 0]
    log_py = logits2[:, :, y] - norm2[:, :, None]  # [T, m, n]
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
