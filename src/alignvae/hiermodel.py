"""Sentence-level latent extension of the joint model.

A per-sentence Gaussian latent conditions both the prior over the
per-token embeddings (through a small tanh network) and the generative
and posterior heads (through additive blocks that consume the sentence
draw). With every sentence pathway zeroed the objective collapses to the
base bound, which the tests rely on.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .autodiff import ParameterStore, Tensor
from .corpus import SentencePair
from .errors import DomainError
from .model import ModelConfig


def infer_sentence_posterior(x_ids, params: ParameterStore):
    """Diagonal-Gaussian parameters of the sentence latent given x.

    Each sentence is summarized by the mean of its token embeddings (so
    the result is order-invariant), taken as one constant averaging
    matmul over the batch's tokens, then mapped by two affine heads.
    Returns ([B, d_s] locations, [B, d_s] scales) for a Ragged batch, or
    ([d_s], [d_s]) for one id sequence.
    """
    x = model_mod.as_ragged(x_ids)
    pooled = ad.matmul(ad.constant(x.averaging()), ad.rows(params["E"], x.ids))
    u_k = ad.matmul(pooled, ad.transpose(params["sent_Mu"]), bias=params["sent_bu"])
    s_k = ad.softplus(ad.matmul(pooled, ad.transpose(params["sent_Ms"]), bias=params["sent_bs"]))
    if x is x_ids:
        return u_k, s_k
    return ad.row(u_k, 0), ad.row(s_k, 0)


def prior_mean(s: Tensor, params: ParameterStore) -> Tensor:
    """Conditional prior mean for token embeddings: one tanh hidden layer.
    ``s`` is one sentence draw [d_s] or one per row [T, d_s]."""
    hidden = ad.tanh(ad.matmul(s, ad.transpose(params["prior_V1"]), bias=params["prior_c1"]))
    return ad.matmul(hidden, ad.transpose(params["prior_V2"]), bias=params["prior_c2"])


def infer_word_posterior_conditioned(s: Tensor, h: Tensor, params: ParameterStore):
    """Per-token posterior heads that also consume the sentence draw.

    The affine map over the concatenation [s ; h_i] is realized as the
    base head plus an additive sentence block, so zeroing the block
    reduces exactly to the unconditioned posterior. ``s`` is one draw
    [d_s] for every row of h, or one per row [T, d_s].
    """
    base_u = ad.matmul(h, ad.transpose(params["M1"]), bias=params["d1"])
    base_s_pre = ad.matmul(h, ad.transpose(params["M2"]), bias=params["d2"])
    l = ad.add(base_u, ad.matmul(s, ad.transpose(params["N1"])))
    r = ad.softplus(ad.add(base_s_pre, ad.matmul(s, ad.transpose(params["N2"]))))
    return l, r


def _sentence_blocks_np(x, params: ParameterStore):
    """Tape-free sentence blocks of ``infer_word_posterior_conditioned`` at
    the sentence posterior mean: additive location and pre-softplus [T, d]."""
    u_k = x.averaging() @ params["E"].data[x.ids] @ params["sent_Mu"].data.T
    u_k += params["sent_bu"].data
    s_tok = u_k[x.seg]
    return s_tok @ params["N1"].data.T, s_tok @ params["N2"].data.T


def kl_diag_gaussian(q_mean, q_scale, p_mean, p_scale) -> float:
    """KL[N(q_mean, q_scale^2) || N(p_mean, p_scale^2)] for diagonal Gaussians.

    Accepts plain vectors; the underlying graph is the one shared with
    the training objective.
    """
    q_mean = np.atleast_1d(np.asarray(q_mean, dtype=np.float64))
    q_scale = np.atleast_1d(np.asarray(q_scale, dtype=np.float64))
    p_mean = np.atleast_1d(np.asarray(p_mean, dtype=np.float64))
    p_scale = np.atleast_1d(np.asarray(p_scale, dtype=np.float64))
    if np.any(q_scale <= 0) or np.any(p_scale <= 0):
        raise DomainError("kl_diag_gaussian: scales must be strictly positive")
    d = q_mean.shape[0]
    value = model_mod.gaussian_kl_rows(
        ad.constant(q_mean.reshape(1, d)),
        ad.constant(q_scale.reshape(1, d)),
        ad.constant(p_mean),
        ad.constant(p_scale),
    )
    return float(value.data[0])


def elbo_s(pair: SentencePair, params: ParameterStore, cfg: ModelConfig,
           alpha: float, eps_s: np.ndarray, eps_z: np.ndarray,
           css_pair=None) -> Tensor:
    """Single-sample bound with the sentence latent for one pair:
    ``model.batch_elbo`` of a batch of one.

    Samples s from its posterior, conditions the token posteriors and the
    L1 head on it, and adds the sentence-level divergence on top of the
    (now prior-shifted) per-token divergences.
    """
    eps_s = np.reshape(np.asarray(eps_s, dtype=np.float64), (1, -1))
    return model_mod.batch_elbo([pair], params, cfg, alpha, eps_z, eps_s, css_pair)


def _softplus_preimage(target: float = 1.0) -> float:
    """Float x with softplus(x) == target exactly under our softplus."""
    x = math.log(math.expm1(target))
    probe = x
    for _ in range(64):
        if float(np.log1p(np.exp(probe))) == target:
            return probe
        probe = np.nextafter(probe, math.inf)
    probe = np.nextafter(x, -math.inf)
    for _ in range(64):
        if float(np.log1p(np.exp(probe))) == target:
            return float(probe)
        probe = np.nextafter(probe, -math.inf)
    raise AssertionError("no exact softplus preimage found")


def zero_sentence_pathways(params: ParameterStore) -> None:
    """Silence every sentence-latent pathway, in place.

    Zeroes the prior network, the additive posterior and generative
    blocks, and the sentence-posterior heads. The scale-head bias is set
    to the softplus preimage of 1 so the sentence posterior is exactly
    standard normal and its divergence term vanishes; the sentence draw
    itself is then pure noise consumed only by zeroed blocks.
    """
    for name in ("prior_V1", "prior_c1", "prior_V2", "prior_c2",
                 "N1", "N2", "G1", "sent_Mu", "sent_bu", "sent_Ms"):
        params[name].data = np.zeros_like(params[name].data)
    params["sent_bs"].data = np.full_like(
        params["sent_bs"].data, _softplus_preimage(1.0)
    )
