"""Sentence-level latent extension of the joint model.

A per-sentence Gaussian latent conditions both the prior over the
per-token embeddings (through a small tanh network) and the generative
and posterior heads (through additive blocks that consume the sentence
draw; those blocks live in ``model.infer_posterior`` and ``model._l1_sum``).
This module holds the sentence posterior and the prior mean. With every
sentence pathway zeroed the objective collapses to the base bound, which
the tests rely on.
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


def infer_sentence_posterior(x: model_mod.Ragged, params: ParameterStore):
    """Diagonal-Gaussian parameters of the sentence latent given x.

    Each sentence is summarized by the mean of its token embeddings (so
    the result is order-invariant), taken as one constant averaging
    matmul over the batch's tokens, then mapped by two affine heads.
    Returns [B, d_s] locations and [B, d_s] scales for the Ragged batch.
    """
    pooled = ad.matmul(ad.constant(x.averaging()), ad.rows(params["E"], x.ids))
    u_k = ad.matmul(pooled, ad.transpose(params["sent_Mu"]), bias=params["sent_bu"])
    s_k = ad.softplus(ad.matmul(pooled, ad.transpose(params["sent_Ms"]), bias=params["sent_bs"]))
    return u_k, s_k


def prior_mean(s: Tensor, params: ParameterStore) -> Tensor:
    """Conditional prior mean for token embeddings: one tanh hidden layer.
    ``s`` [T, d_s] holds the sentence draw of each token, one row per row."""
    hidden = ad.tanh(ad.matmul(s, ad.transpose(params["prior_V1"]), bias=params["prior_c1"]))
    return ad.matmul(hidden, ad.transpose(params["prior_V2"]), bias=params["prior_c2"])


def infer_word_posterior_conditioned(s: Tensor, h: Tensor, params: ParameterStore):
    """``model.infer_posterior(h, params, s)``; the name stays for ``bench/tracer.py``."""
    return model_mod.infer_posterior(h, params, s)


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

    Zeroes every parameter that only the hierarchical model has: the
    prior network, the additive posterior and generative blocks, and the
    sentence-posterior heads. The scale-head bias is then set
    to the softplus preimage of 1 so the sentence posterior is exactly
    standard normal and its divergence term vanishes; the sentence draw
    itself is then pure noise consumed only by zeroed blocks.
    """
    flat = model_mod.param_shapes(ModelConfig(), 1, 1)
    for name in model_mod.param_shapes(ModelConfig(hierarchical=True), 1, 1).keys() - flat:
        params[name].data = np.zeros_like(params[name].data)
    params["sent_bs"].data = np.full_like(
        params["sent_bs"].data, _softplus_preimage(1.0)
    )
