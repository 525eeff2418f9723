"""Sentence-level latent extension of the joint model.

A per-sentence Gaussian latent conditions both the prior over the
per-token embeddings (through a small tanh network) and the generative
and posterior heads (through additive blocks that consume the sentence
draw). ``model.batch_elbo`` builds its whole graph when ``cfg.hierarchical``
is set. This module holds the one-pair helpers, among them
``zero_sentence_pathways``, with which the objective collapses to the base
bound, and the names ``bench/tracer.py`` times as ``hiermodel.*``.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .autodiff import ParameterStore, Tensor
from .corpus import SentencePair
# the graph's own names, held here for the spans of bench/tracer.py
from .model import ModelConfig, infer_sentence_posterior, prior_mean  # noqa: F401


def infer_word_posterior_conditioned(s: Tensor, h: Tensor, params: ParameterStore):
    """``model.infer_posterior(h, params, s)``; the name stays for ``bench/tracer.py``."""
    return model_mod.infer_posterior(h, params, s)


def kl_diag_gaussian(q_mean, q_scale, p_mean, p_scale) -> float:
    """KL[N(q_mean, q_scale^2) || N(p_mean, p_scale^2)] for diagonal Gaussians.

    Accepts plain vectors; the underlying graph is the one shared with
    the training objective, so a non-positive scale raises its
    ``DomainError``.
    """
    q_mean, q_scale, p_mean, p_scale = (np.atleast_1d(np.asarray(v, dtype=np.float64))
                                        for v in (q_mean, q_scale, p_mean, p_scale))
    value = model_mod.gaussian_kl_rows(
        ad.constant(q_mean.reshape(1, -1)),
        ad.constant(q_scale.reshape(1, -1)),
        ad.constant(p_mean),
        ad.constant(p_scale),
    )
    return float(value.data[0])


def elbo_s(pair: SentencePair, params: ParameterStore, cfg: ModelConfig,
           alpha: float, eps_s: np.ndarray, eps_z: np.ndarray,
           css_pair=None) -> Tensor:
    """Single-sample bound with the sentence latent for one pair of a
    hierarchical model: ``model.batch_elbo`` of a batch of one.

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
