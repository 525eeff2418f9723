import dataclasses
import math

import numpy as np
import pytest

from alignvae import autodiff as ad
from alignvae.autodiff import gradient_check
from alignvae.corpus import SentencePair
from alignvae.errors import ContractError, DomainError
from alignvae.hiermodel import (
    elbo_s,
    infer_word_posterior_conditioned,
    kl_diag_gaussian,
    zero_sentence_pathways,
)
from alignvae.model import (
    ModelConfig,
    Ragged,
    build_params,
    elbo,
    infer_posterior,
    infer_sentence_posterior,
    prior_mean,
)


@pytest.fixture
def hier_setup():
    cfg = ModelConfig(encoder="bow", d=4, d_x=8, hierarchical=True, d_s=3)
    params = build_params(cfg, 10, 10, seed=7)
    pairs = [
        SentencePair((0, 2, 3, 4), (2, 5, 6)),
        SentencePair((0, 5, 6), (7, 8, 9, 2)),
    ]
    rng = np.random.default_rng(11)
    noise = [
        (rng.standard_normal(cfg.d_s), rng.standard_normal((p.m, cfg.d)))
        for p in pairs
    ]
    return cfg, params, pairs, noise


class TestSentencePosterior:
    def test_zero_encoder_analytic(self, hier_setup):
        cfg, params, pairs, _ = hier_setup
        for name in ("sent_Mu", "sent_bu", "sent_Ms", "sent_bs"):
            params[name].data = np.zeros_like(params[name].data)
        x = Ragged([pairs[0].x])
        u_k, s_k = infer_sentence_posterior(ad.rows(params["E"], x.ids), x, params)
        np.testing.assert_array_equal(u_k.data, np.zeros((1, cfg.d_s)))
        np.testing.assert_allclose(s_k.data, math.log(2), atol=1e-15)

    def test_permutation_invariance(self, hier_setup):
        _, params, _, _ = hier_setup
        a, b = (infer_sentence_posterior(ad.rows(params["E"], x.ids), x, params)
                for x in (Ragged([(0, 2, 3, 4)]), Ragged([(0, 4, 2, 3)])))
        np.testing.assert_allclose(a[0].data, b[0].data, atol=1e-15)
        np.testing.assert_allclose(a[1].data, b[1].data, atol=1e-15)

    def test_gradient(self, hier_setup):
        _, params, pairs, _ = hier_setup

        def loss():
            x = Ragged([pairs[0].x])
            u_k, s_k = infer_sentence_posterior(ad.rows(params["E"], x.ids), x, params)
            return ad.add(ad.total(ad.mul(u_k, u_k)), ad.total(s_k))

        assert gradient_check(loss, params, step=1e-5).max_rel_err <= 1e-4


class TestConditionedWordPosterior:
    def test_zero_heads_analytic(self, hier_setup):
        cfg, params, _, _ = hier_setup
        for name in ("M1", "d1", "M2", "d2", "N1", "N2"):
            params[name].data = np.zeros_like(params[name].data)
        s = ad.constant(np.random.default_rng(0).standard_normal((3, cfg.d_s)))
        h = ad.constant(np.random.default_rng(1).standard_normal((3, cfg.d_x)))
        l, r = infer_word_posterior_conditioned(s, h, params)
        np.testing.assert_array_equal(l.data, np.zeros((3, cfg.d)))
        np.testing.assert_allclose(r.data, math.log(2), atol=1e-15)

    def test_sentence_dependence(self, hier_setup):
        cfg, params, _, _ = hier_setup
        h = ad.constant(np.random.default_rng(2).standard_normal((2, cfg.d_x)))
        l1, _ = infer_word_posterior_conditioned(ad.constant(np.ones((2, cfg.d_s))), h, params)
        l2, _ = infer_word_posterior_conditioned(ad.constant(-np.ones((2, cfg.d_s))), h, params)
        assert not np.allclose(l1.data, l2.data)

    def test_zero_block_reduces_to_base(self, hier_setup):
        cfg, params, pairs, _ = hier_setup
        params["N1"].data = np.zeros_like(params["N1"].data)
        params["N2"].data = np.zeros_like(params["N2"].data)
        h = ad.rows(params["E"], Ragged([pairs[0].x]).ids)
        s = ad.constant(np.random.default_rng(3).standard_normal((pairs[0].m, cfg.d_s)))
        l, r = infer_word_posterior_conditioned(s, h, params)
        u, sc = infer_posterior(h, params)
        np.testing.assert_array_equal(l.data, u.data)
        np.testing.assert_array_equal(r.data, sc.data)


class TestKlDiagGaussian:
    def test_identity(self):
        u = np.array([0.3, -1.0])
        s = np.array([0.5, 2.0])
        assert kl_diag_gaussian(u, s, u, s) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_fixture(self):
        got = kl_diag_gaussian([0.0], [1.0], [0.0], [2.0])
        assert got == pytest.approx(math.log(2) + 0.125 - 0.5, abs=1e-9)
        assert got == pytest.approx(0.3181472, abs=1e-7)

    def test_monte_carlo(self):
        rng = np.random.default_rng(5)
        q_u, q_s = np.array([0.2, -0.4]), np.array([0.8, 1.3])
        p_u, p_s = np.array([-0.5, 0.6]), np.array([1.4, 0.5])
        closed = kl_diag_gaussian(q_u, q_s, p_u, p_s)
        draws = 100_000
        z = q_u + q_s * rng.standard_normal((draws, 2))
        log_q = (-0.5 * (((z - q_u) / q_s) ** 2) - np.log(q_s)).sum(axis=1)
        log_p = (-0.5 * (((z - p_u) / p_s) ** 2) - np.log(p_s)).sum(axis=1)
        samples = log_q - log_p
        se = samples.std(ddof=1) / math.sqrt(draws)
        assert abs(samples.mean() - closed) <= 3 * se

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            kl_diag_gaussian([0.0], [0.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            kl_diag_gaussian([0.0], [1.0], [0.0], [-2.0])

    def test_nonnegative_property(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            q_u, p_u = rng.uniform(-2, 2, size=(2, 3))
            q_s, p_s = rng.uniform(0.1, 2.5, size=(2, 3))
            assert kl_diag_gaussian(q_u, q_s, p_u, p_s) >= 0.0


class TestElboS:
    def test_alpha_zero_removes_both_kls(self, hier_setup):
        cfg, params, pairs, noise = hier_setup
        eps_s, eps_z = noise[0]
        e0 = elbo_s(pairs[0], params, cfg, 0.0, eps_s, eps_z).item()
        e1 = elbo_s(pairs[0], params, cfg, 1.0, eps_s, eps_z).item()
        eh = elbo_s(pairs[0], params, cfg, 0.5, eps_s, eps_z).item()
        total_kl = e0 - e1
        assert total_kl > 0.0
        assert eh == pytest.approx(e0 - 0.5 * total_kl, rel=1e-12)

    def test_zeroed_pathways_reduce_to_base(self, hier_setup):
        cfg, params, pairs, noise = hier_setup
        flat = dataclasses.replace(cfg, hierarchical=False)
        zero_sentence_pathways(params)
        for pair, (eps_s, eps_z) in zip(pairs, noise):
            for alpha in (0.0, 0.3, 1.0):
                hier = elbo_s(pair, params, cfg, alpha, eps_s, eps_z).item()
                base = elbo(pair, params, flat, alpha, eps_z).item()
                assert hier == base  # bit-for-bit

    def test_flat_bound_of_a_hierarchical_config_refused(self, hier_setup):
        cfg, params, pairs, noise = hier_setup
        with pytest.raises(ContractError, match="eps_s is missing"):
            elbo(pairs[0], params, cfg, 0.5, noise[0][1])

    def test_sentence_bound_of_a_flat_config_refused(self, hier_setup):
        cfg, params, pairs, noise = hier_setup
        with pytest.raises(ContractError, match="eps_s is given"):
            elbo_s(pairs[0], params, dataclasses.replace(cfg, hierarchical=False), 0.5, *noise[0])

    def test_gradient(self, hier_setup):
        cfg, params, pairs, noise = hier_setup

        def loss():
            total = None
            for pair, (eps_s, eps_z) in zip(pairs, noise):
                value = elbo_s(pair, params, cfg, 0.7, eps_s, eps_z)
                total = value if total is None else ad.add(total, value)
            return ad.neg(total)

        assert gradient_check(loss, params, step=1e-5).max_rel_err <= 1e-4

    def test_alpha_out_of_range(self, hier_setup):
        cfg, params, pairs, noise = hier_setup
        with pytest.raises(ContractError):
            elbo_s(pairs[0], params, cfg, -0.1, *noise[0])

    def test_bound_against_extended_marginal_oracle(self):
        cfg = ModelConfig(encoder="bow", d=2, d_x=3, hierarchical=True, d_s=2)
        params = build_params(cfg, 5, 5, seed=40)
        pair = SentencePair((0, 2, 3), (4, 2))
        rng = np.random.default_rng(41)
        draws = 4000
        values = np.empty(draws)
        for k in range(draws):
            values[k] = elbo_s(
                pair, params, cfg, 1.0,
                rng.standard_normal(cfg.d_s),
                rng.standard_normal((pair.m, cfg.d)),
            ).item()
        se_elbo = values.std(ddof=1) / math.sqrt(draws)
        oracle, se_oracle = _extended_marginal_oracle(pair, params, cfg, 200_000, seed=42)
        combined = math.sqrt(se_elbo**2 + se_oracle**2)
        assert values.mean() <= oracle + 3 * combined


def _extended_marginal_oracle(pair, params, cfg, n_draws, seed):
    """Prior-sampling estimate of the sentence-latent marginal likelihood.

    Samples s from its standard-normal prior and z_i from N(h(s), I),
    then averages the exact joint likelihood in log space. Plain numpy,
    independent of the autodiff path.
    """
    rng = np.random.default_rng(seed)
    m, d, d_s = pair.m, cfg.d, cfg.d_s
    x = np.asarray(pair.x)
    y = np.asarray(pair.y)
    w1, b1, g1 = params["W1"].data, params["b1"].data, params["G1"].data
    w2, b2 = params["W2"].data, params["b2"].data
    v1, c1 = params["prior_V1"].data, params["prior_c1"].data
    v2, c2 = params["prior_V2"].data, params["prior_c2"].data

    s = rng.standard_normal((n_draws, d_s))
    h_s = np.tanh(s @ v1.T + c1) @ v2.T + c2  # [T, d]
    z = h_s[:, None, :] + rng.standard_normal((n_draws, m, d))

    logits1 = z @ w1.T + b1 + (s @ g1.T)[:, None, :]  # [T, m, v_x]
    hi1 = logits1.max(axis=2, keepdims=True)
    norm1 = (hi1 + np.log(np.exp(logits1 - hi1).sum(axis=2, keepdims=True)))[:, :, 0]
    log_px = logits1[:, np.arange(m), x] - norm1

    logits2 = z @ w2.T + b2
    hi2 = logits2.max(axis=2, keepdims=True)
    norm2 = (hi2 + np.log(np.exp(logits2 - hi2).sum(axis=2, keepdims=True)))[:, :, 0]
    log_py = logits2[:, :, y] - norm2[:, :, None]
    hi_j = log_py.max(axis=1, keepdims=True)
    log_marg = hi_j[:, 0, :] + np.log(np.exp(log_py - hi_j).sum(axis=1)) - math.log(m)

    log_joint = log_px.sum(axis=1) + log_marg.sum(axis=1)
    hi = log_joint.max()
    w = np.exp(log_joint - hi)
    estimate = hi + math.log(w.mean())
    se = w.std(ddof=1) / (w.mean() * math.sqrt(n_draws))
    return float(estimate), float(se)


class TestPriorMean:
    def test_zeroed_network_is_zero(self, hier_setup):
        cfg, params, _, _ = hier_setup
        for name in ("prior_V1", "prior_c1", "prior_V2", "prior_c2"):
            params[name].data = np.zeros_like(params[name].data)
        out = prior_mean(ad.constant(np.ones((1, cfg.d_s))), params)
        np.testing.assert_array_equal(out.data, np.zeros((1, cfg.d)))

    def test_depends_on_s(self, hier_setup):
        cfg, params, _, _ = hier_setup
        a = prior_mean(ad.constant(np.ones((1, cfg.d_s))), params).data
        b = prior_mean(ad.constant(np.zeros((1, cfg.d_s))), params).data
        assert not np.array_equal(a, b)
