import math

import numpy as np
import pytest

from alignvae import autodiff as ad
from alignvae.autodiff import ParameterStore, gradient_check
from alignvae.corpus import CSSupport, SentencePair, Vocabulary, build_css_support
from alignvae.errors import ContractError
from alignvae.model import (
    ModelConfig,
    Ragged,
    _cell_log_probs,
    _l2_log_marginals,
    build_params,
    css_log_normalizer,
    elbo,
    encode_birnn,
    exact_log_marginal,
    infer_posterior,
    kl_to_standard_normal,
    l1_log_prob,
    reparam_sample,
)

from conftest import rel_err


def l2_log_marginal(z, y_j, params) -> float:
    """log sum_i (1/m) P(y_j | z_i) over the m rows of ``z``: the batch
    marginal of one L1 sentence of m tokens and one L2 token."""
    x = Ragged([np.zeros(len(z), dtype=np.intp)])  # only its length matters
    out = _l2_log_marginals(ad.constant(z), x, Ragged([[y_j]]), params["W2"], params["b2"], None)
    return float(out.data[0])


def full_cover_css(side, v, extra_c=()):
    """Support covering the whole vocabulary with kappa = 1."""
    c = tuple(sorted(set(extra_c) | {0}))
    n = tuple(sorted(set(range(v)) - set(c)))
    return CSSupport(side=side, c_ids=c, n_ids=n, kappa=1.0)


class TestEncodeBow:
    def test_identical_tokens_identical_rows(self):
        cfg = ModelConfig(d=3, d_x=5)
        params = build_params(cfg, 6, 6, seed=0)
        h = ad.rows(params["E"], Ragged([(0, 2, 2)]).ids)
        np.testing.assert_array_equal(h.data[1], h.data[2])

    def test_zero_table(self):
        cfg = ModelConfig(d=3, d_x=5)
        params = build_params(cfg, 6, 6, seed=0)
        params["E"].data = np.zeros_like(params["E"].data)
        h = ad.rows(params["E"], Ragged([(0, 3, 4)]).ids)
        np.testing.assert_array_equal(h.data, np.zeros((3, 5)))

    def test_context_independence(self):
        cfg = ModelConfig(d=3, d_x=5)
        params = build_params(cfg, 8, 8, seed=1)
        h1 = ad.rows(params["E"], Ragged([(0, 4, 2)]).ids)
        h2 = ad.rows(params["E"], Ragged([(0, 7, 4, 3)]).ids)
        np.testing.assert_array_equal(h1.data[1], h2.data[2])


class TestEncodeBirnn:
    def test_zero_parameters_give_zero_states(self):
        cfg = ModelConfig(encoder="birnn", d=2, d_x=3)
        params = build_params(cfg, 5, 5, seed=0)
        for name in params.names():
            params[name].data = np.zeros_like(params[name].data)
        x = Ragged([(0, 2, 3)])
        h = encode_birnn(ad.rows(params["E"], x.ids), x, params)
        np.testing.assert_array_equal(h.data, np.zeros((3, 3)))

    def test_reversal_symmetry(self):
        cfg = ModelConfig(encoder="birnn", d=2, d_x=4)
        params = build_params(cfg, 7, 7, seed=3)
        ids = (0, 2, 3, 4, 2)
        x = Ragged([ids])
        h = encode_birnn(ad.rows(params["E"], x.ids), x, params).data
        # swap the two directions' parameter sets
        for gate in "ifoc":
            for kind in "WUb":
                a = f"lstm_fwd_{kind}{gate}"
                b = f"lstm_bwd_{kind}{gate}"
                params[a].data, params[b].data = params[b].data, params[a].data
        x = Ragged([tuple(reversed(ids))])
        h_rev = encode_birnn(ad.rows(params["E"], x.ids), x, params).data
        np.testing.assert_allclose(h_rev, h[::-1], atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        cfg = ModelConfig(encoder="birnn", d=2, d_x=3)
        params = build_params(cfg, 6, 6, seed=5)
        ids = (0, 2, 3)

        def loss():
            x = Ragged([ids])
            return ad.total(encode_birnn(ad.rows(params["E"], x.ids), x, params))

        report = gradient_check(loss, params, step=1e-5)
        assert report.max_rel_err <= 1e-4


class TestInferPosterior:
    def test_zero_inputs_analytic(self):
        cfg = ModelConfig(d=4, d_x=6)
        params = build_params(cfg, 5, 5, seed=0)
        h = ad.constant(np.zeros((3, 6)))
        u, s = infer_posterior(h, params)
        np.testing.assert_array_equal(u.data, np.zeros((3, 4)))
        np.testing.assert_allclose(s.data, math.log(2), atol=1e-15)

    def test_scales_strictly_positive(self):
        rng = np.random.default_rng(0)
        cfg = ModelConfig(d=3, d_x=4)
        params = build_params(cfg, 5, 5, seed=2)
        for _ in range(1000):
            h = ad.constant(rng.uniform(-5, 5, size=(2, 4)))
            _, s = infer_posterior(h, params)
            assert np.all(s.data > 0)

    def test_heads_independent(self):
        cfg = ModelConfig(d=3, d_x=4)
        params = build_params(cfg, 5, 5, seed=2)
        h = ad.constant(np.random.default_rng(1).uniform(-1, 1, size=(2, 4)))
        u_before, _ = infer_posterior(h, params)
        params["M2"].data = params["M2"].data + 1.0
        u_after, _ = infer_posterior(h, params)
        np.testing.assert_array_equal(u_before.data, u_after.data)


class TestReparamSample:
    def test_zero_noise_gives_mean(self):
        u = ad.constant([[1.0, -2.0]])
        s = ad.constant([[0.5, 3.0]])
        z = reparam_sample(u, s, np.zeros((1, 2)))
        np.testing.assert_array_equal(z.data, u.data)

    def test_unit_basis(self):
        z = reparam_sample(
            ad.constant([[0.0, 0.0]]), ad.constant([[1.0, 1.0]]), np.array([[1.0, 0.0]])
        )
        np.testing.assert_array_equal(z.data, [[1.0, 0.0]])

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(7)
        u = np.array([[0.3, -1.2]])
        s = np.array([[0.7, 2.0]])
        draws = 100_000
        eps = rng.standard_normal((draws, 2))
        z = u + s * eps  # same arithmetic as the op, vectorized over draws
        se_mean = s / math.sqrt(draws)
        assert np.all(np.abs(z.mean(axis=0) - u) <= 3 * se_mean)
        # std of the std estimator ~ s / sqrt(2 (T-1))
        se_std = s / math.sqrt(2 * (draws - 1))
        assert np.all(np.abs(z.std(axis=0, ddof=1) - s) <= 3 * se_std)
        sample = reparam_sample(ad.constant(u), ad.constant(s), eps[:1])
        np.testing.assert_array_equal(sample.data, u + s * eps[:1])


class TestL1LogProb:
    def test_uniform_head(self):
        cfg = ModelConfig(d=3, d_x=4)
        params = build_params(cfg, 7, 7, seed=1)
        params["W1"].data = np.zeros_like(params["W1"].data)
        params["b1"].data = np.zeros_like(params["b1"].data)
        z = np.random.default_rng(2).uniform(-2, 2, size=3)
        for x in (0, 3, 6):
            assert l1_log_prob(z, x, params).item() == pytest.approx(math.log(1 / 7), abs=1e-12)

    def test_full_cover_equals_exact(self):
        cfg = ModelConfig(d=3, d_x=4)
        params = build_params(cfg, 9, 9, seed=3)
        rng = np.random.default_rng(4)
        css = full_cover_css("l1", 9, extra_c=(2, 5))
        for _ in range(20):
            z = rng.uniform(-2, 2, size=3)
            for x in (0, 2, 5):
                exact = l1_log_prob(z, x, params).item()
                approx = l1_log_prob(z, x, params, css).item()
                assert rel_err(exact, approx) <= 1e-10

    def test_degenerate_support_probability_one(self):
        cfg = ModelConfig(d=3, d_x=4)
        params = build_params(cfg, 6, 6, seed=5)
        css = CSSupport(side="l1", c_ids=(4,), n_ids=(), kappa=1.0)
        z = np.random.default_rng(6).uniform(-2, 2, size=3)
        assert l1_log_prob(z, 4, params, css).item() == 0.0

    def test_support_rule_enforced(self):
        cfg = ModelConfig(d=3, d_x=4)
        params = build_params(cfg, 6, 6, seed=5)
        css = CSSupport(side="l1", c_ids=(2, 3), n_ids=(4,), kappa=2.0)
        with pytest.raises(ContractError):
            l1_log_prob(np.zeros(3), 5, params, css)
        with pytest.raises(ContractError):
            # in N but not in C also violates the support rule
            l1_log_prob(np.zeros(3), 4, params, css)


class TestCssLogNormalizer:
    def test_direct_formula(self):
        # all scores zero: log(|C| + kappa |N|) = log(2 + 2*3) = log 8
        store = ParameterStore()
        w = store.add("w", np.zeros((5, 3)))
        b = store.add("b", np.zeros(5))
        css = CSSupport(side="l1", c_ids=(0, 1), n_ids=(2, 3, 4), kappa=2.0)
        out = css_log_normalizer(np.zeros(3), css, w, b)
        assert out.item() == pytest.approx(math.log(8), abs=1e-12)

    def test_empty_negatives_reduce_to_logsumexp(self):
        rng = np.random.default_rng(0)
        store = ParameterStore()
        w = store.add("w", rng.uniform(-1, 1, size=(4, 2)))
        b = store.add("b", rng.uniform(-1, 1, size=4))
        css = CSSupport(side="l2", c_ids=(0, 1, 2, 3), n_ids=(), kappa=1.0)
        z = rng.uniform(-1, 1, size=2)
        expected = np.logaddexp.reduce(w.data @ z + b.data)
        assert css_log_normalizer(z, css, w, b).item() == pytest.approx(expected, rel=1e-12)

    def test_empty_c_rejected(self):
        store = ParameterStore()
        w = store.add("w", np.zeros((3, 2)))
        b = store.add("b", np.zeros(3))
        css = CSSupport(side="l1", c_ids=(), n_ids=(1,), kappa=2.0)
        with pytest.raises(ContractError):
            css_log_normalizer(np.zeros(2), css, w, b)

    def test_resampling_unbiased_on_toy_head(self):
        # 50-class head: mean estimated normalizer over resampled negative
        # sets must sit within 3 standard errors of the exact normalizer
        rng = np.random.default_rng(1)
        v, d = 50, 3
        store = ParameterStore()
        w = store.add("w", rng.uniform(-1, 1, size=(v, d)))
        b = store.add("b", rng.uniform(-1, 1, size=v))
        vocab = Vocabulary([f"w{k}" for k in range(v - 2)])
        batch = [SentencePair((0, 2, 3), (4, 5, 6))]
        z = rng.uniform(-1, 1, size=d)
        exact = float(np.exp(w.data @ z + b.data).sum())
        draws = 10_000
        values = np.empty(draws)
        for k in range(draws):
            css = build_css_support(batch, vocab, "l1", n_neg=12, seed=k)
            values[k] = math.exp(css_log_normalizer(z, css, w, b).item())
        se = values.std(ddof=1) / math.sqrt(draws)
        assert abs(values.mean() - exact) <= 3 * se


class TestL2LogMarginal:
    def test_two_position_analytic(self):
        # P(y0 | z_i) = sigmoid(z_i) with a 2-class head; choose z so the
        # per-position probabilities are 0.2 and 0.4
        cfg = ModelConfig(d=1, d_x=2)
        params = build_params(cfg, 4, 2, seed=0)
        params["W2"].data = np.array([[1.0], [0.0]])
        params["b2"].data = np.zeros(2)
        z = np.array([[math.log(0.2 / 0.8)], [math.log(0.4 / 0.6)]])
        assert l2_log_marginal(z, 0, params) == pytest.approx(math.log(0.3), abs=1e-12)

    def test_single_position(self):
        cfg = ModelConfig(d=2, d_x=2)
        params = build_params(cfg, 4, 5, seed=1)
        z = np.random.default_rng(2).uniform(-1, 1, size=(1, 2))
        logits = params["W2"].data @ z[0] + params["b2"].data
        expected = logits[3] - np.logaddexp.reduce(logits)
        assert l2_log_marginal(z, 3, params) == pytest.approx(expected, rel=1e-12)

    def test_brute_force_probability_space(self):
        rng = np.random.default_rng(3)
        cfg = ModelConfig(d=3, d_x=2)
        params = build_params(cfg, 4, 6, seed=4)
        for _ in range(10):
            z = rng.uniform(-2, 2, size=(5, 3))
            y = int(rng.integers(0, 6))
            logits = z @ params["W2"].data.T + params["b2"].data
            probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            expected = math.log(probs[:, y].mean())
            got = l2_log_marginal(z, y, params)
            assert rel_err(got, expected) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(d=3, d_x=2)
        params = build_params(cfg, 4, 6, seed=6)
        z = rng.uniform(-1, 1, size=(4, 3))
        perm = rng.permutation(4)
        a = l2_log_marginal(z, 2, params)
        b = l2_log_marginal(z[perm], 2, params)
        assert a == pytest.approx(b, rel=1e-13)


class TestCellLogProbs:
    # a grid of 3 rows over 4 latents: row k reads latents zrow[k], the
    # padded cells repeat a row's first latent, and rows 0 and 2 share id 3
    ZROW = np.array([[0, 1, 0], [2, 3, 2], [1, 1, 1]])
    IDS = np.array([[3], [0], [3]])
    SUPPORT = CSSupport(side="l2", c_ids=(0, 3, 5), n_ids=(1, 4), kappa=1.5)

    @staticmethod
    def reference(z, w, b, css, g=None, s=None):
        """numpy ``logits[zrow, cols] - logsumexp(logits)[zrow]``."""
        support = np.arange(len(w)) if css is None else css.support_ids
        logits = z @ w[support].T + b[support]
        if s is not None:
            logits = logits + s @ g[support].T
        shifted = logits if css is None else logits + css.log_weights
        hi = shifted.max(axis=1)
        norms = hi + np.log(np.exp(shifted - hi[:, None]).sum(axis=1))
        cols = TestCellLogProbs.IDS
        if css is not None:
            cols = np.vectorize(list(css.support_ids).index)(cols)
        return logits[TestCellLogProbs.ZROW, cols] - norms[TestCellLogProbs.ZROW]

    @pytest.mark.parametrize("css", [None, SUPPORT], ids=["exact", "css"])
    @pytest.mark.parametrize("with_s", [False, True], ids=["flat", "sentence-block"])
    def test_matches_numpy_head(self, css, with_s):
        rng = np.random.default_rng(11)
        z, w, b = rng.normal(size=(4, 3)), rng.normal(size=(6, 3)), rng.normal(size=6)
        g, s = (rng.normal(size=(6, 2)), rng.normal(size=(4, 2))) if with_s else (None, None)
        got = _cell_log_probs(ad.constant(z), self.ZROW, self.IDS, ad.constant(w),
                              ad.constant(b), css, None if g is None else ad.constant(g),
                              None if s is None else ad.constant(s))
        assert got.shape == self.ZROW.shape
        np.testing.assert_allclose(got.data, self.reference(z, w, b, css, g, s),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("css", [None, SUPPORT], ids=["exact", "css"])
    def test_gradient_with_sentence_block(self, css):
        rng = np.random.default_rng(12)
        store = ParameterStore()
        z, s = store.add("z", rng.normal(size=(4, 3))), store.add("s", rng.normal(size=(4, 2)))
        w, b = store.add("W1", rng.normal(size=(6, 3))), store.add("b1", rng.normal(size=6))
        g = store.add("G1", rng.normal(size=(6, 2)))
        weight = ad.constant(rng.normal(size=self.ZROW.shape))

        def loss():
            cells = _cell_log_probs(z, self.ZROW, self.IDS, w, b, css, g, s)
            return ad.total(ad.mul(cells, weight))

        report = gradient_check(loss, store)
        assert report.max_rel_err <= 1e-6, report.per_param


class TestKlToStandardNormal:
    def test_fixtures(self):
        zero = kl_to_standard_normal(ad.constant([[0.0]]), ad.constant([[1.0]]))
        assert zero.data[0] == pytest.approx(0.0, abs=1e-15)
        half = kl_to_standard_normal(ad.constant([[1.0]]), ad.constant([[1.0]]))
        assert half.data[0] == pytest.approx(0.5, abs=1e-12)
        two = kl_to_standard_normal(ad.constant([[0.0]]), ad.constant([[2.0]]))
        assert two.data[0] == pytest.approx(0.5 * (4 - 1 - math.log(4)), abs=1e-9)

    def test_monte_carlo(self):
        rng = np.random.default_rng(8)
        u = np.array([0.4, -0.9, 0.1])
        s = np.array([0.6, 1.5, 0.9])
        closed = float(kl_to_standard_normal(ad.constant([u]), ad.constant([s])).data[0])
        draws = 100_000
        z = u + s * rng.standard_normal((draws, 3))
        log_q = -0.5 * (((z - u) / s) ** 2).sum(axis=1) - np.log(s).sum() - 1.5 * math.log(2 * math.pi)
        log_p = -0.5 * (z**2).sum(axis=1) - 1.5 * math.log(2 * math.pi)
        samples = log_q - log_p
        se = samples.std(ddof=1) / math.sqrt(draws)
        assert abs(samples.mean() - closed) <= 3 * se


class TestElbo:
    def test_alpha_zero_removes_kl(self, toy_setup):
        cfg, params, pairs, noise = toy_setup
        a0 = elbo(pairs[0], params, cfg, 0.0, noise[0]).item()
        a1 = elbo(pairs[0], params, cfg, 1.0, noise[0]).item()
        kl = float(
            ad.total(
                kl_to_standard_normal(
                    *infer_posterior(ad.rows(params["E"], Ragged([pairs[0].x]).ids), params)
                )
            ).data
        )
        assert kl > 0
        assert a0 - a1 == pytest.approx(kl, rel=1e-12)

    def test_uniform_heads_value(self, toy_setup):
        cfg, params, pairs, noise = toy_setup
        for name in ("W1", "b1", "W2", "b2"):
            params[name].data = np.zeros_like(params[name].data)
        pair = pairs[0]
        expected = pair.m * math.log(1 / 10) + pair.n * math.log(1 / 10)
        for eps in (noise[0], np.zeros_like(noise[0])):
            assert elbo(pair, params, cfg, 0.0, eps).item() == pytest.approx(expected, abs=1e-12)

    def test_alpha_out_of_range(self, toy_setup):
        cfg, params, pairs, noise = toy_setup
        with pytest.raises(ContractError):
            elbo(pairs[0], params, cfg, 1.5, noise[0])

    def test_single_instance_bound(self):
        cfg = ModelConfig(d=2, d_x=3)
        params = build_params(cfg, 5, 5, seed=21)
        pair = SentencePair((0, 2, 3), (2, 4, 3))
        rng = np.random.default_rng(22)
        draws = 10_000
        values = np.empty(draws)
        for k in range(draws):
            values[k] = elbo(pair, params, cfg, 1.0, rng.standard_normal((pair.m, 2))).item()
        se_elbo = values.std(ddof=1) / math.sqrt(draws)
        oracle, se_oracle = exact_log_marginal(pair, params, cfg, n_draws=200_000, seed=23)
        combined = math.sqrt(se_elbo**2 + se_oracle**2)
        assert values.mean() <= oracle + 3 * combined


class TestExactLogMarginal:
    def test_uniform_heads_constant_integrand(self):
        cfg = ModelConfig(d=2, d_x=3)
        params = build_params(cfg, 6, 7, seed=0)
        for name in ("W1", "b1", "W2", "b2"):
            params[name].data = np.zeros_like(params[name].data)
        pair = SentencePair((0, 2, 3), (4, 5))
        estimate, se = exact_log_marginal(pair, params, cfg, n_draws=2000, seed=1)
        expected = pair.m * math.log(1 / 6) + pair.n * math.log(1 / 7)
        assert estimate == pytest.approx(expected, abs=1e-12)
        assert se == 0.0

    def test_against_gauss_hermite_quadrature(self):
        # m = n = 1 with a 2-d latent: the marginal is a 2-d Gaussian
        # integral, computable by tensorized Gauss-Hermite quadrature
        cfg = ModelConfig(d=2, d_x=3)
        params = build_params(cfg, 2, 2, seed=9)
        pair = SentencePair((0,), (1,))
        nodes, weights = np.polynomial.hermite.hermgauss(60)
        grid = np.array(np.meshgrid(nodes, nodes)).reshape(2, -1).T  # [K, 2]
        wgrid = (weights[:, None] * weights[None, :]).reshape(-1)
        z = math.sqrt(2.0) * grid
        logits1 = z @ params["W1"].data.T + params["b1"].data
        p_x = np.exp(logits1[:, 0]) / np.exp(logits1).sum(axis=1)
        logits2 = z @ params["W2"].data.T + params["b2"].data
        p_y = np.exp(logits2[:, 1]) / np.exp(logits2).sum(axis=1)
        integral = (wgrid * p_x * p_y).sum() / math.pi
        expected = math.log(integral)
        estimate, se = exact_log_marginal(pair, params, cfg, n_draws=200_000, seed=10)
        assert abs(estimate - expected) <= 3 * max(se, 1e-12)

    def test_hierarchical_config_refused(self):
        # the oracle integrates z under N(0, I) only: for a hierarchical
        # model it would silently return the flat model's marginal
        cfg = ModelConfig(d=2, d_x=3, hierarchical=True, d_s=2)
        params = build_params(cfg, 5, 5, seed=0)
        with pytest.raises(ContractError, match="hierarchical"):
            exact_log_marginal(SentencePair((0, 2), (3,)), params, cfg, n_draws=10)

    def test_bound_on_twenty_random_models(self):
        rng = np.random.default_rng(30)
        for trial in range(20):
            cfg = ModelConfig(d=2, d_x=3)
            params = build_params(cfg, 5, 5, seed=100 + trial)
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            pair = SentencePair(
                (0, *rng.integers(2, 5, size=m - 1).tolist()) if m > 1 else (0,),
                tuple(rng.integers(2, 5, size=n).tolist()),
            )
            draws = 2000
            values = np.empty(draws)
            for k in range(draws):
                values[k] = elbo(pair, params, cfg, 1.0, rng.standard_normal((pair.m, 2))).item()
            se_elbo = values.std(ddof=1) / math.sqrt(draws)
            oracle, se_oracle = exact_log_marginal(pair, params, cfg, n_draws=100_000, seed=trial)
            combined = math.sqrt(se_elbo**2 + se_oracle**2)
            assert values.mean() <= oracle + 3 * combined


class TestFullElboGradient:
    def test_bow_gradient_matches_finite_differences(self, toy_setup):
        cfg, params, pairs, noise = toy_setup

        def loss():
            total = None
            for pair, eps in zip(pairs, noise):
                value = elbo(pair, params, cfg, 0.7, eps)
                total = value if total is None else ad.add(total, value)
            return ad.neg(total)

        report = gradient_check(loss, params, step=1e-5)
        assert report.max_rel_err <= 1e-4

    def test_css_gradient_matches_finite_differences(self, toy_setup):
        cfg, params, pairs, noise = toy_setup
        vocab = Vocabulary([f"w{k}" for k in range(8)])
        batch = pairs
        css_pair = (
            build_css_support(batch, vocab, "l1", n_neg=2, seed=1),
            build_css_support(batch, vocab, "l2", n_neg=2, seed=2),
        )

        def loss():
            total = None
            for pair, eps in zip(pairs, noise):
                value = elbo(pair, params, cfg, 0.5, eps, css_pair)
                total = value if total is None else ad.add(total, value)
            return ad.neg(total)

        report = gradient_check(loss, params, step=1e-5)
        assert report.max_rel_err <= 1e-4
