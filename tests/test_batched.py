"""The batched objective: one graph over the flat token layout of a batch.

The batch bound and its gradients must equal the sum of the one-pair
bounds (``elbo``, ``elbo_s`` and ``nibm_batch_log_likelihood`` of one
pair), which are batches of one themselves, for ragged batches of every
encoder.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignvae import autodiff as ad
from alignvae import model as model_mod
from alignvae import training
from alignvae.autodiff import ParameterStore, Tape, gradient_check
from alignvae.baselines import (
    NIBMConfig,
    build_nibm_params,
    nibm_batch_log_likelihood,
)
from alignvae.corpus import SentencePair, Vocabulary, build_css_support, derive_seed
from alignvae.errors import ShapeError
from alignvae.hiermodel import elbo_s
from alignvae.model import ModelConfig, Ragged, batch_elbo, build_params, elbo
from alignvae.training import AdamState, TrainConfig

V = 9  # ids 2..8 are words, so short sentences repeat ids often

RAGGED = [
    SentencePair((0,), (3, 3)),  # m = 1: NULL only
    SentencePair((0, 2, 5, 2), (4,)),  # repeated L1 id
    SentencePair((0, 7, 6), (8, 2, 8, 5)),  # repeated L2 id
]


def supports(pairs, seed=0):
    vocab = Vocabulary([f"w{k}" for k in range(V - 2)])
    batch = list(pairs)
    return (build_css_support(batch, vocab, "l1", n_neg=3, seed=seed),
            build_css_support(batch, vocab, "l2", n_neg=3, seed=seed + 1))


def noise_for(pairs, cfg, seed):
    rng = np.random.default_rng(seed)
    eps_z = [rng.standard_normal((p.m, cfg.d)) for p in pairs]
    eps_s = [rng.standard_normal(cfg.d_s) for _ in pairs]
    return eps_z, eps_s


def batch_graph(encoder, model):
    """The parameters and the tape of one ``RAGGED`` batch graph: the ELBO of
    a flat or hierarchical model, or the NIBM log-likelihood."""
    if model == "nibm":
        cfg = NIBMConfig(encoder=encoder, d_x=3)
        params = build_nibm_params(cfg, V, V, seed=4)
        with Tape() as tape:
            nibm_batch_log_likelihood(RAGGED, params, cfg, supports(RAGGED)[1])
        return params, tape
    cfg = ModelConfig(encoder=encoder, d=3, d_x=4, hierarchical=model == "hierarchical", d_s=2)
    params = build_params(cfg, V, V, seed=1)
    eps_z, eps_s = noise_for(RAGGED, cfg, 2)
    with Tape() as tape:
        batch_elbo(RAGGED, params, cfg, 0.7, np.concatenate(eps_z),
                   np.stack(eps_s) if cfg.hierarchical else None, supports(RAGGED))
    return params, tape


def value_and_grads(build, params):
    with Tape() as tape:
        value = build()
    return value.item(), tape.backward(value, params=params)


def assert_close(batched, summed):
    (bv, bg), (sv, sg) = batched, summed
    assert abs(bv - sv) <= 1e-12 * abs(sv)
    for name, ref in sg.items():
        scale = max(np.abs(ref).max(), np.abs(bg[name]).max())
        assert np.abs(bg[name] - ref).max() <= 1e-12 * scale, name


def summed_pairs(pairs, one_pair):
    total = None
    for k, pair in enumerate(pairs):
        value = one_pair(k, pair)
        total = value if total is None else ad.add(total, value)
    return total


class TestRagged:
    def test_flat_layout(self):
        x = Ragged([(0, 4), (0,), (0, 5, 6)])
        np.testing.assert_array_equal(x.ids, [0, 4, 0, 0, 5, 6])
        np.testing.assert_array_equal(x.lengths, [2, 1, 3])
        np.testing.assert_array_equal(x.starts, [0, 2, 3])
        np.testing.assert_array_equal(x.seg, [0, 0, 1, 2, 2, 2])
        np.testing.assert_array_equal(x.positions(), [0, 1, 0, 0, 1, 2])

    def test_scan_steps_left_aligned(self):
        x = Ragged([(0, 4), (0,), (0, 5, 6)])
        # an ended sentence repeats the token it fed last
        np.testing.assert_array_equal(x.steps(reverse=False), [[0, 2, 3], [1, 2, 4], [1, 2, 5]])
        np.testing.assert_array_equal(x.steps(reverse=True), [[1, 2, 5], [0, 2, 4], [0, 2, 3]])

    def test_birnn_batch_matches_numpy_lstm(self):
        cfg = ModelConfig(encoder="birnn", d=2, d_x=3)
        params = build_params(cfg, V, V, seed=6)
        p = {name: t.data for name, t in params.items()}
        sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731

        def lstm(inputs, direction):
            def w(tag):
                return p[f"lstm_{direction}_{tag}"]

            h = c = np.zeros(cfg.d_x)
            out = []
            for x_t in inputs:
                pre = {g: w(f"W{g}") @ x_t + w(f"U{g}") @ h + w(f"b{g}") for g in "ifoc"}
                c = sig(pre["f"]) * c + sig(pre["i"]) * np.tanh(pre["c"])
                h = sig(pre["o"]) * np.tanh(c)
                out.append(h)
            return np.array(out)

        seqs = [p.x for p in RAGGED]
        x = Ragged(seqs)
        got = model_mod.encode_birnn(ad.rows(params["E"], x.ids), x, params).data
        want = np.concatenate([
            lstm(p["E"][list(x)], "fwd") + lstm(p["E"][list(x)][::-1], "bwd")[::-1]
            for x in seqs
        ])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_empty_sentence_rejected_by_birnn(self):
        params = build_params(ModelConfig(encoder="birnn", d=2, d_x=3), V, V, seed=0)
        with pytest.raises(ShapeError):
            x = Ragged([(0, 2), ()])
            model_mod.encode_birnn(ad.rows(params["E"], x.ids), x, params)


class TestSegmentMean:
    """``ad.segment_mean``: the sentence mean of the hierarchical model."""

    SEQS = [(0, 4, 4), (3,), (0, 5)]

    def test_values_are_sentence_means(self):
        x = Ragged(self.SEQS)
        table = np.random.default_rng(0).standard_normal((7, 2))
        means = ad.segment_mean(table[x.ids], x.lengths).data
        ref = np.stack([table[list(seq)].mean(axis=0) for seq in self.SEQS])
        assert np.abs(means - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_gradient_check(self):
        rng = np.random.default_rng(1)
        store = ParameterStore()
        table = store.add("E", rng.standard_normal((7, 3)))
        weights = ad.constant(rng.standard_normal((len(self.SEQS), 3)))
        x = Ragged(self.SEQS)

        def loss():
            return ad.total(ad.mul(ad.segment_mean(ad.rows(table, x.ids), x.lengths), weights))

        assert gradient_check(loss, store).max_rel_err <= 1e-8

    def test_empty_run_refused(self):
        # reduceat would return the next row as the empty run's "mean"
        with pytest.raises(ShapeError, match="empty run"):
            ad.segment_mean(np.ones((3, 2)), [2, 0, 1])

    def test_runs_must_tile_the_rows(self):
        with pytest.raises(ShapeError):
            ad.segment_mean(np.ones((3, 2)), [1, 1])


class TestBatchEqualsSumOfPairs:
    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("css", [False, True])
    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(
            st.builds(
                lambda x, y: SentencePair((0, *x), tuple(y)),
                st.lists(st.integers(2, V - 1), max_size=5),
                st.lists(st.integers(2, V - 1), max_size=4),
            ),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**16),
    )
    @example(pairs=RAGGED, seed=0)
    def test_elbo_and_gradients(self, encoder, hierarchical, css, pairs, seed):
        cfg = ModelConfig(encoder=encoder, d=3, d_x=4, hierarchical=hierarchical, d_s=2)
        params = build_params(cfg, V, V, seed=seed)
        css_pair = supports(pairs, seed) if css else None
        eps_z, eps_s = noise_for(pairs, cfg, seed)
        stacked_s = np.stack(eps_s) if hierarchical else None

        def one_pair(k, pair):
            if hierarchical:
                return elbo_s(pair, params, cfg, 0.7, eps_s[k], eps_z[k], css_pair)
            return elbo(pair, params, cfg, 0.7, eps_z[k], css_pair)

        batched = value_and_grads(
            lambda: batch_elbo(pairs, params, cfg, 0.7, np.concatenate(eps_z), stacked_s,
                               css_pair),
            params,
        )
        assert_close(batched, value_and_grads(lambda: summed_pairs(pairs, one_pair), params))

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    def test_nibm(self, encoder):
        cfg = NIBMConfig(encoder=encoder, d_x=3)
        params = build_nibm_params(cfg, V, V, seed=4)
        css = supports(RAGGED)[1]
        batched = value_and_grads(
            lambda: nibm_batch_log_likelihood(RAGGED, params, cfg, css), params
        )
        summed = value_and_grads(
            lambda: summed_pairs(
                RAGGED, lambda _, p: nibm_batch_log_likelihood([p], params, cfg, css)
            ),
            params,
        )
        assert_close(batched, summed)

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    def test_graph_size_does_not_grow_with_pairs(self, encoder):
        cfg = ModelConfig(encoder=encoder, d=3, d_x=4)
        params = build_params(cfg, V, V, seed=1)
        sizes = []
        for n_pairs in (2, 20):
            pairs = [RAGGED[2], RAGGED[1]] * (n_pairs // 2)  # same longest sentence
            with Tape() as tape:
                batch_elbo(pairs, params, cfg, 0.5,
                           np.zeros((sum(p.m for p in pairs), cfg.d)))
            sizes.append(len(tape.nodes))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @pytest.mark.parametrize("model", ["flat", "hierarchical", "nibm"])
    def test_one_gather_of_E(self, encoder, model):
        """One ``rows`` node reads E per batch graph: the encoder and the
        sentence mean share its rows."""
        params, tape = batch_graph(encoder, model)
        gathers = [node for node in tape.nodes
                   if node.kind == "rows" and node.parents[0] is params["E"]]
        assert len(gathers) == 1

    @pytest.mark.parametrize("encoder,model,n_affine", [
        ("bow", "flat", 4), ("bow", "hierarchical", 11), ("bow", "nibm", 2),
        ("birnn", "flat", 36), ("birnn", "hierarchical", 43), ("birnn", "nibm", 34),
    ])
    def test_one_node_per_affine_layer(self, encoder, model, n_affine):
        """Each affine layer is one ``linear`` node, recorded as ``matmul``,
        with no transpose of its weight on the tape."""
        _, tape = batch_graph(encoder, model)
        kinds = [node.kind for node in tape.nodes]
        assert "transpose" not in kinds
        assert kinds.count("matmul") == n_affine

    def test_noise_shape_checked(self):
        cfg = ModelConfig(d=3, d_x=4)
        params = build_params(cfg, V, V, seed=1)
        with pytest.raises(ShapeError):
            batch_elbo(RAGGED, params, cfg, 0.5, np.zeros((1, cfg.d)))


@pytest.mark.parametrize("encoder,hierarchical", [
    ("bow", False), ("birnn", False), ("bow", True),
])
def test_ragged_batch_gradient_check(encoder, hierarchical):
    cfg = ModelConfig(encoder=encoder, d=2, d_x=3, hierarchical=hierarchical, d_s=2)
    params = build_params(cfg, V, V, seed=12)
    eps_z, eps_s = noise_for(RAGGED, cfg, 13)
    css_pair = supports(RAGGED)

    def loss():
        return ad.neg(batch_elbo(RAGGED, params, cfg, 0.7, np.concatenate(eps_z),
                                 np.stack(eps_s) if hierarchical else None, css_pair))

    assert gradient_check(loss, params, step=1e-5).max_rel_err <= 1e-4


class TestBatchUpdateNoise:
    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_same_noise_in_the_per_pair_order(self, hierarchical, monkeypatch):
        cfg = ModelConfig(d=3, d_x=4, hierarchical=hierarchical, d_s=2)
        params = build_params(cfg, V, V, seed=2)
        vocab = Vocabulary([f"w{k}" for k in range(V - 2)])
        seen = []
        original = model_mod.batch_elbo

        def spy(pairs, params, cfg, alpha, eps_z, eps_s=None, css_pair=None):
            seen.append((eps_z, eps_s))
            return original(pairs, params, cfg, alpha, eps_z, eps_s, css_pair)

        monkeypatch.setattr(model_mod, "batch_elbo", spy)
        value = training._batch_update(
            list(RAGGED), params, cfg, TrainConfig(css=False), vocab, vocab, 0.5,
            AdamState(), batch_seed=77,
        )
        # the formula of the per-pair loop: eps_z of a pair, then its eps_s
        rng = np.random.default_rng(derive_seed(77, "noise"))
        want_z, want_s = [], []
        for pair in RAGGED:
            want_z.append(rng.standard_normal((pair.m, cfg.d)))
            if hierarchical:
                want_s.append(rng.standard_normal(cfg.d_s))
        (eps_z, eps_s), = seen
        assert eps_z.tobytes() == np.concatenate(want_z).tobytes()
        if hierarchical:
            assert eps_s.tobytes() == np.stack(want_s).tobytes()
        else:
            assert eps_s is None
        # and the value is the per-pair sum the loop returned, before the Adam step
        fresh = build_params(cfg, V, V, seed=2)
        per_pair = sum(
            (elbo_s(p, fresh, cfg, 0.5, want_s[k], want_z[k]) if hierarchical
             else elbo(p, fresh, cfg, 0.5, want_z[k])).item()
            for k, p in enumerate(RAGGED)
        )
        assert value == pytest.approx(per_pair, rel=1e-12)
