"""The batched objective: one graph over the flat token layout of a batch.

The batch bound and its gradients must equal the sum of the one-pair
bounds (``elbo``, ``elbo_s`` and ``nibm_batch_log_likelihood`` of one
pair), which are batches of one themselves, for ragged batches of every
encoder.
"""

import math

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
from conftest import dense_of

V = 9  # ids 2..8 are words, so short sentences repeat ids often

RAGGED = [
    SentencePair((0,), (3, 3)),  # m = 1: NULL only
    SentencePair((0, 2, 5, 2), (4,)),  # repeated L1 id
    SentencePair((0, 7, 6), (8, 2, 8, 5)),  # repeated L2 id
]


def supports(pairs, seed=0, v=V):
    vocab = Vocabulary([f"w{k}" for k in range(v - 2)])
    batch = list(pairs)
    return (build_css_support(batch, vocab, "l1", n_neg=3, seed=seed),
            build_css_support(batch, vocab, "l2", n_neg=3, seed=seed + 1))


def noise_for(pairs, cfg, seed):
    rng = np.random.default_rng(seed)
    eps_z = [rng.standard_normal((p.m, cfg.d)) for p in pairs]
    eps_s = [rng.standard_normal(cfg.d_s) for _ in pairs]
    return eps_z, eps_s


def batch_graph(encoder, model, css=True, alpha=0.7, v=V):
    """The parameters, the tape and the root of one ``RAGGED`` batch graph:
    the ELBO of a flat or hierarchical model, or the NIBM log-likelihood,
    with sampled supports if ``css``, over vocabularies of ``v`` ids."""
    css_pair = supports(RAGGED, v=v) if css else (None, None)
    if model == "nibm":
        cfg = NIBMConfig(encoder=encoder, d_x=3)
        params = build_nibm_params(cfg, v, v, seed=4)
        with Tape() as tape:
            root = nibm_batch_log_likelihood(RAGGED, params, cfg, css_pair[1])
        return params, tape, root
    cfg = ModelConfig(encoder=encoder, d=3, d_x=4, hierarchical=model == "hierarchical", d_s=2)
    params = build_params(cfg, v, v, seed=1)
    eps_z, eps_s = noise_for(RAGGED, cfg, 2)
    with Tape() as tape:
        root = batch_elbo(RAGGED, params, cfg, alpha, np.concatenate(eps_z),
                          np.stack(eps_s) if cfg.hierarchical else None, css_pair)
    return params, tape, root


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


def dense_table_backward(tape, root, params):
    """``Tape.backward`` by its former rule, kept here as the reference:
    every ``RowGrad`` part becomes a zero table filled by ``np.add.at``,
    and every part is added into its node's gradient in arrival order."""
    grads = {id(root): np.ones(())}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.tensor), None)
        if g is None:
            continue
        for p, part in zip(node.parents, node.bwd(g)):
            if type(part) is ad.RowGrad:
                table = np.zeros(p.data.shape)
                np.add.at(table, part.ids, part.values)
                part = table
            if part is not None:
                acc = grads.get(id(p))
                grads[id(p)] = part if acc is None else acc + part
    return {name: grads.get(id(t), np.zeros_like(t.data)) for name, t in params.items()}


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
        params, tape, _ = batch_graph(encoder, model)
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
        _, tape, _ = batch_graph(encoder, model)
        kinds = [node.kind for node in tape.nodes]
        assert "transpose" not in kinds
        assert kinds.count("matmul") == n_affine

    @pytest.mark.parametrize("encoder,model,n_add", [
        ("bow", "flat", 2), ("bow", "hierarchical", 3), ("bow", "nibm", 0),
        ("birnn", "flat", 9), ("birnn", "hierarchical", 10), ("birnn", "nibm", 7),
    ])
    def test_sentence_blocks_are_linear_biases(self, encoder, model, n_add):
        """The sentence blocks ``N1``, ``N2`` and ``G1`` each take their base
        head as the bias of their ``linear``, so a hierarchical graph records
        no more ``add`` nodes than the flat one plus the sentence draw's."""
        _, tape, _ = batch_graph(encoder, model)
        assert [node.kind for node in tape.nodes].count("add") == n_add

    @pytest.mark.parametrize("encoder,model,n_nodes,n_kl", [
        ("bow", "flat", 30, 1), ("bow", "hierarchical", 48, 2), ("bow", "nibm", 14, 0),
        ("birnn", "flat", 163, 1), ("birnn", "hierarchical", 181, 2), ("birnn", "nibm", 147, 0),
    ])
    def test_one_node_per_kl_term(self, encoder, model, n_nodes, n_kl):
        """Each KL term (the token KL, and the sentence KL of the hierarchical
        bound) is one ``gaussian_kl`` node; the generic ops its 13-node chain
        used are gone from the tape, 12 nodes fewer per term."""
        _, tape, _ = batch_graph(encoder, model)
        kinds = [node.kind for node in tape.nodes]
        assert not {"div", "log", "sum_rows"} & set(kinds)
        assert kinds.count("gaussian_kl") == n_kl
        assert len(kinds) == n_nodes

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @pytest.mark.parametrize("model", ["flat", "hierarchical", "nibm"])
    def test_normalizers_gathered_only_for_the_l2_grid(self, encoder, model):
        """The L1 head subtracts its row normalizers as computed; only the L2
        marginal gathers its normalizers into the [N, m_max] grid. A birnn
        graph stacks both directions' states into one table."""
        _, tape, _ = batch_graph(encoder, model)
        kinds = {id(node.tensor): node.kind for node in tape.nodes}
        gathers = [node for node in tape.nodes if node.kind == "rows"
                   and kinds.get(id(node.parents[0])) == "logsumexp_rows"]
        assert len(gathers) == 1
        assert [node.kind for node in tape.nodes].count("stack") == (encoder == "birnn")

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @pytest.mark.parametrize("model", ["flat", "hierarchical", "nibm"])
    @pytest.mark.parametrize("css", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_scattered_rows_match_dense_tables(self, encoder, model, css, alpha):
        """``Tape.backward`` adds each gathered row into its table's gradient;
        its gradients of the training loss equal, byte for byte, those of
        the rule it replaced: one dense ``np.add.at`` table per gather,
        summed with the other parts in arrival order."""
        params, tape, root = batch_graph(encoder, model, css, alpha)
        with tape:
            loss = ad.neg(root)
        ref = dense_table_backward(tape, loss, params)
        got = tape.backward(loss, params=params)
        for name, g in got.items():
            assert g.tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @pytest.mark.parametrize("model", ["flat", "hierarchical", "nibm"])
    @pytest.mark.parametrize("css", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_row_grads_match_dense_tables(self, encoder, model, css, alpha):
        """The optimizer's backward (``row_grads=True``) hands a table
        compact exactly when only gathers reached it and they read at most
        half its rows, repeats counted; expanded, every gradient has the
        bytes of the default dense one. Over tables of twice the 8 rows
        the batch gathers from each (its 8 L1 tokens, or a sampled support
        of 8 ids), the embeddings and, under CSS, both sampled heads come
        back as rows."""
        params, tape, root = batch_graph(encoder, model, css, alpha, v=2 * 8)
        with tape:
            loss = ad.neg(root)
        dense = tape.backward(loss, params=params)
        rowwise = tape.backward(loss, params=params, row_grads=True)
        for name, g in rowwise.items():
            assert dense_of(g, params[name].shape).tobytes() == dense[name].tobytes(), name
            uses = [node for node in tape.nodes if any(p is params[name] for p in node.parents)]
            gathered = sum(node.tensor.data.size // math.prod(params[name].shape[1:]) for node in uses)
            by_rule = (bool(uses) and all(node.kind == "rows" for node in uses)
                       and 2 * gathered <= params[name].shape[0])
            assert (type(g) is ad.RowGrad) == by_rule, name
        compact = {name for name, g in rowwise.items() if type(g) is ad.RowGrad}
        assert "E" in compact
        if css:
            assert compact >= ({"out_W"} if model == "nibm" else {"W1", "W2"})

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
