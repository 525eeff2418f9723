"""The one posterior head against the two it replaced, kept here verbatim
as references: the flat head, the sentence-conditioned head and the
evaluation's sentence blocks. The merged head must give the same values
and the same ``Tape.backward`` gradients, bit for bit, inside the whole
objective too.

The sentence mean was once a product with a dense [B, T] averaging
matrix; it is now ``ad.segment_mean``, which rounds differently. The
dense form is kept here as the reference for the sentence posterior and
for the evaluation's sentence blocks: the objective, its gradients and
the evaluation posterior must match it within ``TOL`` of each array's
largest magnitude.

The sentence posterior once gathered the rows of E itself, a second
``rows`` node beside the encoder's; it now pools the encoder's rows, so
E's gradient sums each token's two uses before the per-id reduction.
That two-gather graph is kept here too, at the same ``TOL``.

Every KL was once a 13-node chain of generic ops (``log``, ``sub``,
``mul``, ``add``, ``div``, ``sum_rows``); it is now the one op
``ad.gaussian_kl``, with the chain's forward expressions and a
hand-written backward. The chain is kept here over test-only copies of
the three ops that left autodiff: the objective must equal it bit for
bit, and its gradients must match within ``TOL``.

The L1 head's sentence block ``G1`` was once a product of its own added
to the logits by an ``add`` node; it is now a ``linear`` whose bias is
the logits. That add form is kept here, and the objective and its
gradients must equal it bit for bit.

The L1 head once subtracted its row normalizers through an identity
``rows`` gather, as the L2 grid still does, and the BiLSTM once built a
``stack`` + ``reshape`` state table per direction; the L1 head now
subtracts the normalizers as computed and both directions share one
table. That graph is kept here too: the objective and the neural IBM1
likelihood, values and gradients, must equal it bit for bit."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignvae import autodiff as ad
from alignvae import model as model_mod
from alignvae.autodiff import ParameterStore, Tape, Tensor
from alignvae.baselines import NIBMConfig, build_nibm_params, nibm_batch_log_likelihood
from alignvae.corpus import NULL_ID, SentencePair, Vocabulary, build_css_support
from alignvae.errors import DomainError
from alignvae.model import (
    ModelConfig, Ragged, build_params, encode, infer_sentence_posterior, prior_mean,
    reparam_sample,
)

FIXED = settings(max_examples=40, deadline=None, derandomize=True, database=None)
V = 9
TOL = 1e-12  # times the largest magnitude of the reference array


def dense_averaging(x):
    """[B, T] weights whose product with per-token rows [T, k] gives every
    sentence's mean row [B, k]."""
    weights = np.zeros((x.size, len(x.ids)))
    weights[x.seg, np.arange(len(x.ids))] = 1.0 / x.lengths[x.seg]
    return weights


def dense_mean(emb, x):
    """Every sentence's mean row of ``emb`` [T, k] as one product with
    ``dense_averaging(x)``, on the tape as its own node: ``ad.linear``
    contracts the last axis of both operands, not the rows of ``emb``."""
    weights = dense_averaging(x)
    return ad._emit("matmul", weights @ emb.data, (emb,), lambda g: (weights.T @ g,))


def reference_sentence_posterior(emb, x, params: ParameterStore):
    pooled = dense_mean(emb, x)
    u_k = ad.linear(pooled, params["sent_Mu"], params["sent_bu"])
    s_k = ad.softplus(ad.linear(pooled, params["sent_Ms"], params["sent_bs"]))
    return u_k, s_k


def two_gather_sentence_posterior(emb, x, params: ParameterStore):
    """The sentence posterior over its own gather of E, ignoring the
    encoder's rows ``emb``: in ``batch_elbo`` it makes the graph that read
    E twice, once for the encoder and once for the sentence mean."""
    pooled = ad.segment_mean(ad.rows(params["E"], x.ids), x.lengths)
    u_k = ad.linear(pooled, params["sent_Mu"], params["sent_bu"])
    s_k = ad.softplus(ad.linear(pooled, params["sent_Ms"], params["sent_bs"]))
    return u_k, s_k


def reference_flat(h: Tensor, params: ParameterStore):
    u = ad.linear(h, params["M1"], params["d1"])
    s = ad.softplus(ad.linear(h, params["M2"], params["d2"]))
    return u, s


def reference_conditioned(s: Tensor, h: Tensor, params: ParameterStore):
    base_u = ad.linear(h, params["M1"], params["d1"])
    base_s_pre = ad.linear(h, params["M2"], params["d2"])
    l = ad.add(base_u, ad.linear(s, params["N1"]))
    r = ad.softplus(ad.add(base_s_pre, ad.linear(s, params["N2"])))
    return l, r


def reference_sentence_blocks_np(x, params: ParameterStore):
    u_k = dense_averaging(x) @ params["E"].data[x.ids] @ params["sent_Mu"].data.T
    u_k += params["sent_bu"].data
    s_tok = u_k[x.seg]
    return s_tok @ params["N1"].data.T, s_tok @ params["N2"].data.T


def reference_posterior_params_np(x, params, cfg):
    """The hierarchical evaluation posterior as the base numpy heads plus
    ``reference_sentence_blocks_np``."""
    h = encode(ad.rows(params["E"], x.ids), x, params, cfg).data
    u = h @ params["M1"].data.T
    u += params["d1"].data
    s_pre = h @ params["M2"].data.T
    s_pre += params["d2"].data
    block_u, block_s = reference_sentence_blocks_np(x, params)
    u += block_u
    s_pre += block_s
    return u, ad._softplus_values(s_pre)


def reference_head(h, params, s_tok=None):
    """``model.infer_posterior``'s signature over the two reference heads."""
    return reference_flat(h, params) if s_tok is None else reference_conditioned(s_tok, h, params)


def add_form_head_logits(z, weights, bias, css, s_block=None, s=None):
    """``model._head_logits`` with the ``G1`` sentence block as a product of
    its own and one ``add`` node, as before the block became the bias slot
    of its ``linear``."""
    if css is not None:
        weights, bias = ad.rows(weights, css.support_ids), ad.rows(bias, css.support_ids)
        if s is not None:
            s_block = ad.rows(s_block, css.support_ids)
    logits = ad.linear(z, weights, bias)
    if s is not None:
        logits = ad.add(logits, ad.linear(s, s_block))
    return logits


def gathered_norm_l1_sum(z, x_ids, params, css, s=None):
    """``model._l1_sum`` subtracting each row's normalizer through an
    identity ``rows`` gather, as the L2 grid does."""
    zrow = np.arange(len(x_ids))
    picked, norm = model_mod._cell_log_probs(z, zrow, x_ids, params["W1"], params["b1"], css,
                                             params["G1"] if s is not None else None, s)
    return ad.total(ad.sub(picked, ad.rows(norm, zrow)))


def two_table_encode_birnn(emb, x, params):
    """``model.encode_birnn`` with a state table per direction, each its own
    ``stack`` and ``reshape``, the forward one built before the backward scan."""
    def table(reverse, direction):
        states = model_mod._lstm_states(emb, x.steps(reverse), params, direction)
        return ad.reshape(ad.stack(states), (len(states) * x.size, -1))

    pos, fwd = x.positions(), table(False, "fwd")
    bwd = table(True, "bwd")
    return ad.add(ad.rows(fwd, pos * x.size + x.seg),
                  ad.rows(bwd, (x.lengths[x.seg] - 1 - pos) * x.size + x.seg))


PARENT_GRAPH = {"_l1_sum": gathered_norm_l1_sum, "encode_birnn": two_table_encode_birnn}


def reference_log(x):
    if np.any(x.data <= 0.0):
        raise DomainError("log: input has non-positive entries")
    return ad._emit("log", np.log(x.data), (x,), lambda g: (g / x.data,))


def reference_div(a, b):
    def bwd(g):
        return (ad._unbroadcast(g / b.data, a.data.shape),
                ad._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return ad._emit("div", a.data / b.data, (a, b), bwd)


def reference_sum_rows(a):
    k = a.data.shape[1]
    return ad._emit("sum_rows", a.data.sum(axis=1), (a,), lambda g: (np.repeat(g[:, None], k, axis=1),))


def reference_gaussian_kl_rows(u, s, mu=None, sigma=None):
    """``model.gaussian_kl_rows`` as the 13-node chain ``ad.gaussian_kl`` replaced."""
    if mu is None:
        mu = ad.constant(np.zeros(u.data.shape[1]))
    if sigma is None:
        sigma = ad.constant(np.ones(u.data.shape[1]))
    t1 = ad.sub(reference_log(sigma), reference_log(s))
    diff = ad.sub(u, mu)
    quad = reference_div(
        ad.add(ad.mul(s, s), ad.mul(diff, diff)),
        ad.mul(ad.constant(2.0), ad.mul(sigma, sigma)),
    )
    return reference_sum_rows(ad.add(t1, ad.sub(quad, ad.constant(0.5))))


@st.composite
def models(draw, encoders=("bow", "birnn")):
    """A hierarchical model with one of ``encoders`` and every parameter drawn
    standard normal, a batch of 1-3 pairs, and noise for both latents."""
    cfg = ModelConfig(encoder=draw(st.sampled_from(encoders)), d=draw(st.integers(4, 8)),
                      d_x=draw(st.integers(3, 6)), hierarchical=True, d_s=draw(st.integers(2, 4)))
    seed = draw(st.integers(0, 2**32 - 1))
    params = build_params(cfg, V, V, seed=0)
    rng = np.random.default_rng(seed)
    for _, tensor in params.items():
        tensor.data = rng.standard_normal(tensor.data.shape)
    ids = st.integers(2, V - 1)
    pairs = draw(st.lists(st.builds(
        lambda x, y: SentencePair((NULL_ID, *x), tuple(y)),
        st.lists(ids, min_size=1, max_size=5), st.lists(ids, min_size=1, max_size=5),
    ), min_size=1, max_size=3))
    eps_z = rng.standard_normal((sum(p.m for p in pairs), cfg.d))
    eps_s = rng.standard_normal((len(pairs), cfg.d_s))
    return cfg, params, pairs, eps_z, eps_s


def values_and_grads(objective, params):
    with Tape() as tape:
        root = objective()
    grads = tape.backward(root, params)
    return root.data.tobytes(), {name: g.tobytes() for name, g in grads.items()}


def assert_close_per_array(arrays, refs):
    """Every array within ``TOL`` of its reference's largest magnitude."""
    for name, ref in refs.items():
        bound = TOL * np.abs(ref).max(initial=0.0)
        assert np.abs(arrays[name] - ref).max(initial=0.0) <= bound, name


class TestHeadMatchesReference:
    @FIXED
    @given(models())
    def test_conditioned_head_values_and_gradients(self, drawn):
        """The head alone, its sentence draw also feeding the prior mean as
        in the objective, so the draw's gradient sums several branches."""
        cfg, params, pairs, _, eps_s = drawn
        x = Ragged([p.x for p in pairs])

        def objective(head):
            def run():
                emb = ad.rows(params["E"], x.ids)
                u_k, s_k = infer_sentence_posterior(emb, x, params)
                s_tok = ad.rows(reparam_sample(u_k, s_k, eps_s), x.seg)
                u, s = head(encode(emb, x, params, cfg), params, s_tok)
                kl = model_mod.gaussian_kl_rows(u, s, prior_mean(s_tok, params))
                return ad.add(ad.total(kl), ad.total(ad.mul(u, s)))
            return run

        assert (values_and_grads(objective(model_mod.infer_posterior), params)
                == values_and_grads(objective(reference_head), params))

    @FIXED
    @given(models())
    def test_flat_head_values_and_gradients(self, drawn):
        cfg, params, pairs, _, _ = drawn
        x = Ragged([p.x for p in pairs])

        def objective(head):
            def run():
                h = encode(ad.rows(params["E"], x.ids), x, params, cfg)
                return ad.total(ad.mul(*head(h, params)))
            return run

        assert (values_and_grads(objective(model_mod.infer_posterior), params)
                == values_and_grads(objective(reference_head), params))

    @FIXED
    @given(models(), st.booleans(), st.booleans())
    def test_batch_elbo_values_and_gradients(self, drawn, hierarchical, css):
        """The whole objective with the merged head equals it with the
        reference heads put in the merged head's place."""
        cfg, params, pairs, eps_z, eps_s = drawn
        if not hierarchical:
            cfg, eps_s = dataclasses.replace(cfg, hierarchical=False), None
        vocab = Vocabulary([f"w{k}" for k in range(V - 2)])  # V ids
        css_pair = tuple(build_css_support(pairs, vocab, side, n_neg=2, seed=3)
                         for side in ("l1", "l2")) if css else None

        def objective():
            return model_mod.batch_elbo(pairs, params, cfg, 0.7, eps_z, eps_s, css_pair)

        merged = values_and_grads(objective, params)
        original = model_mod.infer_posterior  # by hand: hypothesis refuses function fixtures
        model_mod.infer_posterior = reference_head
        try:
            reference = values_and_grads(objective, params)
        finally:
            model_mod.infer_posterior = original
        assert merged == reference


@contextlib.contextmanager
def swapped(references):
    """``model.<name>`` replaced by ``references[name]`` for every name, by
    hand: hypothesis refuses function fixtures such as ``monkeypatch``."""
    originals = {name: getattr(model_mod, name) for name in references}
    for name, reference in references.items():
        setattr(model_mod, name, reference)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(model_mod, name, original)


def elbo_against(references, drawn, css, hierarchical=True, alpha=0.7):
    """The objective's value and gradients, as arrays by name, with the
    model's functions and then with ``swapped(references)``: (model's,
    reference's). ``hierarchical`` picks the bound, ``alpha`` weights the KL."""
    cfg, params, pairs, eps_z, eps_s = drawn
    if not hierarchical:
        cfg, eps_s = dataclasses.replace(cfg, hierarchical=False), None
    vocab = Vocabulary([f"w{k}" for k in range(V - 2)])  # V ids
    css_pair = tuple(build_css_support(pairs, vocab, side, n_neg=2, seed=3)
                     for side in ("l1", "l2")) if css else None

    def run():
        with Tape() as tape:
            root = model_mod.batch_elbo(pairs, params, cfg, alpha, eps_z, eps_s, css_pair)
        return {"elbo": root.data, **tape.backward(root, params)}

    ours = run()
    with swapped(references):
        return ours, run()


class TestHeadLogitsMatchAddReference:
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("css", [True, False])
    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @FIXED
    @given(data=st.data())
    def test_batch_elbo_values_and_gradients(self, encoder, css, alpha, data):
        """The hierarchical objective whose L1 head takes its logits as the
        bias of the ``G1`` block's ``linear`` equals it, bit for bit, with
        the block added by its own ``add`` node."""
        ours, ref = elbo_against({"_head_logits": add_form_head_logits},
                                 data.draw(models(encoders=(encoder,))), css, alpha=alpha)
        assert ours.keys() == ref.keys()
        for name, array in ours.items():
            assert array.tobytes() == ref[name].tobytes(), name


class TestGraphMatchesGatheredNormReference:
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("css", [True, False])
    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @FIXED
    @given(data=st.data())
    def test_batch_elbo_values_and_gradients(self, encoder, css, hierarchical, alpha, data):
        """The objective whose L1 head subtracts its normalizer as computed
        and whose BiLSTM gathers from one state table equals it, bit for
        bit, with the gathered normalizer and a table per direction."""
        ours, ref = elbo_against(PARENT_GRAPH, data.draw(models(encoders=(encoder,))), css,
                                 hierarchical, alpha)
        assert ours.keys() == ref.keys()
        for name, array in ours.items():
            assert array.tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("css", [True, False])
    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    @FIXED
    @given(data=st.data())
    def test_nibm_values_and_gradients(self, encoder, css, data):
        """The neural IBM1 likelihood over the same encoder, likewise."""
        _, _, pairs, _, _ = data.draw(models(encoders=(encoder,)))
        cfg = NIBMConfig(encoder=encoder, d_x=data.draw(st.integers(3, 6)))
        params = build_nibm_params(cfg, V, V, seed=0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _, tensor in params.items():
            tensor.data = rng.standard_normal(tensor.data.shape)
        vocab = Vocabulary([f"w{k}" for k in range(V - 2)])
        support = build_css_support(pairs, vocab, "l2", n_neg=2, seed=3) if css else None

        def objective():
            return nibm_batch_log_likelihood(pairs, params, cfg, support)

        ours = values_and_grads(objective, params)
        with swapped(PARENT_GRAPH):
            assert values_and_grads(objective, params) == ours


class TestSegmentMeanMatchesDenseReference:
    @FIXED
    @given(models(), st.booleans())
    def test_batch_elbo_values_and_gradients(self, drawn, css):
        """The hierarchical objective with ``ad.segment_mean`` against it
        with the dense averaging matmul in the sentence posterior."""
        assert_close_per_array(*elbo_against(
            {"infer_sentence_posterior": reference_sentence_posterior}, drawn, css))


class TestOneGatherMatchesTwoGatherReference:
    @FIXED
    @given(models(), st.booleans())
    def test_batch_elbo_values_and_gradients(self, drawn, css):
        """The hierarchical objective whose sentence mean pools the encoder's
        rows of E against the one whose sentence posterior gathers E again."""
        assert_close_per_array(*elbo_against(
            {"infer_sentence_posterior": two_gather_sentence_posterior}, drawn, css))


class TestKLOpMatchesChainReference:
    @FIXED
    @given(models(), st.booleans(), st.booleans())
    def test_batch_elbo_values_and_gradients(self, drawn, hierarchical, css):
        """The objective with ``ad.gaussian_kl`` against it with the 13-node
        chain in every KL: bow and birnn, flat and hierarchical, CSS and
        exact softmax, at alpha 0.7 so the KL gradients reach the parameters."""
        ours, chain = elbo_against({"gaussian_kl_rows": reference_gaussian_kl_rows},
                                   drawn, css, hierarchical)
        assert ours["elbo"].tobytes() == chain["elbo"].tobytes()
        assert_close_per_array(ours, chain)


class TestEvaluationBlockMatchesReference:
    @FIXED
    @given(models())
    def test_posterior_params_np(self, drawn):
        cfg, params, pairs, _, _ = drawn
        x = Ragged([p.x for p in pairs])
        u, s = model_mod.posterior_params_np(x, params, cfg)
        ref_u, ref_s = reference_posterior_params_np(x, params, cfg)
        assert_close_per_array({"u": u, "s": s}, {"u": ref_u, "s": ref_s})
