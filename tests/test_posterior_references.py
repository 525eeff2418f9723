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
That two-gather graph is kept here too, at the same ``TOL``."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alignvae import autodiff as ad
from alignvae import model as model_mod
from alignvae.autodiff import ParameterStore, Tape, Tensor
from alignvae.corpus import NULL_ID, SentencePair, Vocabulary, build_css_support
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


@st.composite
def models(draw):
    """A hierarchical bow or birnn model with every parameter drawn standard
    normal, a batch of 1-3 pairs, and noise for both latents."""
    cfg = ModelConfig(encoder=draw(st.sampled_from(["bow", "birnn"])), d=draw(st.integers(4, 8)),
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


def hier_elbo_against(reference, drawn, css):
    """The hierarchical objective's value and gradients, as arrays by name,
    with ``model.infer_sentence_posterior`` and then with ``reference`` in
    its place: (model's, reference's)."""
    cfg, params, pairs, eps_z, eps_s = drawn
    vocab = Vocabulary([f"w{k}" for k in range(V - 2)])  # V ids
    css_pair = tuple(build_css_support(pairs, vocab, side, n_neg=2, seed=3)
                     for side in ("l1", "l2")) if css else None

    def run():
        with Tape() as tape:
            root = model_mod.batch_elbo(pairs, params, cfg, 0.7, eps_z, eps_s, css_pair)
        return {"elbo": root.data, **tape.backward(root, params)}

    ours = run()
    original = model_mod.infer_sentence_posterior  # by hand: hypothesis refuses function fixtures
    model_mod.infer_sentence_posterior = reference
    try:
        return ours, run()
    finally:
        model_mod.infer_sentence_posterior = original


class TestSegmentMeanMatchesDenseReference:
    @FIXED
    @given(models(), st.booleans())
    def test_batch_elbo_values_and_gradients(self, drawn, css):
        """The hierarchical objective with ``ad.segment_mean`` against it
        with the dense averaging matmul in the sentence posterior."""
        assert_close_per_array(*hier_elbo_against(reference_sentence_posterior, drawn, css))


class TestOneGatherMatchesTwoGatherReference:
    @FIXED
    @given(models(), st.booleans())
    def test_batch_elbo_values_and_gradients(self, drawn, css):
        """The hierarchical objective whose sentence mean pools the encoder's
        rows of E against the one whose sentence posterior gathers E again."""
        assert_close_per_array(*hier_elbo_against(two_gather_sentence_posterior, drawn, css))


class TestEvaluationBlockMatchesReference:
    @FIXED
    @given(models())
    def test_posterior_params_np(self, drawn):
        cfg, params, pairs, _, _ = drawn
        x = Ragged([p.x for p in pairs])
        u, s = model_mod.posterior_params_np(x, params, cfg)
        ref_u, ref_s = reference_posterior_params_np(x, params, cfg)
        assert_close_per_array({"u": u, "s": s}, {"u": ref_u, "s": ref_s})
