"""The one evaluation posterior, ``model.posterior_params_np``.

Align, lexsub, embed and wordsim all read it. It must equal the autodiff
heads of the training objective (``infer_posterior``; for the
hierarchical model given the sentence posterior mean as each token's
sentence draw), and every command must see the same posterior for the
same sentence.
"""

import numpy as np
import pytest

from alignvae import alignment, semeval
from alignvae import autodiff as ad
from alignvae import model as model_mod
from alignvae.corpus import NULL_ID, SentencePair, Vocabulary
from alignvae.hiermodel import kl_diag_gaussian
from alignvae.model import (
    ModelConfig, Ragged, build_params, encode, infer_posterior, infer_sentence_posterior,
)
from alignvae.semeval import LexSubInstance, rank_candidates, sentence_embedding

WORDS = ["cat", "dog", "bird", "sat", "ran", "fast"]
SENTENCES = [(NULL_ID, 2, 3, 4), (NULL_ID, 5), (NULL_ID, 6, 2, 2, 7)]
KINDS = [("bow", False), ("birnn", False), ("bow", True), ("birnn", True)]


def random_model(encoder, hierarchical, seed=5):
    """A model whose every parameter, biases and sentence blocks included,
    is drawn standard normal."""
    cfg = ModelConfig(encoder=encoder, d=4, d_x=6, hierarchical=hierarchical, d_s=3)
    vocab = Vocabulary(WORDS)
    params = build_params(cfg, len(vocab), len(vocab), seed=seed)
    rng = np.random.default_rng(seed)
    for _, tensor in params.items():
        tensor.data = rng.standard_normal(tensor.data.shape)
    return cfg, vocab, params


def hier_reference(x, params, cfg):
    """The conditioned autodiff heads at every sentence's posterior mean."""
    emb = ad.rows(params["E"], x.ids)
    u_k, _ = infer_sentence_posterior(emb, x, params)
    u, s = infer_posterior(encode(emb, x, params, cfg), params, ad.rows(u_k, x.seg))
    return u.data, s.data


class TestPosteriorParamsNp:
    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    def test_equals_autodiff_heads_bit_for_bit(self, encoder):
        cfg, _, params = random_model(encoder, False)
        for x in (Ragged(SENTENCES[:1]), Ragged(SENTENCES)):
            ref_u, ref_s = infer_posterior(encode(ad.rows(params["E"], x.ids), x, params, cfg),
                                           params)
            u, s = model_mod.posterior_params_np(x, params, cfg)
            assert u.tobytes() == ref_u.data.tobytes()
            assert s.tobytes() == ref_s.data.tobytes()

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    def test_hierarchical_conditions_on_sentence_mean(self, encoder):
        cfg, _, params = random_model(encoder, True)
        x = Ragged(SENTENCES)
        ref_u, ref_s = hier_reference(x, params, cfg)
        u, s = model_mod.posterior_params_np(x, params, cfg)
        assert u.tobytes() == ref_u.tobytes()
        assert s.tobytes() == ref_s.tobytes()
        # the conditioning is real: the unconditioned heads differ
        base_u, _ = infer_posterior(encode(ad.rows(params["E"], x.ids), x, params, cfg), params)
        assert np.abs(base_u.data - u).max() > 0.1

    @pytest.mark.parametrize("encoder,hierarchical", KINDS)
    def test_batch_rows_equal_one_sentence_calls(self, encoder, hierarchical):
        cfg, _, params = random_model(encoder, hierarchical)
        x = Ragged(SENTENCES)
        u, s = model_mod.posterior_params_np(x, params, cfg)
        for b, ids in enumerate(SENTENCES):
            one_u, one_s = model_mod.posterior_params_np(Ragged([ids]), params, cfg)
            rows = slice(x.starts[b], x.starts[b] + x.lengths[b])
            np.testing.assert_allclose(u[rows], one_u, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(s[rows], one_s, rtol=1e-12, atol=1e-15)


class TestOnePosteriorForEveryCommand:
    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    def test_hierarchical_align_lexsub_embed_agree(self, encoder, monkeypatch):
        """Align's score rows, lexsub's target row and the sentence
        embedding all come from the same conditioned posterior."""
        cfg, vocab, params = random_model(encoder, True)
        tokens = ["dog", "cat", "sat", "cat"]
        ids = (NULL_ID, *vocab.encode(tokens))

        seen = {}

        def record(key, fn, arg):
            def wrapper(*args):
                seen[key] = args[arg]
                return fn(*args)
            return wrapper

        # the posterior locations align scores, and the target's in lexsub
        monkeypatch.setattr(model_mod, "l2_head_log_probs",
                            record("align", model_mod.l2_head_log_probs, 0))
        monkeypatch.setattr(semeval, "cosine", record("lexsub", semeval.cosine, 1))
        alignment.viterbi_align(SentencePair(ids, (2, 3)), params, cfg)
        rank_candidates([LexSubInstance(tokens, 2, [("ran", 1.0)])], vocab, params, cfg,
                        metric="cosine")[0]
        monkeypatch.undo()
        embedded = sentence_embedding(ids, params, cfg)

        ref_u, _ = hier_reference(Ragged([ids]), params, cfg)
        np.testing.assert_allclose(seen["align"], ref_u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(seen["lexsub"], ref_u[3], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(embedded, ref_u[1:].mean(axis=0), rtol=1e-12, atol=1e-12)


class TestKlRanking:
    @pytest.mark.parametrize("reverse_kl", [False, True])
    @pytest.mark.parametrize("encoder,hierarchical", KINDS)
    def test_one_call_equals_per_candidate_kl_diag(self, encoder, hierarchical, reverse_kl):
        cfg, vocab, params = random_model(encoder, hierarchical)
        inst = LexSubInstance(
            sentence=["cat", "sat", "dog", "fast"],
            target_position=2,
            candidates=[("bird", 1.0), ("ran", 0.5), ("dog", 0.0), ("cat", 2.0), ("fast", 1.0)],
        )
        ranked = rank_candidates([inst], vocab, params, cfg, metric="kl",
                                 reverse_kl=reverse_kl)[0]

        def posterior_at(tokens):
            x = Ragged([(NULL_ID, *vocab.encode(tokens))])
            u, s = model_mod.posterior_params_np(x, params, cfg)
            return u[3], s[3]

        tgt = posterior_at(inst.sentence)
        expected = []
        for tok, weight in inst.candidates:
            swapped = list(inst.sentence)
            swapped[2] = tok
            cand = posterior_at(swapped)
            score = (kl_diag_gaussian(*tgt, *cand) if reverse_kl
                     else kl_diag_gaussian(*cand, *tgt))
            expected.append((tok, weight, score))
        expected.sort(key=lambda item: item[2])
        assert [(t, w) for t, w, _ in ranked] == [(t, w) for t, w, _ in expected]
        np.testing.assert_allclose([s for _, _, s in ranked], [s for _, _, s in expected],
                                   rtol=1e-12, atol=1e-15)


def mixed_instances(n_sentences, seed=0):
    """Random lexsub instances of 1-7 distinct candidates each (the one OOV
    word among them), until the target sentences and their substituted
    copies number more than ``n_sentences``."""
    rng = np.random.default_rng(seed)
    pool = [*WORDS, "zebra"]
    instances, total = [], 0
    while total <= n_sentences:
        sentence = list(rng.choice(WORDS, size=rng.integers(1, 7)))
        picked = rng.choice(pool, size=rng.integers(1, 8), replace=False)
        weights = [1.0] + list(rng.choice([0.0, 0.5, 2.0], size=len(picked) - 1))
        instances.append(LexSubInstance(sentence, int(rng.integers(len(sentence))),
                                        list(zip(picked.tolist(), weights))))
        total += 1 + len(picked)
    return instances


class TestBatchedRanking:
    @pytest.mark.parametrize("metric,reverse_kl", [("kl", False), ("kl", True), ("cosine", False)])
    @pytest.mark.parametrize("encoder,hierarchical", KINDS)
    def test_chunks_equal_one_instance_rankings(self, encoder, hierarchical, metric, reverse_kl,
                                                monkeypatch):
        cfg, vocab, params = random_model(encoder, hierarchical)
        instances = mixed_instances(model_mod.EVAL_CHUNK + 40)
        n_sentences = sum(1 + len(inst.candidates) for inst in instances)
        expected = [rank_candidates([inst], vocab, params, cfg, metric=metric,
                                    reverse_kl=reverse_kl)[0] for inst in instances]
        sizes, kl_calls = [], []
        posterior, kl_rows = model_mod.posterior_params_np, model_mod.gaussian_kl_rows
        monkeypatch.setattr(model_mod, "posterior_params_np",
                            lambda x, *a: sizes.append(x.size) or posterior(x, *a))
        monkeypatch.setattr(model_mod, "gaussian_kl_rows",
                            lambda *a: kl_calls.append(1) or kl_rows(*a))
        ranked = rank_candidates(instances, vocab, params, cfg, metric=metric,
                                 reverse_kl=reverse_kl)
        # each chunk encoded once; one KL call for every candidate of every instance
        assert sizes == [model_mod.EVAL_CHUNK, n_sentences - model_mod.EVAL_CHUNK]
        assert len(kl_calls) == (metric == "kl")
        assert len(ranked) == len(instances)
        for got, want in zip(ranked, expected):
            assert [(t, w) for t, w, _ in got] == [(t, w) for t, w, _ in want]
            np.testing.assert_allclose([s for _, _, s in got], [s for _, _, s in want],
                                       rtol=1e-12, atol=1e-15)
