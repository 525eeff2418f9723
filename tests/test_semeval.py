import math
import warnings

import numpy as np
import pytest

from alignvae.corpus import NULL_ID, UNK_TOKEN, Vocabulary
from alignvae.errors import ContractError, DataError, DomainError, MetricError
from alignvae.hiermodel import kl_diag_gaussian
from alignvae import model as model_mod
from alignvae.model import ModelConfig, Ragged, build_params, posterior_params_np
from alignvae.semeval import (
    LexSubInstance,
    cosine,
    gap,
    mean_gap,
    parse_lexsub,
    parse_wordsim,
    rank_candidates,
    sentence_embedding,
    sentence_embeddings,
    spearman,
    type_embeddings_for_corpus,
)


@pytest.fixture
def small_model():
    cfg = ModelConfig(encoder="bow", d=3, d_x=4)
    vocab = Vocabulary(["cat", "dog", "bird", "sat", "ran"])
    params = build_params(cfg, len(vocab), len(vocab), seed=13)
    return cfg, vocab, params


def encode_sentence(vocab, tokens):
    return (NULL_ID, *vocab.encode(tokens))


class TestKlDiag:
    def test_identity_is_zero(self):
        u, s = np.array([0.7, -0.2]), np.array([1.1, 0.4])
        assert kl_diag_gaussian(u, s, u, s) == pytest.approx(0.0, abs=1e-12)

    def test_analytic(self):
        assert kl_diag_gaussian([0.0], [1.0], [0.0], [2.0]) == pytest.approx(0.3181472, abs=1e-7)

    def test_asymmetry_witnessed(self):
        p = (np.array([0.0]), np.array([1.0]))
        q = (np.array([1.5]), np.array([0.3]))
        forward = kl_diag_gaussian(p[0], p[1], q[0], q[1])
        backward = kl_diag_gaussian(q[0], q[1], p[0], p[1])
        assert forward != pytest.approx(backward, rel=1e-3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            kl_diag_gaussian([0.0], [-1.0], [0.0], [1.0])


class TestRankCandidates:
    @pytest.mark.parametrize("metric", ["kl", "cosine"])
    def test_no_instances(self, small_model, metric):
        cfg, vocab, params = small_model
        assert rank_candidates([], vocab, params, cfg, metric=metric) == []

    def test_self_substitution_ranks_first(self, small_model):
        cfg, vocab, params = small_model
        inst = LexSubInstance(
            sentence=["cat", "sat"],
            target_position=0,
            candidates=[("dog", 1.0), ("cat", 2.0), ("bird", 0.0)],
        )
        ranked = rank_candidates([inst], vocab, params, cfg, metric="kl")[0]
        assert ranked[0][0] == "cat"
        assert ranked[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_cosine_identity_ranks_first(self, small_model):
        cfg, vocab, params = small_model
        inst = LexSubInstance(
            sentence=["dog", "ran"],
            target_position=0,
            candidates=[("bird", 1.0), ("dog", 1.0)],
        )
        ranked = rank_candidates([inst], vocab, params, cfg, metric="cosine")[0]
        assert ranked[0][0] == "dog"
        assert ranked[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_recomputation(self, small_model):
        cfg, vocab, params = small_model
        inst = LexSubInstance(
            sentence=["cat", "sat", "dog"],
            target_position=2,
            candidates=[("bird", 1.0), ("ran", 0.5), ("cat", 0.0), ("sat", 2.0)],
        )
        ranked = rank_candidates([inst], vocab, params, cfg, metric="kl")[0]
        # independent recomputation straight from posterior heads
        ids = encode_sentence(vocab, inst.sentence)
        tu, ts = posterior_params_np(Ragged([ids]), params, cfg)
        tu, ts = tu[3], ts[3]
        expected = []
        for tok, w in inst.candidates:
            swapped = list(inst.sentence)
            swapped[2] = tok
            cu, cs = posterior_params_np(Ragged([encode_sentence(vocab, swapped)]), params, cfg)
            cu, cs = cu[3], cs[3]
            div = float(
                (np.log(ts / cs) + (cs**2 + (cu - tu) ** 2) / (2 * ts**2) - 0.5).sum()
            )
            expected.append((tok, div))
        expected.sort(key=lambda item: item[1])
        assert [tok for tok, _, _ in ranked] == [tok for tok, _ in expected]

    def test_oov_candidate_reads_unk_silently(self, small_model):
        cfg, vocab, params = small_model

        def ranked(tok):
            inst = LexSubInstance(sentence=["cat"], target_position=0, candidates=[(tok, 1.0)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return rank_candidates([inst], vocab, params, cfg)[0]

        assert ranked("zebra")[0][2] == ranked(UNK_TOKEN)[0][2]

    def test_reverse_direction_flag(self, small_model):
        cfg, vocab, params = small_model
        inst = LexSubInstance(
            sentence=["cat", "sat"],
            target_position=0,
            candidates=[("dog", 1.0), ("bird", 1.0)],
        )
        fwd = rank_candidates([inst], vocab, params, cfg, metric="kl")[0]
        rev = rank_candidates([inst], vocab, params, cfg, metric="kl", reverse_kl=True)[0]
        assert {t for t, _, _ in fwd} == {t for t, _, _ in rev}
        assert fwd[0][2] != pytest.approx(rev[0][2], rel=1e-6)


    def test_reverse_kl_with_cosine_rejected(self, small_model):
        cfg, vocab, params = small_model
        inst = LexSubInstance(["cat", "sat"], 0, [("dog", 1.0), ("bird", 0.0)])
        with pytest.raises(ContractError):
            rank_candidates([inst], vocab, params, cfg, metric="cosine", reverse_kl=True)


class TestGap:
    def test_saturated(self):
        for order in ([1.0, 1.0, 1.0], [2.0, 2.0]):
            assert gap(order) == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        assert gap([2.0, 0.0, 1.0]) == pytest.approx(0.857143, abs=1e-6)
        assert gap([2.0, 0.0, 1.0]) == pytest.approx(3.0 / 3.5, abs=1e-12)

    def test_single_gold_first(self):
        assert gap([1.0, 0.0, 0.0, 0.0]) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(MetricError):
            gap([0.0, 0.0])

    def test_range_property(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            weights = rng.choice([0.0, 0.5, 1.0, 2.0], size=rng.integers(1, 8))
            if np.all(weights == 0):
                continue
            assert 0.0 <= gap(weights) <= 1.0 + 1e-12

    def test_invariant_to_permuting_equal_weight_runs(self):
        # swapping candidates that carry identical gold weights cannot
        # change the score, wherever they sit in the ranking
        base = [1.0, 0.5, 0.5, 0.0, 2.0, 0.5]
        swapped = [1.0, 0.5, 0.5, 0.0, 2.0, 0.5]
        swapped[1], swapped[2] = swapped[2], swapped[1]
        assert gap(base) == gap(swapped)


class TestEmbeddings:
    def test_type_table_single_occurrence(self, small_model):
        cfg, vocab, params = small_model
        ids = [encode_sentence(vocab, ["cat", "sat"])]
        table = type_embeddings_for_corpus(ids, params, cfg)
        u, _ = posterior_params_np(Ragged([ids[0]]), params, cfg)
        assert set(table) == {vocab.id("cat"), vocab.id("sat")}
        np.testing.assert_array_equal(table[vocab.id("cat")], u[1])

    def test_type_table_bow_context_independent(self, small_model):
        cfg, vocab, params = small_model
        ids = [
            encode_sentence(vocab, ["cat", "sat"]),
            encode_sentence(vocab, ["dog", "cat", "ran"]),
        ]
        both = type_embeddings_for_corpus(ids, params, cfg)[vocab.id("cat")]
        single = type_embeddings_for_corpus(ids[:1], params, cfg)[vocab.id("cat")]
        np.testing.assert_allclose(both, single, atol=1e-15)

    def test_type_table_birnn_two_contexts(self):
        cfg = ModelConfig(encoder="birnn", d=3, d_x=4)
        vocab = Vocabulary(["cat", "dog", "sat"])
        params = build_params(cfg, len(vocab), len(vocab), seed=3)
        ids = [
            encode_sentence(vocab, ["cat", "sat"]),
            encode_sentence(vocab, ["dog", "cat"]),
        ]
        emb = type_embeddings_for_corpus(ids, params, cfg)[vocab.id("cat")]
        u0, _ = posterior_params_np(Ragged([ids[0]]), params, cfg)
        u1, _ = posterior_params_np(Ragged([ids[1]]), params, cfg)
        np.testing.assert_allclose(emb, (u0[1] + u1[2]) / 2.0, atol=1e-15)

    def test_sentence_embedding_singleton(self, small_model):
        cfg, vocab, params = small_model
        ids = encode_sentence(vocab, ["bird"])
        emb = sentence_embedding(ids, params, cfg)
        u, _ = posterior_params_np(Ragged([ids]), params, cfg)
        np.testing.assert_array_equal(emb, u[1])

    def test_sentence_embedding_idempotent_average(self, small_model):
        cfg, vocab, params = small_model
        one = sentence_embedding(encode_sentence(vocab, ["cat"]), params, cfg)
        two = sentence_embedding(encode_sentence(vocab, ["cat", "cat"]), params, cfg)
        np.testing.assert_allclose(two, one, atol=1e-15)

    def test_sentence_embedding_is_column_mean(self, small_model):
        cfg, vocab, params = small_model
        ids = encode_sentence(vocab, ["cat", "sat", "dog"])
        emb = sentence_embedding(ids, params, cfg)
        u, _ = posterior_params_np(Ragged([ids]), params, cfg)
        np.testing.assert_allclose(emb, u[1:].mean(axis=0), atol=1e-15)

    def test_sentence_embedding_empty_rejected(self, small_model):
        cfg, _, params = small_model
        with pytest.raises(ContractError):
            sentence_embedding((NULL_ID,), params, cfg)


class TestChunkedEmbeddings:
    """The corpus goes through the encoder in chunks; every value must
    match the sentence-by-sentence reference."""

    @pytest.fixture
    def corpus_ids(self):
        rng = np.random.default_rng(21)
        return [(NULL_ID, *rng.integers(1, 7, size=rng.integers(1, 6)).tolist())
                for _ in range(model_mod.EVAL_CHUNK + 45)]

    @pytest.mark.parametrize("encoder,hierarchical", [
        ("bow", False), ("birnn", False), ("bow", True), ("birnn", True)])
    def test_match_one_sentence_reference(self, corpus_ids, encoder, hierarchical):
        cfg = ModelConfig(encoder=encoder, d=3, d_x=4, hierarchical=hierarchical, d_s=2)
        params = build_params(cfg, 7, 7, seed=5)
        sums, counts, means = {}, {}, []
        for ids in corpus_ids:
            u, _ = posterior_params_np(Ragged([ids]), params, cfg)
            means.append(u[1:].mean(axis=0))
            for tid, row in zip(ids[1:], u[1:]):
                sums[tid] = sums.get(tid, 0.0) + row
                counts[tid] = counts.get(tid, 0) + 1
        table = type_embeddings_for_corpus(corpus_ids, params, cfg)
        assert list(table) == list(dict.fromkeys(t for ids in corpus_ids for t in ids[1:]))
        for tid, vec in table.items():
            np.testing.assert_allclose(vec, sums[tid] / counts[tid], rtol=1e-12, atol=0)
        got = sentence_embeddings(corpus_ids, params, cfg)
        assert len(got) == len(corpus_ids)
        np.testing.assert_allclose(np.array(got), np.array(means), rtol=1e-12, atol=0)

    def test_no_sentences(self, small_model):
        cfg, _, params = small_model
        assert type_embeddings_for_corpus([], params, cfg) == {}
        assert sentence_embeddings([], params, cfg) == []

    def test_empty_sentence_anywhere_rejected(self, small_model):
        cfg, vocab, params = small_model
        with pytest.raises(ContractError, match="^sentence_embeddings: empty sentence$"):
            sentence_embeddings([encode_sentence(vocab, ["cat"]), (NULL_ID,)], params, cfg)


class TestCosine:
    def test_identity(self):
        v = np.array([0.3, -2.0, 1.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_arithmetic(self):
        assert cosine([1.0, 2.0], [2.0, 1.0]) == pytest.approx(0.8, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, size=5)
        b = rng.uniform(-1, 1, size=5)
        assert cosine(2.5 * a, 7.0 * b) == pytest.approx(cosine(a, b), abs=1e-12)


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0, abs=1e-12)

    def test_tie_corrected_value(self):
        # sys [1,2,2,3] ranks to [1, 2.5, 2.5, 4]; gold [1,3,2,4] to
        # [1,3,2,4]; Pearson of the ranks is 4.5/sqrt(4.5*5) = 3/sqrt(10)
        got = spearman([1, 2, 2, 3], [1, 3, 2, 4])
        assert got == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-12)
        # independent recomputation from the rank definition
        rs = np.array([1.0, 2.5, 2.5, 4.0])
        rg = np.array([1.0, 3.0, 2.0, 4.0])
        reference = np.corrcoef(rs, rg)[0, 1]
        assert got == pytest.approx(reference, abs=1e-12)

    def test_constant_list_rejected(self):
        with pytest.raises(MetricError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            spearman([1, 2], [1, 2, 3])


class TestParsers:
    def test_lexsub_round_trip(self, tmp_path):
        path = tmp_path / "lst.tsv"
        path.write_text(
            "bright\t1\tthe bright star shone\tsmart:2;shiny:1;dull:0\n",
            encoding="utf-8",
        )
        instances = parse_lexsub(path)
        assert len(instances) == 1
        inst = instances[0]
        assert inst.sentence == ["the", "bright", "star", "shone"]
        assert inst.target_position == 1
        assert inst.candidates == [("smart", 2.0), ("shiny", 1.0), ("dull", 0.0)]

    def test_lexsub_field_count_error(self, tmp_path):
        path = tmp_path / "lst.tsv"
        path.write_text("only\ttwo\n", encoding="utf-8")
        with pytest.raises(DataError):
            parse_lexsub(path)

    def test_lexsub_requires_positive_gold(self, tmp_path):
        path = tmp_path / "lst.tsv"
        path.write_text("w\t0\tw x\ta:0;b:0\n", encoding="utf-8")
        with pytest.raises(DataError):
            parse_lexsub(path)

    @pytest.mark.parametrize("line", [
        "w\t0\tw x\ta:two;b:0\n",
        "w\tone\tw x\ta:2;b:0\n",
    ])
    def test_lexsub_bad_number_names_line(self, tmp_path, line):
        path = tmp_path / "lst.tsv"
        path.write_text("# header\n" + line, encoding="utf-8")
        with pytest.raises(DataError, match=r"lst\.tsv:2: bad number"):
            parse_lexsub(path)

    @pytest.mark.parametrize("line", ["sun moon x\n", "sun moon 3.1 y\n"])
    def test_wordsim_bad_number_names_line(self, tmp_path, line):
        path = tmp_path / "ws.txt"
        path.write_text("cat dog 8.5\n" + line, encoding="utf-8")
        with pytest.raises(DataError, match=r"ws\.txt:2: bad number"):
            parse_wordsim(path)

    def test_wordsim_parse(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("cat dog 8.5\nsun moon 3.1 0.4\n", encoding="utf-8")
        rows = parse_wordsim(path)
        assert rows[0] == ("cat", "dog", 8.5, None)
        assert rows[1] == ("sun", "moon", 3.1, 0.4)

    def test_mean_gap_order(self, small_model):
        cfg, vocab, params = small_model
        instances = [
            LexSubInstance(["cat", "sat"], 0, [("cat", 1.0), ("dog", 0.0)]),
            LexSubInstance(["dog"], 0, [("dog", 2.0)]),
        ]
        score, per_instance = mean_gap(instances, vocab, params, cfg)
        assert len(per_instance) == 2
        assert score == pytest.approx(float(np.mean(per_instance)))

    def test_mean_gap_of_no_instances_raises(self, small_model):
        cfg, vocab, params = small_model
        with pytest.raises(MetricError, match="no instances"):
            mean_gap([], vocab, params, cfg)
