import numpy as np
import pytest

from alignvae import model as model_mod
from alignvae.alignment import (
    GoldAlignment,
    aer,
    align_pairs,
    argmax_links,
    corpus_aer,
    parse_gold,
    viterbi_align,
)
from alignvae.corpus import SentencePair, write_links
from alignvae.errors import GoldFormatError, NumericalError
from alignvae.model import ModelConfig, build_params


def make_gold(sure, possible=None):
    sure = frozenset(sure)
    possible = frozenset(possible) if possible is not None else sure
    return GoldAlignment(sure, sure | possible)


def column(*scores):
    """A one-token [m, 1] score matrix."""
    return np.array(scores, dtype=float)[:, None]


class TestArgmaxLinks:
    def test_word_beats_null(self):
        assert argmax_links(column(0.1, 0.7)) == {(1, 1)}

    def test_exact_word_tie_takes_lowest(self):
        assert argmax_links(column(-2.0, 1.5, 1.5)) == {(1, 1)}

    def test_null_needs_strict_win(self):
        assert argmax_links(column(0.5, 0.5)) == {(1, 1)}
        assert argmax_links(column(0.6, 0.5)) == set()

    def test_null_only_sentence(self):
        assert argmax_links(column(0.3)) == set()

    def test_nan_column_follows_np_argmax(self):
        # a NaN word score wins the argmax; a NaN NULL score never wins
        scores = np.array([[5.0, np.nan, 0.0],
                           [1.0, 2.0, np.nan],
                           [np.nan, 1.0, 1.0]])
        assert argmax_links(scores) == {(1, 2), (2, 1), (3, 1)}

    def test_zero_columns(self):
        assert argmax_links(np.zeros((3, 0))) == set()
        assert argmax_links(np.zeros((1, 0))) == set()

    def test_one_row_matrix(self):
        assert argmax_links(np.array([[-1.0, 0.0, 2.0]])) == set()

    def test_links_are_python_ints(self):
        links = argmax_links(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]]))
        assert links == {(1, 2), (2, 1)}
        assert all(type(v) is int for link in links for v in link)


class TestViterbiAlign:
    def _two_word_model(self):
        # d = 1, two L2 classes; posterior mean of each L1 token is its
        # (embedding -> head) projection, hand-set through E and M1
        cfg = ModelConfig(encoder="bow", d=1, d_x=1)
        params = build_params(cfg, 4, 2, seed=0)
        params["E"].data = np.array([[-5.0], [0.0], [1.0], [1.0]])  # null, unk, a, b
        params["M1"].data = np.array([[1.0]])
        params["d1"].data = np.zeros(1)
        params["W2"].data = np.array([[1.0], [-1.0]])
        params["b2"].data = np.zeros(2)
        return cfg, params

    def test_word_preferred_over_null(self):
        cfg, params = self._two_word_model()
        pair = SentencePair((0, 2), (0,))
        assert viterbi_align(pair, params, cfg) == {(1, 1)}

    def test_exact_tie_takes_position_one(self):
        cfg, params = self._two_word_model()
        # tokens 2 and 3 share the same embedding, hence identical scores
        pair = SentencePair((0, 2, 3), (0, 0))
        assert viterbi_align(pair, params, cfg) == {(1, 1), (2, 1)}

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        table = rng.uniform(-1, 1, size=(3, 3))  # hand-built score table
        links = argmax_links(table)
        for j in range(3):
            best, best_i = -np.inf, 0
            for i in range(1, 3):
                if table[i, j] > best:
                    best, best_i = table[i, j], i
            expected_null = table[0, j] > best
            if expected_null:
                assert all(link[0] != j + 1 for link in links)
            else:
                assert (j + 1, best_i) in links

    def test_rescaling_unnormalized_scores_is_invariant(self):
        # multiplying the unnormalized per-position scores by any positive
        # constant shifts the logits by a row constant, which the softmax
        # normalization cancels before the argmax
        rng = np.random.default_rng(2)
        logits = rng.uniform(-1, 1, size=(4, 6))

        def normalized(mat):
            hi = mat.max(axis=1, keepdims=True)
            return mat - (hi + np.log(np.exp(mat - hi).sum(axis=1, keepdims=True)))

        y = np.array([0, 3, 5, 2, 2])
        base = argmax_links(normalized(logits)[:, y])
        shifted = logits + rng.uniform(0.1, 50.0, size=(4, 1))
        assert argmax_links(normalized(shifted)[:, y]) == base


def random_model(encoder, hierarchical, v=7, seed=4):
    """Every parameter drawn standard normal, so no two positions tie
    unless they hold the same id in a bow sentence."""
    cfg = ModelConfig(encoder=encoder, d=3, d_x=4, hierarchical=hierarchical, d_s=2)
    params = build_params(cfg, v, v, seed=seed)
    rng = np.random.default_rng(seed)
    for _, tensor in params.items():
        tensor.data = rng.standard_normal(tensor.data.shape)
    return cfg, params


def mixed_pairs(n, v=7, seed=8):
    """``n`` pairs of 0-6 real L1 and 0-6 L2 tokens, repeats included; the
    first has an empty L1 line (NULL only), the second an empty L2 line."""
    rng = np.random.default_rng(seed)
    pairs = [SentencePair((0,), (3, 4)), SentencePair((0, 2, 5), ())]
    for _ in range(n - 2):
        m, k = rng.integers(0, 7, size=2)
        pairs.append(SentencePair((0, *rng.integers(1, v, size=m).tolist()),
                                  tuple(rng.integers(0, v, size=k).tolist())))
    return pairs


def one_pair_links(pair, params, cfg):
    """The decode of one pair written out: posterior means of the pair
    alone, exact head, ``argmax_links``."""
    u = model_mod.posterior_means(model_mod.Ragged([pair.x]), params, cfg)
    log_probs = model_mod.l2_head_log_probs(u, params["W2"], params["b2"])
    return argmax_links(log_probs[:, list(pair.y)])


class TestAlignPairs:
    @pytest.mark.parametrize("encoder,hierarchical", [
        ("bow", False), ("birnn", False), ("bow", True), ("birnn", True)])
    def test_chunks_equal_one_pair_decodes(self, encoder, hierarchical, monkeypatch):
        cfg, params = random_model(encoder, hierarchical)
        pairs = mixed_pairs(model_mod.EVAL_CHUNK + 37)
        expected = [one_pair_links(p, params, cfg) for p in pairs]
        sizes = []
        means = model_mod.posterior_means
        monkeypatch.setattr(model_mod, "posterior_means",
                            lambda x, *a: sizes.append(x.size) or means(x, *a))
        assert align_pairs(pairs, params, cfg) == expected
        assert sizes == [model_mod.EVAL_CHUNK, 37]  # each chunk encoded once
        assert expected[0] == set() and expected[1] == set()

    def test_no_pairs(self):
        cfg, params = random_model("bow", False)
        assert align_pairs([], params, cfg) == []

    def test_overflowing_head_raises_numerical_error(self):
        cfg, params = random_model("bow", False)
        params["b2"].data[:2] = [1.7e308, -1.7e308]
        with pytest.raises(NumericalError, match="non-finite log-probability"):
            align_pairs(mixed_pairs(3), params, cfg)


class TestAer:
    def test_perfect(self):
        gold = make_gold({(1, 1), (2, 2)})
        assert aer({(1, 1), (2, 2)}, gold) == 0.0

    def test_hand_case(self):
        gold = GoldAlignment(frozenset({(1, 1)}), frozenset({(1, 1), (2, 3)}))
        value = aer({(1, 1), (2, 2)}, gold)
        assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_prediction_nonempty_sure(self):
        gold = make_gold({(1, 1)})
        assert aer(set(), gold) == 1.0

    def test_both_empty(self):
        gold = GoldAlignment(frozenset(), frozenset())
        assert aer(set(), gold) == 0.0

    def test_duplicate_links_are_set_semantics(self):
        gold = make_gold({(1, 1)})
        assert aer([(1, 1), (1, 1)], gold) == aer({(1, 1)}, gold)

    def test_range_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            links = {(int(j), int(i)) for j, i in rng.integers(1, 5, size=(4, 2))}
            sure = {(int(j), int(i)) for j, i in rng.integers(1, 5, size=(3, 2))}
            extra = {(int(j), int(i)) for j, i in rng.integers(1, 5, size=(3, 2))}
            gold = GoldAlignment(frozenset(sure), frozenset(sure | extra))
            assert 0.0 <= aer(links, gold) <= 1.0

    def test_equals_corpus_aer_of_one_sentence(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            links = {(int(j), int(i)) for j, i in rng.integers(1, 4, size=(3, 2))}
            sure = {(int(j), int(i)) for j, i in rng.integers(1, 4, size=(2, 2))}
            extra = {(int(j), int(i)) for j, i in rng.integers(1, 4, size=(2, 2))}
            gold = GoldAlignment(frozenset(sure), frozenset(sure | extra))
            assert aer(links, gold) == corpus_aer({7: links}, {7: gold})[0]

    def test_sure_must_be_subset_of_possible(self):
        with pytest.raises(GoldFormatError):
            GoldAlignment(frozenset({(1, 1)}), frozenset({(2, 2)}))


class TestCorpusAer:
    def test_aggregates_counts(self):
        golds = {1: make_gold({(1, 1)}), 2: make_gold({(1, 2)})}
        preds = {1: {(1, 1)}, 2: {(1, 1)}}
        score, counts = corpus_aer(preds, golds)
        assert counts == {"A": 2, "S": 2, "P": 2}
        assert score == pytest.approx(1 - (1 + 1) / 4)

    def test_missing_sentences_count_as_empty(self):
        golds = {1: make_gold({(1, 1)})}
        score, counts = corpus_aer({}, golds)
        assert score == 1.0 and counts["A"] == 0


class TestParseGold:
    def test_single_link(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1 1 S\n")
        gold = parse_gold(path)
        assert gold[1].sure == {(1, 1)}
        assert gold[1].possible == {(1, 1)}

    def test_flag_semantics(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1 1 S\n1 2 2 P\n")
        gold = parse_gold(path)
        assert gold[1].sure == {(1, 1)}
        assert gold[1].possible == {(1, 1), (2, 2)}

    def test_flag_defaults_to_sure(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 2 1\n")
        gold = parse_gold(path)
        assert gold[3].sure == {(2, 1)}

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 x 1\n")
        with pytest.raises(GoldFormatError, match=r":1:"):
            parse_gold(path)

    def test_unknown_flag(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1 1 Q\n")
        with pytest.raises(GoldFormatError):
            parse_gold(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n1 1 1 S\n")
        assert parse_gold(path)[1].sure == {(1, 1)}

    def test_write_then_parse_round_trip(self, tmp_path):
        links = {1: {(1, 2), (2, 1)}, 4: {(1, 1)}}
        path = tmp_path / "out.txt"
        write_links(links, path)
        parsed = parse_gold(path)
        assert {sid: set(g.sure) for sid, g in parsed.items()} == links
