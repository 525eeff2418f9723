"""The support builder, tie ranks and vocabulary against their earlier
loop implementations, kept here verbatim as references: each rewrite must
give the same values, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignvae.corpus import (
    _RESERVED,
    NULL_ID,
    NULL_TOKEN,
    UNK_TOKEN,
    SentencePair,
    Vocabulary,
    build_css_support,
)
from alignvae.errors import ContractError, DataError, MetricError
from alignvae.semeval import _average_ranks, spearman

FIXED = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def reference_css(batch, vocab, side, n_neg=1000, seed=0):
    """(C, N, kappa) as the set-arithmetic builder made them."""
    observed = set()
    for pair in batch:
        observed.update(pair.x if side == "l1" else pair.y)
    if side == "l1":
        observed.add(NULL_ID)
    c_ids = tuple(sorted(observed))
    complement = np.array(
        sorted(set(range(len(vocab))) - observed), dtype=np.intp
    )
    take = min(n_neg, len(complement))
    if take > 0:
        rng = np.random.default_rng(seed)
        n_ids = tuple(int(i) for i in rng.choice(complement, size=take, replace=False))
        kappa = len(complement) / take
    else:
        n_ids = ()
        kappa = 1.0
    return c_ids, n_ids, kappa


def reference_average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def reference_spearman(sys_arr, gold_arr) -> float:
    rs = reference_average_ranks(sys_arr)
    rg = reference_average_ranks(gold_arr)
    rs = rs - rs.mean()
    rg = rg - rg.mean()
    return float((rs * rg).sum() / np.sqrt((rs * rs).sum() * (rg * rg).sum()))


def reference_vocab_tokens(tokens, max_vocab=None) -> list[str]:
    out: list[str] = list(_RESERVED)
    order: list[str] = []
    counts: dict[str, int] = {}
    for tok in tokens:
        if tok in _RESERVED:
            raise DataError(f"corpus token collides with reserved token {tok!r}")
        if tok not in counts:
            counts[tok] = 0
            order.append(tok)
        counts[tok] += 1
    if max_vocab is not None and max_vocab < len(order):
        first_seen = {tok: k for k, tok in enumerate(order)}
        ranked = sorted(order, key=lambda t: (-counts[t], first_seen[t]))
        keep = set(ranked[:max_vocab])
        order = [tok for tok in order if tok in keep]
    return out + order


@st.composite
def batches(draw):
    """A vocabulary of V ids and a batch whose ids lie in it; either side
    may be empty or lack NULL, and n_neg runs from 0 past the complement."""
    v = draw(st.integers(2, 40))
    ids = st.integers(0, v - 1)
    pairs = draw(st.lists(st.tuples(st.lists(ids, max_size=6), st.lists(ids, max_size=6)),
                          min_size=1, max_size=4))
    batch = [SentencePair(tuple(x), tuple(y)) for x, y in pairs]
    return batch, Vocabulary([f"w{k}" for k in range(v - 2)]), draw(st.integers(0, v + 2))


class TestSupportMatchesReference:
    @FIXED
    @given(batches(), st.sampled_from(["l1", "l2"]), st.integers(0, 2**32))
    def test_c_n_and_kappa(self, drawn, side, seed):
        batch, vocab, n_neg = drawn
        css = build_css_support(batch, vocab, side, n_neg=n_neg, seed=seed)
        assert (css.c_ids, css.n_ids, css.kappa) == reference_css(batch, vocab, side, n_neg, seed)

    @pytest.mark.parametrize("side", ["l1", "l2"])
    def test_full_vocabulary_and_empty_side(self, side):
        vocab = Vocabulary([f"w{k}" for k in range(4)])  # 6 ids
        full = [SentencePair((NULL_ID, 1, 2, 3), (0, 1, 4, 5)),
                SentencePair((NULL_ID, 4, 5), (2, 3))]
        empty_l2 = [SentencePair((NULL_ID, 3), ())]
        for batch in (full, empty_l2):
            css = build_css_support(batch, vocab, side, n_neg=3, seed=2)
            assert (css.c_ids, css.n_ids, css.kappa) == reference_css(batch, vocab, side, 3, 2)
        assert build_css_support(full, vocab, side, n_neg=3, seed=2).n_ids == ()

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize("side", ["l1", "l2"])
    def test_out_of_range_id_is_a_contract_error(self, side, bad):
        vocab = Vocabulary([f"w{k}" for k in range(4)])  # 6 ids
        batch = [SentencePair((NULL_ID, 2, bad), (1, bad))]
        with pytest.raises(ContractError, match="outside the vocabulary of 6 ids"):
            build_css_support(batch, vocab, side, n_neg=2, seed=0)


scores = st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300, float("inf")]),
                  min_size=2, max_size=30)


class TestRanksMatchReference:
    @FIXED
    @given(scores)
    def test_average_ranks_bit_for_bit(self, values):
        arr = np.array(values)
        assert _average_ranks(arr).tobytes() == reference_average_ranks(arr).tobytes()

    @FIXED
    @given(st.integers(2, 30).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n))))
    def test_spearman_bit_for_bit(self, drawn):
        sys_arr, gold_arr = (np.array(side, dtype=np.float64) / 2 for side in drawn)
        if np.all(sys_arr == sys_arr[0]) or np.all(gold_arr == gold_arr[0]):
            with pytest.raises(MetricError, match="constant"):
                spearman(sys_arr, gold_arr)
        else:
            assert spearman(sys_arr, gold_arr) == reference_spearman(sys_arr, gold_arr)

    @pytest.mark.parametrize("nan_side", [0, 1])
    def test_nan_score_is_a_metric_error(self, nan_side):
        sides = [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]
        sides[nan_side][1] = float("nan")
        with pytest.raises(MetricError, match="NaN"):
            spearman(*sides)


class TestVocabularyMatchesReference:
    @FIXED
    @given(st.lists(st.sampled_from("abcdefg"), max_size=40),
           st.sampled_from([None, 1, 2, 100]))
    def test_tokens(self, stream, max_vocab):
        assert Vocabulary(stream, max_vocab=max_vocab).tokens == \
            reference_vocab_tokens(stream, max_vocab)

    @pytest.mark.parametrize("stream,first", [
        (["a", UNK_TOKEN, "b", NULL_TOKEN], UNK_TOKEN),
        (["a", NULL_TOKEN, UNK_TOKEN, UNK_TOKEN], NULL_TOKEN),
    ])
    def test_reserved_message_names_the_first_in_stream_order(self, stream, first):
        with pytest.raises(DataError) as new:
            Vocabulary(stream)
        with pytest.raises(DataError) as old:
            reference_vocab_tokens(stream)
        assert str(new.value) == str(old.value) == \
            f"corpus token collides with reserved token {first!r}"
