"""IBM1's batched E-step against the per-pair loop it replaced, kept here
verbatim as a reference: on any corpus and table the new sweep must give
the same table, bit for bit, and the same log-likelihoods (``==``), and
``ibm1_align`` the same links as one pair's own [m, n] score block.

The corpora cover what makes bytes differ: tokens repeated on both sides
(so the order in which the expected counts are scattered matters), L2
sides of 1 to 20 tokens (numpy sums 8 or more terms pairwise, and the one
column of an [m, 1] block pairwise as well), empty L2 sides, an empty
pair list, more pairs than one 512-pair chunk (one layout serving every
sweep), and non-uniform tables.
pytest turns any RuntimeWarning into an error, so the padding may raise
none."""

import numpy as np
import pytest

from alignvae.alignment import argmax_links
from alignvae.baselines import (
    ibm1_align,
    ibm1_em_step,
    ibm1_layout,
    ibm1_log_likelihood,
    ibm1_uniform,
)
from alignvae.corpus import SentencePair
from alignvae.model import EVAL_CHUNK


def _pair_scores(pair: SentencePair, t: np.ndarray):
    """The pair's ``np.ix_`` index into ``t`` and t(y_j | x_i) there, [m, n]."""
    idx = np.ix_(np.asarray(pair.x, dtype=np.intp), np.asarray(pair.y, dtype=np.intp))
    return idx, t[idx]


def _e_step(pairs, t: np.ndarray):
    """Per pair: its index, t(y_j | x_i) / colsum_j and sum_j log(colsum_j / m)."""
    for pair in pairs:
        idx, probs = _pair_scores(pair, t)
        colsum = probs.sum(axis=0)
        yield idx, probs / colsum, float(np.log(colsum / len(probs)).sum())


def reference_em_step(pairs, t: np.ndarray):
    """One EM sweep: ``(new_table, ibm1_log_likelihood(pairs, t))``."""
    counts = np.zeros_like(t)
    loglik = 0.0
    for idx, gamma, pair_loglik in _e_step(pairs, t):
        np.add.at(counts, idx, gamma)
        loglik += pair_loglik
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=ibm1_uniform(*t.shape), where=totals > 0), loglik


def random_corpus(rng, n_pairs: int, v_x: int, v_y: int, max_m: int = 30, max_n: int = 20):
    """NULL-padded pairs with L1 sides of 0 to ``max_m`` words and L2 sides of
    0 to ``max_n``, drawn from ``v_x`` and ``v_y`` types, so small vocabularies
    repeat tokens on both sides."""
    return [
        SentencePair((0, *rng.integers(1, v_x, size=rng.integers(0, max_m + 1)).tolist()),
                     tuple(rng.integers(0, v_y, size=rng.integers(0, max_n + 1)).tolist()))
        for _ in range(n_pairs)
    ]


def random_table(rng, v_x: int, v_y: int) -> np.ndarray:
    """A row-normalized table far from uniform."""
    t = rng.random((v_x, v_y)) ** 4 + 1e-6
    return t / t.sum(axis=1, keepdims=True)


def assert_sweeps_match(pairs, t: np.ndarray, sweeps: int = 3):
    for _ in range(sweeps):
        want, want_ll = reference_em_step(pairs, t)
        got, got_ll = ibm1_em_step(ibm1_layout(pairs, t.shape), t)
        assert got.tobytes() == want.tobytes()
        assert got_ll == want_ll
        assert ibm1_log_likelihood(ibm1_layout(pairs, t.shape), t) == want_ll
        assert ibm1_align(pairs, t) == [argmax_links(_pair_scores(p, t)[1]) for p in pairs]
        t = want


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("v_x, v_y", [(3, 2), (5, 4), (40, 30)], ids=["v3x2", "v5x4", "v40x30"])
def test_sweeps_match_the_per_pair_loop(seed, v_x, v_y):
    rng = np.random.default_rng(seed)
    pairs = random_corpus(rng, int(rng.integers(1, 80)), v_x, v_y)
    assert_sweeps_match(pairs, random_table(rng, v_x, v_y))
    assert_sweeps_match(pairs, ibm1_uniform(v_x, v_y), sweeps=1)


@pytest.mark.parametrize("n", range(1, 21))
def test_every_l2_length_matches(n):
    # one L2 length at a time, against L1 sides of 1 to 31 positions: one
    # side of either length crosses numpy's 8-term pairwise summation
    rng = np.random.default_rng(100 + n)
    pairs = [SentencePair((0, *rng.integers(1, 6, size=m).tolist()),
                          tuple(rng.integers(0, 5, size=n).tolist())) for m in range(31)]
    assert_sweeps_match(pairs, random_table(rng, 6, 5))


def test_empty_l2_sides_and_an_empty_pair_list_match():
    rng = np.random.default_rng(7)
    t = random_table(rng, 6, 5)
    empty = [SentencePair((0, 3, 4), ()), SentencePair((0,), ())]
    assert_sweeps_match(empty, t)
    assert_sweeps_match([empty[0], *random_corpus(rng, 10, 6, 5), empty[1]], t)
    assert_sweeps_match([], t)
    table, loglik = ibm1_em_step(ibm1_layout([], t.shape), t)
    assert table.tobytes() == ibm1_uniform(6, 5).tobytes() and loglik == 0.0


def test_more_pairs_than_one_chunk_match():
    rng = np.random.default_rng(8)
    pairs = random_corpus(rng, 2 * EVAL_CHUNK + 37, 9, 7, max_m=12, max_n=12)
    assert_sweeps_match(pairs, random_table(rng, 9, 7), sweeps=2)


def test_one_layout_reused_for_every_sweep_matches():
    # the layout holds no table values: one layout of three chunks serves
    # every sweep, and after each one the table, the log-likelihood and
    # the links are the per-pair loop's
    rng = np.random.default_rng(9)
    pairs = random_corpus(rng, 2 * EVAL_CHUNK + 37, 9, 7, max_m=12, max_n=12)
    t = random_table(rng, 9, 7)
    layout = ibm1_layout(pairs, t.shape)
    assert len(layout[1]) == 3
    for _ in range(5):
        want, want_ll = reference_em_step(pairs, t)
        got, got_ll = ibm1_em_step(layout, t)
        assert got.tobytes() == want.tobytes()
        assert got_ll == want_ll
        assert ibm1_log_likelihood(layout, t) == want_ll
        assert ibm1_align(pairs, got) == [argmax_links(_pair_scores(p, want)[1]) for p in pairs]
        t = got


def test_out_of_range_ids_are_refused():
    for pair in (SentencePair((0, 4), (1,)), SentencePair((0, 1), (3,))):
        with pytest.raises(ValueError):
            ibm1_layout([pair], (4, 3))
