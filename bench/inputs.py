"""Seeded inputs for one workload: corpus, validation gold, lexsub, probes.

Everything derives from the ``--seed`` argument through the synthetic
dictionary corpus, so nothing is downloaded and the program under test
receives only the generated data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from alignvae import corpus
from alignvae.alignment import GoldAlignment
from alignvae.corpus import NULL_ID, SentencePair, Vocabulary
from alignvae.semeval import LexSubInstance


@dataclass
class Inputs:
    vocab1: Vocabulary
    vocab2: Vocabulary
    train: list  # SentencePair
    val: list  # SentencePair
    val_gold: dict  # 1-based sid -> GoldAlignment
    val_tokens: list  # L1 token lists of the validation sentences
    lexsub: list  # LexSubInstance
    probe: list  # (pair, eps_z, eps_s or None)
    probe_css: tuple  # L1 and L2 CSS supports of the probe pairs as one batch
    baseline: list  # pairs encoded with the baseline vocabularies
    baseline_vocabs: tuple  # (Vocabulary, Vocabulary) built from the subset


def _encode(vocab1, vocab2, l1_lines, l2_lines):
    return [
        SentencePair(x=(NULL_ID,) + vocab1.encode(a), y=vocab2.encode(b))
        for a, b in zip(l1_lines, l2_lines)
    ]


def _balanced(sc, w, n_pairs):
    """Indices of ``n_pairs`` pool sentences whose lengths cycle through
    ``w.len_range``, so every seed yields the same length histogram and
    hence the same amount of work; the seed still picks the content."""
    lo, hi = w.len_range
    buckets = {n: [] for n in range(lo, hi + 1)}
    for k, words in enumerate(sc.l1_lines):
        buckets[len(words)].append(k)
    for b in buckets.values():
        b.reverse()  # pop() then yields pool order
    picked = []
    for k in range(n_pairs):
        bucket = buckets[lo + k % (hi - lo + 1)]
        if not bucket:
            raise RuntimeError("synthetic pool too small for a balanced corpus")
        picked.append(bucket.pop())
    return picked


def make_inputs(w, seed: int) -> Inputs:
    """Generate every input of workload ``w`` from ``seed``."""
    n_train = w.train_pairs
    n_pairs = max(n_train + w.val_pairs, w.baseline_pairs)
    sc = corpus.synth_corpus(seed, w.vocab, w.vocab, 2 * n_pairs + 100, w.len_range,
                             shuffle_l2=True)
    picked = _balanced(sc, w, n_pairs)
    l1_lines = [sc.l1_lines[k] for k in picked]
    l2_lines = [sc.l2_lines[k] for k in picked]
    gold = [sc.gold[k + 1] for k in picked]  # synth sids are 1-based
    # the vocabulary covers the whole dictionary, so V does not depend on
    # how many pairs the run draws
    vocab1 = Vocabulary(sorted(sc.mapping))
    vocab2 = Vocabulary(sorted(sc.mapping.values()))
    pairs = _encode(vocab1, vocab2, l1_lines, l2_lines)
    val_range = slice(n_train, n_train + w.val_pairs)
    train, val = pairs[:n_train], pairs[val_range]
    val_gold = {
        sid: GoldAlignment(frozenset(links), frozenset(links))
        for sid, links in enumerate(gold[val_range], start=1)
    }
    val_tokens = l1_lines[val_range]

    rng = np.random.default_rng(corpus.derive_seed(seed, "bench:lexsub"))
    l1_types = sorted(sc.mapping)
    lexsub = []
    for k in range(w.lexsub_instances):
        sentence = val_tokens[k % len(val_tokens)]
        pos = int(rng.integers(len(sentence)))
        picks = [
            l1_types[int(i)]
            for i in rng.choice(len(l1_types), size=w.lexsub_candidates + 1, replace=False)
        ]
        picks = [t for t in picks if t != sentence[pos]][: w.lexsub_candidates]
        weights = rng.integers(0, 4, size=len(picks)).astype(float)
        weights[int(rng.integers(len(picks)))] += 1.0  # at least one positive
        lexsub.append(LexSubInstance(list(sentence), pos, list(zip(picks, weights.tolist()))))

    noise = np.random.default_rng(corpus.derive_seed(seed, "bench:probe"))
    probe = []
    for pair in val[: w.probe_pairs]:
        eps_z = noise.standard_normal((pair.m, w.d))
        eps_s = noise.standard_normal(w.d_s) if w.hierarchical else None
        probe.append((pair, eps_z, eps_s))
    probe_pairs = [pair for pair, _, _ in probe]
    probe_css = tuple(
        corpus.build_css_support(probe_pairs, vocab, side, w.n_neg,
                                 corpus.derive_seed(seed, f"bench:probe-css:{side}"))
        for vocab, side in ((vocab1, "l1"), (vocab2, "l2"))
    )

    # the baselines build their vocabularies from the pairs they train on,
    # as `alignvae train --baseline ibm1` does; a dense IBM1 table over the
    # full 20k dictionary would need 3.2 GB
    b1_lines = l1_lines[: w.baseline_pairs]
    b2_lines = l2_lines[: w.baseline_pairs]
    bv1 = Vocabulary(t for a in b1_lines for t in a)
    bv2 = Vocabulary(t for b in b2_lines for t in b)
    baseline = _encode(bv1, bv2, b1_lines, b2_lines)
    return Inputs(vocab1, vocab2, train, val, val_gold, val_tokens, lexsub, probe, probe_css,
                  baseline, (bv1, bv2))
