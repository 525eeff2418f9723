"""Alignment prediction from posterior means and AER scoring.

``align_pairs`` is the one decode path, for align, validation and (through
``_decode_pairs``) the neural IBM1 baseline: L1 sides are encoded in the
chunks of ``model.eval_chunks``, each sentence's rows scored by the exact
head and decoded by ``argmax_links``.

Link convention: a link is a pair (j, i) of 1-based positions, j on the
L2 side and i on the L1 side with NULL excluded (the padded L1 index of
the first real word is 1, which matches the gold numbering). Gold files
hold lines ``sid j i flag`` with flag S (sure, the default) or P
(possible); sure links are implicitly possible. ``parse_gold`` reads
them; ``corpus.write_links`` writes predicted links in that format.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .autodiff import Tensor
from .corpus import SentencePair, read_text
from .errors import GoldFormatError
from .model import ModelConfig


@dataclass(frozen=True)
class GoldAlignment:
    sure: frozenset
    possible: frozenset

    def __post_init__(self):
        if not self.sure <= self.possible:
            raise GoldFormatError("sure links must be a subset of possible links")


def argmax_links(score_matrix) -> set:
    """Links {(j, i)} from an [m, n] score matrix (rows are L1 positions):
    one argmax per column over rows 1..m-1, ties to the lowest position,
    NULL (row 0) only on a strict win, NaN as in ``np.argmax``. Fewer
    than two rows give no links."""
    scores = np.asarray(score_matrix)
    if scores.shape[0] < 2:
        return set()
    best = 1 + np.argmax(scores[1:], axis=0)
    keep = ~(scores[0] > scores[best, np.arange(scores.shape[1])])
    return set(zip((np.flatnonzero(keep) + 1).tolist(), best[keep].tolist()))


def _decode_pairs(pairs, head_inputs, weights: Tensor, bias: Tensor) -> list[set]:
    """Links of every pair under the exact head ``weights``/``bias``.

    ``head_inputs(x)`` gives the head's input rows [T, k] of a Ragged
    batch ``x`` of L1 sides; each pair's own rows are scored against its
    L2 ids and decoded by ``argmax_links``.
    """
    links = []
    for x in model_mod.eval_chunks([p.x for p in pairs]):
        rows = head_inputs(x)
        for start, m in zip(x.starts.tolist(), x.lengths.tolist()):
            log_probs = model_mod.l2_head_log_probs(rows[start:start + m], weights, bias)
            y = np.asarray(pairs[len(links)].y, dtype=np.intp)  # the next pair's L2 ids
            links.append(argmax_links(log_probs[:, y]))
    return links


def align_pairs(pairs, params, cfg: ModelConfig) -> list[set]:
    """Most likely L1 position for each L2 token of every pair in the list
    ``pairs``, from posterior means.

    Conditions on the posterior locations u_i and scores each position
    with the exact L2 head (the uniform alignment prior is constant per
    token, so the argmax is prior-free), decoded by ``argmax_links``.
    """
    return _decode_pairs(pairs, lambda x: model_mod.posterior_means(x, params, cfg),
                         params["W2"], params["b2"])


def viterbi_align(pair: SentencePair, params, cfg: ModelConfig) -> set:
    """The links of one pair: ``align_pairs`` of a batch of one."""
    return align_pairs([pair], params, cfg)[0]


# bench/tracer.py looks this name up to time ``alignment.posterior``
# (ROADMAP item 4); nothing in the package calls it
_hier_posterior_means = model_mod.posterior_means


def aer(pred_links, gold: GoldAlignment) -> float:
    """AER of one sentence: ``corpus_aer`` of a one-sentence corpus."""
    return corpus_aer({1: pred_links}, {1: gold})[0]


def corpus_aer(preds: dict, golds: dict):
    """AER = 1 - (|A & S| + |A & P|) / (|A| + |S|) over sentence ids, plus
    the raw counts; 0 when both A and S are empty.

    Counts are summed before the ratio is taken, so evaluation order does
    not matter. Sentences missing from either mapping count as empty.
    """
    n = Counter()
    empty = GoldAlignment(frozenset(), frozenset())
    for sid in set(preds) | set(golds):
        a, gold = set(preds.get(sid, ())), golds.get(sid, empty)
        n.update(A=len(a), S=len(gold.sure), P=len(gold.possible),
                 AS=len(a & gold.sure), AP=len(a & gold.possible))
    denom = n["A"] + n["S"]
    score = 0.0 if denom == 0 else 1.0 - (n["AS"] + n["AP"]) / denom
    return score, {"A": n["A"], "S": n["S"], "P": n["P"]}


def parse_gold(path) -> dict:
    """Read ``sid j i [S|P]`` lines into GoldAlignment per sentence id."""
    sure: dict[int, set] = defaultdict(set)
    poss: dict[int, set] = defaultdict(set)
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise GoldFormatError(
                f"{path}:{lineno}: expected 'sid j i [S|P]', got {line!r}"
            )
        try:
            sid, j, i = (int(p) for p in parts[:3])
        except ValueError:
            raise GoldFormatError(
                f"{path}:{lineno}: non-integer position in {line!r}"
            ) from None
        if sid < 1 or j < 1 or i < 1:
            raise GoldFormatError(
                f"{path}:{lineno}: sentence ids and positions are 1-based, got {line!r}"
            )
        flag = parts[3].upper() if len(parts) == 4 else "S"
        if flag not in ("S", "P"):
            raise GoldFormatError(f"{path}:{lineno}: unknown flag {flag!r}")
        poss[sid].add((j, i))
        if flag == "S":
            sure[sid].add((j, i))
    return {sid: GoldAlignment(frozenset(sure[sid]), frozenset(p)) for sid, p in poss.items()}

