"""Lexical substitution by density overlap, plus embedding extraction
and the ranking/correlation metrics (GAP, cosine, Spearman).

All of them read ``model.posterior_params_np``: embeddings encode a corpus
in the chunks of ``model.eval_chunks``, lexsub each instance (the target
sentence and its substituted copies) as one batch.

Lexical-substitution input: one instance per line with four tab-separated
fields: target token, 0-based target position, the space-tokenized
sentence, and semicolon-separated ``candidate:weight`` pairs. Word
similarity input: ``token1 token2 gold_score`` (optionally a fourth
column with a precomputed system score).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .corpus import NULL_ID, Vocabulary, read_text
from .errors import ContractError, DataError, DomainError, MetricError, NumericalError
from .model import ModelConfig


@dataclass
class LexSubInstance:
    sentence: list[str]
    target_position: int
    candidates: list[tuple[str, float]]  # (token, gold weight >= 0)

    def __post_init__(self):
        if not 0 <= self.target_position < len(self.sentence):
            raise DataError(
                f"target position {self.target_position} outside sentence "
                f"of {len(self.sentence)} tokens"
            )
        if not any(w > 0 for _, w in self.candidates):
            raise DataError("instance has no candidate with positive gold weight")


def _parse_number(kind, text: str, path, lineno: int):
    """``kind(text)`` if it is finite, or a ``DataError`` naming the file position."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise DataError(f"{path}:{lineno}: bad number {text!r}")


def parse_lexsub(path) -> list[LexSubInstance]:
    instances = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise DataError(
                f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
            )
        target, pos, sentence, cand_field = fields
        candidates = []
        for chunk in cand_field.split(";"):
            if not chunk:
                continue
            tok, _, weight = chunk.rpartition(":")
            if not tok:
                raise DataError(f"{path}:{lineno}: bad candidate {chunk!r}")
            candidates.append((tok, _parse_number(float, weight, path, lineno)))
        position = _parse_number(int, pos, path, lineno)
        try:
            instances.append(LexSubInstance(sentence.split(), position, candidates))
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    if not instances:
        raise DataError(f"{path}: no lexical-substitution instances")
    return instances


def _context_ids(sentence_tokens, vocab) -> tuple:
    """NULL-padded ids of a sentence; warns for every token outside the
    vocabulary (it maps to UNK)."""
    for tok in sentence_tokens:
        if tok not in vocab:
            warnings.warn(f"token {tok!r} not in vocabulary; using UNK")
    return (NULL_ID, *vocab.encode(sentence_tokens))


def rank_candidates(instance: LexSubInstance, vocab: Vocabulary, params,
                    cfg: ModelConfig, metric: str = "kl",
                    reverse_kl: bool = False):
    """Candidates ordered best-first by overlap with the target in context.

    Each candidate is substituted into the target's slot; the target
    sentence and every substituted copy are encoded as one batch. The
    ranking is ascending KL(candidate || target) (flip with
    ``reverse_kl``) or descending cosine of the posterior locations. The
    sort is stable, so exact ties keep the original candidate order.
    Returns (token, gold_weight, score) triples.
    """
    if metric not in ("kl", "cosine"):
        raise ContractError(f"metric must be 'kl' or 'cosine', got {metric!r}")
    pos = instance.target_position
    seqs = [_context_ids(instance.sentence, vocab)]
    for tok, _ in instance.candidates:
        swapped = list(instance.sentence)
        swapped[pos] = tok
        seqs.append(_context_ids(swapped, vocab))
    x = model_mod.Ragged(seqs)
    u, s = model_mod.posterior_params_np(x, params, cfg)
    at = x.starts + pos + 1  # +1 skips the NULL pad
    u, s = u[at], s[at]  # row 0 is the target, row k + 1 candidate k
    if metric == "kl":
        if not s.min() > 0.0:  # softplus of a very negative pre-activation is exactly 0
            raise NumericalError("posterior scale underflowed to 0: the KL ranking "
                                 "needs positive scales")
        # one call for all candidates; the target's [1, d] row broadcasts
        target, cands = (u[:1], s[:1]), (u[1:], s[1:])
        (q_u, q_s), (p_u, p_s) = (target, cands) if reverse_kl else (cands, target)
        scores = model_mod.gaussian_kl_rows(ad.constant(q_u), ad.constant(q_s),
                                            ad.constant(p_u), ad.constant(p_s)).data
    else:
        scores = [-cosine(cand_u, u[0]) for cand_u in u[1:]]  # ascending sort, best first
    scored = [(tok, weight, float(score))
              for (tok, weight), score in zip(instance.candidates, scores)]
    ranked = sorted(scored, key=lambda item: item[2])
    if metric == "cosine":
        ranked = [(tok, w, -s) for tok, w, s in ranked]
    return ranked


def gap(ranked_weights) -> float:
    """Generalized average precision of gold weights in system order.

    Positive-weight ranks contribute their running-average weight; the
    denominator is the same quantity under the ideal (descending-weight)
    ordering.
    """
    x = np.asarray(list(ranked_weights), dtype=np.float64)
    if x.size == 0 or np.all(x == 0):
        raise MetricError("GAP undefined: no positive gold weights")
    if np.any(x < 0):
        raise MetricError("GAP undefined: negative gold weights")
    prefix = np.cumsum(x)
    ranks = np.arange(1, x.size + 1)
    numerator = float(((prefix / ranks)[x > 0]).sum())
    ideal = np.sort(x[x > 0])[::-1]
    denominator = float((np.cumsum(ideal) / np.arange(1, ideal.size + 1)).sum())
    return numerator / denominator


def mean_gap(instances, vocab, params, cfg, metric: str = "kl",
             reverse_kl: bool = False) -> tuple[float, list[float]]:
    """Corpus mean GAP over instances, in ascending instance order."""
    per_instance = []
    for inst in instances:
        ranked = rank_candidates(
            inst, vocab, params, cfg, metric=metric, reverse_kl=reverse_kl
        )
        per_instance.append(gap([w for _, w, _ in ranked]))
    return float(np.mean(per_instance)), per_instance


# ---------------------------------------------------------------------------
# embedding extraction


def type_embeddings_for_corpus(sentences_ids, params, cfg: ModelConfig) -> dict[int, np.ndarray]:
    """Average in-context posterior locations for every id in the corpus.

    ``sentences_ids`` is a list of NULL-padded id sequences; the NULL
    position is skipped. Sums run in corpus order.
    """
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for x in model_mod.eval_chunks(sentences_ids):
        u, _ = model_mod.posterior_params_np(x, params, cfg)
        real = x.positions() > 0
        for tid, row in zip(x.ids[real].tolist(), u[real]):
            if tid in sums:
                sums[tid] += row
                counts[tid] += 1
            else:
                sums[tid], counts[tid] = row.copy(), 1
    return {tid: sums[tid] / counts[tid] for tid in sums}


def sentence_embeddings(sentences_ids, params, cfg: ModelConfig) -> list[np.ndarray]:
    """Per sentence of the list ``sentences_ids`` (NULL-padded), the mean of
    its in-context posterior locations over tokens, NULL excluded."""
    if any(len(ids) < 2 for ids in sentences_ids):
        raise ContractError("sentence_embedding: empty sentence")
    means = []
    for x in model_mod.eval_chunks(sentences_ids):
        u, _ = model_mod.posterior_params_np(x, params, cfg)
        for start, m in zip(x.starts.tolist(), x.lengths.tolist()):
            means.append(u[start + 1:start + m].mean(axis=0))
    return means


def sentence_embedding(ids, params, cfg: ModelConfig) -> np.ndarray:
    """``sentence_embeddings`` of one sentence."""
    return sentence_embeddings([tuple(ids)], params, cfg)[0]


# ---------------------------------------------------------------------------
# similarity and correlation


def cosine(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("cosine undefined for a zero vector")
    return float(np.dot(a, b) / (na * nb))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based fractional ranks; tied values share their mean rank."""
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


def spearman(sys_scores, gold_scores) -> float:
    """Rank correlation with average-rank tie handling."""
    sys_arr = np.asarray(list(sys_scores), dtype=np.float64)
    gold_arr = np.asarray(list(gold_scores), dtype=np.float64)
    if sys_arr.shape != gold_arr.shape or sys_arr.ndim != 1 or sys_arr.size < 2:
        raise MetricError("spearman needs two equal-length lists of >= 2 scores")
    if np.all(sys_arr == sys_arr[0]) or np.all(gold_arr == gold_arr[0]):
        raise MetricError("spearman undefined for a constant list")
    rs = _average_ranks(sys_arr)
    rg = _average_ranks(gold_arr)
    rs = rs - rs.mean()
    rg = rg - rg.mean()
    return float((rs * rg).sum() / np.sqrt((rs * rs).sum() * (rg * rg).sum()))


def parse_wordsim(path):
    """Lines ``token1 token2 gold [sys]`` -> (t1, t2, gold, sys-or-None)."""
    rows = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise DataError(
                f"{path}:{lineno}: expected 'token1 token2 gold [sys]', got {line!r}"
            )
        scores = [_parse_number(float, text, path, lineno) for text in parts[2:]]
        rows.append((parts[0], parts[1], scores[0], scores[1] if len(scores) == 2 else None))
    return rows
