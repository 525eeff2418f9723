"""Lexical substitution by density overlap, plus embedding extraction
and the ranking/correlation metrics (GAP, cosine, Spearman).

Lexical-substitution input: one instance per line with four tab-separated
fields: target token, 0-based target position, the space-tokenized
sentence, and semicolon-separated ``candidate:weight`` pairs. Word
similarity input: ``token1 token2 gold_score`` (optionally a fourth
column with a precomputed system score).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .corpus import NULL_ID, Vocabulary
from .errors import ContractError, DataError, DomainError, MetricError
from .hiermodel import kl_diag_gaussian
from .model import ModelConfig

# one implementation of the diagonal-Gaussian divergence serves the
# substitution metric, the hierarchical objective, and the tests
kl_diag = kl_diag_gaussian


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
    """``kind(text)``, or a ``DataError`` naming the file position."""
    try:
        return kind(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad number {text!r}") from None


def parse_lexsub(path) -> list[LexSubInstance]:
    instances = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
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
    return instances


def _posterior_at(sentence_tokens, position, vocab, params, cfg):
    """(location, scale) of the token posterior at one sentence position."""
    for tok in sentence_tokens:
        if tok not in vocab:
            warnings.warn(f"token {tok!r} not in vocabulary; using UNK")
    ids = (NULL_ID, *vocab.encode(sentence_tokens))
    u, s = model_mod.posterior_params_np(ids, params, cfg)
    return u[position + 1], s[position + 1]  # +1 skips the NULL pad


def rank_candidates(instance: LexSubInstance, vocab: Vocabulary, params,
                    cfg: ModelConfig, metric: str = "kl",
                    reverse_kl: bool = False):
    """Candidates ordered best-first by overlap with the target in context.

    Each candidate is substituted into the target's slot and re-encoded;
    the ranking is ascending KL(candidate || target) (flip with
    ``reverse_kl``) or descending cosine of the posterior locations. The
    sort is stable, so exact ties keep the original candidate order.
    Returns (token, gold_weight, score) triples.
    """
    if metric not in ("kl", "cosine"):
        raise ContractError(f"metric must be 'kl' or 'cosine', got {metric!r}")
    tgt_u, tgt_s = _posterior_at(
        instance.sentence, instance.target_position, vocab, params, cfg
    )
    scored = []
    for tok, weight in instance.candidates:
        swapped = list(instance.sentence)
        swapped[instance.target_position] = tok
        cand_u, cand_s = _posterior_at(
            swapped, instance.target_position, vocab, params, cfg
        )
        if metric == "kl":
            if reverse_kl:
                score = kl_diag(tgt_u, tgt_s, cand_u, cand_s)
            else:
                score = kl_diag(cand_u, cand_s, tgt_u, tgt_s)
        else:
            score = -cosine(cand_u, tgt_u)  # ascending sort, best first
        scored.append((tok, weight, score))
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

    ``sentences_ids`` are NULL-padded id sequences; the NULL position is
    skipped.
    """
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for ids in sentences_ids:
        u, _ = model_mod.posterior_params_np(ids, params, cfg)
        for pos, tid in enumerate(ids):
            if pos == 0:
                continue
            if tid in sums:
                sums[tid] = sums[tid] + u[pos]
                counts[tid] += 1
            else:
                sums[tid] = u[pos].copy()
                counts[tid] = 1
    return {tid: sums[tid] / counts[tid] for tid in sums}


def type_embedding(token: str, vocab: Vocabulary, sentences_ids, params,
                   cfg: ModelConfig) -> np.ndarray:
    """Mean posterior location over every in-context occurrence of a type.

    A token outside the vocabulary falls back to UNK occurrences, with a
    warning.
    """
    if token not in vocab:
        warnings.warn(f"token {token!r} not in vocabulary; using UNK")
    target = vocab.id(token)
    occurrences = []
    for ids in sentences_ids:
        if target not in ids[1:]:
            continue
        u, _ = model_mod.posterior_params_np(ids, params, cfg)
        for pos, tid in enumerate(ids):
            if pos > 0 and tid == target:
                occurrences.append(u[pos])
    if not occurrences:
        raise ContractError(f"type_embedding: {token!r} never occurs in the corpus")
    return np.mean(occurrences, axis=0)


def sentence_embedding(ids, params, cfg: ModelConfig) -> np.ndarray:
    """Mean of in-context posterior locations over tokens (NULL excluded)."""
    ids = tuple(ids)
    content = [tid for pos, tid in enumerate(ids) if pos > 0]
    if not content:
        raise ContractError("sentence_embedding: empty sentence")
    u, _ = model_mod.posterior_params_np(ids, params, cfg)
    return u[1:].mean(axis=0)


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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
