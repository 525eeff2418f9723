"""Lexical substitution by density overlap, plus embedding extraction
and the ranking/correlation metrics (GAP, cosine, Spearman).

All of them read ``model.posterior_params_np`` on the chunks of
``model.eval_chunks``: embeddings encode a corpus, lexsub every target
sentence and all of its substituted copies in one pass.

Lexical-substitution input: one instance per line with four tab-separated
fields: target token, 0-based target position, the space-tokenized
sentence, and semicolon-separated ``candidate:weight`` pairs. Word
similarity input: ``token1 token2 gold_score`` (optionally a fourth
column with a precomputed system score).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .corpus import NULL_ID, Vocabulary, read_text, refuse_reserved
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
        if any(w < 0 for _, w in self.candidates):
            raise DataError("negative gold weight")
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
        refuse_reserved([target, *sentence.split(), *(tok for tok, _ in candidates)], path, lineno)
        try:
            instances.append(LexSubInstance(sentence.split(), position, candidates))
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
    if not instances:
        raise DataError(f"{path}: no lexical-substitution instances")
    return instances


def rank_candidates(instances, vocab: Vocabulary, params, cfg: ModelConfig,
                    metric: str = "kl", reverse_kl: bool = False):
    """Per instance of ``instances``, its candidates best-first by overlap
    with the target in context, as (token, gold_weight, score) triples.

    Each candidate is substituted into its target's slot; all target
    sentences and substituted copies are encoded in the chunks of
    ``model.eval_chunks``. The ranking is ascending KL(candidate || target)
    (flip with ``reverse_kl``; ``ContractError`` with cosine) or descending
    cosine of the posterior locations. The sort is stable, so exact ties
    keep the original candidate order. Tokens outside ``vocab`` read as UNK.
    """
    if metric not in ("kl", "cosine"):
        raise ContractError(f"metric must be 'kl' or 'cosine', got {metric!r}")
    if reverse_kl and metric != "kl":
        raise ContractError("reverse KL ranking applies only to the kl metric")
    if not instances:
        return []
    sentences, slots = [], []  # per instance: the target sentence, then one copy per candidate
    for inst in instances:
        ids = (NULL_ID, *vocab.encode(inst.sentence))
        at = inst.target_position + 1  # +1 skips the NULL pad
        cand_ids = vocab.encode([tok for tok, _ in inst.candidates])
        sentences += [ids, *(ids[:at] + (c,) + ids[at + 1:] for c in cand_ids)]
        slots += [at] * (1 + len(cand_ids))
    rows, lo = [], 0  # per chunk, the posterior at each sentence's slot
    for x in model_mod.eval_chunks(sentences):
        u, s = model_mod.posterior_params_np(x, params, cfg)
        at = x.starts + slots[lo:lo + x.size]
        rows.append((u[at], s[at]))
        lo += x.size
    u, s = (np.concatenate(parts) for parts in zip(*rows))
    counts = np.array([len(inst.candidates) for inst in instances])
    first = np.cumsum(counts + 1) - counts - 1  # each instance's target row
    target, cand = np.repeat(first, counts), np.delete(np.arange(len(u)), first)
    if metric == "kl":
        if not s.min() > 0.0:  # softplus of a very negative pre-activation is exactly 0
            raise NumericalError("posterior scale underflowed to 0: the KL ranking "
                                 "needs positive scales")
        # one call for every candidate of every instance, its target's row repeated
        tgt, cands = (u[target], s[target]), (u[cand], s[cand])
        (q_u, q_s), (p_u, p_s) = (tgt, cands) if reverse_kl else (cands, tgt)
        with np.errstate(all="ignore"):
            kl = model_mod.gaussian_kl_rows(q_u, q_s, p_u, p_s).data
        if not np.isfinite(kl).all():
            raise NumericalError("non-finite KL score: the posteriors overflow float64")
        scores = iter(kl)
    else:
        scores = iter([cosine(u[c], u[t]) for c, t in zip(cand, target)])
    sign = 1.0 if metric == "kl" else -1.0  # best first: KL ascending, cosine descending
    return [sorted([(tok, weight, float(next(scores))) for tok, weight in inst.candidates],
                   key=lambda item: sign * item[2]) for inst in instances]


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
    rankings = rank_candidates(instances, vocab, params, cfg, metric=metric, reverse_kl=reverse_kl)
    if not rankings:
        raise MetricError("mean GAP undefined: no instances")
    per_instance = [gap([w for _, w, _ in ranked]) for ranked in rankings]
    return float(np.mean(per_instance)), per_instance


# ---------------------------------------------------------------------------
# embedding extraction


def type_embeddings_for_corpus(sentences_ids, params, cfg: ModelConfig) -> dict[int, np.ndarray]:
    """Average in-context posterior locations for every id in the corpus.

    ``sentences_ids`` is a list of NULL-padded id sequences; the NULL
    position is skipped. Sums run in corpus order; keys come in order of
    first occurrence.
    """
    tids = np.fromiter(itertools.chain.from_iterable(ids[1:] for ids in sentences_ids),
                       dtype=np.intp)
    keys, first, counts = np.unique(tids, return_index=True, return_counts=True)
    sums = np.full((len(keys), cfg.d), -0.0)  # -0.0 + a == a bit for bit, sign included
    for x in model_mod.eval_chunks(sentences_ids):
        u, _ = model_mod.posterior_params_np(x, params, cfg)
        real = x.positions() > 0
        ad._scatter(sums, np.searchsorted(keys, x.ids[real]), u[real])
    means = sums / counts[:, None]
    order = np.argsort(first)
    return dict(zip(keys[order].tolist(), means[order]))


def sentence_embeddings(sentences_ids, params, cfg: ModelConfig) -> list[np.ndarray]:
    """Per sentence of the list ``sentences_ids`` (NULL-padded), the mean of
    its in-context posterior locations over tokens, NULL excluded."""
    if any(len(ids) < 2 for ids in sentences_ids):
        raise ContractError("sentence_embeddings: empty sentence")
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
    """A zero vector raises ``DomainError``; norms or a quotient beyond
    float64's range raise ``NumericalError``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        norms = na * nb
        value = np.dot(a, b) / norms
    if na == 0.0 or nb == 0.0:
        raise DomainError("cosine undefined for a zero vector")
    if not np.isfinite([norms, value]).all():
        raise NumericalError("non-finite cosine: the vectors overflow float64")
    return float(value)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based fractional ranks; tied values share their mean rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group filling sorted places i..j (0-based) gets (i + j) / 2 + 1
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def spearman(sys_scores, gold_scores) -> float:
    """Rank correlation with average-rank tie handling."""
    sys_arr = np.asarray(list(sys_scores), dtype=np.float64)
    gold_arr = np.asarray(list(gold_scores), dtype=np.float64)
    if sys_arr.shape != gold_arr.shape or sys_arr.ndim != 1 or sys_arr.size < 2:
        raise MetricError("spearman needs two equal-length lists of >= 2 scores")
    if np.isnan(sys_arr).any() or np.isnan(gold_arr).any():
        raise MetricError("spearman undefined for a NaN score")
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
        refuse_reserved(parts[:2], path, lineno)
        rows.append((parts[0], parts[1], scores[0], scores[1] if len(scores) == 2 else None))
    return rows
