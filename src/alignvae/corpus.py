"""Parallel-corpus ingestion, batching, support-set sampling, synthetic data.

File conventions: parallel text is two UTF-8 files, one pre-tokenized
sentence per line, tokens separated by single spaces, line i of one file
parallel to line i of the other. The L1 side of every encoded pair is
prefixed with the NULL token (id 0); unseen tokens map to UNK (id 1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError

NULL_TOKEN = "<null>"
UNK_TOKEN = "<unk>"
NULL_ID = 0
UNK_ID = 1
_RESERVED = (NULL_TOKEN, UNK_TOKEN)

MAX_SENTENCE_LEN = 50


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for (seed, purpose label), identical across runs."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Vocabulary:
    """Token/id mapping with reserved ids: 0 = NULL, 1 = UNK.

    ``max_vocab`` optionally caps the number of non-reserved entries to
    the most frequent types (ties resolved by first occurrence); the
    default keeps everything.
    """

    def __init__(self, tokens, max_vocab: int | None = None):
        self.tokens: list[str] = list(_RESERVED)
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}
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
        for tok in order:
            self.index[tok] = len(self.tokens)
            self.tokens.append(tok)

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, tok):
        return tok in self.index

    def id(self, tok: str) -> int:
        return self.index.get(tok, UNK_ID)

    def token(self, tid: int) -> str:
        return self.tokens[tid]

    def encode(self, toks) -> tuple[int, ...]:
        return tuple(self.index.get(t, UNK_ID) for t in toks)


@dataclass(frozen=True)
class SentencePair:
    """Encoded pair: x is NULL-prefixed L1 ids, y is L2 ids."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass
class Batch:
    pairs: list[SentencePair]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass
class CSSupport:
    """Softmax support for one side of a batch: explicit classes C plus
    bias-corrected negatives N (kappa = |complement| / |N|)."""

    side: str
    c_ids: tuple[int, ...]
    n_ids: tuple[int, ...]
    kappa: float
    support_ids: np.ndarray = field(repr=False, default=None)
    log_weights: np.ndarray = field(repr=False, default=None)
    positions: dict[int, int] = field(repr=False, default=None)

    def __post_init__(self):
        ids = np.array(self.c_ids + self.n_ids, dtype=np.intp)
        logw = np.zeros(len(ids))
        if self.n_ids:
            logw[len(self.c_ids):] = np.log(self.kappa)
        self.support_ids = ids
        self.log_weights = logw
        self.positions = {int(t): k for k, t in enumerate(ids)}

    @property
    def C(self) -> frozenset:
        return frozenset(self.c_ids)

    @property
    def N(self) -> frozenset:
        return frozenset(self.n_ids)

    def columns(self, token_ids) -> np.ndarray:
        """Support positions of an array of ids, each of which must be in
        the explicit class set C (``ContractError`` otherwise)."""
        ids = np.asarray(token_ids, dtype=np.intp).reshape(-1)
        c = np.asarray(self.c_ids, dtype=np.intp)
        order = np.argsort(c, kind="stable")
        k = np.searchsorted(c, ids, sorter=order)
        in_c = k < len(c)
        in_c[in_c] = c[order[k[in_c]]] == ids[in_c]
        if not in_c.all():
            raise ContractError(
                f"token id {ids[~in_c][0]} is not in the explicit class set C ({self.side})"
            )
        return order[k]

    def position_of(self, token_id: int) -> int:
        return int(self.columns([token_id])[0])


def read_sentences(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


def load_parallel(l1_path, l2_path, max_len: int | None = MAX_SENTENCE_LEN,
                  vocabs=None, max_vocab: int | None = None):
    """Load a parallel corpus into encoded pairs plus the two vocabularies.

    Pairs where either raw side exceeds ``max_len`` tokens are dropped
    (pass ``max_len=None`` to keep everything, e.g. for evaluation data).
    When ``vocabs=(v1, v2)`` is given, the existing vocabularies are
    reused and unseen tokens map to UNK; otherwise vocabularies are built
    from the surviving lines in first-occurrence order, optionally
    frequency-truncated to ``max_vocab`` types per side.
    """
    l1 = read_sentences(l1_path)
    l2 = read_sentences(l2_path)
    if len(l1) != len(l2):
        raise DataError(
            f"parallel files differ in length: {l1_path} has {len(l1)} lines, "
            f"{l2_path} has {len(l2)}"
        )
    kept = [
        (a, b)
        for a, b in zip(l1, l2)
        if max_len is None or (len(a) <= max_len and len(b) <= max_len)
    ]
    if not kept:
        raise DataError("empty corpus after length filtering")
    if vocabs is None:
        vocab1 = Vocabulary((t for a, _ in kept for t in a), max_vocab=max_vocab)
        vocab2 = Vocabulary((t for _, b in kept for t in b), max_vocab=max_vocab)
    else:
        vocab1, vocab2 = vocabs
    pairs = [
        SentencePair(x=(NULL_ID,) + vocab1.encode(a), y=vocab2.encode(b))
        for a, b in kept
    ]
    return pairs, vocab1, vocab2


def make_batches(pairs, batch_size: int, seed: int) -> list[Batch]:
    """Deterministic shuffle then split; the final partial batch is kept."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    return [
        Batch(shuffled[i : i + batch_size])
        for i in range(0, len(shuffled), batch_size)
    ]


def build_css_support(batch, vocab, side: str, n_neg: int = 1000, seed: int = 0) -> CSSupport:
    """Support set for one side of a batch.

    C holds every id of that side observed in the batch (plus NULL on the
    L1 side); N is a uniform sample without replacement from the
    complement, and kappa = |complement| / |N| corrects its weight.
    """
    if side not in ("l1", "l2"):
        raise ContractError(f"side must be 'l1' or 'l2', got {side!r}")
    if n_neg < 0:
        raise ContractError(f"n_neg must be >= 0, got {n_neg}")
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
    return CSSupport(side=side, c_ids=c_ids, n_ids=n_ids, kappa=kappa)


@dataclass
class SynthCorpus:
    """Synthetic permutation-dictionary corpus with gold alignments."""

    l1_lines: list[list[str]]
    l2_lines: list[list[str]]
    gold: dict[int, set[tuple[int, int]]]  # sid -> {(j, i)} with 1-based positions
    mapping: dict[str, str]  # L1 type -> L2 type


def synth_corpus(
    seed: int,
    v1: int,
    v2: int,
    n_pairs: int,
    len_range: tuple[int, int],
    shuffle_l2: bool,
) -> SynthCorpus:
    """Generate parallel data from a fixed type-level dictionary.

    Each L1 sentence is uniform over ``v1`` types; the L2 side is its
    image under an injective type map, optionally shuffled by a recorded
    permutation. Gold sure links record where each L2 position came from;
    possible links equal sure links.
    """
    if not (2 <= v1 <= v2):
        raise ContractError(f"need v2 >= v1 >= 2, got v1={v1}, v2={v2}")
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ContractError(f"bad length range {len_range}")
    if hi > v1:
        raise ContractError(
            f"max length {hi} exceeds v1={v1}; sentences hold distinct types"
        )
    if n_pairs < 1:
        raise DataError("empty corpus requested")
    rng = np.random.default_rng(seed)
    l1_types = [f"s{k:02d}" for k in range(v1)]
    l2_types = [f"t{k:02d}" for k in range(v2)]
    image = rng.permutation(v2)[:v1]
    mapping = {l1_types[k]: l2_types[int(image[k])] for k in range(v1)}

    l1_lines, l2_lines, gold = [], [], {}
    for sid in range(1, n_pairs + 1):
        length = int(rng.integers(lo, hi + 1))
        # distinct types per sentence keep the recorded gold link of every
        # L2 token identifiable (each position's marginal is still uniform)
        word_ids = rng.permutation(v1)[:length]
        words = [l1_types[int(w)] for w in word_ids]
        translation = [mapping[w] for w in words]
        if shuffle_l2:
            perm = rng.permutation(length)
        else:
            perm = np.arange(length)
        l2_sentence = [translation[int(p)] for p in perm]
        links = {(k + 1, int(perm[k]) + 1) for k in range(length)}
        l1_lines.append(words)
        l2_lines.append(l2_sentence)
        gold[sid] = links
    return SynthCorpus(l1_lines, l2_lines, gold, mapping)


def write_corpus(synth: SynthCorpus, l1_path, l2_path, gold_path) -> None:
    """Write the synthetic corpus in the parallel-text and gold formats."""
    with open(l1_path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(toks) + "\n" for toks in synth.l1_lines)
    with open(l2_path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(toks) + "\n" for toks in synth.l2_lines)
    with open(gold_path, "w", encoding="utf-8") as fh:
        fh.write("# sid l2_pos l1_pos flag (1-based, flag S=sure P=possible)\n")
        for sid in sorted(synth.gold):
            for j, i in sorted(synth.gold[sid]):
                fh.write(f"{sid} {j} {i} S\n")
