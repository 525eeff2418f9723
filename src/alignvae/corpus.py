"""Text file I/O, parallel-corpus ingestion, batching, support-set
sampling, synthetic data.

File conventions: parallel text is two UTF-8 files, one pre-tokenized
sentence per line, tokens separated by single spaces, line i of one file
parallel to line i of the other. The L1 side of every encoded pair is
prefixed with the NULL token (id 0); unseen tokens map to UNK (id 1).
The package reads every file through ``read_text`` and writes every file
through ``write_text``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import stat
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

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
        if max_vocab is not None and max_vocab < 1:
            raise ContractError(f"max_vocab must be >= 1, got {max_vocab}")
        counts = Counter(tokens)  # keys in order of first occurrence
        if clash := next((tok for tok in counts if tok in _RESERVED), None):
            raise DataError(f"corpus token collides with reserved token {clash!r}")
        # a stable sort keeps equally frequent types in first-occurrence order
        keep = set(sorted(counts, key=counts.__getitem__, reverse=True)[:max_vocab])
        self.tokens: list[str] = [*_RESERVED, *(tok for tok in counts if tok in keep)]
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

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


Batch = list[SentencePair]  # a batch is a plain list of pairs


@dataclass
class CSSupport:
    """Softmax support for one side of a batch: explicit classes C plus
    bias-corrected negatives N (kappa = |complement| / |N|)."""

    side: str
    c_ids: tuple[int, ...]
    n_ids: tuple[int, ...]
    kappa: float
    support_ids: np.ndarray = field(init=False, repr=False, compare=False)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.support_ids = np.array(self.c_ids + self.n_ids, dtype=np.intp)
        self.log_weights = np.zeros(len(self.support_ids))
        self.log_weights[len(self.c_ids):] = np.log(self.kappa)

    @cached_property
    def positions(self) -> dict[int, int]:
        """Support id -> support position, built on first use. Training
        maps ids with ``columns``; the benchmark's reference bound in
        ``bench/checks.py`` reads this map."""
        return {int(t): k for k, t in enumerate(self.support_ids)}

    def columns(self, token_ids) -> np.ndarray:
        """Support positions of an array of ids, in its shape; each id must
        be in the explicit class set C (``ContractError`` otherwise)."""
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
        return order[k].reshape(np.shape(token_ids))


def read_text(path) -> str:
    """The contents of a UTF-8 text file, newlines translated to ``\\n``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def write_text(path, pieces) -> None:
    """Write the strings ``pieces`` to ``path`` as UTF-8.

    A new path or a regular file is replaced by a temporary file in the
    same directory once every piece is written, so a failure midway keeps
    the old file and leaves no temporary one. A symlink, FIFO or device
    is opened and written in place, as by a plain ``open``.
    """
    path = os.fspath(path)
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    target = f"{path}.{os.getpid()}.tmp" if regular else path
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        if regular:
            os.replace(target, path)
    except BaseException:
        if regular and os.path.exists(target):
            os.unlink(target)
        raise


def refuse_reserved(tokens, path, lineno: int) -> None:
    """``DataError`` naming ``path:lineno`` if ``tokens`` holds a reserved token."""
    if clash := next((tok for tok in tokens if tok in _RESERVED), None):
        raise DataError(f"{path}:{lineno}: reserved token {clash!r}")


def read_sentences(path) -> list[list[str]]:
    """One token list per line of ``path``; only ``\\n`` ends a line. A
    reserved token raises ``DataError`` naming its line."""
    lines = read_text(path).split("\n")
    sentences = [line.split() for line in (lines[:-1] if lines[-1] == "" else lines)]
    for lineno, toks in enumerate(sentences, start=1):
        refuse_reserved(toks, path, lineno)
    return sentences


def read_parallel(l1_path, l2_path) -> tuple[list[list[str]], list[list[str]]]:
    """The sentences of two parallel files, which must have as many lines."""
    l1 = read_sentences(l1_path)
    l2 = read_sentences(l2_path)
    if len(l1) != len(l2):
        raise DataError(
            f"parallel files differ in length: {l1_path} has {len(l1)} lines, "
            f"{l2_path} has {len(l2)}"
        )
    return l1, l2


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
    l1, l2 = read_parallel(l1_path, l2_path)
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
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]


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
    ids = np.fromiter(itertools.chain.from_iterable(
        pair.x if side == "l1" else pair.y for pair in batch), dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= len(vocab)):
        raise ContractError(f"{side} token id outside the vocabulary of {len(vocab)} ids")
    observed = np.zeros(len(vocab), dtype=bool)
    observed[ids] = True
    if side == "l1":
        observed[NULL_ID] = True
    c_ids = tuple(np.flatnonzero(observed).tolist())
    complement = np.flatnonzero(~observed)
    take = min(n_neg, len(complement))
    if take == 0:
        return CSSupport(side=side, c_ids=c_ids, n_ids=(), kappa=1.0)
    n_ids = np.random.default_rng(seed).choice(complement, size=take, replace=False)
    return CSSupport(side=side, c_ids=c_ids, n_ids=tuple(n_ids.tolist()),
                     kappa=len(complement) / take)


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
    if seed < 0:
        raise ContractError(f"seed must be non-negative, got {seed}")
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


def write_links(links_by_sid: dict, path) -> None:
    """Write links ``{sid: {(j, i)}}`` in the gold format, flag S, sorted."""
    header = "# sid l2_pos l1_pos flag (1-based, flag S=sure P=possible)\n"
    write_text(path, [header] + [
        f"{sid} {j} {i} S\n"
        for sid in sorted(links_by_sid) for j, i in sorted(links_by_sid[sid])
    ])


def write_corpus(synth: SynthCorpus, l1_path, l2_path, gold_path) -> None:
    """Write the synthetic corpus in the parallel-text and gold formats."""
    write_text(l1_path, (" ".join(toks) + "\n" for toks in synth.l1_lines))
    write_text(l2_path, (" ".join(toks) + "\n" for toks in synth.l2_lines))
    write_links(synth.gold, gold_path)
