import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignvae.corpus import (
    NULL_ID,
    UNK_ID,
    CSSupport,
    SentencePair,
    Vocabulary,
    build_css_support,
    derive_seed,
    load_parallel,
    make_batches,
    read_sentences,
    synth_corpus,
    write_corpus,
    write_text,
)
from alignvae.errors import ContractError, DataError


def write_lines(path, lines):
    path.write_text("\n".join(" ".join(toks) for toks in lines) + "\n", encoding="utf-8")


class TestLoadParallel:
    def test_length_filter_boundary(self, tmp_path):
        l1 = [["a"] * 51, ["b", "c"], ["d"]]
        l2 = [["x"], ["y"], ["z"]]
        write_lines(tmp_path / "l1.txt", l1)
        write_lines(tmp_path / "l2.txt", l2)
        pairs, _, _ = load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")
        assert len(pairs) == 2

    def test_null_padding(self, tmp_path):
        write_lines(tmp_path / "l1.txt", [["the", "dog"]])
        write_lines(tmp_path / "l2.txt", [["le", "chien"]])
        pairs, v1, _ = load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")
        pair = pairs[0]
        assert pair.x == (NULL_ID, v1.id("the"), v1.id("dog"))
        assert pair.m == 3

    def test_unseen_token_maps_to_unk(self, tmp_path):
        write_lines(tmp_path / "l1.txt", [["a", "b"]])
        write_lines(tmp_path / "l2.txt", [["x", "y"]])
        _, v1, v2 = load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")
        write_lines(tmp_path / "t1.txt", [["a", "new"]])
        write_lines(tmp_path / "t2.txt", [["x", "fresh"]])
        pairs, _, _ = load_parallel(
            tmp_path / "t1.txt", tmp_path / "t2.txt", vocabs=(v1, v2)
        )
        assert pairs[0].x == (NULL_ID, v1.id("a"), UNK_ID)
        assert pairs[0].y == (v2.id("x"), UNK_ID)

    def test_unequal_line_counts(self, tmp_path):
        write_lines(tmp_path / "l1.txt", [["a"], ["b"]])
        write_lines(tmp_path / "l2.txt", [["x"]])
        with pytest.raises(DataError, match="differ in length"):
            load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")

    def test_empty_after_filter(self, tmp_path):
        write_lines(tmp_path / "l1.txt", [["a"] * 60])
        write_lines(tmp_path / "l2.txt", [["x"]])
        with pytest.raises(DataError, match="empty corpus"):
            load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")

    def test_loading_twice_identical(self, tmp_path):
        synth = synth_corpus(seed=3, v1=8, v2=9, n_pairs=40, len_range=(2, 6), shuffle_l2=True)
        write_corpus(synth, tmp_path / "l1.txt", tmp_path / "l2.txt", tmp_path / "g.txt")
        a = load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")
        b = load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")
        assert a[1].tokens == b[1].tokens
        assert a[2].index == b[2].index
        assert a[0] == b[0]

    def test_null_only_at_position_zero(self, tmp_path):
        synth = synth_corpus(seed=4, v1=10, v2=10, n_pairs=50, len_range=(1, 7), shuffle_l2=True)
        write_corpus(synth, tmp_path / "l1.txt", tmp_path / "l2.txt", tmp_path / "g.txt")
        pairs, _, _ = load_parallel(tmp_path / "l1.txt", tmp_path / "l2.txt")
        for pair in pairs:
            assert pair.x[0] == NULL_ID
            assert NULL_ID not in pair.x[1:]
            assert NULL_ID not in pair.y


# the line ends of str.splitlines() besides "\n", "\r" and "\r\n" (reading turns those into "\n")
OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestReadSentences:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lines=st.lists(st.text(alphabet="ab " + OTHER_LINE_BREAKS, max_size=8), max_size=6))
    def test_one_sentence_per_newline_terminated_line(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("sentences") / "l1.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")
        assert read_sentences(path) == [line.split() for line in lines]

    def test_last_line_needs_no_newline(self, tmp_path):
        (tmp_path / "l1.txt").write_text("a b\u2028c\nd e", encoding="utf-8")
        assert read_sentences(tmp_path / "l1.txt") == [["a", "b", "c"], ["d", "e"]]


class TestVocabulary:
    def test_reserved_layout(self):
        vocab = Vocabulary(["b", "a", "b"])
        assert vocab.tokens[:2] == ["<null>", "<unk>"]
        assert vocab.tokens[2:] == ["b", "a"]  # first occurrence order
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i

    def test_reserved_collision(self):
        with pytest.raises(DataError):
            Vocabulary(["<unk>"])

    def test_max_vocab_keeps_most_frequent(self):
        stream = ["rare", "common", "common", "mid", "mid", "common"]
        vocab = Vocabulary(stream, max_vocab=2)
        assert "common" in vocab and "mid" in vocab
        assert "rare" not in vocab
        assert vocab.id("rare") == UNK_ID
        # no truncation by default
        assert len(Vocabulary(stream).tokens) == 5

    def test_max_vocab_tie_breaks_by_first_occurrence(self):
        vocab = Vocabulary(["b", "a", "a", "b", "c"], max_vocab=2)
        assert "b" in vocab and "a" in vocab and "c" not in vocab

    @pytest.mark.parametrize("max_vocab", [0, -1])
    def test_max_vocab_below_one_rejected(self, max_vocab):
        with pytest.raises(ContractError, match="max_vocab"):
            Vocabulary(["a", "b"], max_vocab=max_vocab)


class TestMakeBatches:
    def test_sizes(self):
        pairs = [SentencePair((0, 2), (2,))] * 250
        batches = make_batches(pairs, 100, seed=0)
        assert [len(b) for b in batches] == [100, 100, 50]

    def test_same_seed_identical(self):
        pairs = [SentencePair((0, 2 + i % 3), (2,)) for i in range(40)]
        a = make_batches(pairs, 7, seed=5)
        b = make_batches(pairs, 7, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        pairs = [SentencePair((0, 2 + i), (2,)) for i in range(250)]
        a = make_batches(pairs, 250, seed=1)[0]
        b = make_batches(pairs, 250, seed=2)[0]
        assert a != b

    def test_bad_batch_size(self):
        with pytest.raises(ContractError):
            make_batches([], 0, seed=0)


class TestCssSupport:
    def test_small_complement_fully_used(self):
        vocab = Vocabulary([f"w{k}" for k in range(3)])  # 5 ids with reserved
        batch = [SentencePair((0, 2), (2,))]
        css = build_css_support(batch, vocab, "l1", n_neg=3, seed=0)
        assert set(css.c_ids) == {0, 2}
        assert set(css.n_ids) == {1, 3, 4}
        assert css.kappa == 1.0

    def test_kappa_two(self):
        tokens = [f"w{k}" for k in range(2008)]  # 2010 ids with reserved
        vocab = Vocabulary(tokens)
        batch = [SentencePair((0, 2, 3), (2,)) for _ in range(2)]
        css = build_css_support(batch, vocab, "l1", n_neg=1000, seed=1)
        assert len(vocab) - len(set(css.c_ids)) == 2007
        assert css.kappa == pytest.approx(2007 / 1000)
        # exact instantiation of kappa = 1e-3 * |complement| at complement 2000
        vocab2 = Vocabulary([f"v{k}" for k in range(2001)])
        batch2 = [SentencePair((0, 2, 4), (2,)) for _ in range(1)]
        css2 = build_css_support(batch2, vocab2, "l1", n_neg=1000, seed=1)
        assert len(vocab2) - len(set(css2.c_ids)) == 2000
        assert css2.kappa == 2.0

    def test_full_vocabulary_degenerate(self):
        vocab = Vocabulary(["a", "b"])
        batch = [SentencePair((0, 1, 2, 3), (2, 3))]
        css = build_css_support(batch, vocab, "l1", n_neg=100, seed=0)
        assert set(css.c_ids) == {0, 1, 2, 3}
        assert set(css.n_ids) == set()
        assert css.kappa == 1.0

    def test_invariants(self):
        rng = np.random.default_rng(0)
        vocab = Vocabulary([f"w{k}" for k in range(60)])
        for trial in range(20):
            ids = rng.integers(2, len(vocab), size=(4, 5))
            batch = [SentencePair((0, *row[:3]), tuple(row[3:])) for row in ids]
            for side in ("l1", "l2"):
                css = build_css_support(batch, vocab, side, n_neg=10, seed=trial)
                c, n = set(css.c_ids), set(css.n_ids)
                assert not (c & n)
                observed = set()
                for pair in batch:
                    observed.update(pair.x if side == "l1" else pair.y)
                assert observed <= c or side == "l2"
                if side == "l2":
                    assert observed <= c
                if n:
                    assert css.kappa * len(n) == len(vocab) - len(c)

    def test_l1_always_contains_null(self):
        vocab = Vocabulary(["a"])
        batch = [SentencePair((0, 2), (2,))]
        assert NULL_ID in set(build_css_support(batch, vocab, "l1", 0, 0).c_ids)

    def test_deterministic_given_seed(self):
        vocab = Vocabulary([f"w{k}" for k in range(50)])
        batch = [SentencePair((0, 2, 3), (4, 5))]
        a = build_css_support(batch, vocab, "l2", n_neg=10, seed=9)
        b = build_css_support(batch, vocab, "l2", n_neg=10, seed=9)
        assert a.n_ids == b.n_ids


class TestCssColumns:
    css = CSSupport(side="l2", c_ids=(7, 2, 5), n_ids=(3, 9), kappa=2.0)

    def test_array_in_array_out(self):
        cols = self.css.columns(np.array([5, 7, 7, 2]))
        assert isinstance(cols, np.ndarray)
        np.testing.assert_array_equal(cols, [2, 0, 0, 1])
        for tid, col in zip((5, 7, 2), (2, 0, 1)):
            assert self.css.support_ids[col] == tid

    def test_empty_ids(self):
        assert self.css.columns([]).shape == (0,)

    def test_id_in_negatives_only_rejected(self):
        with pytest.raises(ContractError, match="token id 3 "):
            self.css.columns([7, 3])

    def test_id_outside_support_rejected(self):
        for bad in (4, 0, 100):
            with pytest.raises(ContractError, match=f"token id {bad} "):
                self.css.columns([2, bad])

    def test_empty_c_rejects_any_id(self):
        css = CSSupport(side="l2", c_ids=(), n_ids=(3,), kappa=1.0)
        assert css.columns([]).shape == (0,)
        with pytest.raises(ContractError):
            css.columns([3])


class TestSynthCorpus:
    def test_unshuffled_gold_is_diagonal(self):
        synth = synth_corpus(seed=2, v1=6, v2=8, n_pairs=20, len_range=(2, 5), shuffle_l2=False)
        for sid, links in synth.gold.items():
            n = len(synth.l2_lines[sid - 1])
            assert links == {(j, j) for j in range(1, n + 1)}

    def test_same_seed_bit_identical(self):
        a = synth_corpus(seed=9, v1=5, v2=7, n_pairs=30, len_range=(1, 5), shuffle_l2=True)
        b = synth_corpus(seed=9, v1=5, v2=7, n_pairs=30, len_range=(1, 5), shuffle_l2=True)
        assert a.l1_lines == b.l1_lines
        assert a.l2_lines == b.l2_lines
        assert a.gold == b.gold
        assert a.mapping == b.mapping

    def test_reconstruction_from_gold(self):
        synth = synth_corpus(seed=5, v1=9, v2=12, n_pairs=50, len_range=(2, 7), shuffle_l2=True)
        for sid, links in synth.gold.items():
            words = synth.l1_lines[sid - 1]
            l2 = synth.l2_lines[sid - 1]
            assert sorted(j for j, _ in links) == list(range(1, len(l2) + 1))
            for j, i in links:
                assert l2[j - 1] == synth.mapping[words[i - 1]]

    def test_guards(self):
        with pytest.raises(ContractError):
            synth_corpus(seed=1, v1=5, v2=4, n_pairs=3, len_range=(1, 3), shuffle_l2=False)
        with pytest.raises(ContractError):
            synth_corpus(seed=1, v1=5, v2=5, n_pairs=3, len_range=(1, 9), shuffle_l2=False)
        with pytest.raises(DataError, match="empty corpus"):
            synth_corpus(seed=1, v1=5, v2=5, n_pairs=0, len_range=(1, 3), shuffle_l2=False)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        # frozen value so a future refactor cannot silently change all streams
        assert derive_seed(1, "a") == 2514313960912413249


class TestWriteText:
    def test_new_path_and_regular_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, ["caf\u00e9 ", "a\n"])
        assert path.read_bytes() == "caf\u00e9 a\n".encode("utf-8")
        write_text(path, (line for line in ["b\n", "c\n"]))
        assert path.read_bytes() == b"b\nc\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_symlink_written_through(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_text(link, ["new\n"])
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]

    def test_fifo_written_in_place(self, tmp_path):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        got = []

        def reader():
            with open(path, "rb") as fh:
                got.append(fh.read())

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        write_text(path, ["a\n", "b\n"])
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert got == [b"a\nb\n"]
        assert stat.S_ISFIFO(os.lstat(path).st_mode)

    def test_failure_midway_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")

        def pieces():
            yield "new\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_text(path, pieces())
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
