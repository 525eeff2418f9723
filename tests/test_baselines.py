import math
from collections import defaultdict

import numpy as np
import pytest

from alignvae import autodiff as ad
from alignvae.autodiff import gradient_check
from alignvae.baselines import (
    NIBMConfig,
    build_nibm_params,
    ibm1_align,
    ibm1_em_step,
    ibm1_log_likelihood,
    ibm1_train,
    ibm1_uniform,
    load_ibm1_table,
    nibm_align,
    nibm_batch_log_likelihood,
    save_ibm1_table,
    train_nibm,
)
from alignvae.corpus import (
    CSSupport,
    SentencePair,
    Vocabulary,
    load_parallel,
    synth_corpus,
    write_corpus,
)
from alignvae import alignment
from alignvae import model as model_mod
from alignvae.baselines import _nibm_repr
from alignvae.errors import ContractError, DataError, NumericalError


def dict_em_oracle(pairs, v_x, v_y, iterations):
    """Reference EM coded independently with nested dicts (no arrays)."""
    t = {x: {y: 1.0 / v_y for y in range(v_y)} for x in range(v_x)}
    for _ in range(iterations):
        counts = defaultdict(lambda: defaultdict(float))
        for pair in pairs:
            for y in pair.y:
                denom = sum(t[x][y] for x in pair.x)
                for x in pair.x:
                    counts[x][y] += t[x][y] / denom
        new_t = {}
        for x in range(v_x):
            row_total = sum(counts[x].values())
            if row_total > 0:
                new_t[x] = {y: counts[x][y] / row_total for y in range(v_y)}
            else:
                new_t[x] = {y: 1.0 / v_y for y in range(v_y)}
        t = new_t
    return t


class TestIbm1Em:
    def test_single_pair_single_event(self):
        # one pair ([NULL, a], [b]): all probability mass lands on the
        # only observed L2 word for both L1 rows after one sweep
        pairs = [SentencePair((0, 2), (2,))]
        t, loglik = ibm1_em_step(pairs, ibm1_uniform(3, 3))
        assert loglik == pytest.approx(math.log(1 / 3), rel=1e-15)
        assert t[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert t[0, 2] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)

    def test_classic_two_pair_corpus(self):
        # {([NULL, a, b], [A, B]), ([NULL, a], [A])}: EM must attribute
        # A to a and B to b
        a, b, A, B = 2, 3, 2, 3
        pairs = [SentencePair((0, a, b), (A, B)), SentencePair((0, a), (A,))]
        t, _ = ibm1_train(pairs, 4, 4, iterations=10)
        assert int(np.argmax(t[a])) == A
        assert int(np.argmax(t[b])) == B

    def test_matches_independent_dict_oracle(self):
        rng = np.random.default_rng(0)
        v_x = v_y = 6
        pairs = []
        for _ in range(12):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            pairs.append(
                SentencePair(
                    (0, *rng.integers(2, v_x, size=m).tolist()),
                    tuple(rng.integers(2, v_y, size=n).tolist()),
                )
            )
        for iters in (1, 3, 7):
            mine, _ = ibm1_train(pairs, v_x, v_y, iterations=iters)
            oracle = dict_em_oracle(pairs, v_x, v_y, iters)
            for x in range(v_x):
                for y in range(v_y):
                    assert mine[x, y] == pytest.approx(oracle[x][y], abs=1e-9)

    def test_log_likelihood_nondecreasing(self):
        synth = synth_corpus(seed=2, v1=8, v2=8, n_pairs=60, len_range=(2, 6), shuffle_l2=True)
        vocab1 = Vocabulary(t for line in synth.l1_lines for t in line)
        vocab2 = Vocabulary(t for line in synth.l2_lines for t in line)
        pairs = [
            SentencePair((0, *vocab1.encode(a)), vocab2.encode(b))
            for a, b in zip(synth.l1_lines, synth.l2_lines)
        ]
        tokens = sum(p.n for p in pairs)
        _, trace = ibm1_train(pairs, len(vocab1), len(vocab2), iterations=10)
        for before, after in zip(trace, trace[1:]):
            assert after >= before - 1e-9 * tokens

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(1)
        pairs = [
            SentencePair((0, *rng.integers(2, 5, size=2).tolist()),
                         tuple(rng.integers(2, 5, size=3).tolist()))
            for _ in range(10)
        ]
        t = ibm1_uniform(5, 5)
        for _ in range(5):
            t, _ = ibm1_em_step(pairs, t)
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)

    def test_trace_entry_k_is_log_likelihood_of_table_k(self):
        synth = synth_corpus(seed=6, v1=7, v2=9, n_pairs=40, len_range=(1, 6), shuffle_l2=True)
        vocab1 = Vocabulary(t for line in synth.l1_lines for t in line)
        vocab2 = Vocabulary(t for line in synth.l2_lines for t in line)
        pairs = [
            SentencePair((0, *vocab1.encode(a)), vocab2.encode(b))
            for a, b in zip(synth.l1_lines, synth.l2_lines)
        ] + [SentencePair((0, 2), ())]  # an empty L2 side adds nothing
        final, trace = ibm1_train(pairs, len(vocab1), len(vocab2), iterations=6)
        assert len(trace) == 7
        t = ibm1_uniform(len(vocab1), len(vocab2))
        for k in range(7):
            assert trace[k] == ibm1_log_likelihood(pairs, t)  # bit for bit
            if k < 6:
                t_next, loglik = ibm1_em_step(pairs, t)
                assert loglik == trace[k]
                t = t_next
        assert final.tobytes() == t.tobytes()

    def test_zero_iterations_gives_uniform_table_and_one_entry(self):
        pairs = [SentencePair((0, 2), (2, 3))]
        t, trace = ibm1_train(pairs, 4, 4, iterations=0)
        assert t.tobytes() == ibm1_uniform(4, 4).tobytes()
        assert trace == [ibm1_log_likelihood(pairs, t)]

    def test_negative_iterations_rejected(self):
        with pytest.raises(ContractError, match="em_iters"):
            ibm1_train([SentencePair((0, 2), (2,))], 3, 3, iterations=-3)


class TestIbm1Align:
    def test_dictionary_table_perfect_on_unshuffled(self, tmp_path):
        synth = synth_corpus(seed=3, v1=10, v2=10, n_pairs=200, len_range=(2, 6), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        pairs, v1, v2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        gold = alignment.parse_gold(tmp_path / "gold")
        t = np.full((len(v1), len(v2)), 1e-9)
        for s_tok, t_tok in synth.mapping.items():
            t[v1.id(s_tok), v2.id(t_tok)] = 1.0
        preds = {sid: ibm1_align(p, t) for sid, p in enumerate(pairs, start=1)}
        score, _ = alignment.corpus_aer(preds, gold)
        assert score == 0.0

    def test_uniform_table_ties_to_position_one(self):
        t = ibm1_uniform(5, 5)
        pair = SentencePair((0, 2, 3), (2, 4))
        assert ibm1_align(pair, t) == {(1, 1), (2, 1)}

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = rng.uniform(0, 1, size=(6, 6))
            t /= t.sum(axis=1, keepdims=True)
            pair = SentencePair(
                (0, *rng.integers(2, 6, size=3).tolist()),
                tuple(rng.integers(2, 6, size=4).tolist()),
            )
            links = ibm1_align(pair, t)
            for j, y in enumerate(pair.y, start=1):
                scores = [t[x, y] for x in pair.x]
                best, best_i = -1.0, 0
                for i in range(1, len(scores)):
                    if scores[i] > best:
                        best, best_i = scores[i], i
                if scores[0] > best:
                    assert all(link[0] != j for link in links)
                else:
                    assert (j, best_i) in links


class TestIbm1TableExport:
    def test_round_trip_and_threshold(self, tmp_path):
        vocab1 = Vocabulary(["a", "b"])
        vocab2 = Vocabulary(["x", "y"])
        t = ibm1_uniform(4, 4)
        t[2] = [0.0, 0.0, 1.0 - 1e-8, 1e-8]
        path = tmp_path / "table.txt"
        save_ibm1_table(t, vocab1, vocab2, path)
        table, rows, cols = load_ibm1_table(path)
        assert table[rows["a"], cols["x"]] == 1.0 - 1e-8
        assert table[rows["a"], cols["y"]] == 0.0  # below the export threshold
        assert table[rows["b"], cols["x"]] == 0.25

    def test_writes_entries_in_row_major_order(self, tmp_path):
        t = np.array([[0.5, 0.0, 1e-7], [0.0, 0.25, 0.75]])
        path = tmp_path / "table.txt"
        save_ibm1_table(t, Vocabulary([]), Vocabulary(["y"]), path)
        assert path.read_text(encoding="utf-8") == (
            "<null> <null> 0.5\n<unk> <unk> 0.25\n<unk> y 0.75\n"
        )

    def test_loaded_table_aligns_tokens_like_ids(self, tmp_path):
        synth = synth_corpus(seed=5, v1=6, v2=6, n_pairs=80, len_range=(2, 5), shuffle_l2=True)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        pairs, v1, v2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        t, _ = ibm1_train(pairs, len(v1), len(v2), iterations=5)
        path = tmp_path / "table.txt"
        save_ibm1_table(t, v1, v2, path, min_prob=1e-12)
        table, rows, cols = load_ibm1_table(path)
        for raw1, raw2, pair in zip(synth.l1_lines, synth.l2_lines, pairs):
            tokens = SentencePair(tuple(rows[tok] for tok in ("<null>", *raw1)),
                                  tuple(cols[tok] for tok in raw2))
            assert ibm1_align(tokens, table) == ibm1_align(pair, t)

    def test_unlisted_tokens_score_zero(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("<null> x 0.5\na x 0.25\na y 0.75\n", encoding="utf-8")
        table, rows, cols = load_ibm1_table(path)
        assert "oov" not in rows and "oov" not in cols
        assert not table[0].any() and not table[:, 0].any()
        # the unlisted L1 word at position 1 loses to "a"; the unlisted L2
        # word scores 0 everywhere, a tie that goes to position 1
        pair = SentencePair((rows["<null>"], 0, rows["a"]), (cols["x"], 0, cols["y"]))
        assert ibm1_align(pair, table) == {(2, 1), (3, 2)}

    @pytest.mark.parametrize("prob", ["nan", "-0.5", "inf"])
    def test_unscorable_probability_rejected(self, tmp_path, prob):
        path = tmp_path / "table.txt"
        path.write_text(f"a x 0.5\na y {prob}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"table.txt:2: probability"):
            load_ibm1_table(path)


class TestNibm:
    @pytest.mark.parametrize("encoder, d_x, message", [
        ("cnn", 4, r"^unknown encoder 'cnn'$"), ("bow", 0, r"^d_x must be >= 1, got 0$"),
    ], ids=["unknown_encoder", "d_x_0"])
    def test_bad_encoder_config_rejected(self, encoder, d_x, message):
        with pytest.raises(ContractError, match=message):
            build_nibm_params(NIBMConfig(encoder=encoder, d_x=d_x), 5, 5, seed=0)

    def test_zero_parameters_uniform(self):
        cfg = NIBMConfig(encoder="bow", d_x=4)
        params = build_nibm_params(cfg, 6, 7, seed=0)
        for name in params.names():
            params[name].data = np.zeros_like(params[name].data)
        pair = SentencePair((0, 2, 3), (2, 4, 5, 6))
        out = nibm_batch_log_likelihood([pair], params, cfg)
        assert out.item() == pytest.approx(pair.n * math.log(1 / 7), abs=1e-12)

    def test_single_position_reduction(self):
        cfg = NIBMConfig(encoder="bow", d_x=3)
        params = build_nibm_params(cfg, 5, 5, seed=1)
        pair = SentencePair((0,), (3,))
        reps = np.tanh(params["mlp_W"].data @ params["E"].data[0] + params["mlp_b"].data)
        logits = params["out_W"].data @ reps + params["out_b"].data
        expected = logits[3] - np.logaddexp.reduce(logits)
        out = nibm_batch_log_likelihood([pair], params, cfg)
        assert out.item() == pytest.approx(expected, rel=1e-12)

    def test_gradient(self):
        cfg = NIBMConfig(encoder="bow", d_x=3)
        params = build_nibm_params(cfg, 6, 6, seed=2)
        pair = SentencePair((0, 2, 4), (3, 5))

        def loss():
            return ad.neg(nibm_batch_log_likelihood([pair], params, cfg))

        assert gradient_check(loss, params, step=1e-5).max_rel_err <= 1e-4

    def test_gradient_with_css(self):
        cfg = NIBMConfig(encoder="bow", d_x=3)
        params = build_nibm_params(cfg, 6, 6, seed=3)
        pair = SentencePair((0, 2, 4), (3, 5))
        css = CSSupport(side="l2", c_ids=(3, 5), n_ids=(0, 2), kappa=2.0)

        def loss():
            return ad.neg(nibm_batch_log_likelihood([pair], params, cfg, css))

        assert gradient_check(loss, params, step=1e-5).max_rel_err <= 1e-4

    def test_bow_permutation_invariance(self):
        cfg = NIBMConfig(encoder="bow", d_x=4)
        params = build_nibm_params(cfg, 7, 7, seed=4)
        a = nibm_batch_log_likelihood([SentencePair((0, 2, 3, 4), (5, 6))], params, cfg)
        b = nibm_batch_log_likelihood([SentencePair((0, 4, 2, 3), (5, 6))], params, cfg)
        assert a.item() == pytest.approx(b.item(), rel=1e-13)

    def test_training_beats_random_alignment(self, tmp_path):
        synth = synth_corpus(seed=6, v1=10, v2=10, n_pairs=400, len_range=(2, 6), shuffle_l2=True)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        pairs, v1, v2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        gold = alignment.parse_gold(tmp_path / "gold")
        cfg = NIBMConfig(encoder="bow", d_x=16)
        params = train_nibm(pairs, v1, v2, cfg, epochs=8, batch_size=50, seed=1)
        preds = {sid: nibm_align(p, params, cfg) for sid, p in enumerate(pairs, start=1)}
        score, _ = alignment.corpus_aer(preds, gold)
        assert score <= 0.5  # far below the ~0.83 random baseline

    @pytest.mark.parametrize("encoder", ["bow", "birnn"])
    def test_align_is_the_exact_head_argmax(self, encoder):
        cfg = NIBMConfig(encoder=encoder, d_x=4)
        params = build_nibm_params(cfg, 7, 7, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = (0, *rng.integers(1, 7, size=rng.integers(0, 5)).tolist())
            y = tuple(rng.integers(0, 7, size=rng.integers(0, 5)).tolist())
            reps = _nibm_repr(model_mod.Ragged([x]), params, cfg).data
            log_probs = model_mod.l2_head_log_probs(reps, params["out_W"], params["out_b"])
            expected = alignment.argmax_links(log_probs[:, list(y)])
            assert nibm_align(SentencePair(x, y), params, cfg) == expected

    def test_align_overflowing_head_raises_numerical_error(self):
        cfg = NIBMConfig(encoder="bow", d_x=4)
        params = build_nibm_params(cfg, 7, 7, seed=2)
        params["out_b"].data[:2] = [1.7e308, -1.7e308]
        with pytest.raises(NumericalError):
            nibm_align(SentencePair((0, 2, 3), (1, 4)), params, cfg)

    def test_negative_epochs_refused_as_training_does(self, tmp_path):
        synth = synth_corpus(seed=6, v1=6, v2=6, n_pairs=60, len_range=(2, 4), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        pairs, v1, v2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        with pytest.raises(ContractError, match=r"^epochs must be >= 0, got -2$"):
            train_nibm(pairs, v1, v2, NIBMConfig(encoder="bow", d_x=4), epochs=-2)

    def test_empty_pair_list_refused_as_training_does(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ContractError, match="at least one sentence pair"):
            train_nibm([], vocab, vocab, NIBMConfig(encoder="bow", d_x=4), epochs=1)
