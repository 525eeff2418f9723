import base64
import json
import math
import os
import re
import threading
from dataclasses import asdict

import numpy as np
import pytest

from alignvae import model as model_mod
from alignvae import training
from alignvae.autodiff import ParameterStore, RowGrad
from alignvae.corpus import load_parallel, synth_corpus, write_corpus, write_text
from alignvae.errors import CheckpointError, ContractError, NumericalError, TrainingError
from alignvae.model import ModelConfig, build_params, elbo, glorot_init
from alignvae.training import (
    ADAM_BETA1,
    AdamState,
    TrainConfig,
    adam_step,
    anneal_alpha,
    load_checkpoint,
    save_checkpoint,
    train,
)
from alignvae import alignment
from conftest import as_version, dense_of, encode_entry


class TestGlorotInit:
    def test_bound(self):
        draw = glorot_init((100, 100), seed=0)
        limit = math.sqrt(6 / 200)
        assert limit == pytest.approx(0.1732051, abs=1e-7)
        assert np.all(np.abs(draw) <= limit)

    def test_same_seed_identical(self):
        np.testing.assert_array_equal(glorot_init((5, 7), 3), glorot_init((5, 7), 3))
        assert not np.array_equal(glorot_init((5, 7), 3), glorot_init((5, 7), 4))

    def test_sample_mean(self):
        draw = glorot_init((100, 100), seed=1)
        limit = math.sqrt(6 / 200)
        # uniform on [-L, L] has sd L/sqrt(3); mean of 1e4 draws
        assert abs(draw.mean()) <= 3 * limit / math.sqrt(3 * 10_000)

    def test_non_2d_rejected(self):
        with pytest.raises(ContractError):
            glorot_init((4,), seed=0)


class TestAdamStep:
    def test_first_step_identity(self):
        store = ParameterStore()
        store.add("w", 0.0)
        state = AdamState(lr=1e-3)
        adam_step(store, {"w": np.asarray(1.0)}, state)
        expected = -1e-3 * 1.0 / (1.0 + 1e-8)
        assert store["w"].data == pytest.approx(expected, abs=1e-16)
        assert store["w"].data == pytest.approx(-9.9999999e-4, abs=1e-12)

    def test_zero_gradient_no_motion(self):
        store = ParameterStore()
        store.add("w", np.array([1.0, -2.0]))
        state = AdamState()
        adam_step(store, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(store["w"].data, [1.0, -2.0])

    def test_minimizes_quadratic(self):
        # lr 1e-2 suits this 1-d problem; Adam's per-step motion is
        # capped near lr, so the default 1e-3 needs ~5.8k steps for the
        # same target (checked below)
        store = ParameterStore()
        w = store.add("w", 0.0)
        state = AdamState(lr=1e-2)
        for _ in range(5000):
            grad = 2.0 * (w.data - 3.0)
            adam_step(store, {"w": grad}, state)
        assert abs(float(w.data) - 3.0) <= 1e-2

    def test_minimizes_quadratic_default_lr(self):
        store = ParameterStore()
        w = store.add("w", 0.0)
        state = AdamState(lr=1e-3)
        for _ in range(6000):
            grad = 2.0 * (w.data - 3.0)
            adam_step(store, {"w": grad}, state)
        assert abs(float(w.data) - 3.0) <= 1e-2

    def test_nan_gradient_aborts_with_name(self):
        store = ParameterStore()
        store.add("bad", np.zeros(2))
        with pytest.raises(TrainingError, match="bad"):
            adam_step(store, {"bad": np.array([np.nan, 0.0])}, AdamState())

    def test_failed_step_changes_nothing(self):
        store = ParameterStore()
        store.add("a", np.array([1.0, -2.0]))
        store.add("b", np.array([[0.5, 0.25]]))
        state = AdamState()
        adam_step(store, {"a": np.array([0.1, -0.2]), "b": np.array([[0.3, 0.0]])}, state)
        values = store.copy_values()
        m = {k: v.copy() for k, v in state.m.items()}
        v = {k: x.copy() for k, x in state.v.items()}
        with pytest.raises(TrainingError, match="'b'"):
            adam_step(store, {"a": np.array([0.4, 0.5]), "b": np.array([[np.inf, 0.0]])}, state)
        assert state.t == 1
        for name in ("a", "b"):
            np.testing.assert_array_equal(store[name].data, values[name])
            np.testing.assert_array_equal(state.m[name], m[name])
            np.testing.assert_array_equal(state.v[name], v[name])

    def test_bit_identical_to_reference_formula(self):
        # (2500, 3) and (2500,) run as two full 1,024-row blocks and a ragged
        # tail of 452; the 0-d scalar as a single one-row block; (1024, 2) as
        # one block ending at the table's end, (1025, 2) as one and a one-row tail
        rng = np.random.default_rng(4)
        shapes = {"w": (5, 3), "s": (), "wide": (2500, 3), "vec": (2500,),
                  "block": (1024, 2), "tail": (1025, 2)}
        store = ParameterStore()
        for name, shape in shapes.items():
            store.add(name, rng.standard_normal(shape))
        ref_w = {name: t.data.copy() for name, t in store.items()}
        ref_m = {name: np.zeros_like(a) for name, a in ref_w.items()}
        ref_v = {name: np.zeros_like(a) for name, a in ref_w.items()}
        state = AdamState(lr=3e-3)
        b1, b2, eps = 0.9, 0.999, 1e-8
        assert (training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS) == (b1, b2, eps)
        for t in range(1, 5):
            grads = {name: np.asarray(rng.standard_normal(shape))
                     for name, shape in shapes.items()}
            adam_step(store, grads, state)
            for name, g in grads.items():
                ref_m[name] = b1 * ref_m[name] + (1.0 - b1) * g
                ref_v[name] = b2 * ref_v[name] + (1.0 - b2) * (g * g)
                m_hat = ref_m[name] / (1.0 - b1**t)
                v_hat = ref_v[name] / (1.0 - b2**t)
                ref_w[name] = ref_w[name] - state.lr * m_hat / (np.sqrt(v_hat) + eps)
                assert store[name].data.tobytes() == np.asarray(ref_w[name]).tobytes()
                assert state.m[name].tobytes() == np.asarray(ref_m[name]).tobytes()
                assert state.v[name].tobytes() == np.asarray(ref_v[name]).tobytes()

    def test_non_finite_gradient_in_last_block_changes_nothing(self):
        rng = np.random.default_rng(6)
        store = ParameterStore()
        store.add("a", rng.standard_normal((2500, 2)))
        store.add("b", rng.standard_normal(3))
        state = AdamState()
        adam_step(store, {"a": rng.standard_normal((2500, 2)), "b": rng.standard_normal(3)}, state)
        values = store.copy_values()
        m = {k: v.copy() for k, v in state.m.items()}
        v = {k: x.copy() for k, x in state.v.items()}
        bad = rng.standard_normal((2500, 2))
        bad[2499, 1] = np.nan  # the tail block, after two full blocks
        with pytest.raises(TrainingError, match="'a'"):
            adam_step(store, {"a": bad, "b": rng.standard_normal(3)}, state)
        assert state.t == 1
        for name in ("a", "b"):
            assert store[name].data.tobytes() == values[name].tobytes()
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()

    @pytest.mark.parametrize("lr,g_b", [(1e308, 10.0), (1e-3, 1e160)],
                             ids=["step", "second-moment"])
    def test_overflow_names_the_parameter_before_its_step(self, lr, g_b):
        # lr * m_hat overflows, or g * g does; "a" steps by a finite amount first
        store = ParameterStore()
        store.add("a", np.zeros(2))
        store.add("b", np.array([1.0, -1.0]))
        with pytest.raises(TrainingError, match="Adam update of parameter 'b' overflowed"):
            adam_step(store, {"a": np.array([1e-12, 0.0]), "b": np.array([g_b, 0.5])},
                      AdamState(lr=lr))
        assert np.all(np.isfinite(store["a"].data)) and store["a"].data[0] != 0.0
        np.testing.assert_array_equal(store["b"].data, [1.0, -1.0])

    def test_row_grad_steps_as_its_dense_table(self):
        # tables of two full 1,024-row blocks and a tail; the last 300 rows of
        # each are never touched, and each step touches a different subset,
        # the second one more than half the rows, which Adam scatters all the same
        rng = np.random.default_rng(8)
        shapes = {"wide": (2500, 3), "vec": (2500,)}
        sparse_store, dense_store = ParameterStore(), ParameterStore()
        for name, shape in shapes.items():
            init = rng.standard_normal(shape)
            sparse_store.add(name, init)
            dense_store.add(name, init)
        sparse, dense = AdamState(lr=3e-3), AdamState(lr=3e-3)
        touched = []
        for share in (0.3, 0.8, 0.2, 0.3):
            ids = np.flatnonzero(rng.random(2200) < share)
            touched.append(ids)
            row_grads, dense_grads = {}, {}
            for name, shape in shapes.items():
                values = rng.standard_normal((len(ids), *shape[1:]))
                values[rng.random(values.shape) < 0.1] = -0.0
                row_grads[name] = RowGrad(ids, values)
                dense_grads[name] = dense_of(row_grads[name], shape)
            m_before = {name: m.copy() for name, m in sparse.m.items()}
            w_before = sparse_store.copy_values()
            adam_step(sparse_store, row_grads, sparse)
            adam_step(dense_store, dense_grads, dense)
            for name in shapes:
                assert sparse_store[name].data.tobytes() == dense_store[name].data.tobytes()
                assert np.array_equal(sparse.m[name], dense.m[name])
                assert np.array_equal(sparse.v[name], dense.v[name])
                if m_before:  # rows touched before but not now decay and still step
                    idle = np.setdiff1d(np.concatenate(touched[:-1]), ids)
                    assert idle.size
                    assert np.array_equal(sparse.m[name][idle], m_before[name][idle] * ADAM_BETA1)
                    moving = m_before[name][idle] != 0.0  # not only -0.0 gradients so far
                    assert np.all((sparse_store[name].data[idle] != w_before[name][idle])[moving])
        for name in shapes:  # rows never touched keep zero moments and do not move
            assert not np.any(sparse.m[name][2200:]) and not np.any(sparse.v[name][2200:])
            assert sparse_store[name].data[2200:].tobytes() == dense_store[name].data[2200:].tobytes()

    @pytest.mark.parametrize("ids,value,error,message", [
        ([1], np.nan, TrainingError, "non-finite gradient for parameter 'b'"),
        # m[ids] += ... would add a repeated id once and wrap a negative one
        ([1, 1], 1.0, ContractError, "parameter 'b' needs strictly increasing ids in \\[0, 3\\)"),
        ([2, 1], 1.0, ContractError, "parameter 'b' needs strictly increasing ids"),
        ([-1, 0], 1.0, ContractError, "parameter 'b' needs strictly increasing ids"),
        ([0, 3], 1.0, ContractError, "parameter 'b' needs strictly increasing ids"),
        # values of another shape would broadcast onto the rows, or fail after "a" stepped
        ([0, 2], np.ones((2, 1)), ContractError,
         "parameter 'b' has shape \\(2, 1\\), needs \\(2, 2\\)"),
        ([0, 2], np.ones(2), ContractError, "parameter 'b' has shape \\(2,\\), needs \\(2, 2\\)"),
        ([0, 2], np.ones((1, 2)), ContractError, "parameter 'b' has shape \\(1, 2\\)"),
        ([0, 2], np.ones((2, 5)), ContractError, "parameter 'b' has shape \\(2, 5\\)"),
    ], ids=["non-finite", "repeated", "unsorted", "negative", "past-the-end",
            "one-column", "flat", "one-row", "too-wide"])
    def test_refused_row_grad_changes_nothing(self, ids, value, error, message):
        store = ParameterStore()
        store.add("a", np.array([1.0, -2.0]))
        store.add("b", np.ones((3, 2)))
        state = AdamState()
        adam_step(store, {"a": np.array([0.1, -0.2]),
                          "b": RowGrad(np.array([0, 2]), np.full((2, 2), 0.3))}, state)
        values = store.copy_values()
        m = {k: x.copy() for k, x in state.m.items()}
        v = {k: x.copy() for k, x in state.v.items()}
        with pytest.raises(error, match=message):
            adam_step(store, {"a": np.array([0.4, 0.5]),
                              "b": RowGrad(np.array(ids), value if np.ndim(value)
                                           else np.full((len(ids), 2), value))}, state)
        assert state.t == 1
        for name in ("a", "b"):
            assert store[name].data.tobytes() == values[name].tobytes()
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()

    @pytest.mark.parametrize("shape", [(), (2,), (3, 1), (1, 3, 2)],
                             ids=["0-d", "one-row", "one-column", "extra-axis"])
    def test_refused_dense_grad_changes_nothing(self, shape):
        # every shape but the last would broadcast onto the whole table
        store = ParameterStore()
        store.add("a", np.array([1.0, -2.0]))
        store.add("b", np.ones((3, 2)))
        state = AdamState()
        with pytest.raises(ContractError, match=f"parameter 'b' has shape {re.escape(str(shape))}, "
                                                "needs \\(3, 2\\)"):
            adam_step(store, {"a": np.array([0.4, 0.5]), "b": np.full(shape, 0.3)}, state)
        assert state.t == 0 and not state.m and not state.v
        np.testing.assert_array_equal(store["a"].data, [1.0, -2.0])
        np.testing.assert_array_equal(store["b"].data, np.ones((3, 2)))

    def test_row_grad_overflow_names_the_parameter(self):
        # 1e160 squared overflows in the scatter into v, before any step of "b"
        store = ParameterStore()
        store.add("a", np.zeros(2))
        store.add("b", np.array([[1.0], [-1.0], [2.0]]))
        with pytest.raises(TrainingError, match="Adam update of parameter 'b' overflowed"):
            adam_step(store, {"a": np.array([1e-12, 0.0]),
                              "b": RowGrad(np.array([1]), np.array([[1e160]]))}, AdamState())
        assert store["a"].data[0] != 0.0
        np.testing.assert_array_equal(store["b"].data, [[1.0], [-1.0], [2.0]])

    @pytest.mark.parametrize("row_grad", [False, True], ids=["dense", "row"])
    def test_overflowing_square_in_last_block_leaves_the_parameter_unchanged(self, row_grad):
        # every moment is updated before the first block steps
        rng = np.random.default_rng(7)
        store = ParameterStore()
        store.add("a", rng.standard_normal((2500, 2)))
        values = store.copy_values()
        g = rng.standard_normal((2500, 2))
        g[2499, 1] = 1e160  # finite, but its square is not
        grad = RowGrad(np.arange(2500), g) if row_grad else g
        with pytest.raises(TrainingError, match="Adam update of parameter 'a' overflowed"):
            adam_step(store, {"a": grad}, AdamState())
        assert store["a"].data.tobytes() == values["a"].tobytes()

    def test_overflowing_step_in_last_block_leaves_earlier_blocks_stepped(self):
        store = ParameterStore()
        store.add("a", np.zeros((2500, 2)))
        g = np.full((2500, 2), 1e-12)
        g[2499, 1] = 10.0  # lr * m_hat overflows in the tail block only
        with pytest.raises(TrainingError, match="Adam update of parameter 'a' overflowed"):
            adam_step(store, {"a": g}, AdamState(lr=1e308))
        assert np.all(store["a"].data[:2048] < 0.0) and np.all(store["a"].data[2048:] == 0.0)

    def test_updates_each_parameter_array_in_place(self):
        store = ParameterStore()
        store.add("w", np.ones((1500, 2)))
        store.add("s", 0.5)
        arrays = {name: t.data for name, t in store.items()}
        before = store.copy_values()
        adam_step(store, {"w": np.ones((1500, 2)), "s": np.asarray(1.0)}, AdamState())
        for name, t in store.items():
            assert t.data is arrays[name]
            assert not np.array_equal(t.data, before[name])

    def test_stepping_a_checkpoint_store_leaves_the_checkpoint_unchanged(self, tiny_corpus):
        pairs, v1, v2, _, _ = tiny_corpus
        ckpt = train(pairs, v1, v2, ModelConfig(d=3, d_x=4), TrainConfig(epochs=0, seed=5))
        saved = {name: a.tobytes() for name, a in ckpt.params.items()}
        store = ckpt.build_store()
        adam_step(store, {name: np.ones_like(t.data) for name, t in store.items()}, AdamState())
        for name, a in ckpt.params.items():
            assert a.tobytes() == saved[name]
            assert store[name].data.tobytes() != saved[name]

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_out_of_range_learning_rate_rejected(self, lr):
        with pytest.raises(ContractError, match="lr"):
            AdamState(lr=lr)


class TestAnnealAlpha:
    def test_schedule_points(self):
        assert anneal_alpha(0) == 0.0
        assert anneal_alpha(499) == 0.0
        assert anneal_alpha(500) == 0.001
        assert anneal_alpha(500_000) == 1.0

    def test_nondecreasing_and_saturates(self):
        previous = 0.0
        for u in range(0, 600_000, 7919):
            value = anneal_alpha(u)
            assert value >= previous
            previous = value
        assert anneal_alpha(499_999) < 1.0
        assert anneal_alpha(10_000_000) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            anneal_alpha(-1)


@pytest.fixture
def tiny_corpus(tmp_path):
    synth = synth_corpus(seed=8, v1=8, v2=8, n_pairs=60, len_range=(2, 5), shuffle_l2=True)
    write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
    pairs, v1, v2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
    gold = alignment.parse_gold(tmp_path / "gold")
    return pairs, v1, v2, gold, tmp_path


class TestTrain:
    def test_zero_epochs_returns_initial(self, tiny_corpus):
        pairs, v1, v2, gold, _ = tiny_corpus
        mcfg = ModelConfig(d=3, d_x=4)
        ckpt = train(pairs, v1, v2, mcfg, TrainConfig(epochs=0, batch_size=10, seed=5))
        fresh = build_params(mcfg, len(v1), len(v2), seed=5)
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(arr, fresh[name].data)
        assert ckpt.update_count == 0
        assert anneal_alpha(ckpt.update_count) == 0.0

    def test_negative_epochs_rejected(self, tiny_corpus):
        pairs, v1, v2, _, _ = tiny_corpus
        with pytest.raises(ContractError, match="epochs"):
            train(pairs, v1, v2, ModelConfig(d=3, d_x=4), TrainConfig(epochs=-2))

    def test_empty_pair_list_rejected(self, tiny_corpus):
        _, v1, v2, _, _ = tiny_corpus
        with pytest.raises(ContractError, match="at least one sentence pair"):
            train([], v1, v2, ModelConfig(d=3, d_x=4), TrainConfig(epochs=1))

    def test_validation_aer_is_the_corpus_aer_of_one_pair_aligns(self, tiny_corpus):
        pairs, v1, v2, gold, _ = tiny_corpus
        mcfg = ModelConfig(d=3, d_x=4)
        params = build_params(mcfg, len(v1), len(v2), seed=5)
        one_by_one = {sid: alignment.viterbi_align(p, params, mcfg)
                      for sid, p in enumerate(pairs, start=1)}
        assert (training._validation_aer(pairs, gold, params, mcfg)
                == alignment.corpus_aer(one_by_one, gold)[0])

    def test_validation_overflow_is_a_numerical_error(self, tiny_corpus):
        pairs, v1, v2, gold, _ = tiny_corpus
        mcfg = ModelConfig(d=3, d_x=4)
        params = build_params(mcfg, len(v1), len(v2), seed=5)
        params["b2"].data[:2] = [1.7e308, -1.7e308]
        with pytest.raises(NumericalError):
            training._validation_aer(pairs, gold, params, mcfg)

    def test_seeded_runs_bit_identical(self, tiny_corpus):
        pairs, v1, v2, gold, tmp_path = tiny_corpus
        mcfg = ModelConfig(d=3, d_x=4)
        tcfg = TrainConfig(epochs=2, batch_size=10, seed=5)
        outs = []
        for run in range(2):
            log = tmp_path / f"metrics{run}.tsv"
            ckpt = train(pairs, v1, v2, mcfg, tcfg,
                         val_pairs=pairs[:10],
                         val_gold={k: gold[k] for k in range(1, 11)},
                         log_path=log)
            outs.append((ckpt, log.read_bytes()))
        a, b = outs
        assert a[1] == b[1]
        for name in a[0].params:
            np.testing.assert_array_equal(a[0].params[name], b[0].params[name])

    def test_metrics_log_shape(self, tiny_corpus):
        pairs, v1, v2, gold, tmp_path = tiny_corpus
        log = tmp_path / "metrics.tsv"
        train(pairs, v1, v2, ModelConfig(d=3, d_x=4),
              TrainConfig(epochs=3, batch_size=20, seed=1),
              val_pairs=pairs, val_gold=gold, log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        for epoch, line in enumerate(lines):
            fields = line.split("\t")
            assert int(fields[0]) == epoch
            float(fields[1]), float(fields[2]), float(fields[3])

    def test_empty_validation_gold_falls_back_to_final_epoch(self, tiny_corpus):
        pairs, v1, v2, _, _ = tiny_corpus
        ckpt = train(pairs, v1, v2, ModelConfig(d=3, d_x=4),
                     TrainConfig(epochs=1, batch_size=20, seed=1),
                     val_pairs=pairs[:5], val_gold={})
        assert ckpt.best_val_aer is None
        assert ckpt.update_count == 3

    def test_loss_improves_on_dictionary_corpus(self, tiny_corpus):
        pairs, v1, v2, gold, tmp_path = tiny_corpus
        log = tmp_path / "m.tsv"
        train(pairs, v1, v2, ModelConfig(d=4, d_x=8),
              TrainConfig(epochs=8, batch_size=20, seed=2),
              val_pairs=pairs, val_gold=gold, log_path=log)
        lines = log.read_text().splitlines()
        first = float(lines[0].split("\t")[1])
        last = float(lines[-1].split("\t")[1])
        assert last > first

    def test_hierarchical_config_trains(self, tiny_corpus):
        pairs, v1, v2, gold, _ = tiny_corpus
        mcfg = ModelConfig(d=3, d_x=4, hierarchical=True, d_s=2)
        ckpt = train(pairs[:20], v1, v2, mcfg,
                     TrainConfig(epochs=1, batch_size=10, seed=3),
                     val_pairs=pairs[:5],
                     val_gold={k: gold[k] for k in range(1, 6)})
        assert "G1" in ckpt.params
        assert ckpt.best_val_aer is not None


class TestCheckpointIO:
    def build(self, tiny_corpus_data, hierarchical=False):
        pairs, v1, v2, gold, tmp_path = tiny_corpus_data
        mcfg = ModelConfig(d=3, d_x=4, hierarchical=hierarchical)
        ckpt = train(pairs[:20], v1, v2, mcfg,
                     TrainConfig(epochs=1, batch_size=10, seed=9))
        return ckpt, pairs, tmp_path

    def test_round_trip_preserves_elbo_bitwise(self, tiny_corpus):
        ckpt, pairs, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        eps = np.random.default_rng(0).standard_normal((pairs[0].m, 3))
        before = elbo(pairs[0], ckpt.build_store(), ckpt.model_cfg, 0.5, eps).item()
        after = elbo(pairs[0], loaded.build_store(), loaded.model_cfg, 0.5, eps).item()
        assert before == after
        for name in ckpt.params:
            np.testing.assert_array_equal(ckpt.params[name], loaded.params[name])
        assert loaded.vocab_l1 == ckpt.vocab_l1

    def test_truncated_file_rejected(self, tiny_corpus):
        ckpt, _, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tiny_corpus):
        ckpt, _, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_field_rejected(self, tiny_corpus):
        ckpt, _, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        del doc["params"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="params"):
            load_checkpoint(path)

    def rewrite(self, tiny_corpus, edit):
        ckpt, _, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_missing_parameter_rejected(self, tiny_corpus):
        path = self.rewrite(tiny_corpus, lambda doc: doc["params"].pop("W2"))
        with pytest.raises(CheckpointError, match="missing \\['W2'\\]"):
            load_checkpoint(path).build_store()

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_extra_parameter_rejected(self, tiny_corpus, version):
        def edit(doc):
            as_version(doc, version)
            doc["params"]["G1"] = encode_entry([0.0, 1.0], [2], version)

        path = self.rewrite(tiny_corpus, edit)
        with pytest.raises(CheckpointError, match="unexpected \\['G1'\\]"):
            load_checkpoint(path).build_store()

    def test_misshaped_parameter_rejected(self, tiny_corpus):
        def edit(doc):
            entry = doc["params"]["M1"]
            entry["shape"] = entry["shape"][::-1]

        path = self.rewrite(tiny_corpus, edit)
        with pytest.raises(CheckpointError, match="'M1'"):
            load_checkpoint(path).build_store()

    def test_non_object_parameter_entry_rejected(self, tiny_corpus):
        path = self.rewrite(tiny_corpus, lambda doc: doc["params"].update(E=5))
        with pytest.raises(CheckpointError, match="malformed parameter 'E'"):
            load_checkpoint(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("5\n")
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("params", []), ("vocab_l1", 5), ("vocab_l2", ["<null>", 3]),
    ])
    def test_mistyped_field_rejected(self, tiny_corpus, key, value):
        path = self.rewrite(tiny_corpus, lambda doc: doc.update({key: value}))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tiny_corpus):
        path = self.rewrite(tiny_corpus, lambda doc: doc["config"].update(depth=3))
        with pytest.raises(CheckpointError, match="depth"):
            load_checkpoint(path)

    def test_loaded_parameters_are_writable_copies(self, tiny_corpus):
        ckpt, _, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        for arr in load_checkpoint(path).params.values():
            assert arr.dtype == np.float64 and arr.flags.writeable
            arr += 1.0

    @pytest.mark.parametrize("value,encoding", [
        (True, 1), (1.0, 1), (0, 1), (2.0, 2), ("2", 2), (None, 2), (3, 2), ([2], 2),
    ])
    def test_version_must_be_int_1_or_2(self, tiny_corpus, value, encoding):
        def edit(doc):
            as_version(doc, encoding)
            doc["version"] = value

        path = self.rewrite(tiny_corpus, edit)
        with pytest.raises(CheckpointError, match="checkpoint version .* unsupported"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        "string", "bool", "null", "nested", "object", "huge_int", "too_few", "data_and_b64",
    ])
    def test_version_1_data_must_be_a_flat_list_of_numbers(self, tiny_corpus, edit):
        def change(doc):
            as_version(doc, 1)
            entry = doc["params"]["M1"]
            data = entry["data"]
            if edit == "string":
                data[0] = "1.5"
            elif edit == "bool":
                data[0] = True
            elif edit == "null":
                data[0] = None
            elif edit == "nested":
                entry["data"] = np.reshape(data, entry["shape"]).tolist()
            elif edit == "object":
                entry["data"] = {"0": 1.0}
            elif edit == "huge_int":
                data[0] = 10**400  # beyond the float range
            elif edit == "too_few":
                data.pop()
            else:
                entry["b64"] = ""

        path = self.rewrite(tiny_corpus, change)
        with pytest.raises(CheckpointError, match="malformed parameter 'M1'"):
            load_checkpoint(path)

    def test_empty_file_is_malformed(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="malformed checkpoint file"):
            load_checkpoint(path)

    def test_crlf_line_end_and_fifo_read(self, tiny_corpus):
        ckpt, _, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        text = path.read_bytes()[:-1] + b"\r\n"
        path.write_bytes(text)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def writer():  # a pipe has no memory map, so it is read as a stream
            with open(fifo, "wb") as fh:
                fh.write(text)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        from_fifo = load_checkpoint(fifo)
        thread.join(timeout=10)
        assert not thread.is_alive()
        for loaded in (load_checkpoint(path), from_fifo):
            for name, arr in ckpt.params.items():
                assert loaded.params[name].tobytes() == arr.tobytes()

    def test_version_2_payload_is_read_piece_by_piece(self, tiny_corpus, monkeypatch):
        # 3 values per piece: M1's 12 values are four pieces of 32 characters
        monkeypatch.setattr(training, "_B64_PIECE_VALUES", 3)
        ckpt, _, tmp_path = self.build(tiny_corpus)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        for name, arr in ckpt.params.items():
            assert loaded.params[name].tobytes() == arr.tobytes()

        def pad_first_piece(doc):  # same length, but the first piece ends in padding
            text = doc["params"]["M1"]["b64"]
            doc["params"]["M1"]["b64"] = text[:28] + "AA==" + text[32:]

        def add_a_quantum(doc):  # four more characters, past the last piece
            doc["params"]["M1"]["b64"] += "AAAA"

        for edit, what in ((pad_first_piece, "base64 characters from 0 decode to 22 bytes"),
                           (add_a_quantum, "132 base64 characters")):
            path = self.rewrite(tiny_corpus, edit)
            with pytest.raises(CheckpointError, match=f"malformed parameter 'M1': {what}"):
                load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        "short", "long", "ragged", "bad_char", "newline", "non_ascii", "cut_char", "surplus_padding",
        "number", "data_key", "extra_key", "negative_shape", "bool_shape", "float_shape",
        "string_shape", "huge_shape", "swapped_shape",
    ])
    def test_malformed_version_2_entry_rejected(self, tiny_corpus, edit):
        def change(doc):
            entry = doc["params"]["M1"]
            raw = base64.b64decode(entry["b64"])
            text = entry["b64"]
            if edit == "short":
                entry["b64"] = base64.b64encode(raw[:-8]).decode()
            elif edit == "long":
                entry["b64"] = base64.b64encode(raw + bytes(8)).decode()
            elif edit == "ragged":
                entry["b64"] = base64.b64encode(raw[:-3]).decode()
            elif edit == "bad_char":
                entry["b64"] = "!" + text[1:]
            elif edit == "newline":
                entry["b64"] = text[:8] + "\n" + text[8:]
            elif edit == "non_ascii":
                entry["b64"] = "\u00e9" + text[1:]
            elif edit == "cut_char":
                entry["b64"] = text[:-1]
            elif edit == "surplus_padding":
                entry["b64"] = text + "=="  # base64.b64decode alone ignores it
            elif edit == "number":
                entry["b64"] = 5
            elif edit == "data_key":
                entry["data"] = entry.pop("b64")
            elif edit == "extra_key":
                entry["dtype"] = "<f8"
            elif edit == "negative_shape":
                entry["shape"] = [-entry["shape"][0], -entry["shape"][1]]
            elif edit == "bool_shape":
                entry["shape"] = [True, len(raw) // 8]
            elif edit == "float_shape":
                entry["shape"] = [float(n) for n in entry["shape"]]
            elif edit == "string_shape":
                entry["shape"] = "x".join(map(str, entry["shape"]))
            elif edit == "huge_shape":  # refused before an array of that size is made
                entry["shape"] = [2**40, 2**20]
            else:
                entry["shape"] = entry["shape"] + [2]

        path = self.rewrite(tiny_corpus, change)
        with pytest.raises(CheckpointError, match="malformed parameter 'M1'"):
            load_checkpoint(path)

    def test_build_store_draws_no_initialisation(self, tiny_corpus, monkeypatch):
        ckpt, _, _ = self.build(tiny_corpus)

        def no_draw(*args, **kwargs):
            raise AssertionError("build_store drew an initialisation")

        monkeypatch.setattr(model_mod, "glorot_init", no_draw)
        store = ckpt.build_store()
        assert store.names() == list(ckpt.params)
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(store[name].data, arr)


class TestCheckpointWrite:
    # 3 and 6 values per base64 piece split every parameter, most with a
    # shorter last piece; None keeps the module's piece size, which only
    # the added "wide" array spans (the writer does not check names)
    @pytest.mark.parametrize("piece_values", [3, 6, None])
    def test_bytes_equal_single_json_dump(self, tiny_corpus, monkeypatch, piece_values):
        if piece_values is not None:
            monkeypatch.setattr(training, "_B64_PIECE_VALUES", piece_values)
        pairs, v1, v2, gold, tmp_path = tiny_corpus
        mcfg = ModelConfig(d=3, d_x=4, hierarchical=True, d_s=2)
        ckpt = train(pairs[:20], v1, v2, mcfg, TrainConfig(epochs=1, batch_size=10, seed=4),
                     val_pairs=pairs[:5], val_gold={k: gold[k] for k in range(1, 6)})
        ckpt.vocab_l1 = ckpt.vocab_l1 + ["caf\u00e9", 'q"uote']
        ckpt.params["W1"] = ckpt.params["W1"].copy()
        ckpt.params["W1"][0, :3] = [-0.0, 1e-300, 123456789.125]
        ckpt.params["wide"] = np.random.default_rng(3).standard_normal(
            2 * training._B64_PIECE_VALUES + 7)
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = {
            "format": training.CHECKPOINT_FORMAT,
            "version": training.CHECKPOINT_VERSION,
            "config": asdict(ckpt.model_cfg),
            "vocab_l1": ckpt.vocab_l1,
            "vocab_l2": ckpt.vocab_l2,
            "update_count": ckpt.update_count,
            "best_val_aer": ckpt.best_val_aer,
            "best_epoch": ckpt.best_epoch,
            "params": {
                name: {"shape": list(arr.shape),
                       "b64": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
                for name, arr in ckpt.params.items()
            },
        }
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        assert path.read_bytes() == ref.read_bytes()

    def test_failed_write_keeps_old_file(self, tiny_corpus, monkeypatch):
        pairs, v1, v2, _, tmp_path = tiny_corpus
        ckpt = train(pairs[:20], v1, v2, ModelConfig(d=3, d_x=4),
                     TrainConfig(epochs=1, batch_size=10, seed=9))
        out = tmp_path / "out"
        out.mkdir()
        path = out / "ckpt.json"
        path.write_text("old contents\n", encoding="utf-8")
        calls = []
        real_dumps = json.dumps

        def failing_dumps(obj, *args, **kwargs):
            calls.append(obj)
            if len(calls) == 4:  # the header, then a few parameters
                raise OSError("disk full")
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", failing_dumps)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, path)
        assert path.read_text(encoding="utf-8") == "old contents\n"
        assert [p.name for p in out.iterdir()] == ["ckpt.json"]

    def test_failed_metrics_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        path.write_text("0\t-1.0\t0.0\t0.5\n", encoding="utf-8")

        def pieces():
            yield "0\t-2.0\t0.0\t0.4\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_text(path, pieces())
        assert path.read_text(encoding="utf-8") == "0\t-1.0\t0.0\t0.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.tsv"]

    def test_train_writes_metrics_through_atomic_write(self, tiny_corpus, monkeypatch):
        pairs, v1, v2, _, tmp_path = tiny_corpus
        written = []
        real = training.write_text
        monkeypatch.setattr(training, "write_text",
                            lambda path, pieces: written.append(path) or real(path, pieces))
        log = tmp_path / "metrics.tsv"
        train(pairs[:20], v1, v2, ModelConfig(d=3, d_x=4),
              TrainConfig(epochs=2, batch_size=10, seed=9), log_path=log)
        assert written == [log]
        assert len(log.read_text(encoding="utf-8").splitlines()) == 2
