"""Adam's blocked in-place update against the whole-array version it
replaced, kept here verbatim as a reference: a seeded training run must
give the same parameters, bit for bit, when its tables span more than one
1,024-row block. Training hands Adam a ``RowGrad`` for a table that only
gathers read; the reference gets it expanded to the dense table."""

import numpy as np
import pytest

from alignvae import alignment, training
from alignvae.autodiff import ParameterStore, RowGrad
from alignvae.corpus import load_parallel, synth_corpus, write_corpus
from alignvae.errors import TrainingError
from alignvae.model import ModelConfig
from alignvae.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, TrainConfig
from conftest import dense_of


def reference_adam_step(params: ParameterStore, grads: dict, state: AdamState) -> AdamState:
    for name in params.names():
        if not np.all(np.isfinite(grads[name])):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for name, tensor in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m, v = state.m[name], state.v[name]
        buf = np.empty_like(tensor.data)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=buf)
        v *= ADAM_BETA2
        np.multiply(g, g, out=buf)
        v += np.multiply(buf, 1.0 - ADAM_BETA2, out=buf)
        step = np.divide(m, c1)
        step *= state.lr
        np.divide(v, c2, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        step /= buf
        tensor.data = tensor.data - step
    return state


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wide")
    synth = synth_corpus(seed=1, v1=3000, v2=3000, n_pairs=400, len_range=(3, 6),
                         shuffle_l2=False)
    write_corpus(synth, tmp / "l1", tmp / "l2", tmp / "gold")
    pairs, v1, v2 = load_parallel(tmp / "l1", tmp / "l2")
    return pairs, v1, v2, alignment.parse_gold(tmp / "gold")


@pytest.mark.parametrize("css", [True, False], ids=["css", "exact"])
def test_training_matches_the_whole_array_update(wide_corpus, monkeypatch, css):
    pairs, v1, v2, gold = wide_corpus
    assert min(len(v1), len(v2)) > 1024  # every vocabulary-sized table spans two blocks

    def run():
        return training.train(pairs, v1, v2, ModelConfig(d=3, d_x=4),
                              TrainConfig(epochs=2, batch_size=100, n_neg=50, seed=7, css=css),
                              pairs[:40], {sid: gold[sid] for sid in range(1, 41)})

    blocked = run()
    calls, expanded = [], []

    def counted(params, grads, state):
        calls.append(1)
        expanded.extend(name for name, g in grads.items() if type(g) is RowGrad)
        dense = {name: dense_of(g, params[name].shape) for name, g in grads.items()}
        return reference_adam_step(params, dense, state)

    monkeypatch.setattr(training, "adam_step", counted)
    whole = run()
    assert len(calls) == 8  # two epochs of four batches
    assert "E" in expanded  # the bow encoder only gathers its embeddings
    assert blocked.update_count == whole.update_count
    assert blocked.best_val_aer == whole.best_val_aer
    for name, a in whole.params.items():
        assert blocked.params[name].tobytes() == a.tobytes(), name
