"""Both trainers against hand-unrolled reference loops.

Each reference spells out one trainer's seed schedule and per-batch body:
the epoch shuffle, the sampled supports, the reparameterization noise, the
tape, backward and Adam. ``train`` and ``train_nibm`` must give parameters
equal to the last bit.
"""

import numpy as np
import pytest

from alignvae import autodiff as ad
from alignvae import baselines
from alignvae.autodiff import Tape
from alignvae.baselines import NIBMConfig, build_nibm_params, nibm_batch_log_likelihood, train_nibm
from alignvae.corpus import (
    build_css_support,
    derive_seed,
    load_parallel,
    make_batches,
    synth_corpus,
    write_corpus,
)
from alignvae.errors import TrainingError
from alignvae.model import ModelConfig, batch_elbo, build_params
from alignvae.training import AdamState, TrainConfig, adam_step, anneal_alpha, train

EPOCHS = 2
BATCH = 16
N_NEG = 3


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    synth = synth_corpus(seed=8, v1=10, v2=10, n_pairs=40, len_range=(2, 5), shuffle_l2=True)
    write_corpus(synth, out / "l1", out / "l2", out / "gold")
    return load_parallel(out / "l1", out / "l2")


def reference_train(pairs, v1, v2, mcfg, tcfg):
    params = build_params(mcfg, len(v1), len(v2), tcfg.seed)
    adam = AdamState(lr=tcfg.lr)
    n = 0
    for epoch in range(tcfg.epochs):
        shuffle = derive_seed(tcfg.seed, f"shuffle:{epoch}")
        for batch in make_batches(pairs, tcfg.batch_size, shuffle):
            batch_seed = derive_seed(tcfg.seed, f"batch:{n}")
            css_pair = (None, None)
            if tcfg.css:
                css_pair = (
                    build_css_support(batch, v1, "l1", tcfg.n_neg,
                                      derive_seed(batch_seed, "css:l1")),
                    build_css_support(batch, v2, "l2", tcfg.n_neg,
                                      derive_seed(batch_seed, "css:l2")),
                )
            noise = np.random.default_rng(derive_seed(batch_seed, "noise"))
            eps_z, eps_s = [], []
            for pair in batch:
                eps_z.append(noise.standard_normal((pair.m, mcfg.d)))
                if mcfg.hierarchical:
                    eps_s.append(noise.standard_normal(mcfg.d_s))
            with Tape() as tape:
                loss = ad.neg(batch_elbo(
                    batch, params, mcfg, anneal_alpha(n), np.concatenate(eps_z),
                    np.stack(eps_s) if eps_s else None, css_pair,
                ))
            adam_step(params, tape.backward(loss, params=params), adam)
            n += 1
    return params


def reference_nibm(pairs, v1, v2, cfg, epochs, batch_size, n_neg, seed, css):
    params = build_nibm_params(cfg, len(v1), len(v2), seed)
    adam = AdamState(lr=1e-3)
    n = 0
    for epoch in range(epochs):
        for batch in make_batches(pairs, batch_size, derive_seed(seed, f"nibm-shuffle:{epoch}")):
            support = None
            if css:
                support = build_css_support(batch, v2, "l2", n_neg,
                                            derive_seed(seed, f"nibm-css:{n}"))
            with Tape() as tape:
                loss = ad.neg(nibm_batch_log_likelihood(batch, params, cfg, support))
            adam_step(params, tape.backward(loss, params=params), adam)
            n += 1
    return params


def assert_bytes_equal(got: dict, want):
    assert list(got) == want.names()
    for name, arr in got.items():
        assert arr.tobytes() == want[name].data.tobytes(), name


@pytest.mark.parametrize("css", [True, False])
@pytest.mark.parametrize("encoder, hierarchical", [("bow", False), ("birnn", False), ("bow", True)])
def test_train_follows_its_seed_schedule(corpus, encoder, hierarchical, css):
    pairs, v1, v2 = corpus
    mcfg = ModelConfig(encoder=encoder, d=3, d_x=4, hierarchical=hierarchical, d_s=2)
    tcfg = TrainConfig(epochs=EPOCHS, batch_size=BATCH, n_neg=N_NEG, seed=5, css=css)
    ckpt = train(pairs, v1, v2, mcfg, tcfg)
    assert ckpt.update_count == EPOCHS * -(-len(pairs) // BATCH)
    assert_bytes_equal(ckpt.params, reference_train(pairs, v1, v2, mcfg, tcfg))


@pytest.mark.parametrize("css", [True, False])
@pytest.mark.parametrize("encoder", ["bow", "birnn"])
def test_train_nibm_follows_its_seed_schedule(corpus, encoder, css):
    pairs, v1, v2 = corpus
    cfg = NIBMConfig(encoder=encoder, d_x=4)
    got = train_nibm(pairs, v1, v2, cfg, epochs=EPOCHS, batch_size=BATCH, n_neg=N_NEG,
                     seed=5, css=css)
    want = reference_nibm(pairs, v1, v2, cfg, EPOCHS, BATCH, N_NEG, 5, css)
    assert_bytes_equal(got.copy_values(), want)


def test_train_nibm_refuses_non_finite_loss(corpus, monkeypatch):
    pairs, v1, v2 = corpus
    original = baselines.nibm_batch_log_likelihood

    def poisoned(*args, **kwargs):
        return ad.add(original(*args, **kwargs), ad.constant(np.nan))

    monkeypatch.setattr(baselines, "nibm_batch_log_likelihood", poisoned)
    with pytest.raises(TrainingError, match="non-finite batch loss"):
        train_nibm(pairs, v1, v2, NIBMConfig(encoder="bow", d_x=4), epochs=1, batch_size=BATCH)
