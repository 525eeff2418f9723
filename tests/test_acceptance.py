"""Acceptance gate: one test per shipping criterion, at pinned tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from alignvae import autodiff as ad
from alignvae.autodiff import ParameterStore, gradient_check
from alignvae.corpus import (
    Batch,
    CSSupport,
    SentencePair,
    Vocabulary,
    build_css_support,
    load_parallel,
    synth_corpus,
    write_corpus,
)
from alignvae.hiermodel import elbo_s, kl_diag_gaussian, zero_sentence_pathways
from alignvae.model import (
    ModelConfig,
    build_params,
    css_log_normalizer,
    elbo,
    exact_log_marginal,
    kl_to_standard_normal,
    l1_log_prob,
)
from alignvae.semeval import gap, spearman
from alignvae import alignment, baselines, training


def ok(message):
    print(f"\nACCEPTANCE PASS: {message}")


@pytest.fixture(scope="module")
def synth_data(tmp_path_factory):
    """The synthetic dictionary corpus pinned by the shipping criteria."""
    root = tmp_path_factory.mktemp("synth")
    synth = synth_corpus(seed=1, v1=30, v2=30, n_pairs=3000, len_range=(3, 8), shuffle_l2=True)
    write_corpus(synth, root / "l1.txt", root / "l2.txt", root / "gold.txt")
    pairs, vocab1, vocab2 = load_parallel(root / "l1.txt", root / "l2.txt")
    gold = alignment.parse_gold(root / "gold.txt")
    train_pairs, held_pairs = pairs[:2800], pairs[2800:]
    held_gold = {sid - 2800: g for sid, g in gold.items() if sid > 2800}
    return synth, train_pairs, held_pairs, held_gold, vocab1, vocab2


def toy_corpus():
    cfg_base = ModelConfig(encoder="bow", d=4, d_x=8)
    cfg_hier = ModelConfig(encoder="bow", d=4, d_x=8, hierarchical=True, d_s=3)
    pairs = [
        SentencePair((0, 2, 3, 4), (2, 5, 6)),
        SentencePair((0, 5, 6), (7, 8, 9, 2)),
    ]
    return cfg_base, cfg_hier, pairs


def test_gradient_correctness_full_elbo():
    start = time.monotonic()
    cfg_base, cfg_hier, pairs = toy_corpus()
    rng = np.random.default_rng(11)
    noise_z = [rng.standard_normal((p.m, 4)) for p in pairs]
    noise_s = [rng.standard_normal(3) for _ in pairs]

    params = build_params(cfg_base, 10, 10, seed=7)

    def base_loss():
        total = None
        for pair, eps in zip(pairs, noise_z):
            value = elbo(pair, params, cfg_base, 0.7, eps)
            total = value if total is None else ad.add(total, value)
        return ad.neg(total)

    base_report = gradient_check(base_loss, params, step=1e-5)
    assert base_report.max_rel_err <= 1e-4

    hier_params = build_params(cfg_hier, 10, 10, seed=8)

    def hier_loss():
        total = None
        for pair, eps_s, eps_z in zip(pairs, noise_s, noise_z):
            value = elbo_s(pair, hier_params, cfg_hier, 0.7, eps_s, eps_z)
            total = value if total is None else ad.add(total, value)
        return ad.neg(total)

    hier_report = gradient_check(hier_loss, hier_params, step=1e-5)
    assert hier_report.max_rel_err <= 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok(
        "gradient correctness: base max rel err "
        f"{base_report.max_rel_err:.2e}, hierarchical {hier_report.max_rel_err:.2e} "
        f"(<= 1e-4) in {elapsed:.1f}s"
    )


def test_css_exactness_limit():
    cfg = ModelConfig(d=3, d_x=4)
    params = build_params(cfg, 12, 12, seed=3)
    rng = np.random.default_rng(4)
    c_ids = (0, 2, 5, 7)
    n_ids = tuple(sorted(set(range(12)) - set(c_ids)))
    css = CSSupport(side="l1", c_ids=c_ids, n_ids=n_ids, kappa=1.0)
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(-2, 2, size=3)
        for x in c_ids:
            exact = l1_log_prob(z, x, params).item()
            approx = l1_log_prob(z, x, params, css).item()
            worst = max(worst, abs(approx - exact) / max(abs(exact), abs(approx), 1e-300))
    assert worst <= 1e-10
    ok(f"CSS full-coverage limit: max relative deviation {worst:.2e} (<= 1e-10)")


def test_css_unbiasedness():
    rng = np.random.default_rng(1)
    v, d = 50, 3
    store = ParameterStore()
    weights = store.add("w", rng.uniform(-1, 1, size=(v, d)))
    bias = store.add("b", rng.uniform(-1, 1, size=v))
    vocab = Vocabulary([f"w{k}" for k in range(v - 2)])
    batch = Batch([SentencePair((0, 2, 3), (4, 5, 6))])
    z = rng.uniform(-1, 1, size=d)
    exact = float(np.exp(weights.data @ z + bias.data).sum())
    draws = 10_000
    values = np.empty(draws)
    for k in range(draws):
        css = build_css_support(batch, vocab, "l1", n_neg=12, seed=k)
        values[k] = math.exp(css_log_normalizer(z, css, weights, bias).item())
    se = values.std(ddof=1) / math.sqrt(draws)
    deviation = abs(values.mean() - exact)
    assert deviation <= 3 * se
    ok(
        f"CSS unbiasedness: |mean - exact| = {deviation:.4f} <= 3 SE = {3 * se:.4f} "
        f"over {draws} resamplings"
    )


def test_closed_form_kls():
    # analytic fixtures
    assert float(kl_to_standard_normal(ad.constant([[0.0]]), ad.constant([[1.0]])).data[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(kl_to_standard_normal(ad.constant([[1.0]]), ad.constant([[1.0]])).data[0]) == pytest.approx(0.5, abs=1e-9)
    assert float(kl_to_standard_normal(ad.constant([[0.0]]), ad.constant([[2.0]])).data[0]) == pytest.approx(0.8068528, abs=1e-7)
    assert kl_diag_gaussian([0.0], [1.0], [0.0], [2.0]) == pytest.approx(0.3181472, abs=1e-7)
    assert kl_diag_gaussian([0.0], [1.0], [0.0], [2.0]) == pytest.approx(
        math.log(2) + 0.125 - 0.5, abs=1e-9
    )

    rng = np.random.default_rng(2)
    draws = 100_000
    # standard-normal target
    u = np.array([0.4, -0.9, 0.1])
    s = np.array([0.6, 1.5, 0.9])
    closed = float(kl_to_standard_normal(ad.constant([u]), ad.constant([s])).data[0])
    z = u + s * rng.standard_normal((draws, 3))
    samples = (-0.5 * (((z - u) / s) ** 2) - np.log(s) + 0.5 * z**2).sum(axis=1)
    se1 = samples.std(ddof=1) / math.sqrt(draws)
    dev1 = abs(samples.mean() - closed)
    assert dev1 <= 3 * se1
    # general diagonal target
    p_u, p_s = np.array([-0.5, 0.6, 0.0]), np.array([1.4, 0.5, 2.0])
    closed2 = kl_diag_gaussian(u, s, p_u, p_s)
    log_q = (-0.5 * (((z - u) / s) ** 2) - np.log(s)).sum(axis=1)
    log_p = (-0.5 * (((z - p_u) / p_s) ** 2) - np.log(p_s)).sum(axis=1)
    samples2 = log_q - log_p
    se2 = samples2.std(ddof=1) / math.sqrt(draws)
    dev2 = abs(samples2.mean() - closed2)
    assert dev2 <= 3 * se2
    ok(
        f"closed-form KLs: fixtures exact to 1e-9; MC deviations {dev1:.4f} <= {3*se1:.4f} "
        f"and {dev2:.4f} <= {3*se2:.4f} over {draws} draws"
    )


def test_elbo_lower_bound():
    # analytic uniform-head case
    cfg = ModelConfig(d=2, d_x=3)
    params = build_params(cfg, 5, 5, seed=0)
    for name in ("W1", "b1", "W2", "b2"):
        params[name].data = np.zeros_like(params[name].data)
    pair = SentencePair((0, 2, 3), (2, 4))
    expected = pair.m * math.log(1 / 5) + pair.n * math.log(1 / 5)
    got = elbo(pair, params, cfg, 0.0, np.zeros((pair.m, 2))).item()
    assert got == pytest.approx(expected, abs=1e-12)

    rng = np.random.default_rng(30)
    margins = []
    for trial in range(20):
        params = build_params(cfg, 5, 5, seed=100 + trial)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        pair = SentencePair(
            (0, *rng.integers(2, 5, size=m - 1).tolist()) if m > 1 else (0,),
            tuple(rng.integers(2, 5, size=n).tolist()),
        )
        draws = 3000
        values = np.empty(draws)
        for k in range(draws):
            values[k] = elbo(pair, params, cfg, 1.0, rng.standard_normal((pair.m, 2))).item()
        se_elbo = values.std(ddof=1) / math.sqrt(draws)
        oracle, se_oracle = exact_log_marginal(pair, params, cfg, n_draws=100_000, seed=trial)
        combined = math.sqrt(se_elbo**2 + se_oracle**2)
        margins.append((oracle + 3 * combined) - values.mean())
        assert values.mean() <= oracle + 3 * combined
    ok(
        "ELBO lower bound holds on 20 random tiny models "
        f"(min slack {min(margins):.4f} nats); uniform-head case exact"
    )


def test_ibm1_em(synth_data):
    start = time.monotonic()
    synth, train_pairs, held_pairs, held_gold, vocab1, vocab2 = synth_data
    table, trace = baselines.ibm1_train(train_pairs, len(vocab1), len(vocab2), iterations=10)
    tokens = sum(p.n for p in train_pairs)
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9 * tokens
    recovered = sum(
        int(np.argmax(table[vocab1.id(s)]) == vocab2.id(t))
        for s, t in synth.mapping.items()
    )
    assert recovered >= 0.95 * len(synth.mapping)
    preds = dict(enumerate(baselines.ibm1_align(held_pairs, table), start=1))
    aer_value, _ = alignment.corpus_aer(preds, held_gold)
    assert aer_value <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(
        f"IBM1 EM: log-likelihood nondecreasing, dictionary recovery "
        f"{recovered}/{len(synth.mapping)}, held-out AER {aer_value:.4f} (<= 0.05) "
        f"in {elapsed:.1f}s"
    )


def test_joint_model_learning_signal(synth_data):
    start = time.monotonic()
    _, train_pairs, held_pairs, held_gold, vocab1, vocab2 = synth_data
    model_cfg = ModelConfig(encoder="bow", d=16, d_x=32)
    train_cfg = training.TrainConfig(epochs=20, batch_size=50, seed=1)
    ckpt = training.train(
        train_pairs, vocab1, vocab2, model_cfg, train_cfg,
        val_pairs=held_pairs, val_gold=held_gold,
    )
    aer_value = ckpt.best_val_aer
    assert aer_value <= 0.25

    rng = np.random.default_rng(123)
    baseline_scores = []
    for _ in range(100):
        preds = {}
        for sid, pair in enumerate(held_pairs, start=1):
            links = set()
            for j in range(1, pair.n + 1):
                i = int(rng.integers(0, pair.m))
                if i != 0:
                    links.add((j, i))
            preds[sid] = links
        baseline_scores.append(alignment.corpus_aer(preds, held_gold)[0])
    random_aer = float(np.mean(baseline_scores))
    assert aer_value <= 0.5 * random_aer
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    ok(
        f"learning signal: held-out AER {aer_value:.4f} (<= 0.25), random baseline "
        f"{random_aer:.4f}, reduction {100 * (1 - aer_value / random_aer):.0f}% (>= 50%) "
        f"in {elapsed:.0f}s"
    )


def test_annealing_schedule_exactness():
    assert training.anneal_alpha(0) == 0.0
    assert training.anneal_alpha(499) == 0.0
    assert training.anneal_alpha(500) == 0.001
    assert training.anneal_alpha(500_000) == 1.0
    ok("annealing schedule: alpha(0)=0, alpha(499)=0, alpha(500)=0.001, alpha(5e5)=1")


def test_metric_fixtures():
    gold = alignment.GoldAlignment(frozenset({(1, 1)}), frozenset({(1, 1), (2, 3)}))
    aer_value = alignment.aer({(1, 1), (2, 2)}, gold)
    assert aer_value == pytest.approx(1 / 3, abs=1e-6)
    gap_value = gap([2.0, 0.0, 1.0])
    assert gap_value == pytest.approx(0.857143, abs=1e-6)
    rho = spearman([1.0, 2.0, 3.0, 4.0], [8.0, 6.0, 4.0, 2.0])
    assert rho == pytest.approx(-1.0, abs=1e-6)
    ok(
        f"metric fixtures: AER {aer_value:.6f} = 1/3, GAP {gap_value:.6f} = 0.857143, "
        f"reversed Spearman {rho:.6f} = -1"
    )


def test_hierarchical_reduction_bit_for_bit():
    cfg_base, cfg_hier, pairs = toy_corpus()
    params = build_params(cfg_hier, 10, 10, seed=21)
    zero_sentence_pathways(params)
    rng = np.random.default_rng(22)
    checked = 0
    for pair in pairs:
        for alpha in (0.0, 0.25, 1.0):
            eps_s = rng.standard_normal(cfg_hier.d_s)
            eps_z = rng.standard_normal((pair.m, cfg_hier.d))
            hier = elbo_s(pair, params, cfg_hier, alpha, eps_s, eps_z).item()
            base = elbo(pair, params, cfg_base, alpha, eps_z).item()
            assert hier == base
            checked += 1
    ok(f"hierarchical reduction: {checked} (pair, alpha) cases bit-for-bit equal")


def test_determinism_of_training(tmp_path):
    synth = synth_corpus(seed=6, v1=10, v2=10, n_pairs=80, len_range=(2, 5), shuffle_l2=True)
    write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
    pairs, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
    gold = alignment.parse_gold(tmp_path / "gold")
    model_cfg = ModelConfig(encoder="bow", d=4, d_x=8)
    train_cfg = training.TrainConfig(epochs=3, batch_size=20, seed=9)
    artifacts = []
    for run in range(2):
        log = tmp_path / f"metrics{run}.tsv"
        ckpt_path = tmp_path / f"ckpt{run}.json"
        ckpt = training.train(
            pairs, vocab1, vocab2, model_cfg, train_cfg,
            val_pairs=pairs[:20], val_gold={k: gold[k] for k in range(1, 21)},
            log_path=log,
        )
        training.save_checkpoint(ckpt, ckpt_path)
        artifacts.append((log.read_bytes(), ckpt_path.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    ok("determinism: two seeded runs produced identical metrics logs and checkpoints")
