"""Acceptance suite: every release-gating property at its stated tolerance.

Each test prints one PASS line when its criterion holds; a pytest failure on
any test is the corresponding FAIL line. Run with ``pytest -s
tests/test_acceptance.py -v`` to see the lines as they complete.
"""

import itertools
import json
import math
import statistics
import time

import numpy as np
import pytest

import cclearn
from cclearn.centroids import (
    CentroidBank,
    bank_from_features,
    ema_update,
    update_smoothing,
)
from cclearn.cli import main as cli_main
from cclearn.data import (
    Dataset,
    SynthConfig,
    generate_domains,
    make_batches,
    split_dataset,
)
from cclearn.diagnostics import class_centroid_heatmap
from cclearn.errors import UndefinedMetricError
from cclearn.losses import combined_loss_and_grads, softmax
from cclearn.metrics import accuracy, auc_binary, auc_macro_ovr, quadratic_weighted_kappa
from cclearn.model import (
    backward,
    forward,
    init_params,
    lr_at,
    save_model,
    sgd_step,
)
from cclearn.trainer import TrainConfig, finetune, finetune_config, pseudo_label, train
from reference import (
    auc_pair_counts,
    contrastive_loss_unshifted,
    cross_entropy_unshifted,
    quadratic_weighted_kappa_loops,
    seen_bank,
    unit_rows,
)

# The desk-scale benchmark keeps every default hyperparameter except the EMA
# starting coefficient: 0.999 presumes hundreds of centroid updates per epoch,
# while this benchmark performs 18. 0.96 gives the same per-epoch retention
# (0.999^702 ~ 0.96^18 ~ 0.5), so the centroids track the features the way
# they do at full scale instead of freezing at their first adopted values.
BENCH_M0 = 0.96
BENCH_SEEDS = range(9)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_loss_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()

    for _ in range(1000):
        k = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 17))
        tau = float(rng.uniform(0.2, 5.0))
        cents = unit_rows(rng, k, dim)
        f = unit_rows(rng, 1, dim)[0]
        own = int(rng.integers(0, k))
        ours = combined_loss_and_grads(
            f[None], np.zeros((1, k)), np.array([own]), seen_bank(cents), 1.0, tau
        )[0].cont
        assert abs(ours - contrastive_loss_unshifted(f, cents, own, tau)) < 1e-10

    for _ in range(1000):
        k = int(rng.integers(2, 9))
        logits = rng.uniform(-25, 25, k)
        label = int(rng.integers(0, k))
        ours = combined_loss_and_grads(
            np.ones((1, 1)), logits[None], np.array([label]), CentroidBank(k, 1, 0.0), 0.0, 1.0
        )[0].ce
        assert abs(ours - cross_entropy_unshifted(logits, label)) < 1e-10

    for _ in range(1000):
        k = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 17))
        batch = int(rng.integers(1, 33))
        alpha = float(rng.uniform(0.0, 2.0))
        tau = float(rng.uniform(0.2, 5.0))
        cents = unit_rows(rng, k, dim)
        bank = seen_bank(cents)
        feats = unit_rows(rng, batch, dim)
        logits = rng.uniform(-25, 25, (batch, k))
        labels = rng.integers(0, k, batch)
        ours = combined_loss_and_grads(feats, logits, labels, bank, alpha, tau)[0]
        ce = sum(cross_entropy_unshifted(logits[i], labels[i]) for i in range(batch)) / batch
        cont = sum(
            contrastive_loss_unshifted(feats[i], cents, labels[i], tau) for i in range(batch)
        ) / batch
        assert abs(ours.ce - ce) < 1e-10
        assert abs(ours.cont - cont) < 1e-10
        assert abs(ours.total - (ce + alpha * cont)) < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 loss-oracle-equivalence: PASS ({elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(4096)
    h = 1e-5
    started = time.perf_counter()
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 9))
        f = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        batch = int(rng.integers(1, 5))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(0, 3))))
        params = init_params(d, hidden, f, k, rng)
        bank = seen_bank(unit_rows(rng, k, f))
        x = rng.standard_normal((batch, d))
        y = rng.integers(0, k, batch)
        alpha = float(rng.uniform(0.2, 2.0))
        tau = float(rng.uniform(0.5, 2.0))
        try:
            _, fhat, logits, cache = forward(params, x)
        except cclearn.DegenerateVectorError:
            continue
        # the FD oracle itself breaks at ReLU kinks and near-zero feature norms
        # the hidden pre-activations, recomputed with forward's own arithmetic
        hidden_z = zip(cache.layer_inputs[:-2], params.weights, params.biases)
        if any(np.abs(a @ w + b).min() < 1e-3 for a, w, b in hidden_z):
            continue
        if cache.norms.min() < 0.1:
            continue
        checked += 1

        _, d_feat, d_logits = combined_loss_and_grads(fhat, logits, y, bank, alpha, tau)
        grads = backward(params, cache, d_feat, d_logits)
        analytic = np.concatenate(
            [g.ravel() for g in grads.weights]
            + [g.ravel() for g in grads.biases]
            + [grads.head_weight.ravel(), grads.head_bias.ravel()]
        )

        def total():
            _, nf, lg, _ = forward(params, x)
            return combined_loss_and_grads(nf, lg, y, bank, alpha, tau)[0].total

        fd = []
        for tensor in params.weights + params.biases + [params.head_weight, params.head_bias]:
            flat = tensor.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = total()
                flat[i] = orig - h
                down = total()
                flat[i] = orig
                fd.append((up - down) / (2 * h))
        fd = np.asarray(fd)
        rel = np.linalg.norm(fd - analytic) / max(
            np.linalg.norm(fd), np.linalg.norm(analytic), 1e-12
        )
        assert rel < 1e-5, f"config {checked}: relative error {rel:.3e}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 gradient-correctness: PASS ({checked} configs, {elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_ema_and_schedule_exactness():
    # smoothing schedule: exact endpoints, affine in between
    for m0, total in [(0.999, 200), (0.999, 50), (0.5, 7), (0.0, 3), (0.96, 18)]:
        bank = CentroidBank(2, 2, m0)
        assert update_smoothing(bank, 0, total) == m0
        assert update_smoothing(bank, total, total) == 1.0
        for epoch in range(total + 1):
            assert update_smoothing(bank, epoch, total) == m0 + (1 - m0) * (epoch / total)

    # EMA update against hand-computed vectors at m in {0, 0.5, 1}
    def bank_with(centroid, m):
        bank = CentroidBank(2, 2, 0.0)
        ema_update(bank, np.array([centroid, [0.0, 1.0]]), np.ones(2, dtype=bool))
        bank.m = m
        return bank

    mask = np.array([True, False])
    mean = np.array([[0.0, 1.0], [0.0, 0.0]])

    b = bank_with([1.0, 0.0], 0.0)
    ema_update(b, mean, mask)
    assert np.abs(b.centroids[0] - np.array([0.0, 1.0])).max() < 1e-12

    b = bank_with([1.0, 0.0], 0.5)
    ema_update(b, mean, mask)
    r = 1.0 / math.sqrt(2.0)
    assert np.abs(b.centroids[0] - np.array([r, r])).max() < 1e-12

    b = bank_with([1.0, 0.0], 1.0)
    ema_update(b, mean, mask)
    assert np.abs(b.centroids[0] - np.array([1.0, 0.0])).max() < 1e-12

    # every seen centroid stays unit-norm through a 20-epoch training run
    src = generate_domains(SynthConfig(seed=3))[0]
    tr, va, _ = split_dataset(src, seed=3)
    worst = [0.0]

    def check(epoch, params, bank, record):
        norms = np.linalg.norm(bank.centroids[bank.seen], axis=1)
        worst[0] = max(worst[0], float(np.abs(norms - 1.0).max()))

    train(tr, va, TrainConfig(epochs=20, feature_dim=8, seed=3, m0=BENCH_M0),
          epoch_callback=check)
    assert worst[0] < 1e-9
    print(f"ACCEPTANCE 3 ema-and-schedule-exactness: PASS (worst norm drift {worst[0]:.2e})")


# ---------------------------------------------------------------- criterion 4

def check_kappa_case(a, b, k):
    expect = quadratic_weighted_kappa_loops(list(a), list(b), k)
    ya, yb = np.asarray(a), np.asarray(b)
    if expect is None:
        with pytest.raises(UndefinedMetricError):
            quadratic_weighted_kappa(ya, yb, k)
    else:
        got = quadratic_weighted_kappa(ya, yb, k)
        assert got == expect or abs(got - expect) < 1e-12


def test_criterion_4_metric_oracles():
    started = time.perf_counter()
    # worked examples from the metric contracts
    assert quadratic_weighted_kappa(np.array([0, 1, 2, 1]), np.array([0, 1, 2, 1]), 3) == 1.0
    assert quadratic_weighted_kappa(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0]), 2) == -1.0
    assert quadratic_weighted_kappa(
        np.array([0, 1, 2, 2]), np.array([0, 2, 2, 1]), 3
    ) == pytest.approx(7.0 / 11.0, abs=1e-12)
    assert auc_binary(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0
    assert auc_binary(np.ones(4), np.array([0, 1, 0, 1])) == 0.5
    assert auc_binary(
        np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])
    ) == pytest.approx(0.75, abs=1e-15)

    # kappa, K=2: every labeling pair up to N=8
    for n in range(1, 9):
        for a in itertools.product(range(2), repeat=n):
            for b in itertools.product(range(2), repeat=n):
                check_kappa_case(a, b, 2)

    # kappa, K=3: every labeling pair up to N=5, dense sampling for N=6..8
    for n in range(1, 6):
        for a in itertools.product(range(3), repeat=n):
            for b in itertools.product(range(3), repeat=n):
                check_kappa_case(a, b, 3)
    rng = np.random.default_rng(11)
    for _ in range(20000):
        n = int(rng.integers(6, 9))
        check_kappa_case(rng.integers(0, 3, n).tolist(), rng.integers(0, 3, n).tolist(), 3)

    # binary AUC: all 3-level score patterns to N=5, all 2-level patterns to N=8
    def check_auc_case(scores, labels):
        expect = auc_pair_counts(list(scores), list(labels))
        s, l = np.asarray(scores, dtype=float), np.asarray(labels)
        if expect is None:
            with pytest.raises(UndefinedMetricError):
                auc_binary(s, l)
        else:
            assert abs(auc_binary(s, l) - expect) < 1e-12

    for n in range(2, 6):
        for labels in itertools.product(range(2), repeat=n):
            for scores in itertools.product((0.0, 0.5, 1.0), repeat=n):
                check_auc_case(scores, labels)
    for n in range(6, 9):
        for labels in itertools.product(range(2), repeat=n):
            for scores in itertools.product((0.0, 1.0), repeat=n):
                check_auc_case(scores, labels)

    # macro one-vs-rest AUC against per-class pair counting
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        labels = rng.integers(0, k, n)
        probs = softmax(rng.standard_normal((n, k)))
        per_oracle = [
            auc_pair_counts(probs[:, c].tolist(), (labels == c).astype(int).tolist())
            for c in range(k)
        ]
        usable = [v for v in per_oracle if v is not None]
        if len(usable) < 2:
            with pytest.raises(UndefinedMetricError):
                auc_macro_ovr(probs, labels)
            continue
        macro, per_class = auc_macro_ovr(probs, labels)
        assert abs(macro - statistics.mean(usable)) < 1e-12
        for c in range(k):
            if per_oracle[c] is None:
                assert math.isnan(per_class[c])
            else:
                assert abs(per_class[c] - per_oracle[c]) < 1e-12

    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 4 metric-oracles: PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 5

def benchmark_run(seed: int, alpha: float):
    synth = SynthConfig(seed=seed)  # K=4, D=16, 200/class, moderate affine shift
    source, target = generate_domains(synth)
    train_ds, val_ds, _ = split_dataset(source, seed=seed)
    config = TrainConfig(alpha=alpha, epochs=50, batch_size=32, feature_dim=8,
                         seed=seed, m0=BENCH_M0)
    params, bank, report = train(train_ds, val_ds, config)
    for record in report.history:
        assert math.isfinite(record.total) and math.isfinite(record.ce)

    logits = forward(params, target.features)[2]
    target_accuracy = accuracy(target.labels, np.argmax(logits, axis=1))
    feats = forward(params, target.features)[1]
    empirical = bank_from_features(feats, target.labels, target.num_classes)
    heatmap = class_centroid_heatmap(feats, target.labels, empirical)
    return target_accuracy, heatmap.mean_diagonal


def test_criterion_5_mechanism_efficacy_at_desk_scale():
    started = time.perf_counter()
    with_contrast = [benchmark_run(seed, alpha=1.0) for seed in BENCH_SEEDS]
    baseline = [benchmark_run(seed, alpha=0.0) for seed in BENCH_SEEDS]

    acc_contrast = statistics.median(r[0] for r in with_contrast)
    acc_baseline = statistics.median(r[0] for r in baseline)
    diag_contrast = statistics.median(r[1] for r in with_contrast)
    diag_baseline = statistics.median(r[1] for r in baseline)

    assert acc_contrast >= acc_baseline, (
        f"median target accuracy {acc_contrast:.4f} fell below baseline {acc_baseline:.4f}"
    )
    assert diag_contrast > diag_baseline, (
        f"median heatmap diagonal {diag_contrast:.4f} did not exceed baseline "
        f"{diag_baseline:.4f}"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s"
    # the claim per seed: on how many seeds contrast beats CE outright
    acc_wins, diag_wins = (sum(c[i] > b[i] for c, b in zip(with_contrast, baseline)) for i in (0, 1))
    print(
        "ACCEPTANCE 5 mechanism-efficacy: PASS "
        f"(target acc {acc_contrast:.4f} vs {acc_baseline:.4f}, "
        f"diagonal {diag_contrast:.4f} vs {diag_baseline:.4f}; contrast wins "
        f"{acc_wins}/{len(BENCH_SEEDS)} seeds on target acc, {diag_wins}/{len(BENCH_SEEDS)} "
        f"on the diagonal; {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_alpha_zero_inertness(tmp_path):
    synth = SynthConfig(seed=5)
    source, _ = generate_domains(synth)
    train_ds, val_ds, _ = split_dataset(source, seed=5)
    config = TrainConfig(alpha=0.0, epochs=12, feature_dim=8, seed=5)
    params, _, _ = train(train_ds, val_ds, config)

    # an independent loop with the centroid machinery entirely absent
    reference = init_params(
        train_ds.input_dim, config.hidden_dims, config.feature_dim,
        train_ds.num_classes, np.random.default_rng([config.seed, 101]),
    )
    steps = math.ceil(len(train_ds) / config.batch_size)
    warmup_steps, total_steps = config.warmup_epochs * steps, config.epochs * steps
    step = 0
    for epoch in range(config.epochs):
        for batch in make_batches(train_ds, config.batch_size,
                                  seed=[config.seed, 202, epoch], shuffle=True):
            x, y = train_ds.features[batch], train_ds.labels[batch]
            _, fhat, logits, cache = forward(reference, x)
            d_logits = softmax(logits)
            d_logits[np.arange(len(y)), y] -= 1.0
            d_logits /= len(y)
            grads = backward(reference, cache, np.zeros_like(fhat), d_logits)
            lr = lr_at(step, config.base_lr, warmup_steps, total_steps)
            step += 1
            sgd_step(reference, grads, lr)

    save_model(params, tmp_path / "with_alpha0.txt")
    save_model(reference, tmp_path / "centroid_free.txt")
    assert (tmp_path / "with_alpha0.txt").read_bytes() == (
        tmp_path / "centroid_free.txt"
    ).read_bytes()
    print("ACCEPTANCE 6 alpha-zero-inertness: PASS (checkpoints byte-identical)")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_finetune_procedure_fidelity():
    recipe = finetune_config()
    assert recipe.alpha == 0.0
    assert recipe.base_lr == 1e-6
    assert recipe.epochs == 1
    assert recipe.warmup_epochs == 0

    # documented tie-break: equal logits resolve to the lowest class index
    from cclearn.model import ModelParams

    tie_model = ModelParams([np.eye(2)], [np.zeros(2)], np.zeros((2, 2)), np.zeros(2))
    ds = Dataset(np.array([[3.0, 4.0], [1.0, 2.0]]), np.zeros(2, dtype=int), "target", 2)
    assert pseudo_label(tie_model, ds).tolist() == [0, 0]

    # hand-computed single-batch SGD step at the fine-tune recipe
    rng = np.random.default_rng(77)
    d, f, k, n = 4, 3, 3, 8
    params = init_params(d, (), f, k, rng)
    x = rng.standard_normal((n, d))
    target = Dataset(x, np.zeros(n, dtype=int), "target", k)

    w1, b1 = params.weights[0].copy(), params.biases[0].copy()
    wh, bh = params.head_weight.copy(), params.head_bias.copy()
    raw = x @ w1 + b1
    logits = raw @ wh + bh
    labels = np.argmax(logits, axis=1)
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    err = probs
    err[np.arange(n), labels] -= 1.0
    err /= n
    lr = 1e-6
    expected = {
        "w1": w1 - lr * (x.T @ (err @ wh.T)),
        "b1": b1 - lr * (err @ wh.T).sum(axis=0),
        "wh": wh - lr * (raw.T @ err),
        "bh": bh - lr * err.sum(axis=0),
    }

    tuned, report = finetune(
        params, CentroidBank(k, f, 0.999), target,
        finetune_config(batch_size=32, shuffle=False, feature_dim=f),
    )
    assert report.config.alpha == 0.0
    np.testing.assert_allclose(tuned.weights[0], expected["w1"], atol=1e-10)
    np.testing.assert_allclose(tuned.biases[0], expected["b1"], atol=1e-10)
    np.testing.assert_allclose(tuned.head_weight, expected["wh"], atol=1e-10)
    np.testing.assert_allclose(tuned.head_bias, expected["bh"], atol=1e-10)
    print("ACCEPTANCE 7 finetune-procedure-fidelity: PASS")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_reproducibility(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"samples_per_class": 40, "seed": 13}) + "\n")
    data_dir = tmp_path / "data"
    assert cli_main(["synth-data", "--config", str(synth_cfg), "--out", str(data_dir)]) == 0

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(
        json.dumps({"epochs": 5, "seed": 21, "feature_dim": 8, "hidden_dims": [16]}) + "\n"
    )
    runs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main([
            "train", "--config", str(train_cfg),
            "--data", str(data_dir / "source.csv"), "--out", str(out),
        ]) == 0
        runs.append(out)

    files_a = {p.name: p.read_bytes() for p in sorted(runs[0].iterdir())}
    files_b = {p.name: p.read_bytes() for p in sorted(runs[1].iterdir())}
    assert files_a.keys() == files_b.keys()
    assert files_a == files_b
    print(f"ACCEPTANCE 8 reproducibility: PASS ({len(files_a)} files byte-identical)")
