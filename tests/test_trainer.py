import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from cclearn.data import Dataset, SynthConfig, generate_blobs, make_batches, split_dataset
from cclearn.errors import TrainingError
from cclearn.losses import softmax
from cclearn.model import (
    ModelParams,
    OptimState,
    backward,
    forward,
    init_params,
    lr_at,
    sgd_step,
)
from cclearn.trainer import (
    TrainConfig,
    evaluate_model,
    finetune,
    finetune_config,
    pseudo_label,
    train,
)

SMALL_GEOM = dict(num_classes=3, input_dim=6, samples_per_class=30, spread=8.0, class_std=1.5)


def small_run(alpha=1.0, epochs=4, seed=0, **overrides):
    src = generate_blobs(SynthConfig(**SMALL_GEOM, seed=seed), "source")
    tr, va, _ = split_dataset(src, seed=seed)
    config = TrainConfig(
        alpha=alpha, epochs=epochs, seed=seed, feature_dim=4, hidden_dims=(12,),
        m0=0.9, **overrides,
    )
    return tr, va, config


def model_tensors(params: ModelParams):
    return params.weights + params.biases + [params.head_weight, params.head_bias]


class TestTrainConfig:
    def test_source_training_defaults(self):
        cfg = TrainConfig()
        assert cfg.alpha == 1.0
        assert cfg.tau == 1.0
        assert cfg.m0 == 0.999
        assert cfg.batch_size == 32
        assert cfg.base_lr == 1e-3
        assert cfg.warmup_epochs == 1
        assert cfg.hidden_dims == (64, 64)
        assert cfg.feature_dim == 32

    def test_finetune_defaults(self):
        cfg = finetune_config()
        assert cfg.alpha == 0.0
        assert cfg.base_lr == 1e-6
        assert cfg.epochs == 1
        assert cfg.warmup_epochs == 0

    def test_dict_round_trip(self):
        cfg = TrainConfig(alpha=0.5, hidden_dims=(3, 4), seed=9)
        again = TrainConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig.from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("value", ["no", 0, 1, None, [True]])
    def test_non_bool_shuffle_rejected(self, value):
        with pytest.raises(ValueError, match="shuffle"):
            TrainConfig.from_dict({"epochs": 2, "shuffle": value})
        with pytest.raises(ValueError, match="shuffle"):
            TrainConfig(shuffle=value).validate()

    def test_bool_shuffle_accepted(self):
        assert TrainConfig.from_dict({"shuffle": False}).shuffle is False
        TrainConfig(shuffle=np.bool_(True)).validate()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(tau=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(m0=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self):
        tr, va, config = small_run(epochs=0)
        params, bank, report = train(tr, va, config)
        assert report.history == []
        reference = init_params(
            tr.input_dim, config.hidden_dims, config.feature_dim, tr.num_classes,
            np.random.default_rng([config.seed, 101]),
        )
        for a, b in zip(model_tensors(params), model_tensors(reference)):
            np.testing.assert_array_equal(a, b)
        assert not bank.seen.any()

    def test_seeded_determinism(self):
        tr, va, config = small_run(epochs=3)
        p1, b1, r1 = train(tr, va, config)
        p2, b2, r2 = train(tr, va, config)
        for a, b in zip(model_tensors(p1), model_tensors(p2)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b1.centroids, b2.centroids)
        assert [rec.total for rec in r1.history] == [rec.total for rec in r2.history]

    def test_smoothing_history_matches_schedule_exactly(self):
        tr, va, config = small_run(epochs=6)
        _, _, report = train(tr, va, config)
        for rec in report.history:
            assert rec.m == config.m0 + (1 - config.m0) * (rec.epoch / config.epochs)

    def test_every_sample_feeds_ema_once_per_epoch(self):
        tr, va, config = small_run(alpha=1.0, epochs=3)
        _, _, report = train(tr, va, config)
        for rec in report.history:
            assert rec.ema_samples == len(tr)

    def test_alpha_zero_never_touches_bank(self):
        tr, va, config = small_run(alpha=0.0, epochs=3)
        _, bank, report = train(tr, va, config)
        assert not bank.seen.any()
        np.testing.assert_array_equal(bank.centroids, 0.0)
        assert all(rec.ema_samples == 0 for rec in report.history)
        assert all(rec.cont == 0.0 for rec in report.history)

    def test_alpha_zero_bitwise_equals_centroid_free_loop(self):
        """A run with the contrast weight at zero must match, bit for bit, a
        training loop that has no centroid machinery at all."""
        tr, va, config = small_run(alpha=0.0, epochs=4)
        params, _, _ = train(tr, va, config)

        reference = init_params(
            tr.input_dim, config.hidden_dims, config.feature_dim, tr.num_classes,
            np.random.default_rng([config.seed, 101]),
        )
        steps_per_epoch = math.ceil(len(tr) / config.batch_size)
        opt = OptimState(config.base_lr, config.warmup_epochs, config.epochs, steps_per_epoch)
        for epoch in range(config.epochs):
            batches = make_batches(
                tr, config.batch_size, seed=[config.seed, 202, epoch], shuffle=True
            )
            for batch in batches:
                x, y = tr.features[batch], tr.labels[batch]
                _, fhat, logits, cache = forward(reference, x)
                d_logits = softmax(logits)
                d_logits[np.arange(len(y)), y] -= 1.0
                d_logits /= len(y)
                grads = backward(reference, cache, np.zeros_like(fhat), d_logits)
                lr = lr_at(opt, opt.step)
                opt.step += 1
                sgd_step(reference, grads, lr)
        for a, b in zip(model_tensors(params), model_tensors(reference)):
            np.testing.assert_array_equal(a, b)

    def test_seen_centroids_unit_norm_every_epoch(self):
        tr, va, config = small_run(alpha=1.0, epochs=5)

        def check(epoch, params, bank, record):
            norms = np.linalg.norm(bank.centroids[bank.seen], axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-9)

        train(tr, va, config, epoch_callback=check)

    def test_loss_history_finite_across_seeds(self):
        for seed in range(10):
            src = generate_blobs(SynthConfig(seed=seed), "source")
            tr, va, _ = split_dataset(src, seed=seed)
            config = TrainConfig(epochs=3, feature_dim=8, seed=seed)
            _, _, report = train(tr, va, config)
            for rec in report.history:
                assert math.isfinite(rec.total)
                assert math.isfinite(rec.ce)
                assert math.isfinite(rec.cont)

    def test_divergent_run_aborts_with_step_index(self):
        tr, va, config = small_run(epochs=3, base_lr=1e12)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="step"):
                train(tr, va, config)

    def test_divergence_on_the_last_step_aborts(self):
        src = generate_blobs(SynthConfig(seed=0, samples_per_class=20), "source")
        tr, va, _ = split_dataset(src, seed=0)
        config = TrainConfig(epochs=1, batch_size=len(tr), base_lr=1e300, warmup_epochs=0,
                             feature_dim=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="after epoch 0, step 0"):
                train(tr, va, config)

    def test_non_finite_parameters_after_the_last_step_abort(self):
        tr, _, config = small_run(epochs=1, base_lr=1e160, warmup_epochs=0)
        huge = Dataset(tr.features * 1e150, tr.labels, tr.domain, tr.num_classes)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="parameters after epoch 0, step 0"):
                train(huge, None, replace(config, batch_size=len(tr)))

    def test_val_dataset_dim_mismatch(self):
        tr, va, config = small_run()
        bad_val = Dataset(np.ones((4, 2)), np.array([0, 1, 0, 1]), "source", 3)
        with pytest.raises(ValueError):
            train(tr, bad_val, config)


class TestPseudoLabel:
    def logits_model(self, k):
        # identity backbone and head: logits == input row
        return ModelParams([np.eye(k)], [np.zeros(k)], np.eye(k), np.zeros(k))

    def test_argmax(self):
        ds = Dataset(np.array([[0.1, 2.0, -1.0]]), np.array([0]), "target", 3)
        assert pseudo_label(self.logits_model(3), ds).tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        ds = Dataset(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([0, 0]), "target", 2)
        assert pseudo_label(self.logits_model(2), ds).tolist() == [0, 0]

    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((17, 3)), np.zeros(17, dtype=int), "target", 3)
        labels = pseudo_label(self.logits_model(3), ds)
        assert labels.shape == (17,)
        assert labels.min() >= 0 and labels.max() < 3

    def test_dim_mismatch(self):
        ds = Dataset(np.ones((2, 4)), np.array([0, 1]), "target", 2)
        with pytest.raises(ValueError):
            pseudo_label(self.logits_model(2), ds)


class TestFinetune:
    def trained(self):
        tr, va, config = small_run(epochs=3)
        params, bank, _ = train(tr, va, config)
        tgt = generate_blobs(SynthConfig(**SMALL_GEOM, seed=0, translation=2.0), "target")
        return params, bank, tgt

    def test_zero_lr_leaves_model_unchanged(self):
        params, bank, tgt = self.trained()
        before = [t.copy() for t in model_tensors(params)]
        tuned, _ = finetune(params, bank, tgt, finetune_config(base_lr=0.0))
        for a, b in zip(before, model_tensors(tuned)):
            np.testing.assert_array_equal(a, b)

    def test_report_echoes_finetune_recipe(self):
        params, bank, tgt = self.trained()
        _, report = finetune(params, bank, tgt)
        assert report.config.alpha == 0.0
        assert report.config.base_lr == 1e-6
        assert report.config.epochs == 1
        assert len(report.history) == 1
        assert report.history[0].lr == 1e-6

    def test_bank_untouched(self):
        params, bank, tgt = self.trained()
        cents = bank.centroids.copy()
        seen = bank.seen.copy()
        m = bank.m
        finetune(params, bank, tgt)
        np.testing.assert_array_equal(bank.centroids, cents)
        np.testing.assert_array_equal(bank.seen, seen)
        assert bank.m == m

    def test_single_batch_matches_manual_sgd_step(self):
        """Hand-computed oracle: linear backbone (no hidden layer), one batch,
        one epoch of cross-entropy on the model's own argmax labels."""
        rng = np.random.default_rng(42)
        d, f, k, n = 3, 2, 2, 6
        params = init_params(d, (), f, k, rng)
        x = rng.standard_normal((n, d))
        ds = Dataset(x, np.zeros(n, dtype=int), "target", k)

        w1, b1 = params.weights[0].copy(), params.biases[0].copy()
        wh, bh = params.head_weight.copy(), params.head_bias.copy()

        # oracle: forward, argmax labels, mean-CE gradient, one step at 1e-6
        raw = x @ w1 + b1
        logits = raw @ wh + bh
        labels = np.argmax(logits, axis=1)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        err = probs.copy()
        err[np.arange(n), labels] -= 1.0
        err /= n
        g_wh = raw.T @ err
        g_bh = err.sum(axis=0)
        d_raw = err @ wh.T
        g_w1 = x.T @ d_raw
        g_b1 = d_raw.sum(axis=0)
        lr = 1e-6

        from cclearn.centroids import init_bank

        tuned, report = finetune(
            params, init_bank(k, f, 0.999), ds,
            finetune_config(batch_size=32, shuffle=False, feature_dim=f),
        )
        np.testing.assert_allclose(tuned.weights[0], w1 - lr * g_w1, atol=1e-10)
        np.testing.assert_allclose(tuned.biases[0], b1 - lr * g_b1, atol=1e-10)
        np.testing.assert_allclose(tuned.head_weight, wh - lr * g_wh, atol=1e-10)
        np.testing.assert_allclose(tuned.head_bias, bh - lr * g_bh, atol=1e-10)

    def test_ignores_dataset_labels(self):
        params, bank, tgt = self.trained()
        scrambled = Dataset(
            tgt.features, np.zeros(len(tgt), dtype=int), tgt.domain, tgt.num_classes
        )
        a, _ = finetune(params, bank, tgt, finetune_config(seed=5))
        # rebuild identical starting weights for the second call
        tr, va, config = small_run(epochs=3)
        params2, bank2, _ = train(tr, va, config)
        b, _ = finetune(params2, bank2, scrambled, finetune_config(seed=5))
        for s, t in zip(model_tensors(a), model_tensors(b)):
            np.testing.assert_array_equal(s, t)


class TestEvaluateModel:
    def test_metric_set_and_domains(self):
        tr, va, config = small_run(epochs=3)
        params, _, _ = train(tr, va, config)
        results = evaluate_model(params, va)
        names = [r.name for r in results]
        assert names == ["accuracy", "quadratic_weighted_kappa", "auc_macro_ovr"]
        assert all(r.domain == "source" for r in results)
        macro = results[2]
        if not math.isnan(macro.value):
            assert macro.per_class is not None

    def test_undefined_metrics_become_nan(self):
        params = ModelParams([np.eye(2)], [np.zeros(2)], np.zeros((2, 2)), np.array([1.0, 0.0]))
        ds = Dataset(np.ones((3, 2)), np.zeros(3, dtype=int), "target", 2)
        results = evaluate_model(params, ds)
        by_name = {r.name: r.value for r in results}
        assert by_name["accuracy"] == 1.0
        assert math.isnan(by_name["quadratic_weighted_kappa"])
        assert math.isnan(by_name["auc_macro_ovr"])
