import math

import numpy as np
import pytest

from cclearn.centroids import ema_update, init_bank
from cclearn.errors import DegenerateVectorError, StateError
from cclearn.losses import combined_loss, combined_loss_and_grads
from cclearn.model import (
    Gradients,
    ModelParams,
    OptimState,
    backward,
    forward,
    init_params,
    load_model,
    lr_at,
    save_model,
    sgd_step,
)


def identity_net(dim=2, classes=2):
    return ModelParams([np.eye(dim)], [np.zeros(dim)], np.eye(dim)[:, :classes].copy(),
                       np.zeros(classes))


def random_seen_bank(rng, k, dim):
    rows = rng.standard_normal((k, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    bank = init_bank(k, dim, 0.0)
    ema_update(bank, rows, np.ones(k, dtype=bool))
    return bank


def flatten_grads(g: Gradients) -> np.ndarray:
    parts = [w.ravel() for w in g.weights] + [b.ravel() for b in g.biases]
    parts += [g.head_weight.ravel(), g.head_bias.ravel()]
    return np.concatenate(parts)


def param_tensors(p: ModelParams):
    return p.weights + p.biases + [p.head_weight, p.head_bias]


class TestForward:
    def test_zero_weights_hit_degenerate_path(self):
        params = ModelParams(
            [np.zeros((3, 2))], [np.zeros(2)], np.zeros((2, 2)), np.zeros(2)
        )
        with pytest.raises(DegenerateVectorError):
            forward(params, np.ones((1, 3)))

    def test_identity_passthrough_normalizes(self):
        _, normalized, _, _ = forward(identity_net(), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(normalized, [[0.6, 0.8]], atol=1e-15)

    def test_deterministic_and_pure(self):
        rng = np.random.default_rng(0)
        params = init_params(4, (5,), 3, 2, rng)
        x = np.vstack([rng.standard_normal(4)] * 2)  # two identical rows
        raw1, n1, l1, _ = forward(params, x)
        raw2, n2, l2, _ = forward(params, x)
        np.testing.assert_array_equal(raw1, raw2)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(raw1[0], raw1[1])
        np.testing.assert_array_equal(l1[0], l1[1])

    def test_unit_norm_rows(self):
        rng = np.random.default_rng(1)
        params = init_params(6, (8, 8), 4, 3, rng)
        _, normalized, _, _ = forward(params, rng.standard_normal((10, 6)))
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), 1.0, atol=1e-9)

    def test_shape_and_finiteness_validation(self):
        params = identity_net()
        with pytest.raises(ValueError):
            forward(params, np.ones((2, 3)))
        with pytest.raises(ValueError):
            forward(params, np.array([[1.0, math.nan]]))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(2)
        params = init_params(3, (4,), 2, 2, rng)
        _, _, _, cache = forward(params, rng.standard_normal((3, 3)))
        grads = backward(params, cache, np.zeros((3, 2)), np.zeros((3, 2)))
        assert np.all(flatten_grads(grads) == 0.0)

    def test_normalization_jacobian_hand_value(self):
        # f=(3,4), upstream g=(1,0) through f/|f|: (g - (fhat.g) fhat)/|f| = (0.128, -0.096)
        params = identity_net()
        _, _, _, cache = forward(params, np.array([[3.0, 4.0]]))
        grads = backward(params, cache, np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        np.testing.assert_allclose(grads.biases[0], [0.128, -0.096], atol=1e-12)

    def test_stale_cache_detected(self):
        rng = np.random.default_rng(3)
        params = init_params(3, (), 2, 2, rng)
        _, _, _, cache = forward(params, rng.standard_normal((2, 3)))
        grads = backward(params, cache, np.zeros((2, 2)), np.zeros((2, 2)))
        sgd_step(params, grads, 0.1)
        with pytest.raises(StateError):
            backward(params, cache, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_full_model_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        trial = 0
        while trial < 100:
            d = int(rng.integers(2, 9))
            f = int(rng.integers(2, 9))
            k = int(rng.integers(2, 9))
            batch = int(rng.integers(1, 5))
            depth = int(rng.integers(0, 3))
            hidden = tuple(int(rng.integers(2, 9)) for _ in range(depth))
            params = init_params(d, hidden, f, k, rng)
            bank = random_seen_bank(rng, k, f)
            x = rng.standard_normal((batch, d))
            y = rng.integers(0, k, batch)
            alpha = float(rng.uniform(0.2, 2.0))
            tau = float(rng.uniform(0.5, 2.0))

            try:
                _, fhat, logits, cache = forward(params, x)
            except DegenerateVectorError:
                # tiny ReLU nets can zero out a sample; draw another config
                continue
            if hidden and min(np.abs(z).min() for z in cache.pre_activations[:-1]) < 1e-3:
                # a pre-activation this close to the ReLU kink breaks the FD oracle
                continue
            if cache.norms.min() < 0.1:
                # near-zero feature norms blow up the normalization curvature,
                # degrading the FD estimate itself
                continue
            trial += 1
            _, d_feat, d_logits = combined_loss_and_grads(fhat, logits, y, bank, alpha, tau)
            analytic = flatten_grads(backward(params, cache, d_feat, d_logits))

            def total():
                _, nf, lg, _ = forward(params, x)
                return combined_loss(nf, lg, y, bank, alpha, tau).total

            fd = []
            for tensor in param_tensors(params):
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
            assert rel < 1e-5, f"trial {trial}: relative error {rel}"


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        rng = np.random.default_rng(5)
        params = init_params(3, (4,), 2, 2, rng)
        before = [t.copy() for t in param_tensors(params)]
        grads = Gradients(
            [np.ones_like(w) for w in params.weights],
            [np.ones_like(b) for b in params.biases],
            np.ones_like(params.head_weight),
            np.ones_like(params.head_bias),
        )
        sgd_step(params, grads, 0.0)
        for b, t in zip(before, param_tensors(params)):
            np.testing.assert_array_equal(b, t)

    def test_single_weight_arithmetic(self):
        params = ModelParams([np.array([[1.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        grads = Gradients([np.array([[2.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        sgd_step(params, grads, 0.1)
        assert params.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_two_steps_compose_linearly(self):
        params = ModelParams([np.array([[1.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        grads = Gradients([np.array([[2.0]])], [np.zeros(1)], np.zeros((1, 2)), np.zeros(2))
        sgd_step(params, grads, 0.05)
        sgd_step(params, grads, 0.05)
        assert params.weights[0][0, 0] == pytest.approx(1.0 - 2 * 0.05 * 2.0, abs=1e-15)

    def test_shape_mismatch_rejected(self):
        params = identity_net()
        grads = Gradients([np.zeros((3, 3))], [np.zeros(3)], np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            sgd_step(params, grads, 0.1)
        with pytest.raises(ValueError):
            sgd_step(params, Gradients([np.zeros((2, 2))], [np.zeros(2)],
                                       np.zeros((2, 2)), np.zeros(2)), -0.1)

    @pytest.mark.parametrize("grads", [
        # a wrong head bias, the last tensor sgd_step reaches
        lambda p: Gradients([np.ones_like(w) for w in p.weights],
                            [np.ones_like(b) for b in p.biases],
                            np.ones_like(p.head_weight), np.ones(3)),
        # one bias gradient short
        lambda p: Gradients([np.ones_like(w) for w in p.weights], [np.ones_like(p.biases[0])],
                            np.ones_like(p.head_weight), np.ones_like(p.head_bias)),
    ])
    def test_rejection_leaves_every_parameter_unchanged(self, grads):
        params = init_params(3, (4,), 2, 2, np.random.default_rng(7))
        before = [t.copy() for t in param_tensors(params)]
        with pytest.raises(ValueError):
            sgd_step(params, grads(params), 0.1)
        for b, t in zip(before, param_tensors(params)):
            np.testing.assert_array_equal(b, t)
        assert params.version == 0


class TestModelParams:
    def test_layers_are_the_backbone_then_the_head(self):
        params = init_params(3, (4, 5), 2, 6, np.random.default_rng(8))
        layers = params.layers
        assert [(w.shape, b.shape) for w, b in layers] == [
            ((3, 4), (4,)), ((4, 5), (5,)), ((5, 2), (2,)), ((2, 6), (6,))
        ]
        assert layers[0][0] is params.weights[0] and layers[-1][1] is params.head_bias

    @pytest.mark.parametrize("head_w, head_b", [
        (np.zeros((3, 2)), np.zeros(2)),  # does not consume the 2-dim features
        (np.zeros(2), np.zeros(2)),
        (np.zeros((2, 2)), np.zeros(3)),
        (np.zeros((2, 2)), np.zeros((1, 2))),
    ])
    def test_inconsistent_head_rejected(self, head_w, head_b):
        with pytest.raises(ValueError):
            ModelParams([np.eye(2)], [np.zeros(2)], head_w, head_b)

    def test_unchained_backbone_rejected(self):
        with pytest.raises(ValueError):
            ModelParams([np.zeros((2, 3)), np.zeros((4, 2))], [np.zeros(3), np.zeros(2)],
                        np.zeros((2, 2)), np.zeros(2))


class TestLrSchedule:
    def test_warmup_end_hits_base_lr(self):
        opt = OptimState(base_lr=0.001, warmup_epochs=1, total_epochs=10, steps_per_epoch=20)
        assert lr_at(opt, 20) == pytest.approx(0.001, abs=1e-15)

    def test_warmup_ramps_from_zero(self):
        opt = OptimState(base_lr=0.001, warmup_epochs=1, total_epochs=10, steps_per_epoch=20)
        assert lr_at(opt, 0) == 0.0
        assert lr_at(opt, 10) == pytest.approx(0.0005, abs=1e-15)

    def test_final_step_is_zero(self):
        opt = OptimState(base_lr=0.001, warmup_epochs=1, total_epochs=10, steps_per_epoch=20)
        assert abs(lr_at(opt, opt.total_steps)) < 1e-9

    def test_cosine_midpoint_is_half(self):
        opt = OptimState(base_lr=0.001, warmup_epochs=1, total_epochs=11, steps_per_epoch=10)
        midpoint = 10 + (opt.total_steps - 10) // 2
        assert lr_at(opt, midpoint) == pytest.approx(0.0005, abs=1e-12)

    def test_continuity_at_warmup_boundary(self):
        opt = OptimState(base_lr=0.001, warmup_epochs=2, total_epochs=9, steps_per_epoch=7)
        warm = opt.warmup_steps
        ramp_side = opt.base_lr * warm / warm
        cosine_side = lr_at(opt, warm)
        assert abs(ramp_side - cosine_side) < 1e-12

    def test_no_warmup_starts_at_base(self):
        opt = OptimState(base_lr=0.01, warmup_epochs=0, total_epochs=5, steps_per_epoch=4)
        assert lr_at(opt, 0) == pytest.approx(0.01, abs=1e-15)

    def test_out_of_schedule_rejected(self):
        opt = OptimState(base_lr=0.001, warmup_epochs=1, total_epochs=2, steps_per_epoch=5)
        with pytest.raises(ValueError):
            lr_at(opt, 11)
        with pytest.raises(ValueError):
            lr_at(opt, -1)

    def test_monotone_decay_after_warmup(self):
        opt = OptimState(base_lr=0.001, warmup_epochs=1, total_epochs=6, steps_per_epoch=8)
        values = [lr_at(opt, s) for s in range(opt.warmup_steps, opt.total_steps + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        params = init_params(5, (7, 3), 4, 3, rng)
        sgd_step(params, Gradients(
            [rng.standard_normal(w.shape) for w in params.weights],
            [rng.standard_normal(b.shape) for b in params.biases],
            rng.standard_normal(params.head_weight.shape),
            rng.standard_normal(params.head_bias.shape),
        ), 0.371)
        path = tmp_path / "model.txt"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.hidden_dims == (7, 3)
        assert (loaded.input_dim, loaded.feature_dim, loaded.num_classes) == (5, 4, 3)
        for a, b in zip(param_tensors(params), param_tensors(loaded)):
            np.testing.assert_array_equal(a, b)

    def test_no_hidden_layers_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = init_params(3, (), 2, 4, rng)
        save_model(params, tmp_path / "m.txt")
        loaded = load_model(tmp_path / "m.txt")
        np.testing.assert_array_equal(loaded.weights[0], params.weights[0])
        assert loaded.hidden_dims == ()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 2 1\n2\n1 0\n")
        with pytest.raises((StateError, IndexError, ValueError)):
            load_model(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
    def test_non_finite_or_non_numeric_weight_names_the_file(self, tmp_path, bad):
        path = tmp_path / "m.txt"
        save_model(init_params(3, (), 2, 2, 0), path)
        lines = path.read_text().splitlines()
        lines[3] = " ".join([bad] + lines[3].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StateError, match="m.txt"):
            load_model(path)

    @pytest.mark.parametrize("text", [
        "", "3 2 2\n2\n", "3 2 2 x\n2\n", "3 2 2 1\n3\n", "0 2 2 1\n2\n", "3 2 2 1\n2\n1 0\n",
        "1 1 2 1\n1\n1\n1\n1 1\n1 1\n1\n",
    ])
    def test_malformed_files_raise_state_error(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(StateError, match="m.txt"):
            load_model(path)


class TestInit:
    def test_seeded_determinism(self):
        a = init_params(4, (5,), 3, 2, 99)
        b = init_params(4, (5,), 3, 2, 99)
        for x, y in zip(param_tensors(a), param_tensors(b)):
            np.testing.assert_array_equal(x, y)

    def test_bounds_scale_with_fan_in(self):
        params = init_params(16, (64,), 8, 4, 0)
        assert np.abs(params.weights[0]).max() <= 1 / 4 + 1e-12
        assert np.abs(params.weights[1]).max() <= 1 / 8 + 1e-12
        assert np.all(params.biases[0] == 0.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, (4,), 2, 2, 0)
        with pytest.raises(ValueError):
            init_params(3, (4,), 2, 1, 0)
