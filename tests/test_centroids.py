import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cclearn.centroids import (
    CentroidBank,
    bank_from_features,
    batch_class_means,
    ema_update,
    init_bank,
    load_bank,
    normalize_rows,
    save_bank,
    update_smoothing,
)
from cclearn.errors import DegenerateVectorError, StateError
from reference import ema_update_loop


def random_unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestNormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_axis_vector(self):
        np.testing.assert_allclose(normalize_rows([[0.0, 0.0, 5.0]]), [[0, 0, 1]], rtol=0, atol=0)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateVectorError):
            normalize_rows([[0.0, 0.0]])

    def test_unit_output_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 12))
            if np.linalg.norm(v) < 1e-9:
                continue
            assert abs(np.linalg.norm(normalize_rows(v[None])) - 1.0) < 1e-12

    def test_rows_variant_reports_bad_row(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateVectorError, match="1"):
            normalize_rows(x)


class TestInitBank:
    def test_fresh_bank_state(self):
        bank = init_bank(3, 4, 0.999)
        assert bank.centroids.shape == (3, 4)
        np.testing.assert_array_equal(bank.centroids, np.zeros((3, 4)))
        assert not bank.seen.any()
        assert bank.m == 0.999 == bank.m0

    def test_boundary_m0_zero(self):
        bank = init_bank(2, 1, 0.0)
        assert bank.m == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            init_bank(1, 4, 0.9)

    @pytest.mark.parametrize("k,f,m0", [(0, 4, 0.5), (2, 0, 0.5), (2, 4, 1.0), (2, 4, -0.1)])
    def test_invalid_arguments(self, k, f, m0):
        with pytest.raises(ValueError):
            init_bank(k, f, m0)


class TestUpdateSmoothing:
    def test_epoch_zero_returns_m0(self):
        bank = init_bank(2, 2, 0.999)
        assert update_smoothing(bank, 0, 200) == 0.999

    def test_final_epoch_is_exactly_one(self):
        bank = init_bank(2, 2, 0.999)
        assert update_smoothing(bank, 200, 200) == 1.0

    def test_hand_midpoint(self):
        bank = init_bank(2, 2, 0.8)
        assert update_smoothing(bank, 100, 200) == pytest.approx(0.9, abs=1e-15)

    @pytest.mark.parametrize("m0", [0.0, 0.123456789, 0.5, 0.999, 0.9999999])
    def test_exact_endpoints_any_m0(self, m0):
        bank = init_bank(2, 2, m0)
        assert update_smoothing(bank, 0, 37) == m0
        assert update_smoothing(bank, 37, 37) == 1.0

    def test_affine_and_monotone(self):
        bank = init_bank(2, 2, 0.7)
        total = 13
        values = [update_smoothing(bank, e, total) for e in range(total + 1)]
        for e, m in enumerate(values):
            assert m == pytest.approx(0.7 + 0.3 * e / total, abs=1e-15)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_epoch_past_total_rejected(self):
        bank = init_bank(2, 2, 0.5)
        with pytest.raises(ValueError):
            update_smoothing(bank, 5, 4)
        with pytest.raises(ValueError):
            update_smoothing(bank, 0, 0)


class TestBatchClassMeans:
    def test_two_rows_one_class(self):
        means, mask = batch_class_means(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]), 2
        )
        np.testing.assert_allclose(means[0], [0.5, 0.5])
        assert mask.tolist() == [True, False]

    def test_singleton_class(self):
        means, mask = batch_class_means(np.array([[1.0, 0.0]]), np.array([1]), 2)
        np.testing.assert_allclose(means[1], [1.0, 0.0])
        assert mask.tolist() == [False, True]

    def test_identical_rows(self):
        means, _ = batch_class_means(
            np.array([[0.6, 0.8], [0.6, 0.8]]), np.array([0, 0]), 2
        )
        np.testing.assert_allclose(means[0], [0.6, 0.8], atol=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            batch_class_means(np.array([[1.0, 0.0]]), np.array([2]), 2)

    def test_matches_bruteforce_on_random_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            b = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 17))
            k = int(rng.integers(2, 7))
            feats = random_unit_rows(rng, b, dim)
            labels = rng.integers(0, k, b)
            means, mask = batch_class_means(feats, labels, k)
            for c in range(k):
                rows = feats[labels == c]
                if rows.shape[0] == 0:
                    assert not mask[c]
                else:
                    assert mask[c]
                    np.testing.assert_allclose(means[c], rows.mean(axis=0), atol=1e-12)


class TestEmaUpdate:
    def make_seen_bank(self, centroids, m):
        centroids = np.asarray(centroids, dtype=np.float64)
        bank = init_bank(centroids.shape[0], centroids.shape[1], 0.0)
        ema_update(bank, centroids, np.ones(centroids.shape[0], dtype=bool))
        bank.m = m
        return bank

    def test_m_one_is_identity(self):
        rng = np.random.default_rng(1)
        cents = random_unit_rows(rng, 3, 5)
        bank = self.make_seen_bank(cents, 1.0)
        before = bank.centroids.copy()
        ema_update(bank, random_unit_rows(rng, 3, 5), np.ones(3, dtype=bool))
        np.testing.assert_allclose(bank.centroids, before, atol=1e-12)

    def test_m_zero_adopts_mean(self):
        bank = self.make_seen_bank([[1.0, 0.0], [0.0, 1.0]], 0.0)
        ema_update(bank, np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([True, False]))
        np.testing.assert_allclose(bank.centroids[0], [0.0, 1.0], atol=1e-15)

    def test_half_blend_hand_value(self):
        bank = self.make_seen_bank([[1.0, 0.0], [0.0, 1.0]], 0.5)
        ema_update(bank, np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([True, False]))
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(bank.centroids[0], [r, r], atol=1e-15)

    def test_first_sight_normalizes_and_flags(self):
        bank = init_bank(2, 2, 0.9)
        ema_update(bank, np.array([[3.0, 4.0], [0.0, 0.0]]), np.array([True, False]))
        np.testing.assert_allclose(bank.centroids[0], [0.6, 0.8], atol=1e-15)
        assert bank.seen.tolist() == [True, False]

    def test_unmasked_rows_untouched(self):
        rng = np.random.default_rng(2)
        bank = self.make_seen_bank(random_unit_rows(rng, 3, 4), 0.5)
        frozen = bank.centroids[2].copy()
        ema_update(bank, rng.standard_normal((3, 4)), np.array([True, True, False]))
        np.testing.assert_array_equal(bank.centroids[2], frozen)

    def test_degenerate_mean_rejected_atomically(self):
        bank = self.make_seen_bank([[1.0, 0.0], [0.0, 1.0]], 0.5)
        before = bank.centroids.copy()
        f_mean = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DegenerateVectorError):
            ema_update(bank, f_mean, np.array([True, True]))
        np.testing.assert_array_equal(bank.centroids, before)

    def test_seen_rows_unit_norm_after_random_updates(self):
        rng = np.random.default_rng(3)
        bank = init_bank(4, 6, 0.8)
        for step in range(40):
            bank.m = float(rng.uniform(0, 1))
            means = random_unit_rows(rng, 4, 6)
            mask = rng.random(4) < 0.7
            if not mask.any():
                continue
            ema_update(bank, means, mask)
            norms = np.linalg.norm(bank.centroids[bank.seen], axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_commutes_with_class_permutation(self):
        rng = np.random.default_rng(4)
        k, dim = 5, 3
        cents = random_unit_rows(rng, k, dim)
        means = rng.standard_normal((k, dim))
        mask = np.array([True, False, True, True, False])
        perm = rng.permutation(k)

        bank_a = self.make_seen_bank(cents, 0.37)
        ema_update(bank_a, means, mask)
        bank_b = self.make_seen_bank(cents[perm], 0.37)
        ema_update(bank_b, means[perm], mask[perm])
        np.testing.assert_array_equal(bank_a.centroids[perm], bank_b.centroids)


@st.composite
def ema_cases(draw):
    classes, dim = draw(st.integers(2, 6)), draw(st.integers(1, 64))
    flags = st.lists(st.booleans(), min_size=classes, max_size=classes)
    bank = init_bank(classes, dim, 0.0)
    bank.m = draw(st.floats(0.0, 1.0, exclude_max=True))
    bank.seen = np.array(draw(flags))
    bank.centroids = draw(arrays(np.float64, (classes, dim), elements=st.floats(-2.0, 2.0)))
    f_mean = draw(arrays(np.float64, (classes, dim), elements=st.floats(-1e3, 1e3)))
    # rows whose blend cancels, or nearly so, exercise the collapse error
    for k in np.flatnonzero(draw(flags)):
        f_mean[k] = -bank.centroids[k] * (bank.m / (1.0 - bank.m))
    return bank, f_mean, np.array(draw(flags))


def ema_outcome(update, bank, f_mean, mask):
    bank = copy.deepcopy(bank)
    try:
        update(bank, f_mean, mask)
        error = None
    except DegenerateVectorError as exc:
        error = str(exc)
    return bank.centroids.tobytes(), bank.seen.tobytes(), error


@settings(max_examples=300, deadline=None)
@given(case=ema_cases())
def test_ema_update_is_bit_equal_to_the_per_class_loop(case):
    assert ema_outcome(ema_update, *case) == ema_outcome(ema_update_loop, *case)


class TestBankIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        bank = init_bank(3, 4, 0.999)
        ema_update(bank, rng.standard_normal((3, 4)), np.array([True, False, True]))
        bank.m = 0.99912345678901234
        path = tmp_path / "bank.txt"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert isinstance(loaded, CentroidBank)
        np.testing.assert_array_equal(loaded.centroids, bank.centroids)
        np.testing.assert_array_equal(loaded.seen, bank.seen)
        assert loaded.m == bank.m and loaded.m0 == bank.m0

    @pytest.mark.parametrize("text", [
        "2 x\n0.9 0.9\n1 1\n1 0\n0 1\n",  # bad header: a bare ValueError before
        "2\n0.9 0.9\n1 1\n1 0\n0 1\n",
        "2 2\n0.9\n1 1\n1 0\n0 1\n",
        "2 2\nnan 0.9\n1 1\n1 0\n0 1\n",
        "2 2\n0.9 nan\n1 1\n1 0\n0 1\n",
        "2 2\n0.9 inf\n1 1\n1 0\n0 1\n",
        "2 2\n0.9 0.9\n1 1\nnan 0\n0 1\n",
        "2 2\n0.9 0.9\n1 1\n1 0\n0 -inf\n",
        "2 2\n0.9 0.9\n1 1\n1 0\n0 1 2\n",
        "2 2\n0.9 0.9\n1 1\n1 0\n",
        "2 2\n0.9 0.9\n1\n1 0\n0 1\n",
        "2 2\n0.9 0.9\n",
    ])
    def test_malformed_or_non_finite_bank_raises_state_error(self, tmp_path, text):
        path = tmp_path / "bank.txt"
        path.write_text(text)
        with pytest.raises(StateError, match="bank.txt"):
            load_bank(path)

    @pytest.mark.parametrize("text", [
        "2 2\n0.9 0.9\n1 1\n3 0\n0 1\n",  # a seen row of norm 3
        "2 2\n0.9 0.9\n1 1\n1 0\n0 0\n",
        "2 2\n0.9 0.9\n1 1\n1.000001 0\n0 1\n",
        "2 2\n0.9 0.9\n0 1\n1 0\n0.6 0.7\n",
    ])
    def test_seen_centroid_off_unit_length_raises_state_error(self, tmp_path, text):
        path = tmp_path / "bank.txt"
        path.write_text(text)
        with pytest.raises(StateError, match="bank.txt"):
            load_bank(path)

    def test_unseen_rows_and_rounding_within_tolerance_load(self, tmp_path):
        path = tmp_path / "bank.txt"
        path.write_text("2 2\n0.9 0.9\n1 0\n0.6 0.8000000000001\n3 4\n")
        bank = load_bank(path)
        np.testing.assert_array_equal(bank.centroids, [[0.6, 0.8000000000001], [3.0, 4.0]])

    def test_trained_banks_load(self, tmp_path):
        rng = np.random.default_rng(8)
        bank = init_bank(5, 7, 0.5)
        for _ in range(200):
            labels = rng.integers(0, 5, 16)
            means, mask = batch_class_means(random_unit_rows(rng, 16, 7), labels, 5)
            ema_update(bank, means, mask)
        save_bank(bank, tmp_path / "bank.txt")
        np.testing.assert_array_equal(load_bank(tmp_path / "bank.txt").centroids, bank.centroids)

    def test_bank_from_features_is_normalized_class_means(self):
        rng = np.random.default_rng(6)
        feats = random_unit_rows(rng, 20, 4)
        labels = rng.integers(0, 3, 20)
        bank = bank_from_features(feats, labels, 3)
        for c in range(3):
            mean = feats[labels == c].mean(axis=0)
            np.testing.assert_allclose(
                bank.centroids[c], mean / np.linalg.norm(mean), atol=1e-12
            )
