import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cclearn.centroids import bank_from_features, ema_update, init_bank
from cclearn.diagnostics import (
    class_centroid_heatmap,
    feature_spread,
    pca_2d,
    project_into,
    save_heatmap,
    save_projection,
)
from cclearn.errors import StateError, UndefinedProjectionError
from reference import class_centroid_heatmap_loop


def jacobi_eigh(matrix, sweeps=100, tol=1e-14):
    """Cyclic Jacobi eigensolver: an eigendecomposition oracle independent of
    LAPACK. Returns eigenvalues descending and matching eigenvector columns."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    vecs = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < tol:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
        if off < tol:
            break
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], vecs[:, order]


def unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestHeatmap:
    def test_features_on_orthogonal_centroids_identity(self):
        cents = np.eye(3)
        bank = init_bank(3, 3, 0.0)
        ema_update(bank, cents, np.ones(3, dtype=bool))
        feats = cents[np.array([0, 1, 2, 0])]
        hm = class_centroid_heatmap(feats, np.array([0, 1, 2, 0]), bank)
        np.testing.assert_allclose(hm.values, np.eye(3), atol=1e-15)

    def test_constant_features_give_constant_rows(self):
        rng = np.random.default_rng(0)
        cents = unit_rows(rng, 3, 4)
        bank = init_bank(3, 4, 0.0)
        ema_update(bank, cents, np.ones(3, dtype=bool))
        feats = np.tile(cents[0], (6, 1))
        labels = np.array([0, 0, 1, 1, 2, 2])
        hm = class_centroid_heatmap(feats, labels, bank)
        expect = cents @ cents[0]
        for row in hm.values:
            np.testing.assert_allclose(row, expect, atol=1e-12)

    def test_two_class_hand_case(self):
        bank = init_bank(2, 2, 0.0)
        ema_update(bank, np.eye(2), np.ones(2, dtype=bool))
        feats = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [0.8, 0.6]])
        labels = np.array([0, 0, 1, 1])
        hm = class_centroid_heatmap(feats, labels, bank)
        np.testing.assert_allclose(hm.values[0], [(1.0 + 0.6) / 2, (0.0 + 0.8) / 2], atol=1e-15)
        np.testing.assert_allclose(hm.values[1], [(0.0 + 0.8) / 2, (1.0 + 0.6) / 2], atol=1e-15)

    def test_empty_class_row_flagged(self):
        rng = np.random.default_rng(1)
        cents = unit_rows(rng, 3, 4)
        bank = init_bank(3, 4, 0.0)
        ema_update(bank, cents, np.ones(3, dtype=bool))
        feats = unit_rows(rng, 4, 4)
        labels = np.array([0, 0, 1, 1])  # class 2 empty
        hm = class_centroid_heatmap(feats, labels, bank)
        assert hm.missing.tolist() == [False, False, True]
        assert np.isnan(hm.values[2]).all()
        assert not math.isnan(hm.mean_diagonal)

    def test_unseen_label_class_rejected(self):
        bank = init_bank(2, 2, 0.0)
        ema_update(bank, np.eye(2), np.array([True, False]))
        with pytest.raises(StateError):
            class_centroid_heatmap(np.eye(2), np.array([0, 1]), bank)

    def test_entries_bounded_on_unit_inputs(self):
        rng = np.random.default_rng(2)
        feats = unit_rows(rng, 40, 6)
        labels = rng.integers(0, 4, 40)
        labels[:4] = np.arange(4)
        bank = bank_from_features(feats, labels, 4)
        hm = class_centroid_heatmap(feats, labels, bank)
        assert np.nanmax(hm.values) <= 1.0 + 1e-12
        assert np.nanmin(hm.values) >= -1.0 - 1e-12

    def test_save_heatmap(self, tmp_path):
        bank = init_bank(2, 2, 0.0)
        ema_update(bank, np.eye(2), np.ones(2, dtype=bool))
        hm = class_centroid_heatmap(np.eye(2), np.array([0, 1]), bank)
        path = tmp_path / "hm.csv"
        save_heatmap(hm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,count,c0,c1"
        assert len(lines) == 3

    @pytest.mark.parametrize("labels", [
        np.array([0.0, 1.0]), np.array([True, False]), np.array([0, 2]), np.array([0, -1]),
        np.array([0]), np.array([[0], [1]]),
    ])
    def test_bad_labels_rejected(self, labels):
        bank = init_bank(2, 2, 0.0)
        ema_update(bank, np.eye(2), np.ones(2, dtype=bool))
        with pytest.raises(ValueError):
            class_centroid_heatmap(np.eye(2), labels, bank)


def heatmap_outcome(heatmap, features, labels, bank):
    try:
        hm = heatmap(features, labels, bank, "d")
    except StateError as exc:
        return str(exc)
    return hm.values.tobytes(), hm.class_counts.tobytes(), hm.missing.tobytes(), hm.domain


@st.composite
def heatmap_cases(draw):
    k, dim, n = draw(st.integers(2, 6)), draw(st.integers(1, 16)), draw(st.integers(1, 400))
    bank = init_bank(k, dim, 0.0)
    bank.centroids = draw(arrays(np.float64, (k, dim), elements=st.floats(-2.0, 2.0)))
    # in half the cases every class is seen; else a present unseen class raises StateError
    all_seen = draw(st.booleans())
    bank.seen = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k))) | all_seen
    # full-mantissa values, on which a change of summation order shows in the bits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, dim)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return features, labels, bank


@settings(max_examples=300, deadline=None)
@given(case=heatmap_cases())
def test_heatmap_is_bit_equal_to_the_per_class_loop(case):
    assert heatmap_outcome(class_centroid_heatmap, *case) == heatmap_outcome(
        class_centroid_heatmap_loop, *case
    )


@pytest.mark.parametrize("seed", range(3))
def test_heatmap_is_bit_equal_to_the_per_class_loop_at_size(seed):
    rng = np.random.default_rng(seed)
    k, n = 10, 60000
    features = unit_rows(rng, n, 32)
    labels = rng.integers(0, k - 1, n)  # the last class stays empty
    bank = bank_from_features(unit_rows(rng, k, 32), np.arange(k), k)
    assert heatmap_outcome(class_centroid_heatmap, features, labels, bank) == heatmap_outcome(
        class_centroid_heatmap_loop, features, labels, bank
    )


class TestPca2d:
    def test_recovers_axis_aligned_2d_data(self):
        # sample covariance is exactly diag(2, 0.5): axes are +-e0 and +-e1,
        # and the sign convention makes them +e0, +e1
        x = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        proj = pca_2d(x)
        np.testing.assert_allclose(proj.components, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(proj.coords, x, atol=1e-12)
        assert proj.explained[0] == pytest.approx(2.0 / 2.5, abs=1e-12)

    def test_collinear_points_have_zero_second_variance(self):
        direction = np.array([1.0, 2.0, 0.5, -1.0, 3.0])
        x = np.outer([0.0, 1.0, 2.0], direction)
        proj = pca_2d(x)
        assert proj.explained[1] == pytest.approx(0.0, abs=1e-10)
        assert proj.explained[0] == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction_error_equals_discarded_eigenvalues(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / x.shape[0]
        oracle_vals, _ = jacobi_eigh(cov)
        proj = pca_2d(x)
        reconstruction = proj.coords @ proj.components
        residual = ((centered - reconstruction) ** 2).sum() / x.shape[0]
        assert residual == pytest.approx(oracle_vals[2:].sum(), abs=1e-10)

    def test_explained_fractions_match_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 6))
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / x.shape[0]
        oracle_vals, _ = jacobi_eigh(cov)
        proj = pca_2d(x)
        total = oracle_vals.sum()
        assert proj.explained[0] == pytest.approx(oracle_vals[0] / total, abs=1e-10)
        assert proj.explained[1] == pytest.approx(oracle_vals[1] / total, abs=1e-10)
        assert proj.explained[0] >= proj.explained[1]
        assert proj.explained[0] + proj.explained[1] <= 1.0 + 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((15, 5))
        proj_a = pca_2d(x)
        proj_b = pca_2d(x + 42.0)
        np.testing.assert_allclose(proj_a.coords, proj_b.coords, atol=1e-9)

    def test_rank_zero_rejected(self):
        with pytest.raises(UndefinedProjectionError):
            pca_2d(np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_size_preconditions(self):
        with pytest.raises(ValueError):
            pca_2d(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            pca_2d(np.zeros((5, 1)))

    def test_project_into_source_basis(self):
        rng = np.random.default_rng(7)
        src = rng.standard_normal((30, 5))
        tgt = rng.standard_normal((10, 5)) + 2.0
        basis = pca_2d(src)
        coords = project_into(basis, tgt)
        np.testing.assert_allclose(
            coords, (tgt - basis.mean) @ basis.components.T, atol=1e-12
        )

    def test_save_projection(self, tmp_path):
        rng = np.random.default_rng(8)
        proj = pca_2d(rng.standard_normal((5, 3)), labels=np.arange(5), domain="source")
        path = tmp_path / "p.csv"
        save_projection(proj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pc1,pc2,label,domain"
        assert len(lines) == 6
        assert lines[1].endswith(",0,source")


class TestFeatureSpread:
    def test_identical_rows_zero(self):
        assert feature_spread(np.tile([1.0, 2.0], (4, 1))) == 0.0

    def test_antipodal_unit_vectors(self):
        assert feature_spread(np.array([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 4))
        base = feature_spread(x)
        assert feature_spread(3.0 * x) == pytest.approx(9.0 * base, rel=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            feature_spread(np.ones((1, 3)))
