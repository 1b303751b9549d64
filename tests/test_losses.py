import math

import numpy as np
import pytest

from cclearn.centroids import ema_update, init_bank
from cclearn.losses import combined_loss, combined_loss_and_grads, softmax
from reference import contrastive_loss, contrastive_loss_grad, cross_entropy, cross_entropy_grad


# ---- independent oracles: plain exponential sums, no stabilization tricks ----

def oracle_contrastive(f, centroids, own_pos, tau):
    terms = [math.exp(float(np.dot(f, c)) / tau) for c in centroids]
    return -math.log(terms[own_pos] / sum(terms))


def oracle_cross_entropy(logits, label):
    terms = [math.exp(float(v)) for v in logits]
    return -math.log(terms[label] / sum(terms))


def unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ---- one-sample batches through the package's batch objective ----

def one_row_ce(logits, label):
    """(.ce, d_logits) of the one-row batch, read at alpha 0."""
    logits = np.asarray(logits, dtype=np.float64)
    bank = init_bank(logits.shape[0], 1, 0.0)
    breakdown, _, d_logits = combined_loss_and_grads(
        np.ones((1, 1)), logits[None], np.array([label]), bank, 0.0, 1.0
    )
    return breakdown.ce, d_logits[0]


def one_row_cont(f, bank, own, tau):
    """(.cont, d_features) of the one-row batch, read at alpha 1."""
    breakdown, d_feat, _ = combined_loss_and_grads(
        np.asarray(f, dtype=np.float64)[None], np.zeros((1, bank.num_classes)),
        np.array([own]), bank, 1.0, tau,
    )
    return breakdown.cont, d_feat[0]


def seen_bank(centroid_rows, seen=None):
    rows = np.asarray(centroid_rows, dtype=np.float64)
    bank = init_bank(rows.shape[0], rows.shape[1], 0.0)
    mask = np.ones(rows.shape[0], dtype=bool) if seen is None else np.asarray(seen)
    ema_update(bank, rows, mask)
    return bank


class TestContrastiveLoss:
    def test_aligned_positive_orthogonal_negative(self):
        bank = seen_bank([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = one_row_cont([1.0, 0.0], bank, 0, 1.0)
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)
        assert loss == pytest.approx(0.31326, abs=1e-5)

    def test_uniform_similarity_gives_log_k(self):
        k, dim = 5, 6
        bank = seen_bank(unit_rows(np.random.default_rng(0), k, dim))
        f = np.zeros(dim)  # dot product 0 to everything
        for own in range(k):
            assert one_row_cont(f, bank, own, 1.0)[0] == pytest.approx(math.log(k), abs=1e-12)

    def test_two_opposed_negatives(self):
        bank = seen_bank([[1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        loss, _ = one_row_cont([1.0, 0.0], bank, 0, 1.0)
        expect = -math.log(math.e / (math.e + 2.0 / math.e))
        assert loss == pytest.approx(expect, abs=1e-12)
        assert loss == pytest.approx(0.23954, abs=1e-5)

    def test_matches_bruteforce_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            dim = int(rng.integers(2, 17))
            tau = float(rng.uniform(0.2, 5.0))
            cents = unit_rows(rng, k, dim)
            bank = seen_bank(cents)
            f = unit_rows(rng, 1, dim)[0]
            own = int(rng.integers(0, k))
            ours, _ = one_row_cont(f, bank, own, tau)
            assert ours == pytest.approx(
                oracle_contrastive(f, cents, own, tau), abs=1e-10
            )
            assert ours > 0.0

    def test_invariant_under_negative_permutation(self):
        rng = np.random.default_rng(2)
        k, dim = 6, 5
        cents = unit_rows(rng, k, dim)
        f = unit_rows(rng, 1, dim)[0]
        base, _ = one_row_cont(f, seen_bank(cents), 0, 0.7)
        perm = np.concatenate([[0], 1 + rng.permutation(k - 1)])
        permuted, _ = one_row_cont(f, seen_bank(cents[perm]), 0, 0.7)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_large_tau_approaches_log_seen_count(self):
        rng = np.random.default_rng(3)
        for k in (2, 5, 8):
            cents = unit_rows(rng, k, 7)
            bank = seen_bank(cents)
            f = unit_rows(rng, 1, 7)[0]
            loss, _ = one_row_cont(f, bank, 1, 1e6)
            assert loss == pytest.approx(math.log(k), abs=1e-4)

    def test_unseen_classes_excluded_from_negatives(self):
        cents = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        bank = seen_bank(cents, seen=[True, True, False])
        loss, _ = one_row_cont([1.0, 0.0], bank, 0, 1.0)
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)

    def test_non_positive_tau_rejected(self):
        bank = seen_bank([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            one_row_cont([1.0, 0.0], bank, 0, 0.0)


class TestContrastiveGrad:
    def test_equidistant_hand_value(self):
        bank = seen_bank([[1.0, 0.0], [0.0, 1.0]])
        f = np.array([1.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(one_row_cont(f, bank, 0, 1.0)[1], [-0.5, 0.5], atol=1e-12)

    def test_saturated_softmax_gradient_vanishes(self):
        bank = seen_bank([[1.0, 0.0], [-1.0, 0.0]])
        _, grad = one_row_cont([1.0, 0.0], bank, 0, 0.01)
        assert np.linalg.norm(grad) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(100):
            k, dim = 4, 8
            cents = unit_rows(rng, k, dim)
            bank = seen_bank(cents)
            f = unit_rows(rng, 1, dim)[0]
            own = int(rng.integers(0, k))
            tau = float(rng.uniform(0.3, 3.0))
            _, grad = one_row_cont(f, bank, own, tau)
            fd = np.zeros(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (
                    one_row_cont(f + e, bank, own, tau)[0]
                    - one_row_cont(f - e, bank, own, tau)[0]
                ) / (2 * h)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(fd), np.linalg.norm(grad))
            assert rel < 1e-5


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert one_row_ce(np.zeros(4), 2)[0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated_logits_stable(self):
        assert one_row_ce([1000.0, 0.0], 0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        loss, _ = one_row_ce([2.0, 1.0, 0.0], 0)
        expect = -math.log(math.exp(2) / (math.exp(2) + math.e + 1.0))
        assert loss == pytest.approx(expect, abs=1e-12)
        assert loss == pytest.approx(0.40761, abs=1e-5)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            logits = rng.uniform(-20, 20, k)
            label = int(rng.integers(0, k))
            assert one_row_ce(logits, label)[0] == pytest.approx(
                oracle_cross_entropy(logits, label), abs=1e-10
            )

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal(6)
        base, _ = one_row_ce(logits, 3)
        for c in (-50.0, 1e-3, 123.456):
            assert one_row_ce(logits + c, 3)[0] == pytest.approx(base, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            one_row_ce([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            one_row_ce([1.0, math.inf], 0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        logits = rng.standard_normal(5)
        _, grad = one_row_ce(logits, 2)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (one_row_ce(logits + e, 2)[0] - one_row_ce(logits - e, 2)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        p = softmax(rng.uniform(-30, 30, (6, 4)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all()


class TestCombinedLoss:
    def full_setup(self, rng, batch=4, k=3, dim=5):
        cents = unit_rows(rng, k, dim)
        bank = seen_bank(cents)
        feats = unit_rows(rng, batch, dim)
        logits = rng.standard_normal((batch, k))
        labels = rng.integers(0, k, batch)
        return bank, feats, logits, labels

    def test_alpha_zero_is_exactly_mean_ce(self):
        rng = np.random.default_rng(9)
        bank, feats, logits, labels = self.full_setup(rng)
        breakdown = combined_loss(feats, logits, labels, bank, 0.0, 1.0)
        expect = np.array(
            [cross_entropy(logits[i], labels[i]) for i in range(len(labels))]
        ).mean()
        assert breakdown.total == expect
        assert breakdown.cont == 0.0

    def test_single_sample_alpha_one(self):
        rng = np.random.default_rng(10)
        bank, feats, logits, labels = self.full_setup(rng, batch=1)
        breakdown = combined_loss(feats, logits, labels, bank, 1.0, 1.0)
        ce = cross_entropy(logits[0], labels[0])
        cont = contrastive_loss(feats[0], bank, labels[0], 1.0)
        assert breakdown.total == pytest.approx(ce + cont, abs=1e-12)

    def test_batch_of_two_summation_oracle(self):
        rng = np.random.default_rng(11)
        bank, feats, logits, labels = self.full_setup(rng, batch=2)
        alpha = 0.7
        breakdown = combined_loss(feats, logits, labels, bank, alpha, 1.0)
        a = [cross_entropy(logits[i], labels[i]) for i in range(2)]
        b = [contrastive_loss(feats[i], bank, labels[i], 1.0) for i in range(2)]
        assert breakdown.ce == pytest.approx(sum(a) / 2, abs=1e-12)
        assert breakdown.cont == pytest.approx(sum(b) / 2, abs=1e-12)
        assert breakdown.total == pytest.approx(sum(a) / 2 + alpha * sum(b) / 2, abs=1e-12)

    def test_total_identity_holds_bitwise(self):
        rng = np.random.default_rng(12)
        bank, feats, logits, labels = self.full_setup(rng, batch=8)
        for alpha in (0.0, 0.3, 1.0, 2.5):
            breakdown = combined_loss(feats, logits, labels, bank, alpha, 0.9)
            assert breakdown.total == breakdown.ce + alpha * breakdown.cont

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(13)
        bank, feats, logits, labels = self.full_setup(rng, batch=6)
        alphas = [0.0, 0.5, 1.0, 2.0, 4.0]
        totals = [combined_loss(feats, logits, labels, bank, a, 1.0).total for a in alphas]
        assert all(x <= y + 1e-15 for x, y in zip(totals, totals[1:]))

    def test_cold_start_unseen_class_contributes_ce_only(self):
        rng = np.random.default_rng(14)
        cents = unit_rows(rng, 3, 4)
        bank = seen_bank(cents, seen=[True, True, False])
        feats = unit_rows(rng, 2, 4)
        logits = rng.standard_normal((2, 3))
        labels = np.array([0, 2])  # class 2 has no centroid yet
        breakdown, d_feat, _ = combined_loss_and_grads(feats, logits, labels, bank, 1.0, 1.0)
        only_active = contrastive_loss(feats[0], bank, 0, 1.0)
        assert breakdown.cont == pytest.approx(only_active / 2, abs=1e-12)
        np.testing.assert_array_equal(d_feat[1], np.zeros(4))

    def test_empty_bank_degenerates_to_ce(self):
        rng = np.random.default_rng(15)
        bank = init_bank(3, 4, 0.5)
        feats = unit_rows(rng, 3, 4)
        logits = rng.standard_normal((3, 3))
        labels = rng.integers(0, 3, 3)
        breakdown = combined_loss(feats, logits, labels, bank, 1.0, 1.0)
        assert breakdown.cont == 0.0

    def test_gradients_match_per_sample_formulas(self):
        rng = np.random.default_rng(16)
        bank, feats, logits, labels = self.full_setup(rng, batch=5)
        alpha, tau = 1.3, 0.8
        _, d_feat, d_logits = combined_loss_and_grads(feats, logits, labels, bank, alpha, tau)
        batch = len(labels)
        for i in range(batch):
            np.testing.assert_allclose(
                d_feat[i],
                alpha * contrastive_loss_grad(feats[i], bank, labels[i], tau) / batch,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                d_logits[i], cross_entropy_grad(logits[i], labels[i]) / batch, atol=1e-12
            )

    def test_invalid_arguments(self):
        rng = np.random.default_rng(17)
        bank, feats, logits, labels = self.full_setup(rng)
        with pytest.raises(ValueError):
            combined_loss(feats, logits, labels, bank, -0.1, 1.0)
        with pytest.raises(ValueError):
            combined_loss(feats, logits, labels, bank, 1.0, 0.0)
        bad = logits.copy()
        bad[0, 0] = math.nan
        with pytest.raises(ValueError):
            combined_loss(feats, bad, labels, bank, 1.0, 1.0)
