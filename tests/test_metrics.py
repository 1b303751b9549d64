import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cclearn.errors import UndefinedMetricError
from cclearn.losses import softmax
from cclearn.metrics import accuracy, auc_binary, auc_macro_ovr, quadratic_weighted_kappa
from reference import (
    auc_binary_midranks,
    auc_macro_ovr_midranks,
    auc_pair_counts,
    midranks,
    quadratic_weighted_kappa_add_at,
    quadratic_weighted_kappa_loops,
)


class TestKappa:
    def test_perfect_agreement(self):
        y = np.array([0, 1, 2, 1, 0])
        assert quadratic_weighted_kappa(y, y, 3) == 1.0

    def test_total_reversal_is_minus_one(self):
        assert quadratic_weighted_kappa(
            np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0]), 2
        ) == pytest.approx(-1.0, abs=1e-15)

    def test_three_class_hand_case(self):
        y_true = np.array([0, 1, 2, 2])
        y_pred = np.array([0, 2, 2, 1])
        expect = quadratic_weighted_kappa_loops(y_true.tolist(), y_pred.tolist(), 3)
        value = quadratic_weighted_kappa(y_true, y_pred, 3)
        assert value == pytest.approx(expect, abs=1e-15)
        assert value == pytest.approx(7.0 / 11.0, abs=1e-12)

    def test_rater_swap_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 20))
            a = rng.integers(0, k, n)
            b = rng.integers(0, k, n)
            try:
                left = quadratic_weighted_kappa(a, b, k)
            except UndefinedMetricError:
                continue
            assert left == pytest.approx(quadratic_weighted_kappa(b, a, k), abs=1e-12)

    def test_grade_reversal_invariance(self):
        rng = np.random.default_rng(1)
        k = 4
        a = rng.integers(0, k, 30)
        b = rng.integers(0, k, 30)
        base = quadratic_weighted_kappa(a, b, k)
        flipped = quadratic_weighted_kappa(k - 1 - a, k - 1 - b, k)
        assert flipped == pytest.approx(base, abs=1e-12)

    def test_degenerate_identical_single_class(self):
        with pytest.raises(UndefinedMetricError):
            quadratic_weighted_kappa(np.zeros(4, int), np.zeros(4, int), 3)

    def test_disjoint_single_classes_is_zero(self):
        value = quadratic_weighted_kappa(np.zeros(4, int), np.ones(4, int), 2)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_matches_oracle_on_random_labelings(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 30))
            a = rng.integers(0, k, n)
            b = rng.integers(0, k, n)
            expect = quadratic_weighted_kappa_loops(a.tolist(), b.tolist(), k)
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    quadratic_weighted_kappa(a, b, k)
            else:
                assert quadratic_weighted_kappa(a, b, k) == pytest.approx(expect, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_weighted_kappa(np.array([0, 3]), np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            quadratic_weighted_kappa(np.array([0.5]), np.array([0]), 2)
        with pytest.raises(ValueError):
            quadratic_weighted_kappa(np.array([0, 1]), np.array([0]), 2)

    @pytest.mark.parametrize("num_classes", [1, 0, -1])
    def test_fewer_than_two_classes_rejected(self, num_classes):
        with pytest.raises(ValueError, match=f"at least 2 classes, got {num_classes}"):
            quadratic_weighted_kappa(np.array([0, 0]), np.array([0, 0]), num_classes)

    def test_narrow_label_dtypes_do_not_overflow_the_cell_index(self):
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 20, 200), rng.integers(0, 20, 200)
        expect = quadratic_weighted_kappa(a, b, 20)
        assert quadratic_weighted_kappa(a.astype(np.uint8), b.astype(np.int8), 20) == expect


def kappa_outcome(kappa, y_true, y_pred, num_classes):
    try:
        return kappa(y_true, y_pred, num_classes).hex()
    except UndefinedMetricError as exc:
        return str(exc)


@st.composite
def kappa_cases(draw):
    k, n = draw(st.integers(2, 9)), draw(st.integers(1, 300))
    labels = arrays(np.int64, n, elements=st.integers(0, k - 1))
    return draw(labels), draw(labels), k


@settings(max_examples=300, deadline=None)
@given(case=kappa_cases())
def test_kappa_is_bit_equal_to_the_add_at_count(case):
    assert kappa_outcome(quadratic_weighted_kappa, *case) == kappa_outcome(
        quadratic_weighted_kappa_add_at, *case
    )


@pytest.mark.parametrize("seed", range(4))
def test_kappa_is_bit_equal_to_the_add_at_count_at_size(seed):
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(2, 11)), 60000
    y_true = rng.integers(0, k, n)
    y_pred = np.where(rng.random(n) < 0.8, y_true, rng.integers(0, k, n))
    assert quadratic_weighted_kappa(y_true, y_pred, k).hex() == (
        quadratic_weighted_kappa_add_at(y_true, y_pred, k).hex()
    )


class TestAucBinary:
    def test_perfect_separation(self):
        assert auc_binary(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0

    def test_all_ties_is_half(self):
        assert auc_binary(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_worked_pair_counting_case(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert auc_binary(scores, labels) == pytest.approx(0.75, abs=1e-15)

    def test_complement_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.standard_normal(n), 1)  # induce ties
            total = auc_binary(scores, labels) + auc_binary(scores, 1 - labels)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = np.round(rng.standard_normal(25), 1)
        labels = rng.integers(0, 2, 25)
        labels[0], labels[1] = 0, 1
        base = auc_binary(scores, labels)
        assert auc_binary(np.exp(scores), labels) == base
        assert auc_binary(3.0 * scores + 7.0, labels) == base

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, n)
            scores = rng.integers(0, 5, n).astype(float)  # heavy ties
            expect = auc_pair_counts(scores.tolist(), labels.tolist())
            if expect is None:
                with pytest.raises(UndefinedMetricError):
                    auc_binary(scores, labels)
            else:
                assert auc_binary(scores, labels) == pytest.approx(expect, abs=1e-12)

    def test_midranks_match_the_tie_walking_loop_bit_for_bit(self):
        def loop_midranks(values):
            order = np.argsort(values, kind="stable")
            ranks = np.empty(values.size, dtype=np.float64)
            sorted_vals = values[order]
            i = 0
            while i < values.size:
                j = i
                while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(9)
        cases = [np.array([0.0, -0.0, 0.0]), np.ones(5), np.array([2.0])]
        for _ in range(300):
            n = int(rng.integers(1, 300))
            cases.append(rng.integers(0, int(rng.integers(1, 12)), n) * rng.choice([0.1, -1.0]))
            cases.append(rng.standard_normal(n))
        for values in cases:
            ours, loop = midranks(values), loop_midranks(values)
            assert np.array_equal(ours.view(np.uint64), loop.view(np.uint64))

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc_binary(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_binary(np.array([0.1, math.nan]), np.array([0, 1]))
        with pytest.raises(ValueError):
            auc_binary(np.array([0.1, 0.2]), np.array([0, 2]))


class TestAucMacroOvr:
    def test_one_hot_match_is_one(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        probs = np.eye(3)[labels]
        macro, per_class = auc_macro_ovr(probs, labels)
        assert macro == 1.0
        np.testing.assert_array_equal(per_class, np.ones(3))

    def test_uniform_probabilities_are_half(self):
        labels = np.array([0, 1, 2, 0])
        probs = np.full((4, 3), 1.0 / 3.0)
        macro, per_class = auc_macro_ovr(probs, labels)
        assert macro == 0.5
        np.testing.assert_array_equal(per_class, [0.5, 0.5, 0.5])

    def test_crafted_case_matches_pair_oracle(self):
        rng = np.random.default_rng(6)
        labels = np.array([0, 0, 1, 1, 2, 2])
        logits = rng.standard_normal((6, 3))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        macro, per_class = auc_macro_ovr(probs, labels)
        expect = [
            auc_pair_counts(probs[:, k].tolist(), (labels == k).astype(int).tolist())
            for k in range(3)
        ]
        np.testing.assert_allclose(per_class, expect, atol=1e-12)
        assert macro == pytest.approx(np.mean(expect), abs=1e-12)

    def test_absent_class_flagged_and_excluded(self):
        labels = np.array([0, 1, 0, 1])
        probs = np.full((4, 3), 1.0 / 3.0)
        macro, per_class = auc_macro_ovr(probs, labels)
        assert math.isnan(per_class[2])
        assert macro == 0.5

    def test_fewer_than_two_usable_is_undefined(self):
        labels = np.zeros(4, dtype=int)
        probs = np.full((4, 2), 0.5)
        with pytest.raises(UndefinedMetricError):
            auc_macro_ovr(probs, labels)

    def test_row_validation(self):
        labels = np.array([0, 1])
        with pytest.raises(ValueError):
            auc_macro_ovr(np.array([[0.9, 0.9], [0.1, 0.1]]), labels)
        with pytest.raises(ValueError):
            auc_macro_ovr(np.array([[-0.1, 1.1], [0.5, 0.5]]), labels)


def auc_outcome(auc, *args):
    """The float bits an AUC function returns (the macro and the per-class
    vector for ``auc_macro_ovr``), or the type and message of what it raised."""
    try:
        value = auc(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(value, tuple):
        return value[0].hex(), value[1].tobytes()
    return value.hex()


@st.composite
def score_arrays(draw, shape):
    """Scores with heavy ties: quantised, all equal, +-0 mixed, or any floats."""
    kind = draw(st.sampled_from(["quantised", "equal", "signed_zero", "float"]))
    if kind == "equal":
        return np.full(shape, draw(st.floats(0, 1)))
    elements = {
        "quantised": st.integers(0, 3).map(lambda v: v * 0.25),
        "signed_zero": st.sampled_from([0.0, -0.0, 0.5]),
        "float": st.floats(0, 1e3),
    }[kind]
    return draw(arrays(np.float64, shape, elements=elements))


@st.composite
def binary_cases(draw):
    n = draw(st.integers(1, 80))
    n_pos = draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(0, n))
    labels = np.zeros(n, np.int64)
    labels[draw(st.permutations(range(n)))[:n_pos]] = 1
    negate = draw(arrays(np.bool_, n))
    return np.where(negate, -1.0, 1.0) * draw(score_arrays(n)), labels


@st.composite
def macro_cases(draw):
    k, n = draw(st.integers(2, 6)), draw(st.integers(1, 60))
    # classes outside ``present`` are absent from the labels
    present = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    labels = draw(arrays(np.int64, n, elements=st.sampled_from(present)))
    weights = draw(score_arrays((n, k)))
    weights[weights.sum(axis=1) == 0] = 1.0
    probabilities = weights / weights.sum(axis=1, keepdims=True)
    probabilities[(probabilities == 0) & draw(arrays(np.bool_, (n, k)))] = -0.0
    return probabilities, labels


@settings(max_examples=300, deadline=None)
@given(case=binary_cases())
def test_auc_binary_is_bit_equal_to_the_midrank_sum(case):
    assert auc_outcome(auc_binary, *case) == auc_outcome(auc_binary_midranks, *case)


@settings(max_examples=300, deadline=None)
@given(case=macro_cases())
def test_auc_macro_ovr_is_bit_equal_to_the_midrank_sums(case):
    assert auc_outcome(auc_macro_ovr, *case) == auc_outcome(auc_macro_ovr_midranks, *case)


def test_auc_macro_ovr_is_bit_equal_to_the_midrank_sums_at_size():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 10, 50000)
    probabilities = softmax(3.0 * rng.standard_normal((50000, 10)) + 2.0 * np.eye(10)[labels])
    assert auc_outcome(auc_macro_ovr, probabilities, labels) == auc_outcome(
        auc_macro_ovr_midranks, probabilities, labels
    )


@pytest.mark.parametrize("auc, oracle, args", [
    (auc_binary, auc_binary_midranks, ([0.1, math.nan], [0, 1])),
    (auc_binary, auc_binary_midranks, ([0.1, -math.inf], [0, 1])),
    (auc_binary, auc_binary_midranks, ([0.1, 0.2], [0, 2])),
    (auc_binary, auc_binary_midranks, ([0.1, 0.2], [0, 1, 1])),
    (auc_binary, auc_binary_midranks, ([[0.1, 0.2]], [[0, 1]])),
    (auc_binary, auc_binary_midranks, ([0.1, 0.2], [1, 1])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[0.9, 0.9], [0.1, 0.1]], [0, 1])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[-0.1, 1.1], [0.5, 0.5]], [0, 1])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[math.inf, 0.0], [0.5, 0.5]], [0, 1])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[math.nan, 1.0], [0.5, 0.5]], [0, 1])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([0.5, 0.5], [0, 1])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[0.5, 0.5], [0.5, 0.5]], [0, 2])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[0.5, 0.5], [0.5, 0.5]], [0])),
    (auc_macro_ovr, auc_macro_ovr_midranks, ([[0.5, 0.5], [0.5, 0.5]], [1, 1])),
])
def test_refused_inputs_raise_what_the_midrank_oracle_raises(auc, oracle, args):
    args = [np.array(a) for a in args]
    refused = auc_outcome(oracle, *args)
    assert isinstance(refused, tuple) and isinstance(refused[0], type)
    assert auc_outcome(auc, *args) == refused


def test_a_nan_probability_is_refused_in_an_absent_class_too():
    probabilities = np.array([[0.5, 0.5, math.nan], [0.5, 0.5, math.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        auc_macro_ovr(probabilities, np.array([0, 1]))


class TestExhaustiveSmall:
    """Spot the implementation against full enumeration at tiny sizes.

    The acceptance suite runs the heavier sweeps; this keeps the module test
    fast while still enumerating every K=2 labeling pair up to N=5.
    """

    def test_kappa_full_enumeration_k2_n_to_5(self):
        for n in range(1, 6):
            for a in itertools.product(range(2), repeat=n):
                for b in itertools.product(range(2), repeat=n):
                    expect = quadratic_weighted_kappa_loops(list(a), list(b), 2)
                    ya, yb = np.array(a), np.array(b)
                    if expect is None:
                        with pytest.raises(UndefinedMetricError):
                            quadratic_weighted_kappa(ya, yb, 2)
                    else:
                        assert quadratic_weighted_kappa(ya, yb, 2) == pytest.approx(
                            expect, abs=1e-12
                        )

    def test_auc_full_enumeration_three_level_scores(self):
        for n in range(2, 5):
            for labels in itertools.product(range(2), repeat=n):
                if sum(labels) in (0, n):
                    continue
                for scores in itertools.product((0.0, 0.5, 1.0), repeat=n):
                    expect = auc_pair_counts(list(scores), list(labels))
                    got = auc_binary(np.array(scores), np.array(labels))
                    assert got == pytest.approx(expect, abs=1e-12)


def test_accuracy_basics():
    assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy(np.array([1]), np.array([1, 2]))
