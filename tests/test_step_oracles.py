"""The step functions' whole-array paths against the gathering oracles.

Once every class is seen, or the batch holds every class, ``row_norms``,
the contrast branch of ``combined_loss_and_grads``, ``batch_class_means``
and ``ema_update`` skip gathers that are identities and test each refusal
with one combined condition. These tests hold them to the bits, exception
types and messages of ``tests/reference.py``'s gathering versions.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclearn.centroids import CentroidBank, batch_class_means, ema_update, row_norms
from cclearn.losses import _nll_and_softmax, combined_loss_and_grads
from cclearn.metrics import quadratic_weighted_kappa
from reference import (
    batch_class_means_masked,
    contrast_branch_gathered,
    ema_update_gathered,
    row_norms_flatnonzero,
    unit_rows,
)

# a value written into one row: a near-zero row (all of it), a finite entry
# whose square overflows, and non-finite entries
FAULTS = {"tiny": 1e-170, "huge": 1e200, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def inject(x, row, fault, rng):
    if fault == "tiny":
        x[row] = FAULTS[fault]
    else:
        x[row, rng.integers(x.shape[1])] = FAULTS[fault]


def layout(x, order):
    """``x``'s values in a C-ordered, Fortran-ordered or strided array."""
    if order == "F":
        return np.asfortranarray(x)
    if order == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return x


@st.composite
def step_cases(draw):
    """A bank with no, some or every class seen, and a batch that holds every
    class or lacks some."""
    classes, dim, batch = draw(st.integers(2, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seen = {"none": np.zeros(classes, bool), "all": np.ones(classes, bool),
            "some": rng.random(classes) < 0.5}[draw(st.sampled_from(["none", "some", "all"]))]
    bank = CentroidBank(classes, dim, 0.5)
    bank.m = draw(st.floats(0.0, 1.0, exclude_max=True))
    bank.seen = seen
    bank.centroids[seen] = unit_rows(rng, int(seen.sum()), dim)
    present = np.arange(classes)
    if draw(st.booleans()):  # a batch that may lack classes
        present = rng.choice(classes, size=int(rng.integers(1, classes + 1)), replace=False)
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    labels = rng.choice(present, size=batch).astype(dtype)
    features = layout(unit_rows(rng, batch, dim), draw(st.sampled_from(["C", "F", "strided"])))
    return bank, features, labels, rng


def outcome(fn, *args):
    """The bytes of every array ``fn`` returns, or its exception type and message."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = fn(*args)
        except ValueError as exc:  # DegenerateVectorError among them
            return type(exc), str(exc)
    out = out if isinstance(out, tuple) else (out,)
    return [(type(a), np.asarray(a).dtype, np.asarray(a).shape, np.asarray(a).tobytes()) for a in out]


@settings(max_examples=300, deadline=None)
@given(case=step_cases(), fault=st.sampled_from([None, *FAULTS]), scale=st.sampled_from([1.0, 1e-13]),
       dtype=st.sampled_from([np.float64, np.int64, np.int32]))
def test_row_norms_match_the_oracle(case, fault, scale, dtype):
    """Integer rows are normed as float64, as ``np.linalg.norm`` norms them:
    near half the dtype's largest value their squares would wrap around."""
    _, features, _, rng = case
    if dtype is np.float64:
        x = features * scale  # 1e-13: every unit row is near zero
        if fault is not None:
            inject(x, rng.integers(x.shape[0]), fault, rng)
    else:  # 1e-13: int32 rows are all zero, int64 entries reach about 5e5
        x = np.rint(features * (scale * (np.iinfo(dtype).max // 2))).astype(dtype)
    assert outcome(row_norms, x) == outcome(row_norms_flatnonzero, x)


@pytest.mark.parametrize("x", [np.array([[2**32, 0]]), np.full((1, 3), 50000, dtype=np.int32)])
def test_integer_rows_are_normed_as_floats(x):
    assert row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=step_cases())
def test_batch_class_means_match_the_oracle(case):
    bank, features, labels, _ = case
    k = bank.num_classes
    assert outcome(batch_class_means, features, labels, k) == outcome(
        batch_class_means_masked, features, labels, k)


def bank_outcome(update, bank, f_mean, mask):
    bank = copy.deepcopy(bank)
    result = outcome(lambda: update(bank, f_mean, mask).seen)
    return result, bank.centroids.tobytes(), bank.seen.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=step_cases(), fault=st.sampled_from([None, *FAULTS, "cancel"]), masked=st.booleans())
def test_ema_update_matches_the_oracle(case, fault, masked):
    """A fault in a masked row is refused with the oracle's error and leaves
    the bank as it was; in an unmasked row it is ignored."""
    bank, features, labels, rng = case
    f_mean, mask = batch_class_means_masked(features, labels, bank.num_classes)
    if fault is not None:
        k = rng.choice(np.flatnonzero(mask == masked)) if (mask == masked).any() else 0
        if fault == "cancel":  # a blend that collapses, or nearly
            f_mean[k] = -bank.centroids[k] * (bank.m / (1.0 - bank.m))
        else:
            inject(f_mean, k, fault, rng)
    assert bank_outcome(ema_update, bank, f_mean, mask) == bank_outcome(
        ema_update_gathered, bank, f_mean, mask)


@settings(max_examples=300, deadline=None)
@given(case=step_cases(), alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       tau=st.sampled_from([0.1, 1.0]))
def test_contrast_branch_matches_the_oracle(case, alpha, tau):
    bank, features, labels, rng = case
    logits = 3.0 * rng.standard_normal((features.shape[0], bank.num_classes))
    breakdown, d_features, _ = combined_loss_and_grads(features, logits, labels, bank, alpha, tau)
    cont, expected = contrast_branch_gathered(features, labels, bank, alpha, tau)
    assert (breakdown.cont, d_features.tobytes()) == (cont, expected.tobytes())
    assert breakdown.ce == float(_nll_and_softmax(logits, labels)[0].mean())


def test_ufunc_row_norms_are_the_bits_of_linalg_norm():
    """``row_norms`` sums the squares as ``np.linalg.norm(x, axis=1)`` does for
    real input; this holds on the oldest numpy the package supports too."""
    rng = np.random.default_rng(15)
    x = rng.standard_normal((257, 33)) * np.exp(rng.uniform(-20, 20, (257, 1)))
    assert row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


@pytest.mark.parametrize("call", [
    lambda y: batch_class_means(np.eye(3), y, 2),
    lambda y: quadratic_weighted_kappa(y, y, 2),
    lambda y: combined_loss_and_grads(np.eye(3), np.zeros((3, 2)), y, CentroidBank(2, 3, 0.5), 1.0, 1.0),
], ids=["batch_class_means", "quadratic_weighted_kappa", "combined_loss_and_grads"])
def test_timedelta_labels_are_refused_as_non_integers(call):
    with pytest.raises(ValueError, match=r"labels must be integers, got dtype timedelta64\[s\]|"
                                         r"y_true must be integers, got dtype timedelta64\[s\]"):
        call(np.array([0, 1, 1], dtype="m8[s]"))
