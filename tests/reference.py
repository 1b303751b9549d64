"""Reference implementations that the tests compare the package against.

The per-sample losses spell out the objective one sample at a time; the
package computes it only in batch form (``combined_loss_and_grads``). The
per-class ``ema_update_loop`` is the EMA update the package computes with
array operations. ``class_centroid_heatmap_loop`` takes one masked mean per
class where the package reuses ``batch_class_means``, and
``quadratic_weighted_kappa_add_at`` counts the confusion matrix with
``np.add.at`` where the package takes one ``np.bincount``.
``auc_binary_midranks`` sums the midranks of the positives (a stable argsort
of all scores, then a rank scatter), and ``auc_macro_ovr_midranks`` calls it
once per class with all its checks, where the package counts the negatives
below each positive in one sort of the negative scores. ``write_rows``
formats each cell with Python's % operator or ``str`` where the codec
renders %.17g cells with array arithmetic, and ``digits_two_words`` takes
the 17 digits of a cell from a two-word uint64 product of the float's
significand and 5**k, where the codec takes them from an exact float64
two-product.
``forward_keeping_pre_activations`` and ``backward_from_pre_activations``
build three arrays per layer and keep each pre-activation for the ReLU
mask, where the package builds one buffer per layer and takes the mask from
the ReLU output. ``backward_through_the_jacobian`` is ``model.backward``'s
body as it stood before the package skipped the normalization Jacobian for
a ``d_normalized`` of +0.0 entries: it computes the Jacobian's term for every
input and builds a new ``Gradients`` on every call.
``generate_domains_expression`` applies the synthetic scale, affine map and
noise as whole-array expressions where the package applies them in place and adds each class mean to its
block of rows; it takes the class counts, the rotation and the translation
from this module, not from the package, and rotates one plane at a time in a
Python loop, from its own permutation draw, where the package rotates every
plane of a block of rows at once. ``rotation_matrix_givens`` builds the
rotation as a product of one dense Givens matrix per plane, the oracle of the
planes that ``rotation_planes`` returns. ``translation_vector`` is the
package's translation, copied. ``feature_spread_expression`` squares a
second copy of the centered features where the package squares them in
place.
``row_norms_flatnonzero``, ``contrast_branch_gathered``,
``batch_class_means_masked`` and ``ema_update_gathered`` take
``np.linalg.norm``, run ``np.flatnonzero`` before each refusal and gather the
seen or masked rows on every call, where the package sums the squares with
``np.add.reduce``, tests one combined condition per refusal and skips the
gathers once they are identities (every class seen, or every class in the
batch). ``synth_config_validate`` and ``train_config_validate`` are the two
configs' hand-written ``validate`` bodies, with their helpers
``require_numbers``, ``require_at_least`` and ``class_counts``, where the
package reads one rule per field from the field's ``key``; they take the
config as ``self``. Each is kept here exactly as it first shipped, or, for
the four fast paths, the config checks and the rotation, as it stood before
them, except that ``class_counts`` lists a shared count once rather than
once per class, that ``synth_config_validate`` also refuses a table (rows x
input_dim) or class means (num_classes x input_dim) of more than 2**31
cells, that ``rotation_matrix_givens`` and ``translation_vector`` drop
the package's names, and that, since the package rotates with ufuncs and no
BLAS call, ``generate_domains_expression`` rotates plane by plane, not by a
dense matrix product, and ``translation_vector`` takes its norm with
``np.add.reduce``, not ``np.linalg.norm``, and no longer special-cases a
translation of 0, and that, since the package takes the blend norms of
``ema_update`` as a ufunc sum with no BLAS call, ``ema_update_loop`` takes
each blended row's norm as ``np.sqrt(np.add.reduce(b * b))``, not
``np.linalg.norm``'s dot product, and ``ema_update_gathered`` takes the same
with ``axis=1``, not a stacked ``@``; the two stay a per-class loop and a
gathered form.

``cross_entropy_unshifted`` and ``contrastive_loss_unshifted`` take plain
exponential sums with no maximum subtracted, where ``cross_entropy`` and
``contrastive_loss`` shift first; ``quadratic_weighted_kappa_loops`` counts
the confusion matrix and its weights in Python loops, and ``auc_pair_counts``
compares every positive with every negative, ties worth one half. They take
Python lists of labels and scores. ``unit_rows`` and ``seen_bank`` build the
unit rows and the banks with every class seen that the tests feed to both
sides.
"""

from __future__ import annotations

import io
import math
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from cclearn.centroids import NORM_EPS, CentroidBank, ema_update, row_norms
from cclearn.data import _STREAM_AFFINE, _STREAM_BASE, SynthConfig, check_labels
from cclearn.diagnostics import HeatmapMatrix
from cclearn.errors import DegenerateVectorError, StateError, UndefinedMetricError
from cclearn.losses import _nll_and_softmax, softmax
from cclearn.model import Gradients


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` standard normal rows of length ``dim``, each divided by its norm."""
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def seen_bank(rows, seen=None, m: float = 0.0) -> CentroidBank:
    """A bank that has adopted ``rows`` as the centroids of the classes in
    ``seen`` (every class by default), with smoothing ``m`` set afterwards."""
    rows = np.asarray(rows, dtype=np.float64)
    bank = CentroidBank(rows.shape[0], rows.shape[1], 0.0)
    ema_update(bank, rows, np.ones(rows.shape[0], dtype=bool) if seen is None else np.asarray(seen))
    bank.m = m
    return bank


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """Negative log softmax probability of ``label``, max-subtracted for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite values")
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range [0, {logits.shape[0]})")
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[label])


def cross_entropy_unshifted(logits, label: int) -> float:
    """-log of ``label``'s share of the plain exponential sum of ``logits``."""
    terms = [math.exp(float(v)) for v in logits]
    return -math.log(terms[label] / sum(terms))


def cross_entropy_grad(logits: np.ndarray, label: int) -> np.ndarray:
    """d cross_entropy / d logits = softmax(logits) - onehot(label)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite values")
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range [0, {logits.shape[0]})")
    grad = softmax(logits)
    grad[label] -= 1.0
    return grad


def _contrast_context(bank: CentroidBank, own_class: int, tau: float):
    """Validated (seen indices, seen centroids, position of own class)."""
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    own_class = int(own_class)
    if not 0 <= own_class < bank.num_classes:
        raise ValueError(f"own_class {own_class} out of range [0, {bank.num_classes})")
    if not bank.seen[own_class]:
        raise StateError(f"class {own_class} has no centroid yet")
    seen_idx = np.flatnonzero(bank.seen)
    if seen_idx.size < 2:
        raise StateError("contrast needs at least one seen negative class")
    own_pos = int(np.searchsorted(seen_idx, own_class))
    return seen_idx, bank.centroids[seen_idx], own_pos


def contrastive_loss(f: np.ndarray, bank: CentroidBank, own_class: int, tau: float) -> float:
    """Centroid-contrast loss of a single unit feature vector."""
    f = np.asarray(f, dtype=np.float64)
    _, cents, own_pos = _contrast_context(bank, own_class, tau)
    sims = cents @ f / tau
    shifted = sims - sims.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[own_pos])


def contrastive_loss_unshifted(f, centroids, own_pos: int, tau: float) -> float:
    """-log of the own centroid's share of the plain sum of exp(f . c / tau)."""
    terms = [math.exp(float(np.dot(f, c)) / tau) for c in centroids]
    return -math.log(terms[own_pos] / sum(terms))


def contrastive_loss_grad(
    f: np.ndarray, bank: CentroidBank, own_class: int, tau: float
) -> np.ndarray:
    """Gradient of contrastive_loss with respect to f (normalization chain
    rule not included): (1/tau) * (sum_k p_k c_k - c+), softmax p over seen
    classes at temperature tau."""
    f = np.asarray(f, dtype=np.float64)
    _, cents, own_pos = _contrast_context(bank, own_class, tau)
    p = softmax(cents @ f / tau)
    return (p @ cents - cents[own_pos]) / tau


def ema_update_loop(bank: CentroidBank, f_mean: np.ndarray, mask: np.ndarray) -> CentroidBank:
    """Fold per-class batch means into the bank.

    Seen classes blend, c <- m*c + (1-m)*f_mean, then renormalize; classes
    seen for the first time adopt the normalized mean directly. Classes not
    in the mask are untouched. The update is atomic: validation failures
    leave the bank unchanged.
    """
    f_mean = np.asarray(f_mean, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if f_mean.shape != bank.centroids.shape:
        raise ValueError(
            f"f_mean shape {f_mean.shape} does not match bank shape {bank.centroids.shape}"
        )
    if mask.shape != (bank.num_classes,):
        raise ValueError(f"mask shape {mask.shape} does not match K={bank.num_classes}")

    mean_norms = np.linalg.norm(f_mean, axis=1)
    bad = np.flatnonzero(mask & (mean_norms < NORM_EPS))
    if bad.size:
        raise DegenerateVectorError(
            f"masked f_mean row(s) {bad.tolist()} have near-zero norm"
        )
    updated = {}
    for k in np.flatnonzero(mask):
        if bank.seen[k]:
            blended = bank.m * bank.centroids[k] + (1.0 - bank.m) * f_mean[k]
        else:
            blended = f_mean[k]
        norm = float(np.sqrt(np.add.reduce(blended * blended)))
        if norm < NORM_EPS:
            raise DegenerateVectorError(
                f"class {k} blend collapses to norm {norm:.3e}; refusing EMA update"
            )
        updated[int(k)] = blended / norm
    for k, row in updated.items():
        bank.centroids[k] = row
        bank.seen[k] = True
    return bank


def class_centroid_heatmap_loop(
    features: np.ndarray, labels: np.ndarray, bank: CentroidBank
) -> HeatmapMatrix:
    """Mean cosine similarity of each class's (unit) features to every centroid."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[1] != bank.feature_dim:
        raise ValueError(
            f"features shape {features.shape} does not match bank dim {bank.feature_dim}"
        )
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must have one entry per feature row")
    num_classes = bank.num_classes
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    unseen = np.unique(labels[~bank.seen[labels]])
    if unseen.size:
        raise StateError(f"class(es) {unseen.tolist()} have no centroid in the bank")
    sims = features @ bank.centroids.T
    values = np.full((num_classes, num_classes), np.nan)
    counts = np.bincount(labels, minlength=num_classes)
    for k in range(num_classes):
        if counts[k]:
            values[k] = sims[labels == k].mean(axis=0)
    return HeatmapMatrix(values, counts, counts == 0)


def _check_labels(y: np.ndarray, num_classes: int, what: str) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or y.size < 1:
        raise ValueError(f"{what} must be a non-empty 1-D array")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {y.dtype}")
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(f"{what} must lie in [0, {num_classes})")
    return y


def quadratic_weighted_kappa_add_at(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int
) -> float:
    """1 - (sum w*O) / (sum w*E): 1 at perfect agreement, 0 at chance level."""
    if num_classes < 2:
        raise ValueError(f"kappa needs at least 2 classes, got {num_classes}")
    y_true = _check_labels(y_true, num_classes, "y_true")
    y_pred = _check_labels(y_pred, num_classes, "y_pred")
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    n = y_true.size
    observed = np.zeros((num_classes, num_classes))
    np.add.at(observed, (y_true, y_pred), 1.0)
    expected = np.outer(np.bincount(y_true, minlength=num_classes),
                        np.bincount(y_pred, minlength=num_classes)) / n
    grid = np.arange(num_classes)
    weights = (grid[:, None] - grid[None, :]) ** 2 / (num_classes - 1) ** 2
    denom = float((weights * expected).sum())
    if denom == 0.0:
        raise UndefinedMetricError(
            "kappa undefined: both label sets are concentrated on one identical class"
        )
    return 1.0 - float((weights * observed).sum()) / denom


def quadratic_weighted_kappa_loops(y_true: list, y_pred: list, k: int) -> float | None:
    """Quadratic weighted kappa of two label lists from a confusion matrix
    counted in Python loops; None where it is undefined."""
    n = len(y_true)
    observed = [[0.0] * k for _ in range(k)]
    for t, p in zip(y_true, y_pred):
        observed[t][p] += 1.0
    count_t = [y_true.count(i) for i in range(k)]
    count_p = [y_pred.count(j) for j in range(k)]
    num = den = 0.0
    for i in range(k):
        for j in range(k):
            w = (i - j) ** 2 / (k - 1) ** 2
            num += w * observed[i][j]
            den += w * count_t[i] * count_p[j] / n
    return None if den == 0.0 else 1.0 - num / den


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of their group."""
    order = values.argsort(kind="stable")
    sorted_vals = values[order]
    # a tie group at sorted positions i..j spans searchsorted left i, right j+1,
    # and its midrank 0.5 * (i + j) + 1 is exactly (i + (j + 1) + 1) * 0.5
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = (
        sorted_vals.searchsorted(sorted_vals, "left")
        + sorted_vals.searchsorted(sorted_vals, "right")
        + 1
    ) * 0.5
    return ranks


def auc_binary_midranks(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC of scores against binary labels, ties worth 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be matching 1-D arrays")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined: need at least one positive and one negative")
    ranks = midranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_pair_counts(scores: list, labels: list) -> float | None:
    """The share of (positive, negative) pairs that the positive wins, ties
    worth one half; None without a positive or a negative."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def auc_macro_ovr_midranks(
    probabilities: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """One-vs-rest AUC per class (NaN where a class is absent or has no
    negatives) and the mean over the other classes."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    if probabilities.ndim != 2:
        raise ValueError(f"probabilities must be 2-D, got shape {probabilities.shape}")
    n, num_classes = probabilities.shape
    check_labels(labels, num_classes, "labels", n)
    if (probabilities < 0).any() or np.abs(probabilities.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError("rows of probabilities must be probability vectors")
    per_class = np.full(num_classes, np.nan)
    for k in range(num_classes):
        indicator = (labels == k).astype(np.int64)
        if indicator.sum() == 0 or indicator.sum() == n:
            continue
        per_class[k] = auc_binary_midranks(probabilities[:, k], indicator)
    usable = ~np.isnan(per_class)
    if usable.sum() < 2:
        raise UndefinedMetricError(
            f"macro AUC undefined: only {int(usable.sum())} usable class(es)"
        )
    return float(per_class[usable].mean()), per_class


def write_rows(fh, sep: str, end: str, *columns) -> None:
    """Write each row's cells joined by ``sep``, then ``end``, one row at a
    time through Python's formatter: ``"%.17g" % v`` for a float cell,
    ``str(v)`` for any other. A column is a 1-D sequence (one cell per row),
    a 2-D one (a run of cells per row) or a str (the same cell in every
    row). A binary ``fh`` gets the UTF-8 bytes."""
    n = len(next(c for c in columns if not isinstance(c, str)))
    for start in range(0, n, 2048):
        rows = min(2048, n - start)
        block = np.hstack([
            np.array([[c]] * rows, dtype=object) if isinstance(c, str)  # np.full would strip a trailing NUL
            else np.asarray(c[start : start + rows]).reshape(rows, -1).astype(object) for c in columns
        ])
        text = "".join([
            sep.join(["%.17g" % v if isinstance(v, float) else str(v) for v in row]) + end
            for row in block.tolist()
        ])
        fh.write(text if isinstance(fh, io.TextIOBase) else text.encode())


_POW5 = np.array([5**k for k in range(21)], np.uint64)
_U = np.uint64


def digits_two_words(bits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """v * 10**k rounded half to even, as int64, for the doubles v of
    ``bits`` and the k in [2, 20] that put v * 10**k in [10**16, 10**17).

    As in Ryu printf (Adams, OOPSLA 2019): v = m * 2**e, so the product is
    m * 5**k / 2**s with s = -(e + k), which lies in [1, 63] here. m * 5**k
    has at most 100 bits, held in two uint64 words.
    """
    s = (1075 - (bits >> _U(52)).astype(np.intp) - k).astype(np.uint64)
    m = (bits & _U(2**52 - 1)) | _U(2**52)
    f = _POW5[k]
    m_hi, m_lo, f_hi, f_lo = m >> _U(32), m & _U(2**32 - 1), f >> _U(32), f & _U(2**32 - 1)
    low = m_lo * f_lo
    mid = m_hi * f_lo + m_lo * f_hi
    carry = (low >> _U(32)) + (mid & _U(2**32 - 1))
    lo = (low & _U(2**32 - 1)) | (carry << _U(32))
    hi = m_hi * f_hi + (mid >> _U(32)) + (carry >> _U(32))
    q = (hi << (_U(64) - s)) | (lo >> s)
    dropped = lo & ((_U(1) << s) - _U(1))
    half = _U(1) << (s - _U(1))
    q += (dropped > half) | ((dropped == half) & (q & _U(1)).astype(bool))
    return q.astype(np.intp)


def forward_keeping_pre_activations(params, x: np.ndarray):
    """(raw, normalized, logits, norms, layer_inputs, pre_activations) of one
    forward pass: ``a @ w + b`` then ``np.maximum`` per hidden layer."""
    last = len(params.weights) - 1
    layer_inputs = [x]
    pre_activations = []
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        pre_activations.append(z)
        a = np.maximum(z, 0.0) if i < last else z
        if i < last:
            layer_inputs.append(a)
    raw = a
    norms = row_norms(raw)
    normalized = raw / norms[:, None]
    logits = raw @ params.head_weight + params.head_bias
    return raw, normalized, logits, norms, layer_inputs, pre_activations


def backward_from_pre_activations(params, x, d_normalized, d_logits) -> list[np.ndarray]:
    """Every parameter gradient of ``forward_keeping_pre_activations`` at
    ``x``, masking each hidden ReLU by its pre-activation: backbone weights,
    backbone biases, head weight, head bias."""
    raw, fhat, _, norms, layer_inputs, pre_activations = forward_keeping_pre_activations(params, x)
    inner = (fhat * d_normalized).sum(axis=1, keepdims=True)
    d_raw = (d_normalized - inner * fhat) / norms[:, None]
    d_raw = d_raw + d_logits @ params.head_weight.T
    g_weights = [None] * len(params.weights)
    g_biases = [None] * len(params.weights)
    upstream = d_raw
    for i in range(len(params.weights) - 1, -1, -1):
        if i < len(params.weights) - 1:
            upstream = upstream * (pre_activations[i] > 0.0)
        g_weights[i] = layer_inputs[i].T @ upstream
        g_biases[i] = upstream.sum(axis=0)
        if i > 0:
            upstream = upstream @ params.weights[i].T
    return [*g_weights, *g_biases, raw.T @ d_logits, d_logits.sum(axis=0)]


def backward_through_the_jacobian(params, cache, d_normalized, d_logits) -> Gradients:
    """Every parameter gradient from the two branch gradients of ``forward``'s
    ``cache``, the normalization Jacobian's term computed for every input."""
    fhat = cache.normalized
    inner = np.add.reduce(fhat * d_normalized, axis=1, keepdims=True)
    d_raw = (d_normalized - inner * fhat) / cache.norms[:, None]
    d_raw = d_raw + d_logits @ params.head_weight.T

    grads = Gradients.zeros(params.shapes)
    np.matmul(cache.layer_inputs[-1].T, d_logits, out=grads.head_weight)
    np.add.reduce(d_logits, axis=0, out=grads.head_bias)
    upstream = d_raw
    for i in range(len(params.weights) - 1, -1, -1):
        if i < len(params.weights) - 1:
            upstream = upstream * (cache.layer_inputs[i + 1] > 0.0)
        np.matmul(cache.layer_inputs[i].T, upstream, out=grads.weights[i])
        np.add.reduce(upstream, axis=0, out=grads.biases[i])
        if i > 0:
            upstream = upstream @ params.weights[i].T
    return grads


def generate_domains_expression(config: SynthConfig, domain: str) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of ``domain`` from the same draws as
    ``generate_domains``, each step a new whole array."""
    counts = config.samples_per_class
    if not isinstance(counts, (tuple, list)):
        counts = (counts,) * config.num_classes
    total = sum(counts)
    rng = np.random.default_rng([config.seed, _STREAM_BASE])
    mean_dirs = rng.standard_normal((config.num_classes, config.input_dim))
    mean_dirs /= np.linalg.norm(mean_dirs, axis=1, keepdims=True)
    means = config.spread * mean_dirs
    deviations = rng.standard_normal((total, config.input_dim))
    noise = rng.standard_normal((total, config.input_dim))

    labels = np.repeat(np.arange(config.num_classes), counts)
    x = means[labels] + config.class_std * deviations
    if domain == "source":
        x = x + config.source_noise_std * noise
    else:
        perm = np.random.default_rng([config.seed, _STREAM_AFFINE, 0]).permutation(config.input_dim)
        angles = config.rotation_angle
        if np.isscalar(angles):
            angles = [angles] * (config.input_dim // 2)
        rotated = x.copy()
        for p, theta in enumerate(angles):
            i, j = perm[2 * p], perm[2 * p + 1]
            c, s = math.cos(theta), math.sin(theta)
            rotated[:, i] = x[:, i] * c - x[:, j] * s
            rotated[:, j] = x[:, i] * s + x[:, j] * c
        x = config.scale * rotated + translation_vector(config)
        x = x + config.target_noise_std * noise
    return x, labels


def rotation_matrix_givens(dim: int, angles: float | Sequence[float], seed_key: Sequence[int]) -> np.ndarray:
    """Orthogonal matrix from Givens rotations on seeded disjoint axis pairs.

    ``angles`` is one angle shared by all floor(dim/2) planes or one angle per
    plane. Angle 0 yields the exact identity.
    """
    rng = np.random.default_rng(list(seed_key))
    perm = rng.permutation(dim)
    n_planes = dim // 2
    if np.isscalar(angles):
        plane_angles = [float(angles)] * n_planes
    else:
        plane_angles = [float(a) for a in angles]
        if len(plane_angles) != n_planes:
            raise ValueError(
                f"need {n_planes} rotation angles for dim {dim}, got {len(plane_angles)}"
            )
    rot = np.eye(dim)
    for p in range(n_planes):
        i, j = int(perm[2 * p]), int(perm[2 * p + 1])
        theta = plane_angles[p]
        c, s = math.cos(theta), math.sin(theta)
        givens = np.eye(dim)
        givens[i, i] = c
        givens[j, j] = c
        givens[i, j] = -s
        givens[j, i] = s
        rot = givens @ rot
    return rot


def translation_vector(config: SynthConfig) -> np.ndarray:
    if np.isscalar(config.translation):
        rng = np.random.default_rng([config.seed, _STREAM_AFFINE, 1])
        direction = rng.standard_normal(config.input_dim)
        direction /= np.sqrt(np.add.reduce(direction * direction))
        return float(config.translation) * direction
    return np.asarray(config.translation, dtype=np.float64)


def feature_spread_expression(features: np.ndarray) -> float:
    """The trace of the N-denominator covariance of ``features``, squaring a
    new array."""
    centered = features - features.mean(axis=0)
    return float((centered**2).sum() / features.shape[0])


def row_norms_flatnonzero(x: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of the 2-D float64 array ``x``; raises
    DegenerateVectorError when a row cannot be normalized: its norm is near
    zero, or its sum of squares overflows (or is NaN)."""
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms < NORM_EPS)
    if bad.size:
        raise DegenerateVectorError(
            f"row(s) {bad.tolist()} have near-zero norm and cannot be normalized"
        )
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise DegenerateVectorError(f"row(s) {bad.tolist()} have a norm that overflows (or is NaN)")
    return norms


def contrast_branch_gathered(
    features: np.ndarray, labels: np.ndarray, bank: CentroidBank, alpha: float, tau: float
) -> tuple[float, np.ndarray]:
    """(batch-mean contrast term, d_total/d_features) of ``combined_loss_and_grads``
    for checked ``features`` and ``labels``: the seen rows, the seen centroids
    and each row's own-centroid position are gathered on every call."""
    batch = features.shape[0]
    cont = 0.0
    d_features = np.zeros_like(features)
    if alpha > 0.0:
        if features.shape[1] != bank.feature_dim:
            raise ValueError(
                f"feature dim {features.shape[1]} does not match bank dim {bank.feature_dim}"
            )
        if labels.max() >= bank.num_classes:
            raise ValueError(f"labels exceed bank classes {bank.num_classes}")
        seen_idx = np.flatnonzero(bank.seen)
        rows = np.flatnonzero(bank.seen[labels])
        if seen_idx.size >= 2 and rows.size:
            cents = bank.centroids[seen_idx]
            own_pos = np.searchsorted(seen_idx, labels[rows])
            cont_terms, p = _nll_and_softmax(features[rows] @ cents.T / tau, own_pos)
            cont = float(cont_terms.sum() / batch)
            d_features[rows] = (p @ cents - cents[own_pos]) * (alpha / (tau * batch))
    return cont, d_features


def batch_class_means_masked(
    features: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean of the feature rows present in a batch.

    Returns (means, mask) where means is K x F and mask marks the classes
    that actually appear; rows of absent classes are zero and masked out.
    Feature rows are expected to be unit-norm already.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"features must be a non-empty 2-D array, got shape {features.shape}")
    labels = check_labels(labels, num_classes, "labels", features.shape[0])
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    means = np.zeros((num_classes, features.shape[1]), dtype=np.float64)
    np.add.at(means, labels, features)
    mask = counts > 0
    means[mask] /= counts[mask, None]
    return means, mask


def ema_update_gathered(bank: CentroidBank, f_mean: np.ndarray, mask: np.ndarray) -> CentroidBank:
    """Fold per-class batch means into the bank.

    Seen classes blend, c <- m*c + (1-m)*f_mean, then renormalize; classes
    seen for the first time adopt the normalized mean directly. Classes not
    in the mask are untouched. The update is atomic: validation failures
    leave the bank unchanged.
    """
    f_mean = np.asarray(f_mean, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if f_mean.shape != bank.centroids.shape:
        raise ValueError(
            f"f_mean shape {f_mean.shape} does not match bank shape {bank.centroids.shape}"
        )
    if mask.shape != (bank.num_classes,):
        raise ValueError(f"mask shape {mask.shape} does not match K={bank.num_classes}")

    bad = np.flatnonzero(mask & ~np.isfinite(f_mean).all(axis=1))
    if bad.size:  # a NaN row would pass the norm check below
        raise ValueError(f"masked f_mean row(s) {bad.tolist()} are not finite")
    mean_norms = np.linalg.norm(f_mean, axis=1)
    bad = np.flatnonzero(mask & (mean_norms < NORM_EPS))
    if bad.size:
        raise DegenerateVectorError(f"masked f_mean row(s) {bad.tolist()} have near-zero norm")
    rows = np.flatnonzero(mask)
    blended = f_mean[rows]
    old = bank.seen[rows]
    blended[old] = bank.m * bank.centroids[rows[old]] + (1.0 - bank.m) * blended[old]
    norms = np.sqrt(np.add.reduce(blended * blended, axis=1))
    bad = np.flatnonzero((norms < NORM_EPS) | (norms == np.inf))  # finite rows: no NaN norm
    if bad.size:
        k, norm = rows[bad[0]], norms[bad[0]]
        why = "overflows" if norm == np.inf else f"collapses to norm {norm:.3e}"
        raise DegenerateVectorError(f"class {k} blend {why}; refusing EMA update")
    bank.centroids[rows] = blended / norms[:, None]
    bank.seen[rows] = True
    return bank


def class_counts(self) -> tuple[int, ...]:
    # one shared count stands once, not once per class: the check reads only
    # whether any count is < 1, and ``(count,) * num_classes`` overflows for
    # a num_classes past the index range (2**70), where it must not decide
    if isinstance(self.samples_per_class, (int, np.integer)):
        return (int(self.samples_per_class),)
    counts = tuple(int(c) for c in self.samples_per_class)
    if len(counts) != self.num_classes:
        raise ValueError(
            f"samples_per_class has {len(counts)} entries for {self.num_classes} classes"
        )
    return counts


def synth_config_validate(self) -> None:
    require_numbers(self, Integral, ("num_classes", "input_dim", "seed"),
                    ("samples_per_class",))
    require_numbers(self, Real, ("spread", "class_std", "scale", "source_noise_std",
                                 "target_noise_std"), ("rotation_angle", "translation"))
    if self.seed < 0:
        raise ValueError(f"config key 'seed' must be >= 0, got {self.seed}")
    require_at_least(self, num_classes=2, input_dim=1)
    if any(c < 1 for c in class_counts(self)):
        raise ValueError("every per-class sample count must be >= 1")
    if self.spread <= 0:
        raise ValueError(f"spread must be > 0, got {self.spread}")
    if self.class_std < 0 or self.source_noise_std < 0 or self.target_noise_std < 0:
        raise ValueError("standard deviations must be >= 0")
    if self.scale <= 0:
        raise ValueError(f"scale must be > 0, got {self.scale}")
    counts = class_counts(self)
    rows = sum(counts) if len(counts) > 1 else counts[0] * int(self.num_classes)
    if max(rows, int(self.num_classes)) * int(self.input_dim) > 2**31:
        raise ValueError("a table and its class means must hold at most 2**31 cells")


def require_numbers(config, kind: type, scalars: tuple[str, ...], sequences=()) -> None:
    """Raise ValueError naming the first field whose value is not a finite
    ``kind`` (a bool is not, nor a JSON NaN or Infinity); a field in
    ``sequences`` may also hold a tuple or list of them."""
    for name in scalars + sequences:
        value = getattr(config, name)
        items = value if name in sequences and isinstance(value, (tuple, list)) else (value,)
        if not all(
            isinstance(v, kind) and not isinstance(v, bool)
            and (isinstance(v, Integral) or math.isfinite(v))
            for v in items
        ):
            what = "integers" if kind is Integral else "finite numbers"
            raise ValueError(f"config key {name!r} must hold {what}, got {value!r}")


def require_at_least(config, **bounds) -> None:
    """Raise ValueError naming the first field of ``bounds`` whose value lies
    below its bound there."""
    for name, bound in bounds.items():
        if getattr(config, name) < bound:
            raise ValueError(f"{name} must be >= {bound}, got {getattr(config, name)}")


def train_config_validate(self) -> None:
    require_numbers(self, Integral, ("epochs", "batch_size", "warmup_epochs", "seed",
                                     "feature_dim"), ("hidden_dims",))
    require_numbers(self, Real, ("alpha", "tau", "m0", "base_lr"))
    if self.seed < 0:
        raise ValueError(f"config key 'seed' must be >= 0, got {self.seed}")
    require_at_least(self, alpha=0, epochs=0, batch_size=1, base_lr=0, warmup_epochs=0,
                     feature_dim=1)
    if self.tau <= 0:
        raise ValueError(f"tau must be > 0, got {self.tau}")
    if not 0.0 <= self.m0 < 1.0:
        raise ValueError(f"m0 must lie in [0, 1), got {self.m0}")
    if not isinstance(self.hidden_dims, (tuple, list)) or any(h < 1 for h in self.hidden_dims):
        raise ValueError(
            f"config key 'hidden_dims' must list positive sizes, got {self.hidden_dims!r}"
        )
    if not isinstance(self.shuffle, (bool, np.bool_)):
        raise ValueError(f"config key 'shuffle' must be true or false, got {self.shuffle!r}")
