"""Reference implementations that the tests compare the package against.

The per-sample losses spell out the objective one sample at a time; the
package computes it only in batch form (``combined_loss_and_grads``). The
per-class ``ema_update_loop`` is the EMA update the package computes with
array operations. ``class_centroid_heatmap_loop`` takes one masked mean per
class where the package reuses ``batch_class_means``, and
``quadratic_weighted_kappa_add_at`` counts the confusion matrix with
``np.add.at`` where the package takes one ``np.bincount``. Each is kept here
exactly as it first shipped.
"""

from __future__ import annotations

import numpy as np

from cclearn.centroids import NORM_EPS, CentroidBank
from cclearn.diagnostics import HeatmapMatrix
from cclearn.errors import DegenerateVectorError, StateError, UndefinedMetricError
from cclearn.losses import softmax


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
    seen_idx = bank.seen_classes()
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
        norm = float(np.linalg.norm(blended))
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
    features: np.ndarray, labels: np.ndarray, bank: CentroidBank, domain: str = ""
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
    return HeatmapMatrix(values, counts, counts == 0, domain)


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
