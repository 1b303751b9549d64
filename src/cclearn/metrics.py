"""Evaluation metrics: quadratic weighted kappa and ROC-AUC variants.

Kappa uses the standard quadratic weights w_ij = (i-j)^2 / (K-1)^2 against
the chance-expected confusion matrix. AUC follows the Mann-Whitney
formulation (probability a random positive outranks a random negative) with
ties counted as one half, computed through midranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_labels
from .errors import UndefinedMetricError


@dataclass(frozen=True)
class EvalResult:
    """One scored metric, tagged with the domain it was computed on."""

    name: str
    value: float
    domain: str = ""
    per_class: tuple[float, ...] | None = field(default=None)


def quadratic_weighted_kappa(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int) -> float:
    """1 - (sum w*O) / (sum w*E): 1 at perfect agreement, 0 at chance level."""
    if num_classes < 2:
        raise ValueError(f"kappa needs at least 2 classes, got {num_classes}")
    y_true = check_labels(y_true, num_classes, "y_true")
    y_pred = check_labels(y_pred, num_classes, "y_pred", y_true.size)
    # the confusion counts, with cell (t, p) at t * K + p, and their margins
    observed = np.bincount(
        y_true.astype(np.int64) * num_classes + y_pred, minlength=num_classes**2
    ).reshape(num_classes, num_classes)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / y_true.size
    grid = np.arange(num_classes)
    weights = (grid[:, None] - grid[None, :]) ** 2 / (num_classes - 1) ** 2
    denom = float((weights * expected).sum())
    if denom == 0.0:
        raise UndefinedMetricError(
            "kappa undefined: both label sets are concentrated on one identical class"
        )
    return 1.0 - float((weights * observed).sum()) / denom


def _midranks(values: np.ndarray) -> np.ndarray:
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


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
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
    ranks = _midranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_macro_ovr(
    probabilities: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """One-vs-rest AUC per class and its unweighted mean.

    Classes that are absent (or have no negatives) are excluded from the mean
    and flagged with NaN in the per-class vector. Fewer than two usable
    classes is an error.
    """
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
        per_class[k] = auc_binary(probabilities[:, k], indicator)
    usable = ~np.isnan(per_class)
    if usable.sum() < 2:
        raise UndefinedMetricError(
            f"macro AUC undefined: only {int(usable.sum())} usable class(es)"
        )
    return float(per_class[usable].mean()), per_class


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size < 1:
        raise ValueError("y_true and y_pred must be matching non-empty arrays")
    return float((y_true == y_pred).mean())
