"""Training objective: centroid contrast, cross-entropy, and their blend.

The contrastive term for one sample with unit feature f is

    -log( exp(f.c+ / tau) / (exp(f.c+ / tau) + sum_neg exp(f.c- / tau)) )

where c+ is the centroid of the sample's own class and the negatives are the
centroids of every *other seen* class. Unseen classes hold placeholder rows
and never enter the softmax. The blended batch objective is

    total = mean_ce + alpha * mean_cont

with both means taken over the full batch. Softmax-type expressions subtract
the max term before exponentiating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroids import CentroidBank
from .data import check_labels


@dataclass(frozen=True)
class LossBreakdown:
    """Batch-mean loss components; total == ce + alpha * cont."""

    ce: float
    cont: float
    total: float


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _nll_and_softmax(scores: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(scores)[target] and the row softmax, max-subtracted."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1)
    return np.log(sums) - shifted[np.arange(len(scores)), target], exps / sums[:, None]


def combined_loss_and_grads(
    features: np.ndarray,
    logits: np.ndarray,
    labels: np.ndarray,
    bank: CentroidBank,
    alpha: float,
    tau: float,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Blended batch loss plus its gradients.

    Returns (breakdown, d_total/d_features, d_total/d_logits); the gradient
    arrays carry the 1/B batch-mean factor and the alpha weight, so they feed
    the model backward pass directly. ``features`` must be the l2-normalized
    rows the contrast branch sees.

    Cold start: while a sample's class (or every possible negative) is still
    unseen, that sample contributes cross-entropy only; its contrast term and
    gradient are zero.
    """
    features = np.asarray(features, dtype=np.float64, order="C")  # the layout a row gather gives
    logits = np.asarray(logits, dtype=np.float64)
    if not 0.0 <= alpha < np.inf:  # NaN fails both comparisons
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"features must be a non-empty 2-D array, got shape {features.shape}")
    batch = features.shape[0]
    if logits.ndim != 2 or logits.shape[0] != batch:
        raise ValueError(f"logits shape {logits.shape} does not match batch size {batch}")
    if not np.isfinite(logits).all():
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        raise ValueError(f"non-finite logits in sample(s) {bad.tolist()}")
    labels = check_labels(labels, logits.shape[1], "labels", batch)

    # cross-entropy branch
    ce_terms, d_logits = _nll_and_softmax(logits, labels)
    ce = float(ce_terms.sum() / batch)  # ce_terms.mean()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    # contrast branch
    cont = 0.0
    d_features = np.zeros_like(features)
    if alpha > 0.0:
        if features.shape[1] != bank.feature_dim:
            raise ValueError(
                f"feature dim {features.shape[1]} does not match bank dim {bank.feature_dim}"
            )
        if labels.max() >= bank.num_classes:
            raise ValueError(f"labels exceed bank classes {bank.num_classes}")
        if bank.seen.all():  # the gathers below are identities
            seen_idx = rows = slice(None)
            own_pos = labels
        else:
            seen_idx = np.flatnonzero(bank.seen)
            rows = np.flatnonzero(bank.seen[labels])
            own_pos = np.searchsorted(seen_idx, labels[rows])
        cents = bank.centroids[seen_idx]
        if cents.shape[0] >= 2 and own_pos.size:
            cont_terms, p = _nll_and_softmax(features[rows] @ cents.T / tau, own_pos)
            cont = float(cont_terms.sum() / batch)
            d_features[rows] = (p @ cents - cents[own_pos]) * (alpha / (tau * batch))

    total = ce + alpha * cont
    return LossBreakdown(ce=ce, cont=cont, total=total), d_features, d_logits
