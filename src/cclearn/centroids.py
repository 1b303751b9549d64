"""Per-class feature centroids maintained by an exponential moving average.

The bank holds one centroid row per class. A class's row becomes meaningful
the first time that class contributes a batch mean (its ``seen`` flag flips);
until then the row is a zero placeholder and must not be used as a contrast
target. Centroids are renormalized to unit length after every update so dot
products against unit feature vectors stay inside [-1, 1].

The smoothing coefficient m follows an affine schedule over epochs,
m(e) = m0 + (1 - m0) * e / A, so updates become progressively more
conservative and freeze completely at e = A.
"""

from __future__ import annotations

import numpy as np

from .codec import floats, read_rows, write_rows
from .data import check_labels
from .errors import DegenerateVectorError, StateError

NORM_EPS = 1e-12
UNIT_TOL = 1e-9  # how far a loaded seen centroid's norm may stray from 1


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise l2 normalization of a 2-D array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {x.shape}")
    norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(norms < NORM_EPS)
    if bad.size:
        raise DegenerateVectorError(
            f"row(s) {bad.tolist()} have near-zero norm and cannot be normalized"
        )
    return x / norms[:, None]


class CentroidBank:
    """EMA-maintained unit-norm centroid per class.

    Single writer: EMA updates must be sequential; concurrent read-only access
    between updates is safe.
    """

    def __init__(self, num_classes: int, feature_dim: int, m0: float):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes for contrast, got {num_classes}")
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        m0 = float(m0)
        if not 0.0 <= m0 < 1.0:
            raise ValueError(f"m0 must lie in [0, 1), got {m0}")
        self.centroids = np.zeros((num_classes, feature_dim), dtype=np.float64)
        self.seen = np.zeros(num_classes, dtype=bool)
        self.m0 = m0
        self.m = m0

    @property
    def num_classes(self) -> int:
        return self.centroids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.centroids.shape[1]

    def seen_classes(self) -> np.ndarray:
        """Indices of classes that have received at least one update."""
        return np.flatnonzero(self.seen)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CentroidBank(K={self.num_classes}, F={self.feature_dim}, "
            f"m0={self.m0}, m={self.m}, seen={int(self.seen.sum())})"
        )


def init_bank(num_classes: int, feature_dim: int, m0: float) -> CentroidBank:
    """Fresh bank: zero placeholder centroids, nothing seen, m = m0."""
    return CentroidBank(num_classes, feature_dim, m0)


def update_smoothing(bank: CentroidBank, epoch: int, total_epochs: int) -> float:
    """Advance the smoothing coefficient to its epoch-e value and return it.

    m = m0 + (1 - m0) * e / A; exactly m0 at e=0 and exactly 1 at e=A.
    """
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch must lie in [0, {total_epochs}], got {epoch}")
    bank.m = bank.m0 + (1.0 - bank.m0) * (epoch / total_epochs)
    return bank.m


def batch_class_means(
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


def ema_update(bank: CentroidBank, f_mean: np.ndarray, mask: np.ndarray) -> CentroidBank:
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
        raise DegenerateVectorError(f"masked f_mean row(s) {bad.tolist()} have near-zero norm")
    rows = np.flatnonzero(mask)
    blended = f_mean[rows]
    old = bank.seen[rows]
    blended[old] = bank.m * bank.centroids[rows[old]] + (1.0 - bank.m) * blended[old]
    # one dot product per row, as np.linalg.norm takes it for a single row;
    # norm(..., axis=1) and einsum sum in another order and change the bits
    norms = np.sqrt(blended[:, None, :] @ blended[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(norms < NORM_EPS)
    if bad.size:
        raise DegenerateVectorError(
            f"class {rows[bad[0]]} blend collapses to norm {norms[bad[0]]:.3e}; "
            "refusing EMA update"
        )
    bank.centroids[rows] = blended / norms[:, None]
    bank.seen[rows] = True
    return bank


def bank_from_features(
    features: np.ndarray, labels: np.ndarray, num_classes: int
) -> CentroidBank:
    """One-shot bank whose centroids are the normalized per-class feature means.

    Useful for diagnosing models trained without the contrastive term, where
    no EMA bank exists.
    """
    bank = init_bank(num_classes, np.asarray(features).shape[1], 0.0)
    means, mask = batch_class_means(features, labels, num_classes)
    return ema_update(bank, means, mask)


def save_bank(bank: CentroidBank, path) -> None:
    """Write the bank as a flat text file.

    Layout: line 1 "K F"; line 2 "m0 m"; line 3 the K seen flags as 0/1;
    then K lines with F centroid values each (row-major). Floats use %.17g,
    which round-trips float64 exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{bank.num_classes} {bank.feature_dim}\n")
        write_rows(fh, floats(2, " ") + "\n", [[bank.m0, bank.m]])
        fh.write(" ".join(str(int(s)) for s in bank.seen) + "\n")
        write_rows(fh, floats(bank.feature_dim, " ") + "\n", bank.centroids)


def load_bank(path) -> CentroidBank:
    """Read a ``save_bank`` file; any malformed, truncated or non-finite
    content, or a seen centroid that is not unit length, raises StateError
    naming the file."""
    head, rows = read_rows(path, 3, "bank")
    try:
        num_classes, feature_dim = (int(t) for t in head[0])
        m0, m = (float(t) for t in head[1])
        seen = np.array([bool(int(t)) for t in head[2]], dtype=bool)
        bank = CentroidBank(num_classes, feature_dim, m0)
    except ValueError as exc:
        raise StateError(f"bank file {path} has a malformed header") from exc
    if not 0.0 <= m <= 1.0:
        raise StateError(f"bank file {path} has smoothing m={m} outside [0, 1]")
    if len(rows) != num_classes:
        raise StateError(
            f"bank file {path} should have {3 + num_classes} lines, found {3 + len(rows)}"
        )
    if seen.shape != (num_classes,):
        raise StateError(f"bank file {path} has a malformed seen-flag line")
    if any(row.shape != (feature_dim,) for row in rows):
        raise StateError(f"bank file {path} has a centroid row without {feature_dim} values")
    bank.m = m
    bank.seen = seen
    bank.centroids = np.array(rows)
    norms = np.linalg.norm(bank.centroids[seen], axis=1)
    off_unit = np.flatnonzero(seen)[np.abs(norms - 1.0) > UNIT_TOL]
    if off_unit.size:
        raise StateError(f"bank file {path} has seen centroid row(s) {off_unit.tolist()} off unit length")
    return bank
