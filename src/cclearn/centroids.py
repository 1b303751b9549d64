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

from .codec import read_rows, write_file
from .data import check_labels
from .errors import DegenerateVectorError, StateError

NORM_EPS = 1e-12
UNIT_TOL = 1e-9  # how far a loaded seen centroid's norm may stray from 1


def row_norms(x: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of the 2-D real array ``x``; raises
    DegenerateVectorError when a row cannot be normalized: its norm is near
    zero, or its sum of squares overflows (or is NaN)."""
    if x.dtype.kind not in "fc":  # as np.linalg.norm: integer squares would wrap
        x = x.astype(float)
    norms = np.sqrt(np.add.reduce(x * x, axis=1))  # np.linalg.norm(x, axis=1) for real x
    if not ((norms >= NORM_EPS) & (norms < np.inf)).all():  # NaN fails both
        bad = np.flatnonzero(norms < NORM_EPS)
        if bad.size:
            raise DegenerateVectorError(
                f"row(s) {bad.tolist()} have near-zero norm and cannot be normalized"
            )
        bad = np.flatnonzero(~np.isfinite(norms))
        raise DegenerateVectorError(f"row(s) {bad.tolist()} have a norm that overflows (or is NaN)")
    return norms


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
    f = features.shape[1]  # each class row's sums, from 0.0 in row order, as np.add.at adds them
    cells = (labels.astype(np.intp)[:, None] * f + np.arange(f)).ravel()
    means = np.bincount(cells, weights=features.ravel(), minlength=num_classes * f).reshape(num_classes, f)
    mask = counts > 0
    rows = slice(None) if mask.all() else mask  # every class in the batch: no gather
    means[rows] /= counts[rows, None]
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

    mean_norms = np.sqrt(np.add.reduce(f_mean * f_mean, axis=1))
    # a row with a NaN or an inf has a NaN or inf norm, so this fails on every refusal below
    if not (((mean_norms >= NORM_EPS) & (mean_norms < np.inf)) | ~mask).all():
        bad = np.flatnonzero(mask & ~np.isfinite(f_mean).all(axis=1))
        if bad.size:  # a NaN row would pass the norm check below
            raise ValueError(f"masked f_mean row(s) {bad.tolist()} are not finite")
        bad = np.flatnonzero(mask & (mean_norms < NORM_EPS))
        if bad.size:
            raise DegenerateVectorError(f"masked f_mean row(s) {bad.tolist()} have near-zero norm")
    rows = slice(None) if mask.all() else np.flatnonzero(mask)  # every class in the batch: no gather
    old = bank.seen[rows]
    blended = bank.m * bank.centroids[rows] + (1.0 - bank.m) * f_mean[rows]
    if not old.all():  # a class seen for the first time adopts its mean as it is
        blended = np.where(old[:, None], blended, f_mean[rows])
    norms = np.sqrt(np.add.reduce(blended * blended, axis=1))
    bad = (norms < NORM_EPS) | (norms == np.inf)  # finite rows: no NaN norm
    if bad.any():
        i = np.flatnonzero(bad)[0]
        k, norm = np.flatnonzero(mask)[i], norms[i]
        why = "overflows" if norm == np.inf else f"collapses to norm {norm:.3e}"
        raise DegenerateVectorError(f"class {k} blend {why}; refusing EMA update")
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
    bank = CentroidBank(num_classes, np.asarray(features).shape[1], 0.0)
    means, mask = batch_class_means(features, labels, num_classes)
    return ema_update(bank, means, mask)


def save_bank(bank: CentroidBank, path) -> None:
    """Write the bank as a flat text file.

    Layout: line 1 "K F"; line 2 "m0 m"; line 3 the K seen flags as 0/1;
    then K lines with F centroid values each (row-major). Floats use %.17g,
    which round-trips float64 exactly.
    """
    write_file(
        path, " ", "\n", f"{bank.num_classes} {bank.feature_dim}\n", ([[bank.m0, bank.m]],),
        " ".join(str(int(s)) for s in bank.seen) + "\n", (bank.centroids,),
    )


def load_bank(path) -> CentroidBank:
    """Read a ``save_bank`` file; any malformed, truncated or non-finite
    content, or a seen centroid that is not unit length, raises StateError
    naming the file, and a bad cell's line."""
    head, rows = read_rows(path, 3, "bank")
    try:
        num_classes, feature_dim = (int(t) for t in head[0])
        m0, m = (float(t) for t in head[1])
    except ValueError as exc:
        raise StateError(f"bank file {path} has a malformed header") from exc
    seen = np.array([t == "1" for t in head[2]], dtype=bool)
    if not 0.0 <= m <= 1.0:
        raise StateError(f"bank file {path} has smoothing m={m} outside [0, 1]")
    if len(rows) != num_classes:
        raise StateError(
            f"bank file {path} should have {3 + num_classes} lines, found {3 + len(rows)}"
        )
    if not set(head[2]) <= {"0", "1"}:
        raise StateError(f"bank file {path} has a seen flag other than 0 or 1")
    if seen.shape != (num_classes,):
        raise StateError(f"bank file {path} has a malformed seen-flag line")
    if any(row.shape != (feature_dim,) for row in rows):
        raise StateError(f"bank file {path} has a centroid row without {feature_dim} values")
    try:  # only now: the rows bound the size that the header claims
        bank = CentroidBank(num_classes, feature_dim, m0)
    except ValueError as exc:
        raise StateError(f"bank file {path} has a malformed header") from exc
    bank.m = m
    bank.seen = seen
    bank.centroids = np.array(rows)
    norms = np.linalg.norm(bank.centroids[seen], axis=1)
    off_unit = np.flatnonzero(seen)[np.abs(norms - 1.0) > UNIT_TOL]
    if off_unit.size:
        raise StateError(f"bank file {path} has seen centroid row(s) {off_unit.tolist()} off unit length")
    return bank
