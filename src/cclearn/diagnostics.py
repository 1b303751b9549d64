"""Feature-space diagnostics: class/centroid similarity heatmap, 2-D PCA,
and a scalar spread summary.

The heatmap entry H[i][j] is the mean cosine similarity between the features
of class i and the centroid of class j (dot products of unit vectors). A
well-clustered feature space shows a dominant diagonal. The PCA projection
uses the top-2 eigenvectors of the covariance matrix with a deterministic
sign convention (first non-negligible loading positive), so runs are exactly
reproducible. Spread is the trace of the covariance matrix with an
N-denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centroids import CentroidBank, batch_class_means
from .codec import csv_cell, write_file
from .errors import StateError, UndefinedProjectionError

_SIGN_EPS = 1e-12


@dataclass
class HeatmapMatrix:
    """K x K mean cosine similarities; rows of empty classes are NaN-flagged."""

    values: np.ndarray
    class_counts: np.ndarray
    missing: np.ndarray

    @property
    def mean_diagonal(self) -> float:
        diag = np.diag(self.values)[~self.missing]
        return float(diag.mean())


@dataclass
class PcaProjection:
    """A top-2 principal basis: the explained variance fractions, the mean of
    the fitted rows and the two components. ``project_into`` maps the fitted
    rows or another dataset's (e.g. the target domain's) into it."""

    explained: tuple[float, float]
    mean: np.ndarray
    components: np.ndarray


def class_centroid_heatmap(
    features: np.ndarray, labels: np.ndarray, bank: CentroidBank
) -> HeatmapMatrix:
    """Mean cosine similarity of each class's (unit) features to every centroid."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != bank.feature_dim:
        raise ValueError(
            f"features shape {features.shape} does not match bank dim {bank.feature_dim}"
        )
    # row i is the mean similarity of class i's features to every centroid
    values, present = batch_class_means(features @ bank.centroids.T, labels, bank.num_classes)
    unseen = np.flatnonzero(present & ~bank.seen)
    if unseen.size:
        raise StateError(f"class(es) {unseen.tolist()} have no centroid in the bank")
    values[~present] = np.nan
    return HeatmapMatrix(values, np.bincount(labels, minlength=bank.num_classes), ~present)


def pca_2d(features: np.ndarray) -> PcaProjection:
    """Fit the basis of the top-2 eigenvectors of the covariance matrix.

    Eigenvectors get a deterministic sign (first loading with magnitude above
    1e-12 made positive); explained fractions are each eigenvalue over the
    total variance.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    n, dim = features.shape
    if n < 3 or dim < 2:
        raise ValueError(f"PCA needs N >= 3 and F >= 2, got N={n}, F={dim}")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    eigvecs = eigvecs[:, ::-1]
    total = float(eigvals.sum())
    if total < 1e-15:
        raise UndefinedProjectionError("all rows identical: no direction of variance")
    components = eigvecs[:, :2].T.copy()
    for row in components:
        lead = row[np.abs(row) > _SIGN_EPS]
        if lead.size and lead[0] < 0:
            row *= -1.0
    explained = (float(eigvals[0] / total), float(eigvals[1] / total))
    return PcaProjection(explained, mean, components)


def project_into(basis: PcaProjection, features: np.ndarray) -> np.ndarray:
    """Coordinates of new rows in an existing PCA basis."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != basis.mean.shape[0]:
        raise ValueError(
            f"features shape {features.shape} does not match basis dim {basis.mean.shape[0]}"
        )
    return (features - basis.mean) @ basis.components.T


def feature_spread(features: np.ndarray) -> float:
    """Total variance (trace of the N-denominator covariance matrix)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError(f"spread needs at least 2 rows, got shape {features.shape}")
    centered = features - features.mean(axis=0)
    np.square(centered, out=centered)  # the bits of centered**2, without a second copy
    return float(centered.sum() / features.shape[0])


def save_heatmap(hm: HeatmapMatrix, path) -> None:
    """CSV: one row per class i with columns class,count,c0..c{K-1}."""
    num_classes = hm.values.shape[0]
    header = "class,count," + ",".join(f"c{j}" for j in range(num_classes)) + "\n"
    write_file(path, ",", "\n", header, (np.arange(num_classes), hm.class_counts, hm.values))


def save_projection(coords: np.ndarray, labels: np.ndarray, domain: str, path) -> None:
    """CSV: pc1,pc2,label,domain rows, the domain quoted as the csv module
    quotes it."""
    write_file(path, ",", "\n", "pc1,pc2,label,domain\n", (coords, labels, csv_cell(domain)))
