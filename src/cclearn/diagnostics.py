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
from .codec import FLOAT, csv_format, floats, write_rows
from .errors import StateError, UndefinedProjectionError

_SIGN_EPS = 1e-12


@dataclass
class HeatmapMatrix:
    """K x K mean cosine similarities; rows of empty classes are NaN-flagged."""

    values: np.ndarray
    class_counts: np.ndarray
    missing: np.ndarray
    domain: str = ""

    @property
    def mean_diagonal(self) -> float:
        diag = np.diag(self.values)[~self.missing]
        return float(diag.mean())


@dataclass
class PcaProjection:
    """Coordinates in the top-2 principal basis plus the basis itself.

    Keeping ``mean`` and ``components`` makes it possible to project another
    dataset (e.g. the target domain) into the same basis.
    """

    coords: np.ndarray
    explained: tuple[float, float]
    mean: np.ndarray
    components: np.ndarray
    labels: np.ndarray | None = None
    domain: str = ""


def class_centroid_heatmap(
    features: np.ndarray, labels: np.ndarray, bank: CentroidBank, domain: str = ""
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
    return HeatmapMatrix(values, np.bincount(labels, minlength=bank.num_classes), ~present, domain)


def pca_2d(
    features: np.ndarray, labels: np.ndarray | None = None, domain: str = ""
) -> PcaProjection:
    """Project onto the top-2 eigenvectors of the covariance matrix.

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
    centered = features - features.mean(axis=0)
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
    coords = centered @ components.T
    explained = (float(eigvals[0] / total), float(eigvals[1] / total))
    return PcaProjection(coords, explained, features.mean(axis=0), components, labels, domain)


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
    return float((centered**2).sum() / features.shape[0])


def save_heatmap(hm: HeatmapMatrix, path) -> None:
    """CSV: one row per class i with columns class,count,c0..c{K-1}."""
    num_classes = hm.values.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("class,count," + ",".join(f"c{j}" for j in range(num_classes)) + "\n")
        write_rows(
            fh, "%d,%d," + floats(num_classes, ",") + "\n",
            np.arange(num_classes), hm.class_counts, hm.values,
        )


def save_projection(proj: PcaProjection, path) -> None:
    """CSV: pc1,pc2,label,domain rows (label blank when unknown), the domain
    quoted as the csv module quotes it."""
    labels = proj.labels if proj.labels is not None else [""] * proj.coords.shape[0]
    row = csv_format([FLOAT, FLOAT, "%s", proj.domain.replace("%", "%%")], "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pc1,pc2,label,domain\n")
        write_rows(fh, row, proj.coords, labels)
