"""Synthetic domain-shifted datasets, delimited-text tables, and batching.

The synthetic generator draws class means on a sphere and Gaussian samples
around them. The target domain is the *same* underlying draw pushed through
an affine map (x <- scale * R x + t, R a composition of seeded Givens
rotations) plus its own noise level, which mimics an acquisition-device /
population / site change with controllable severity. Identical seeds produce
bitwise-identical datasets, and a trivial map (R=I, t=0, scale=1, equal
noise) makes source and target bitwise equal.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .codec import FLOAT, csv_format, write_rows
from .errors import TableParseError

# fixed sub-stream tags so every random draw is attributable to the one seed
_STREAM_BASE = 11
_STREAM_AFFINE = 12
_STREAM_SPLIT = 14

SIDECAR = ".parsed"  # save_table leaves the parsed arrays of <table> in <table>.parsed
# a domain holding one of these is quoted in the table, or (NUL) refused by
# csv before Python 3.11: only the line-by-line scan may read such a table
_SCAN_ONLY = frozenset(',"\r\n\0')


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    domain: str
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError(f"features must be a non-empty 2-D array, got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        labels = check_labels(self.labels, self.num_classes, "labels", self.features.shape[0])
        self.labels = labels.astype(np.int64, copy=False)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def check_labels(y, num_classes: int, what: str, n: int | None = None) -> np.ndarray:
    """``y`` as an array once it is a non-empty 1-D integer array, ``n`` long
    when ``n`` is given, whose entries lie in [0, num_classes); else ValueError."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size < 1:
        raise ValueError(f"{what} must be a non-empty 1-D array")
    if n is not None and y.size != n:
        raise ValueError(f"{what} has {y.size} entries for {n} rows")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {y.dtype}")
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(f"{what} must lie in [0, {num_classes}), got [{y.min()}, {y.max()}]")
    return y


class JsonConfig:
    """A config dataclass (``SynthConfig``, ``TrainConfig``) read from a JSON object."""

    @classmethod
    def from_dict(cls, data: dict):
        """The validated config of a JSON object: unknown keys are refused and
        lists become tuples."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        config = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
        config.validate()
        return config


@dataclass
class SynthConfig(JsonConfig):
    """Knobs for the blob generator; defaults are the desk-scale benchmark."""

    num_classes: int = 4
    input_dim: int = 16
    samples_per_class: int | tuple[int, ...] = 200
    spread: float = 16.0
    class_std: float = 2.5
    rotation_angle: float | tuple[float, ...] = 0.35
    translation: float | tuple[float, ...] = 3.0
    scale: float = 1.2
    source_noise_std: float = 0.0
    target_noise_std: float = 1.5
    seed: int = 0

    def class_counts(self) -> tuple[int, ...]:
        if isinstance(self.samples_per_class, (int, np.integer)):
            return (int(self.samples_per_class),) * self.num_classes
        counts = tuple(int(c) for c in self.samples_per_class)
        if len(counts) != self.num_classes:
            raise ValueError(
                f"samples_per_class has {len(counts)} entries for {self.num_classes} classes"
            )
        return counts

    def validate(self) -> None:
        require_numbers(self, Integral, ("num_classes", "input_dim", "seed"),
                        ("samples_per_class",))
        require_numbers(self, Real, ("spread", "class_std", "scale", "source_noise_std",
                                     "target_noise_std"), ("rotation_angle", "translation"))
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(c < 1 for c in self.class_counts()):
            raise ValueError("every per-class sample count must be >= 1")
        if self.spread <= 0:
            raise ValueError(f"spread must be > 0, got {self.spread}")
        if self.class_std < 0 or self.source_noise_std < 0 or self.target_noise_std < 0:
            raise ValueError("standard deviations must be >= 0")
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


def require_numbers(config, kind: type, scalars: tuple[str, ...], sequences=()) -> None:
    """Raise ValueError naming the first field whose value is not a ``kind`` (a
    bool is not); a field in ``sequences`` may also hold a tuple or list of them."""
    for name in scalars + sequences:
        value = getattr(config, name)
        items = value if name in sequences and isinstance(value, (tuple, list)) else (value,)
        if not all(isinstance(v, kind) and not isinstance(v, bool) for v in items):
            what = "integers" if kind is Integral else "numbers"
            raise ValueError(f"config key {name!r} must hold {what}, got {value!r}")


def rotation_matrix(dim: int, angles: float | Sequence[float], seed_key: Sequence[int]) -> np.ndarray:
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


def _translation_vector(config: SynthConfig) -> np.ndarray:
    if np.isscalar(config.translation):
        if float(config.translation) == 0.0:
            return np.zeros(config.input_dim)
        rng = np.random.default_rng([config.seed, _STREAM_AFFINE, 1])
        direction = rng.standard_normal(config.input_dim)
        direction /= np.linalg.norm(direction)
        return float(config.translation) * direction
    vec = np.asarray(config.translation, dtype=np.float64)
    if vec.shape != (config.input_dim,):
        raise ValueError(f"translation vector shape {vec.shape} != ({config.input_dim},)")
    return vec


def generate_blobs(config: SynthConfig, domain: str) -> Dataset:
    """Seeded Gaussian blobs; ``domain`` is "source" or "target".

    Both domains share every random draw, so the only differences are the
    affine map and the per-domain noise level.
    """
    config.validate()
    if domain not in ("source", "target"):
        raise ValueError(f"domain must be 'source' or 'target', got {domain!r}")
    counts = config.class_counts()
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
        rot = rotation_matrix(
            config.input_dim, config.rotation_angle, [config.seed, _STREAM_AFFINE, 0]
        )
        x = config.scale * (x @ rot.T) + _translation_vector(config)
        x = x + config.target_noise_std * noise
    return Dataset(x, labels, domain, config.num_classes)


def make_batches(
    ds: Dataset, batch_size: int, seed: int | Sequence[int] = 0, shuffle: bool = False
) -> list[np.ndarray]:
    """Partition [0, N) into consecutive index chunks of ``batch_size``.

    With ``shuffle`` a seeded permutation is applied first; the last chunk may
    be smaller. Deterministic under the seed.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(ds)
    indices = np.arange(n)
    if shuffle:
        indices = np.random.default_rng(seed).permutation(n)
    return [indices[i : i + batch_size] for i in range(0, n, batch_size)]


def split_dataset(
    ds: Dataset, fractions: tuple[float, ...] = (0.7, 0.1, 0.2), seed: int = 0
) -> tuple[Dataset, ...]:
    """Seeded random split; first parts get floor(fraction*N), the last the rest."""
    fracs = [float(f) for f in fractions]
    if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be >= 0 and sum to 1, got {fractions}")
    n = len(ds)
    perm = np.random.default_rng([seed, _STREAM_SPLIT]).permutation(n)
    sizes = [int(f * n) for f in fracs[:-1]]
    sizes.append(n - sum(sizes))
    if any(s < 1 for s in sizes):
        raise ValueError(f"split sizes {sizes} leave an empty part for N={n}")
    parts = []
    start = 0
    for size in sizes:
        idx = np.sort(perm[start : start + size])
        parts.append(Dataset(ds.features[idx], ds.labels[idx], ds.domain, ds.num_classes))
        start += size
    return tuple(parts)


def save_table(ds: Dataset, path) -> None:
    """Write the documented CSV schema: header f0..f{D-1},label,domain.

    Lines end with \\r\\n and the domain cell is quoted as the csv module
    quotes it: the csv writer itself builds the header and the row format.
    """
    row_format = csv_format([FLOAT] * ds.input_dim + ["%d", ds.domain.replace("%", "%%")])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([f"f{i}" for i in range(ds.input_dim)] + ["label", "domain"])
        write_rows(fh, row_format, ds.features, ds.labels)
    _write_sidecar(ds, path)


class _Hashed:
    """A binary file whose reads and writes also feed one BLAKE2b-256 digest."""

    def __init__(self, fh):
        try:  # the BLAKE2b of hashlib.blake2b, without the 3.4 MB of OpenSSL that hashlib maps
            from _blake2 import blake2b
        except ImportError:  # a build without the builtin hashes
            from hashlib import blake2b
        self.fh, self.hash = fh, blake2b(digest_size=32)

    def read(self, size: int) -> bytes:
        data = self.fh.read(size)
        self.hash.update(data)
        return data

    def write(self, data) -> int:
        self.hash.update(data)
        return self.fh.write(data)


def _file_digest(path) -> bytes:
    with open(path, "rb") as fh:
        hashed = _Hashed(fh)
        while hashed.read(1 << 16):  # below the 128 KiB at which malloc maps memory
            pass
    return hashed.hash.digest()


def _write_sidecar(ds: Dataset, path) -> None:
    """Leave the arrays of the table just written at ``path`` in ``<path>.parsed``.

    Consecutive ``np.save`` records: the digest of the table's bytes, the
    domain's UTF-8 bytes, the features, the labels, then the digest of every
    byte before it. Not ``np.savez``, whose zip entries carry timestamps.
    """
    sidecar = os.fspath(path) + SIDECAR
    with open(sidecar + ".tmp", "wb") as fh:
        hashed = _Hashed(fh)
        for record in (
            np.frombuffer(_file_digest(path), np.uint8),
            np.frombuffer(ds.domain.encode("utf-8"), np.uint8),
            ds.features,
            ds.labels,
        ):
            np.save(hashed, record, allow_pickle=False)
        np.save(fh, np.frombuffer(hashed.hash.digest(), np.uint8), allow_pickle=False)
    os.replace(sidecar + ".tmp", sidecar)


def _read_sidecar(path, num_classes: int | None) -> Dataset | None:
    """The Dataset ``save_table`` left next to ``path``, or None.

    None unless the sidecar's table digest matches the table's current bytes,
    its own digest matches, its dtypes and shapes are right and the arrays
    pass the checks of the one-pass read: then the text reader would return
    exactly these arrays.
    """
    read = np.lib.format.read_array
    try:
        with open(os.fspath(path) + SIDECAR, "rb") as fh:
            hashed = _Hashed(fh)
            if read(hashed, allow_pickle=False).tobytes() != _file_digest(path):
                return None
            domain, features, labels = (read(hashed, allow_pickle=False) for _ in range(3))
            if read(fh, allow_pickle=False).tobytes() != hashed.hash.digest():
                return None
        if (domain.dtype, features.dtype, labels.dtype) != (np.uint8, np.float64, np.int64):
            return None
        if features.ndim != 2 or features.shape[1] < 1:
            return None
        return _checked(features, labels, domain.tobytes().decode("utf-8"), num_classes)
    except Exception:
        # numpy's .npy parser raises many kinds of error on a damaged file (a
        # tokenize.TokenError among them); any failure leaves the load to the text
        return None


def _checked(features, labels, domain: str, num_classes: int | None) -> Dataset | None:
    """The Dataset of arrays that pass the checks of the one-pass read, else
    None: the line-by-line scan must decide."""
    if (
        not np.isfinite(features).all()
        or labels.min() < 0
        or (num_classes is not None and labels.max() >= num_classes)
        or not _SCAN_ONLY.isdisjoint(domain)
    ):
        return None
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    return Dataset(np.ascontiguousarray(features), np.ascontiguousarray(labels), domain, k)


def load_table(path, num_classes: int | None = None) -> Dataset:
    """Parse the documented CSV schema back into a Dataset.

    Feature columns must be named f0..f{D-1} in order, followed by ``label``
    and ``domain``. When ``num_classes`` is given labels are range-checked
    against it; otherwise the class count is inferred as max(label)+1. Parse
    failures name the 1-based line number.

    A table that ``save_table`` wrote comes back from its ``.parsed``
    sidecar when that provably holds what parsing the text gives. Otherwise
    one ``np.loadtxt`` pass reads the table. It accepts only tables that
    ``_scan_table`` parses to the same arrays; on anything else (quoted
    fields, '#' lines, underscores in numbers, any error) the scan reruns.
    """
    cached = _read_sidecar(path, num_classes)
    if cached is not None:
        return cached
    table = None
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a table with no data lines
            names = fh.readline().rstrip("\r\n").split(",")
            dim = len(names) - 2
            if dim >= 1 and names == [f"f{i}" for i in range(dim)] + ["label", "domain"]:
                row = np.dtype([("x", np.float64, (dim,)), ("y", np.int64), ("d", object)])
                table = np.loadtxt(fh, row, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except ValueError:
        pass  # the scan names the line at fault
    if table is None or not table.size or (table["d"] != table["d"][0]).any():
        return _scan_table(path, num_classes)
    ds = _checked(table["x"], table["y"], table["d"][0], num_classes)
    return ds if ds is not None else _scan_table(path, num_classes)


def _scan_table(path, num_classes: int | None) -> Dataset:
    """Line-by-line csv parse: the reference reader and the source of every parse
    error, which names the physical line where the failing record starts."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = csv.reader(fh)
        reader = _records(path, lines)
        try:
            header = next(reader)
        except StopIteration:
            raise TableParseError(f"{path}: empty file") from None
        if len(header) < 3 or header[-2:] != ["label", "domain"]:
            raise TableParseError(
                f"{path}: line 1: header must end with 'label,domain', got {header}"
            )
        dim = len(header) - 2
        expected = [f"f{i}" for i in range(dim)]
        if header[:dim] != expected:
            raise TableParseError(
                f"{path}: line 1: feature columns must be f0..f{dim - 1} in order"
            )
        rows, labels, domain = [], [], None
        end = lines.line_num
        for row in reader:
            lineno, end = end + 1, lines.line_num
            if not row:
                continue
            if len(row) != dim + 2:
                raise TableParseError(
                    f"{path}: line {lineno}: expected {dim + 2} fields, got {len(row)}"
                )
            try:
                values = [float(v) for v in row[:dim]]
            except ValueError:
                raise TableParseError(
                    f"{path}: line {lineno}: non-numeric feature value"
                ) from None
            if not all(math.isfinite(v) for v in values):
                raise TableParseError(f"{path}: line {lineno}: non-finite feature value")
            try:
                label = int(row[dim])
            except ValueError:
                raise TableParseError(
                    f"{path}: line {lineno}: label {row[dim]!r} is not an integer"
                ) from None
            bound = num_classes if num_classes is not None else 2**63  # labels are int64
            if not 0 <= label < bound:
                raise TableParseError(
                    f"{path}: line {lineno}: label {label} out of range [0, {bound})"
                )
            if domain is None:
                domain = row[dim + 1]
            elif row[dim + 1] != domain:
                raise TableParseError(
                    f"{path}: line {lineno}: mixed domain tags ({row[dim + 1]!r} vs {domain!r})"
                )
            rows.append(values)
            labels.append(label)
    if not rows:
        raise TableParseError(f"{path}: no samples")
    labels_arr = np.array(labels, dtype=np.int64)
    k = num_classes if num_classes is not None else int(labels_arr.max()) + 1
    return Dataset(np.array(rows, dtype=np.float64), labels_arr, domain, k)


def _records(path, reader):
    """The rows of a csv reader, with a csv.Error (say, a field over the size
    limit) raised as a TableParseError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise TableParseError(f"{path}: line {reader.line_num}: {exc}") from None
