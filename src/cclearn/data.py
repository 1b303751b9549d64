"""Synthetic domain-shifted datasets, delimited-text tables, and batching.

The synthetic generator draws class means on a sphere and Gaussian samples
around them. The target domain is the *same* underlying draw pushed through
an affine map x <- scale * R x + t, R turning seeded disjoint axis pairs (i, j)
to xi*cos - xj*sin and xi*sin + xj*cos with ufuncs, so that no BLAS kernel
touches a table, and its own noise level: a device / population / site change
of controllable severity. Identical seeds give bitwise-identical datasets, and
a trivial map (R=I, t=0, scale=1, equal noise) gives bitwise-equal domains.
"""

from __future__ import annotations

import math
import operator
import os
from contextlib import closing
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .codec import _Hashed, csv_cell, field_size_limit, numbers, read_cells, write_file
from .errors import TableParseError

# fixed sub-stream tags so every random draw is attributable to the one seed
_STREAM_BASE = 11
_STREAM_AFFINE = 12
_STREAM_SPLIT = 14
_NOISE_ROWS = 1024  # rows per block of the synthetic noise draw
CELL_BUDGET = 2**31  # cells of a synthetic table (rows x D) or parameters of a new model: 16 GiB of float64

SIDECAR = ".parsed"  # save_table leaves the parsed arrays of <table> in <table>.parsed


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
        rows = max(1, (1 << 16) // max(1, self.features.shape[1]))  # 64 KiB of bools per check
        if not all(np.isfinite(self.features[i : i + rows]).all() for i in range(0, len(self), rows)):
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
    if y.dtype.kind not in "iu":  # np.issubdtype(..., np.integer) also admits timedelta64
        raise ValueError(f"{what} must be integers, got dtype {y.dtype}")
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(f"{what} must lie in [0, {num_classes}), got [{y.min()}, {y.max()}]")
    return y


class JsonConfig:
    """A config dataclass (``SynthConfig``, ``TrainConfig``) read from a JSON
    object, each field declared by ``key`` with its default and its rule."""

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

    def validate(self) -> None:
        """Raise ValueError naming the first field, in field order, whose value
        breaks its ``key`` rule."""
        for f in fields(self):
            kind, each, bounds = f.metadata["rule"]
            value = getattr(self, f.name)
            listed = isinstance(value, (tuple, list))
            items = value if each and listed else (value,)
            if each == "only" and not listed or not all(_is_a(kind, v) for v in items):
                where = " in a list" if each == "only" else ""
                raise ValueError(f"config key {f.name!r} must {_KINDS[kind]}{where}, got {value!r}")
            if not all(_BOUNDS[op](v, b) for op, b in bounds for v in items):
                rule = " and ".join(f"{op} {b}" for op, b in bounds)
                raise ValueError(f"config key {f.name!r} must be {rule}, got {value!r}")


_KINDS = {Integral: "hold integers", Real: "hold finite numbers", bool: "be true or false"}
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<": operator.lt}


def key(default, kind: type, *, each: bool | str = False, ge=None, gt=None, lt=None):
    """A ``JsonConfig`` field: its default and its rule, which ``validate``
    reads. The value is a ``kind`` (Integral, Real or bool), with ``each``
    also a tuple or list of them, with ``each="only"`` only that; every number
    is then >= ``ge``, > ``gt`` and < ``lt``, where given."""
    bounds = tuple((op, b) for op, b in ((">=", ge), (">", gt), ("<", lt)) if b is not None)
    return field(default=default, metadata={"rule": (kind, each, bounds)})


def _is_a(kind: type, v) -> bool:
    """Whether ``v`` is a ``kind``: a bool is no number, and NaN and infinity
    are no Real."""
    if kind is bool:
        return isinstance(v, (bool, np.bool_))
    return (isinstance(v, kind) and not isinstance(v, bool)
            and (isinstance(v, Integral) or math.isfinite(v)))


@dataclass
class SynthConfig(JsonConfig):
    """Knobs for the blob generator; defaults are the desk-scale benchmark."""

    num_classes: int = key(4, Integral, ge=2)
    input_dim: int = key(16, Integral, ge=1)
    samples_per_class: int | tuple[int, ...] = key(200, Integral, each=True, ge=1)
    spread: float = key(16.0, Real, gt=0)
    class_std: float = key(2.5, Real, ge=0)
    rotation_angle: float | tuple[float, ...] = key(0.35, Real, each=True)
    translation: float | tuple[float, ...] = key(3.0, Real, each=True)
    scale: float = key(1.2, Real, gt=0)
    source_noise_std: float = key(0.0, Real, ge=0)
    target_noise_std: float = key(1.5, Real, ge=0)
    seed: int = key(0, Integral, ge=0)

    def validate(self) -> None:
        """The rules of the keys, then the lengths of the list keys: one count
        per class, one angle per rotation plane, one shift per dimension. Then,
        in Python ints, a table's rows x input_dim cells (and so the class means'
        num_classes x input_dim) must fit CELL_BUDGET: the largest key is named."""
        super().validate()
        for name, n in (("samples_per_class", self.num_classes),
                        ("rotation_angle", self.input_dim // 2), ("translation", self.input_dim)):
            value = getattr(self, name)
            if isinstance(value, (tuple, list)) and len(value) != n:
                raise ValueError(f"config key {name!r} must list {n} values, got {len(value)}")
        rows = (sum(map(int, self.samples_per_class)) if isinstance(self.samples_per_class, (tuple, list))
                else int(self.samples_per_class) * int(self.num_classes))
        sizes = {"num_classes": int(self.num_classes), "samples_per_class": rows // int(self.num_classes),
                 "input_dim": int(self.input_dim)}
        if rows * sizes["input_dim"] > CELL_BUDGET:
            name = max(sizes, key=sizes.get)
            raise ValueError(f"config key {name!r} must keep a table within {CELL_BUDGET} cells, "
                             f"got {rows} rows x {self.input_dim} input_dim")


def rotation_planes(dim: int, angles: float | Sequence[float], seed_key: Sequence[int]):
    """(i, j, cos, sin): floor(dim/2) seeded disjoint axis pairs (i[p], j[p]), which
    leave one axis of an odd ``dim`` fixed, and each plane's cosine and sine from
    ``math`` (np.cos varies by CPU); ``angles`` is one angle or one per plane."""
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
    cos, sin = (np.array([f(theta) for theta in plane_angles]) for f in (math.cos, math.sin))
    return perm[0 : 2 * n_planes : 2], perm[1 : 2 * n_planes : 2], cos, sin


def _translation_vector(config: SynthConfig) -> np.ndarray:
    if np.isscalar(config.translation):  # a translation of 0 scales the direction to zeros
        rng = np.random.default_rng([config.seed, _STREAM_AFFINE, 1])
        direction = rng.standard_normal(config.input_dim)
        direction /= np.sqrt(np.add.reduce(direction * direction))  # not np.linalg.norm's BLAS ddot
        return float(config.translation) * direction
    return np.asarray(config.translation, dtype=np.float64)


def generate_domains(config: SynthConfig) -> tuple[Dataset, Dataset]:
    """Seeded Gaussian blobs of both domains: (source, target).

    The domains share every random draw, each drawn once, so the only
    differences are the affine map and the per-domain noise level.
    """
    config.validate()  # the budget checks the counts as Python ints before numpy sizes anything
    labels = np.repeat(np.arange(config.num_classes), config.samples_per_class)
    total = len(labels)
    rng = np.random.default_rng([config.seed, _STREAM_BASE])
    mean_dirs = rng.standard_normal((config.num_classes, config.input_dim))
    mean_dirs /= np.linalg.norm(mean_dirs, axis=1, keepdims=True)
    means = config.spread * mean_dirs
    # In place, with the ufuncs of means[labels] + class_std * deviations (+ noise): IEEE
    # addition commutes, so each class mean added to its block of rows gives the same bits.
    # The map draws from its own generators, so the noise continues the base stream.
    source = rng.standard_normal((total, config.input_dim))  # the deviations
    source *= config.class_std
    bounds = labels.searchsorted(np.arange(config.num_classes + 1))  # each class's block of rows
    for mean, start, stop in zip(means, bounds[:-1], bounds[1:]):
        source[start:stop] += mean
    i, j, cos, sin = rotation_planes(config.input_dim, config.rotation_angle,
                                     [config.seed, _STREAM_AFFINE, 0])
    shift, target = _translation_vector(config), source * config.scale  # plane columns are set below
    # the map and the noise, in row blocks: consecutive draws continue one stream
    noise, scaled = np.empty((2, min(total, _NOISE_ROWS), config.input_dim))
    for start in range(0, total, _NOISE_ROWS):
        drawn = rng.standard_normal(out=noise[: total - start])  # the last block may be short
        x, y = source[start : start + len(drawn)], target[start : start + len(drawn)]
        pairs = scaled[: len(drawn), : 2 * len(i)].reshape(len(drawn), 2, len(i))  # free until the noise
        xi, xj = np.take(x, (i, j), axis=1, out=pairs).transpose(1, 0, 2)  # each plane's noise-free columns
        y[:, i] = (xi * cos - xj * sin) * config.scale
        y[:, j] = (xi * sin + xj * cos) * config.scale
        y += shift
        for block, std in ((x, config.source_noise_std), (y, config.target_noise_std)):
            block += np.multiply(drawn, std, out=scaled[: len(drawn)])
    del noise, scaled  # freed before Dataset checks the tables
    return (Dataset(source, labels, "source", config.num_classes),
            Dataset(target, labels.copy(), "target", config.num_classes))


def generate_blobs(config: SynthConfig, domain: str) -> Dataset:
    """The ``domain`` ("source" or "target") of ``generate_domains``, which draws both."""
    if domain not in ("source", "target"):
        raise ValueError(f"domain must be 'source' or 'target', got {domain!r}")
    return generate_domains(config)[domain == "target"]


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


def split_dataset(ds: Dataset, seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded random 70/10/20 split: floor(0.7 N) and floor(0.1 N) rows, then the rest."""
    n = len(ds)
    perm = np.random.default_rng([seed, _STREAM_SPLIT]).permutation(n)
    sizes = [int(f * n) for f in (0.7, 0.1)]
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
    quotes it; the header's cells never need quoting. The digest of the
    bytes ``write_file`` wrote feeds the sidecar's table record.
    """
    header = ",".join([f"f{i}" for i in range(ds.input_dim)] + ["label", "domain"]) + "\r\n"
    digest = write_file(path, ",", "\r\n", header, (ds.features, ds.labels, csv_cell(ds.domain)))
    _write_sidecar(ds, path, digest)


def _file_digest(path) -> bytes:
    with open(path, "rb") as fh:
        hashed = _Hashed(fh)
        while hashed.read(1 << 16):  # below the 128 KiB at which malloc maps memory
            pass
    return hashed.digest()


def _write_sidecar(ds: Dataset, path, digest: bytes) -> None:
    """Leave the arrays of the table just written at ``path`` in ``<path>.parsed``.

    Consecutive ``np.save`` records: ``digest``, the CRC-32 and length of
    the table's bytes (``_Hashed.digest``), the domain's UTF-8 bytes, the
    features, the labels, then the same digest of every byte before it. Not
    ``np.savez``, whose zip entries carry timestamps.
    """
    sidecar = os.fspath(path) + SIDECAR
    with open(sidecar + ".tmp", "wb") as fh:
        hashed = _Hashed(fh)
        for record in (
            np.frombuffer(digest, np.uint8),
            np.frombuffer(ds.domain.encode("utf-8"), np.uint8),
            ds.features,
            ds.labels,
        ):
            # np.save's bytes, but the array's own buffer, not np.save's copies of it
            header = np.lib.format.header_data_from_array_1_0(record)
            np.lib.format.write_array_header_1_0(hashed, header)
            data = np.ascontiguousarray(record.T if header["fortran_order"] else record)
            hashed.write(data.reshape(-1).view(np.uint8))
        np.save(fh, np.frombuffer(hashed.digest(), np.uint8), allow_pickle=False)
    os.replace(sidecar + ".tmp", sidecar)


def _read_sidecar(path, num_classes: int | None) -> Dataset | None:
    """The Dataset ``save_table`` left next to ``path``, or None.

    None unless the sidecar's table record matches the table's current bytes,
    its own digest matches, its dtypes and shapes are right, its domain fits
    in one csv cell, and the arrays pass ``Dataset``'s checks with labels in
    range: then ``_scan_table`` would return exactly these arrays.
    """
    read = np.lib.format.read_array
    try:
        with open(os.fspath(path) + SIDECAR, "rb") as fh:
            hashed = _Hashed(fh)
            if read(hashed, allow_pickle=False).tobytes() != _file_digest(path):
                return None
            domain, features, labels = (read(hashed, allow_pickle=False) for _ in range(3))
            if read(fh, allow_pickle=False).tobytes() != hashed.digest():
                return None
        if (domain.dtype, features.dtype, labels.dtype) != (np.uint8, np.float64, np.int64):
            return None
        domain = domain.tobytes().decode("utf-8")
        if features.ndim != 2 or features.shape[1] < 1 or len(domain) > field_size_limit():
            return None
        k = num_classes if num_classes is not None else int(labels.max()) + 1
        return Dataset(np.ascontiguousarray(features), np.ascontiguousarray(labels), domain, k)
    except Exception:
        # numpy's .npy parser raises many kinds of error on a damaged file (a
        # tokenize.TokenError among them), and Dataset a ValueError on arrays
        # the text would not give; any failure leaves the load to the scan
        return None


def load_table(path, num_classes: int | None = None) -> Dataset:
    """Parse the documented CSV schema back into a Dataset.

    Feature columns must be named f0..f{D-1} in order, followed by ``label``
    and ``domain``. When ``num_classes`` is given labels are range-checked
    against it; otherwise the class count is inferred as max(label)+1. Parse
    failures name the 1-based line number.

    A table that ``save_table`` wrote comes back from its ``.parsed``
    sidecar when that provably holds what parsing the text gives. Any other
    table (no sidecar, a stale or damaged one, or a table edited since) is
    parsed line by line by ``_scan_table``.
    """
    cached = _read_sidecar(path, num_classes)
    return cached if cached is not None else _scan_table(path, num_classes)


def _scan_table(path, num_classes: int | None) -> Dataset:
    """Line-by-line csv parse: the reference reader and the source of every parse
    error, which names the physical line where the failing record starts."""
    with closing(read_cells(path, ",", TableParseError)) as records:
        _, header = next(records, (None, None))
        if header is None:
            raise TableParseError(f"{path}: empty file")
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
        for lineno, row in records:
            if not row:
                continue
            if len(row) != dim + 2:
                raise TableParseError(
                    f"{path}: line {lineno}: expected {dim + 2} fields, got {len(row)}"
                )
            values = numbers(row[: dim + 1], f"{path}: line {lineno}", TableParseError)
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
            rows.append(values[:dim])
            labels.append(label)
    if not rows:
        raise TableParseError(f"{path}: no samples")
    labels_arr = np.array(labels, dtype=np.int64)
    k = num_classes if num_classes is not None else int(labels_arr.max()) + 1
    return Dataset(np.array(rows, dtype=np.float64), labels_arr, domain, k)
