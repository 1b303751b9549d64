"""The %.17g text codec: golden bytes, save->load round trips, the table
reader's fast path checked against the line-by-line scan, and the parsed
sidecar checked against the text."""

import csv
import hashlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cclearn import codec, data
from cclearn.centroids import CentroidBank, load_bank, save_bank
from cclearn.data import Dataset, load_table, save_table
from cclearn.diagnostics import HeatmapMatrix, PcaProjection, save_heatmap, save_projection
from cclearn.errors import TableParseError
from cclearn.model import ModelParams, load_model, save_model
from cclearn.trainer import EpochRecord, RunReport, TrainConfig, write_history_csv

TRICKY = np.array(
    [[0.1, 1.0 / 3.0, math.pi], [1e-300, -1.5e222, 4.9e-324], [0.0, -0.0, 2.0**-1074]]
)
FLOATS = st.one_of(
    st.sampled_from([0.1, 1.0 / 3.0, 1e-300, -1.5e222, 4.9e-324, -0.0, 2.0**-1074, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_table_bytes(ds: Dataset) -> bytes:
    """The table writer as it was before the codec: one csv.writer row at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"f{i}" for i in range(ds.input_dim)] + ["label", "domain"])
    for row, label in zip(ds.features, ds.labels):
        writer.writerow([f"{v:.17g}" for v in row] + [str(int(label)), ds.domain])
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------- golden bytes

# sha256 of each writer's output for the fixed inputs below, as written before
# every writer moved onto the codec
GOLDEN = {
    "table": "087f94259c9588fbd460ba814e7d6abda3f4b5824e6d1bab942f892da45d012c",
    "quoted_table": "56510301884e28937d7104317d1c0aaf2ad9b8d05925c15d35f410fe63518479",
    "model": "a77da146a26c6f537772ac0df582198a805745e15907207e6f41f8d5ecf98ebf",
    "bank": "bd82add15959ff951da2cb112900503c0a0c180e8c1391d1b874a583254d99a3",
    "history": "339b1b22679753a76cab75b46015cdd81ad15ea0abe996c342b6a6b7e59237fd",
    "heatmap": "b934f6d54fe66258dcd39851e2fd7002e193c655b7c98dd9ced7791048373af3",
    "projection": "5ef7e51ce11eca7210d8af4062befae11db3f269b4b8b542888948f2b7d27f55",
}


def golden_writers():
    bank = CentroidBank(3, 3, 0.9)
    bank.m = 0.95
    bank.seen[:] = [True, False, True]
    bank.centroids = TRICKY.copy()
    params = ModelParams(
        [np.arange(6.0).reshape(2, 3) / 7.0, TRICKY.copy()],
        [np.array([0.1, -0.0, 1e-300]), np.array([1.0 / 3.0, 0.0, -2.5])],
        np.arange(6.0).reshape(3, 2) / 3.0 - 1.0,
        np.array([math.pi, -math.e]),
    )
    report = RunReport(TrainConfig(), [
        EpochRecord(0, 0.9, 1e-3, 1.0 / 3.0, 0.0, 1.0 / 3.0, 12),
        EpochRecord(1, 0.95, 5e-4, 0.1, math.pi, 0.2, 12, 0.5, math.nan),
    ])
    heatmap = HeatmapMatrix(
        np.array([[1.0 / 3.0, math.nan], [-0.0, 0.1]]), np.array([3, 0]),
        np.array([False, True]), "target",
    )
    projection = PcaProjection(
        TRICKY[:, :2].copy(), (0.5, 0.25), np.zeros(3), np.eye(2, 3), np.array([0, 2, 1]), "target"
    )
    quoted = Dataset(np.array([[1.5], [-2.0]]), np.array([1, 0]), 'site "A", 5%', 2)
    return {
        "table": lambda p: save_table(Dataset(TRICKY, np.array([0, 1, 2]), "target", 3), p),
        "quoted_table": lambda p: save_table(quoted, p),
        "model": lambda p: save_model(params, p),
        "bank": lambda p: save_bank(bank, p),
        "history": lambda p: write_history_csv(report, p),
        "heatmap": lambda p: save_heatmap(heatmap, p),
        "projection": lambda p: save_projection(projection, p),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(tmp_path, name):
    path = tmp_path / name
    golden_writers()[name](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


def test_table_lines_end_with_crlf_and_other_files_with_lf(tmp_path):
    writers = golden_writers()
    writers["table"](tmp_path / "t.csv")
    writers["model"](tmp_path / "m.txt")
    assert (tmp_path / "t.csv").read_bytes().count(b"\r\n") == 4
    assert b"\r" not in (tmp_path / "m.txt").read_bytes()


@pytest.mark.parametrize("rows", [1, 2, 5, 7])
def test_chunked_writes_match_the_row_at_a_time_writer(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(codec, "CHUNK_ROWS", 2)
    rng = np.random.default_rng(rows)
    ds = Dataset(rng.standard_normal((rows, 3)) * 1e5, rng.integers(0, 3, rows), "source", 3)
    save_table(ds, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == reference_table_bytes(ds)


# ------------------------------------------------------------------ round trips

DOMAINS = ["source", "target", "", "a,b", 'q"t', "5%d", " pad ", "x\r\ny"]


@st.composite
def datasets(draw, domains=DOMAINS):
    rows = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 4))
    features = draw(arrays(np.float64, (rows, dim), elements=FLOATS))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows)))
    return Dataset(features, labels, draw(st.sampled_from(domains)), 4)


def sidecar(path) -> Path:
    return Path(f"{path}{data.SIDECAR}")


@SETTINGS
@given(ds=datasets())
def test_table_round_trip_is_bit_exact(tmp_path, ds):
    path = tmp_path / "t.csv"
    save_table(ds, path)
    assert path.read_bytes() == reference_table_bytes(ds)
    sidecar(path).unlink()  # the text reader, not the sidecar, must round-trip
    loaded = load_table(path, num_classes=4)
    assert same_bits(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.domain == ds.domain


@st.composite
def models(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    classes = draw(st.integers(2, 4))
    weights = [draw(arrays(np.float64, (a, b), elements=FLOATS)) for a, b in zip(sizes, sizes[1:])]
    biases = [draw(arrays(np.float64, (b,), elements=FLOATS)) for b in sizes[1:]]
    head_w = draw(arrays(np.float64, (sizes[-1], classes), elements=FLOATS))
    head_b = draw(arrays(np.float64, (classes,), elements=FLOATS))
    return ModelParams(weights, biases, head_w, head_b)


@SETTINGS
@given(params=models())
def test_model_round_trip_is_bit_exact(tmp_path, params):
    path = tmp_path / "model.txt"
    save_model(params, path)
    loaded = load_model(path)
    pairs = list(zip(params.weights + params.biases, loaded.weights + loaded.biases))
    pairs += [(params.head_weight, loaded.head_weight), (params.head_bias, loaded.head_bias)]
    assert all(same_bits(a, b) for a, b in pairs)


@st.composite
def banks(draw):
    classes, dim = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    m0 = draw(st.floats(0.0, 1.0, exclude_max=True))
    bank = CentroidBank(classes, dim, m0)
    bank.m = draw(st.floats(m0, 1.0))
    centroids = draw(arrays(np.float64, (classes, dim), elements=FLOATS))
    # a seen row is unit length, as load_bank requires; unseen rows hold anything finite
    with np.errstate(all="ignore"):
        unit = centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
        unit_rows = np.isfinite(unit).all(axis=1) & (abs(np.linalg.norm(unit, axis=1) - 1) < 1e-12)
    seen = np.array(draw(st.lists(st.booleans(), min_size=classes, max_size=classes)))
    bank.seen = seen & unit_rows
    centroids[bank.seen] = unit[bank.seen]
    bank.centroids = centroids
    return bank


@SETTINGS
@given(bank=banks())
def test_bank_round_trip_is_bit_exact(tmp_path, bank):
    path = tmp_path / "bank.txt"
    save_bank(bank, path)
    loaded = load_bank(path)
    assert same_bits(loaded.centroids, bank.centroids)
    np.testing.assert_array_equal(loaded.seen, bank.seen)
    assert (loaded.m0, loaded.m) == (bank.m0, bank.m)


# --------------------------------------------- fast table reader against the scan

def outcome(read, path, num_classes):
    """What a table reader makes of a file: the parsed table or the error it raised."""
    try:
        ds = read(path, num_classes)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return ds.features.tobytes(), ds.labels.tolist(), ds.domain, ds.num_classes


def corrupt(lines: list[list[str]], kind: str, row: int, col: int) -> list[list[str]]:
    lines = [list(line) for line in lines]
    target = lines[1 + row % (len(lines) - 1)]
    col %= len(target)
    if kind == "x_cell":
        target[col] = "x"
    elif kind == "nan_cell":
        target[col] = "nan"
    elif kind == "inf_cell":
        target[col] = "-inf"
    elif kind == "label_2.5":
        target[-2] = "2.5"
    elif kind == "label_2.0":
        target[-2] = "2.0"
    elif kind == "label_out_of_range":
        target[-2] = "7"
    elif kind == "negative_label":
        target[-2] = "-1"
    elif kind == "underscore":
        target[col] = "1_0"
    elif kind == "padded_cell":
        target[col] = f" {target[col]} "
    elif kind == "quoted_cell":
        target[col] = f'"{target[col]}"'
    elif kind == "mixed_domain":
        target[-1] = "elsewhere"
    elif kind == "padded_domain":
        target[-1] = f"{target[-1]} "
    elif kind == "nul_domain":
        target[-1] = f"{target[-1]}\0"
    elif kind == "extra_field":
        target.append("1")
    elif kind == "missing_field":
        target.pop()
    elif kind == "comment_line":
        lines.insert(1 + row % len(lines), ["# comment"])
    elif kind == "blank_line":
        lines.insert(1 + row % len(lines), [])
    elif kind == "space_line":
        lines.insert(1 + row % len(lines), ["   "])
    elif kind == "bad_header":
        lines[0][col % len(lines[0])] = "g"
    elif kind == "huge_label":
        target[-2] = "99999999999999999999"
    elif kind == "oversized_field":
        target[col] = '"' + "1" * 140000 + '"'  # over csv's default field size limit
    return lines


KINDS = [
    "none", "x_cell", "nan_cell", "inf_cell", "label_2.5", "label_2.0", "label_out_of_range",
    "negative_label", "underscore", "padded_cell", "quoted_cell", "mixed_domain",
    "padded_domain", "nul_domain", "extra_field", "missing_field", "comment_line",
    "blank_line", "space_line", "bad_header", "truncated", "huge_label", "oversized_field",
]


@pytest.mark.parametrize("kind", KINDS)
@settings(SETTINGS, max_examples=25)
@given(
    rows=st.integers(1, 4),
    dim=st.integers(1, 3),
    row=st.integers(0, 10),
    col=st.integers(0, 10),
    cut=st.integers(0, 400),
    newline=st.sampled_from(["\n", "\r\n"]),
    num_classes=st.sampled_from([None, 3]),
)
def test_fast_reader_returns_what_the_scan_returns(
    tmp_path, rows, dim, kind, row, col, cut, newline, num_classes
):
    rng = np.random.default_rng(rows * 10 + dim)
    features, labels = rng.standard_normal((rows, dim)), rng.integers(0, 3, rows)
    header = [f"f{i}" for i in range(dim)] + ["label", "domain"]
    body = [[f"{v:.17g}" for v in x] + [str(y), "source"] for x, y in zip(features, labels)]
    lines = corrupt([header] + body, kind, row, col)
    text = "".join(",".join(line) + newline for line in lines)
    if kind == "truncated":
        text = text[: cut % (len(text) + 1)]
    path = tmp_path / "t.csv"
    save_table(Dataset(features, labels, "source", 3), path)  # leaves a sidecar of the clean table
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_table, path, num_classes) == outcome(data._scan_table, path, num_classes)


def test_well_formed_tables_never_reach_the_scan(tmp_path, monkeypatch):
    ds = Dataset(TRICKY, np.array([0, 1, 2]), "target", 3)
    save_table(ds, tmp_path / "t.csv")
    one_pass_reads = []

    def no_scan(path, num_classes):
        raise AssertionError("the line-by-line scan ran on a well-formed table")

    def counted_loadtxt(*args, **kwargs):
        one_pass_reads.append(args)
        return loadtxt(*args, **kwargs)

    loadtxt = np.loadtxt
    monkeypatch.setattr(data, "_scan_table", no_scan)
    monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
    assert same_bits(load_table(tmp_path / "t.csv").features, ds.features)
    assert not one_pass_reads  # the sidecar served it
    sidecar(tmp_path / "t.csv").unlink()
    assert same_bits(load_table(tmp_path / "t.csv").features, ds.features)
    (tmp_path / "lf.csv").write_text("f0,label,domain\n1,0,s\n2,1,s\n")
    np.testing.assert_array_equal(load_table(tmp_path / "lf.csv").labels, [0, 1])
    assert len(one_pass_reads) == 2  # without a sidecar, one np.loadtxt pass each


# ------------------------------------------------------- the parsed sidecar

def text_outcome(path, num_classes):
    """What load_table makes of ``path`` with its sidecar out of the way."""
    saved = sidecar(path).read_bytes() if sidecar(path).exists() else None
    sidecar(path).unlink(missing_ok=True)
    try:
        return outcome(load_table, path, num_classes)
    finally:
        if saved is not None:
            sidecar(path).write_bytes(saved)


@SETTINGS
@given(
    ds=datasets(DOMAINS + ["a\0"]),
    num_classes=st.sampled_from([None, 2, 4]),
)
def test_sidecar_load_equals_the_text_load(tmp_path, ds, num_classes):
    path = tmp_path / "t.csv"
    try:
        save_table(ds, path)
    except csv.Error:  # csv before Python 3.11 cannot write NUL
        assert "\0" in ds.domain and sys.version_info < (3, 11)
        return
    cached = data._read_sidecar(path, num_classes)
    plain = data._SCAN_ONLY.isdisjoint(ds.domain)
    assert (cached is not None) == (plain and (num_classes is None or ds.labels.max() < num_classes))
    assert outcome(load_table, path, num_classes) == text_outcome(path, num_classes)


def test_sidecars_are_byte_identical_across_rewrites(tmp_path):
    ds = Dataset(TRICKY, np.array([0, 1, 2]), "target", 3)
    save_table(ds, tmp_path / "a.csv")
    save_table(ds, tmp_path / "b.csv")
    first = sidecar(tmp_path / "a.csv").read_bytes()
    save_table(ds, tmp_path / "a.csv")
    assert sidecar(tmp_path / "a.csv").read_bytes() == first == sidecar(tmp_path / "b.csv").read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("edit", [
    (b"0.10000000000000001", b"0.20000000000000001"),  # same length, still valid
    (b"0.10000000000000001", b"0.5"),
    (b"0.10000000000000001", b"x"),  # today's error
    (b",0,target", b",7,target"),
    (b"\r\n", b"\n"),  # the same table with other line ends
])
def test_a_table_edited_after_saving_reads_as_text(tmp_path, edit):
    path = tmp_path / "t.csv"
    save_table(Dataset(TRICKY, np.array([0, 1, 2]), "target", 3), path)
    path.write_bytes(path.read_bytes().replace(*edit))
    assert data._read_sidecar(path, 3) is None
    for num_classes in (None, 3):
        assert outcome(load_table, path, num_classes) == text_outcome(path, num_classes)


def damaged_sidecars(good: bytes, other: bytes):
    yield "copied from another table", other
    yield "garbage", bytes(range(256)) * 4
    yield "empty", b""
    for cut in range(1, len(good)):
        yield f"truncated to {cut} bytes", good[:cut]
    for at in range(len(good)):
        flipped = bytearray(good)
        flipped[at] ^= 1
        yield f"bit flipped at byte {at}", bytes(flipped)


def test_a_damaged_sidecar_is_ignored(tmp_path):
    path = tmp_path / "t.csv"
    save_table(Dataset(np.array([[0.25, -1.0], [3.0, 0.5]]), np.array([1, 0]), "other", 2), path)
    other = sidecar(path).read_bytes()
    save_table(Dataset(TRICKY, np.array([0, 1, 2]), "target", 3), path)
    good = sidecar(path).read_bytes()
    want = text_outcome(path, 3)
    for what, damaged in damaged_sidecars(good, other):
        sidecar(path).write_bytes(damaged)
        assert data._read_sidecar(path, 3) is None, what
        assert outcome(load_table, path, 3) == want, what


LABELS = np.array([0, 1, 2])
DOMAIN = np.frombuffer(b"target", np.uint8)


def craft_sidecar(path, domain, features, labels):
    """Write a sidecar for the table at ``path``, independently of save_table,
    with valid digests around any arrays."""
    blake = lambda b: np.frombuffer(hashlib.blake2b(b, digest_size=32).digest(), np.uint8)
    buf = io.BytesIO()
    for record in (blake(path.read_bytes()), domain, features, labels):
        np.save(buf, record)
    np.save(buf, blake(buf.getvalue()))
    sidecar(path).write_bytes(buf.getvalue())


def test_the_sidecar_format(tmp_path):
    path = tmp_path / "t.csv"
    save_table(Dataset(TRICKY, LABELS, "target", 3), path)
    written = sidecar(path).read_bytes()
    craft_sidecar(path, DOMAIN, TRICKY, LABELS)
    assert sidecar(path).read_bytes() == written


@pytest.mark.parametrize("what, domain, features, labels", [
    ("float32 features", DOMAIN, np.arange(9, dtype=np.float32).reshape(3, 3), LABELS),
    ("big-endian features", DOMAIN, TRICKY.astype(">f8"), LABELS),
    ("object features", DOMAIN, TRICKY.astype(object), LABELS),
    ("1-D features", DOMAIN, TRICKY.ravel(), LABELS),
    ("no feature columns", DOMAIN, np.zeros((3, 0)), LABELS),
    ("no rows", DOMAIN, np.zeros((0, 3)), np.zeros(0, np.int64)),
    ("non-finite features", DOMAIN, np.where(TRICKY == 0.1, np.nan, TRICKY), LABELS),
    ("int32 labels", DOMAIN, TRICKY, LABELS.astype(np.int32)),
    ("float labels", DOMAIN, TRICKY, LABELS.astype(np.float64)),
    ("labels of another length", DOMAIN, TRICKY, LABELS[:2]),
    ("negative label", DOMAIN, TRICKY, np.array([-1, 1, 2])),
    ("label over num_classes", DOMAIN, TRICKY, np.array([0, 1, 3])),
    ("str domain", np.array(["target"]), TRICKY, LABELS),
    ("domain not UTF-8", np.frombuffer(b"\xfftarget", np.uint8), TRICKY, LABELS),
    ("quoted domain", np.frombuffer(b"tar,get", np.uint8), TRICKY, LABELS),
    ("NUL domain", np.frombuffer(b"target\0", np.uint8), TRICKY, LABELS),
])
def test_a_sidecar_with_valid_digests_but_wrong_arrays_is_ignored(
    tmp_path, what, domain, features, labels
):
    path = tmp_path / "t.csv"
    save_table(Dataset(TRICKY, LABELS, "target", 3), path)
    want = text_outcome(path, 3)
    craft_sidecar(path, domain, features, labels)
    assert data._read_sidecar(path, 3) is None
    assert outcome(load_table, path, 3) == want


def test_a_saved_table_the_text_reader_refuses_stays_refused(tmp_path):
    path = tmp_path / "t.csv"
    save_table(Dataset(TRICKY, LABELS, "a," + "s" * 140000, 3), path)  # quoted, over csv's limit
    with pytest.raises(TableParseError, match="line 2: field larger"):
        load_table(path)
