"""The %.17g text codec: golden bytes, save->load round trips, the table
reader's fast path checked against the line-by-line scan, and the parsed
sidecar checked against the text."""

import ast
import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
import zlib
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from cclearn import cli, codec, data
from cclearn.centroids import CentroidBank, load_bank, save_bank
from cclearn.data import Dataset, load_table, save_table
from cclearn.diagnostics import HeatmapMatrix, save_heatmap, save_projection
from cclearn.errors import StateError, TableParseError
from cclearn.model import ModelParams, init_params, load_model, save_model
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
    # the CLI's run files of the same bank, model and report, as written
    # before they moved onto codec.write_file
    "config": "2f56618a92862a16a7f98aa2e7cef07865e73804ab5230e160e200c58164337b",
    "report": "c857ebe2b9205f98e93b19700a4359fd1bd8ec83a24a6343848947d853a69f09",
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
        np.array([[1.0 / 3.0, math.nan], [-0.0, 0.1]]), np.array([3, 0]), np.array([False, True])
    )
    quoted = Dataset(np.array([[1.5], [-2.0]]), np.array([1, 0]), 'site "A", 5%', 2)

    def run_file(name):  # the file ``name`` of the run directory that the CLI writes
        def write(path):
            run = Path(f"{path}.run")
            run.mkdir()
            cli._write_run(run, params, bank, report)
            os.replace(run / name, path)
        return write
    return {
        "table": lambda p: save_table(Dataset(TRICKY, np.array([0, 1, 2]), "target", 3), p),
        "quoted_table": lambda p: save_table(quoted, p),
        "model": lambda p: save_model(params, p),
        "bank": lambda p: save_bank(bank, p),
        "history": lambda p: write_history_csv(report, p),
        "heatmap": lambda p: save_heatmap(heatmap, p),
        "projection": lambda p: save_projection(TRICKY[:, :2], np.array([0, 2, 1]), "target", p),
        "config": run_file(cli.CONFIG_FILE),
        "report": run_file(cli.REPORT_FILE),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(tmp_path, name):
    path = tmp_path / name
    golden_writers()[name](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[name]


def test_table_lines_end_with_crlf_and_other_files_with_lf(tmp_path):
    writers = golden_writers()
    writers["table"](tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes().count(b"\r\n") == 4
    for name in sorted(set(writers) - {"table", "quoted_table"}):
        writers[name](tmp_path / name)
        assert b"\r" not in (tmp_path / name).read_bytes(), name


# the only functions that open a file for writing; every other writer, save_table
# too, goes through codec.write_file, so a rule for how files are written lives in two places
FILE_WRITERS = {("codec", "write_file"), ("data", "_write_sidecar")}
# calls that write a file without an open() in sight
WRITE_CALLS = {"write_text", "write_bytes", "save", "savez", "savetxt", "tofile"}


def file_writes(module: str, tree: ast.AST, where: str | None = None):
    """(module, enclosing function, line) of each call under ``tree`` that
    opens a file for writing: an ``open`` whose mode is not a literal read
    mode, or one of WRITE_CALLS."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from file_writes(module, node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            reads = isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")
            if name == "open" and not reads or name in WRITE_CALLS:
                yield module, where, node.lineno
        yield from file_writes(module, node, where)


def test_only_two_functions_open_a_file_for_writing():
    package = Path(codec.__file__).parent
    writes = [w for path in sorted(package.glob("*.py"))
              for w in file_writes(path.stem, ast.parse(path.read_text()))]
    assert {(module, where) for module, where, _ in writes} == FILE_WRITERS, writes


@pytest.fixture()
def chunk_rows(monkeypatch):
    """Sets the codec's cell budget and returns the row count of each chunk
    rendered from then on."""
    seen = []
    render = codec._render_rows

    def spy(sep, rows, block):
        seen.append(rows)
        return render(sep, rows, block)

    def use(budget):
        monkeypatch.setattr(codec, "CHUNK_CELLS", budget)
        monkeypatch.setattr(codec, "_render_rows", spy)
        return seen
    return use


# a table row of 3 features, the label and the domain is 5 cells
@pytest.mark.parametrize("budget, per_chunk", [(9, 1), (10, 2)])
@pytest.mark.parametrize("rows", [1, 2, 5, 7])
def test_chunked_writes_match_the_row_at_a_time_writer(tmp_path, chunk_rows, rows, budget, per_chunk):
    seen = chunk_rows(budget)
    rng = np.random.default_rng(rows)
    ds = Dataset(rng.standard_normal((rows, 3)) * 1e5, rng.integers(0, 3, rows), "source", 3)
    save_table(ds, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == reference_table_bytes(ds)
    assert seen == [min(per_chunk, rows - start) for start in range(0, rows, per_chunk)]


def test_projection_rows_are_chunked_by_cells(chunk_rows):
    seen = chunk_rows(12)  # 2 floats, the label and the domain: 3 rows a chunk
    rng = np.random.default_rng(9)
    columns = rng.standard_normal((8, 2)), rng.integers(0, 3, 8), codec.csv_cell("a,b")
    assert codec_text(",", "\n", *columns) == reference_text(",", "\n", *columns)
    assert seen == [3, 3, 2]


def test_a_row_wider_than_the_budget_is_a_chunk_of_its_own(tmp_path, chunk_rows):
    seen = chunk_rows(4)
    rng = np.random.default_rng(10)
    ds = Dataset(rng.standard_normal((3, 6)), rng.integers(0, 2, 3), "target", 2)
    save_table(ds, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == reference_table_bytes(ds)
    assert seen == [1, 1, 1]


@pytest.mark.parametrize("columns, position", [
    ((np.zeros((2, 3)), np.zeros(5)), 1),  # a short column
    ((np.zeros(2), np.array([[1.5, 2.5]])), 1),  # a 1 x 2 column beside 2 rows
    (("x", np.zeros(2), np.zeros((2, 2, 2))), 2),
    ((np.float64(1.0), [1.0]), 0),
    ((np.zeros(2), [1 / 3, None]), 1),  # an object column: its floats would be written str
    ((np.zeros((2, 0)), np.zeros(2)), 0),  # no cells per row
])
def test_array_columns_are_1_or_2_d_with_one_row_count(columns, position):
    out = io.BytesIO()
    with pytest.raises(ValueError, match=f"column {position} has shape"):
        codec.write_rows(out, ",", "\n", *columns)
    assert out.getvalue() == b""


def test_a_row_needs_a_column_that_is_not_a_str():
    with pytest.raises(ValueError, match="not a str"):
        codec.write_rows(io.BytesIO(), ",", "\n", "a", "b")


# ------------------------------------------- %.17g cells against the % operator

WRITER_MODULES = [codec]


def codec_text(sep, end, *columns) -> str:
    buf = io.BytesIO()
    codec.write_rows(buf, sep, end, *columns)
    return buf.getvalue().decode()


def reference_text(sep, end, *columns) -> str:
    buf = io.StringIO()
    reference.write_rows(buf, sep, end, *columns)
    return buf.getvalue()


def assert_cells_match(x: np.ndarray, width: int = 100):
    x = np.asarray(x, dtype=np.float64).ravel()
    x = np.concatenate([x, np.ones(-len(x) % width)]).reshape(-1, width)
    got, want = codec_text(",", "\n", x), reference_text(",", "\n", x)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.ravel().tolist(), got.replace("\n", ",").split(","),
                                            want.replace("\n", ",").split(",")) if g != w]
        pytest.fail(f"{len(bad)} cells differ from the % operator, first {bad[:3]}")


def bits_of(f: float) -> int:
    return int(np.float64(f).view(np.uint64))


BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.floats(1e-4, 1e15).map(bits_of),
    st.floats(allow_nan=True, allow_infinity=True).map(bits_of),
    st.sampled_from([
        bits_of(v) for v in (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                             2.2250738585072009e-308, 2.2250738585072014e-308, 1e-4, 1e15)
    ]),
)


def test_the_window_table_holds_the_least_double_at_each_power_of_ten():
    for e, tens in zip(range(-4, 16), codec._TENS.tolist()):
        assert Fraction(tens) >= Fraction(10) ** e > Fraction(np.nextafter(tens, 0.0))


@settings(max_examples=300, deadline=None)
@given(bits=arrays(np.uint64, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=BITS))
def test_any_float64_bits_give_the_bytes_of_the_percent_operator(bits):
    x = bits.view(np.float64)
    assert codec_text(" ", "\n", x) == reference_text(" ", "\n", x)


def test_a_million_values_across_the_fixed_notation_window():
    rng = np.random.default_rng(6)
    n = 500_000
    # every binary exponent and mantissa from 2**-14 to 2**50, and log-uniform magnitudes
    biased = rng.integers(1023 - 14, 1023 + 50, n).astype(np.uint64)
    by_bits = ((biased << np.uint64(52)) | rng.integers(0, 2**52, n).astype(np.uint64)).view(np.float64)
    by_value = 10.0 ** rng.uniform(-4, 15, n)
    x = np.concatenate([by_bits, by_value]) * rng.choice([-1.0, 1.0], 2 * n)
    assert_cells_match(x)


def half_way_ties(rng: np.random.Generator, per_k: int) -> np.ndarray:
    """Values whose digits after the 17th are exactly 5: t / 2**(k+1) for odd t,
    whose value times 10**k is t * 5**k / 2, with 17 digits before the point."""
    out = []
    for k in range(2, 21):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        t = rng.integers(lo // 2, hi // 2, per_k) * 2 + 1
        out.append(np.ldexp(t.astype(np.float64), -k - 1))
    return np.concatenate(out)


def k_of(v: np.ndarray) -> np.ndarray:
    """The k that puts each v * 10**k in [10**16, 10**17), from the exact
    decimal value of v."""
    return np.array([16 - Decimal(x).adjusted() for x in v.tolist()], np.intp)


def assert_kernel_matches_the_oracle(v: np.ndarray):
    k = k_of(v)
    got, want = codec._digits(v, k), reference.digits_two_words(v.view(np.uint64), k)
    assert np.array_equal(got, want), v[got != want][:3]


WINDOW = st.one_of(
    st.floats(1e-4, 1e15, exclude_max=True),
    st.integers(bits_of(1e-4), bits_of(1e15) - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(WINDOW, min_size=1, max_size=50))
def test_the_two_product_kernel_equals_the_two_word_oracle(values):
    assert_kernel_matches_the_oracle(np.array(values))


def test_the_kernel_equals_the_oracle_on_ties_at_every_k():
    ties = half_way_ties(np.random.default_rng(11), 500)
    assert set(k_of(ties).tolist()) == set(range(2, 21))
    assert_kernel_matches_the_oracle(ties)


def test_no_product_in_the_window_rounds_up_to_the_next_power_of_ten():
    # the renderer takes the exponent of every v from its decade, so its 17
    # digits must stay below 10**17: the greatest doubles below each
    # 10**(17 - k) stay below it, and the least double at or above it meets it
    below, top = [], []
    for k in range(2, 21):
        tens = codec._TENS[21 - k]  # the least double >= 10**(17 - k)
        v = tens
        for _ in range(4):
            v = np.nextafter(v, 0.0)
            below.append(v)
            assert Fraction(v) * 10**k < 10**17 - Fraction(1, 2)
        top.append(tens)
    below, top = np.array(below), np.array(top)
    assert_kernel_matches_the_oracle(below)
    assert (codec._digits(below, k_of(below)) < 10**17).all()
    k = np.arange(2, 21)
    got = codec._digits(top, k)
    assert np.array_equal(got, reference.digits_two_words(top.view(np.uint64), k))
    assert (got >= 10**17).all()


def test_half_way_ties_round_to_even():
    assert codec_text(",", "\n", [562949953421312.125]) == "562949953421312.12\n"
    assert codec_text(",", "\n", [562949953421312.375]) == "562949953421312.38\n"
    ties = half_way_ties(np.random.default_rng(7), 2000)
    assert_cells_match(np.concatenate([ties, -ties]))


def test_the_neighbours_of_every_power_of_ten_and_of_the_window_edges():
    values = []
    for edge in [float(f"1e{e}") for e in range(-6, 19)] + [codec._TENS[0], codec._TENS[-1]]:
        for toward in (-math.inf, math.inf):
            v = edge
            for _ in range(6):
                v = np.nextafter(v, toward)
                values.append(v)
        values.append(edge)
    assert_cells_match(np.concatenate([values, np.negative(values)]), width=10)


@pytest.fixture()
def reference_writers(monkeypatch):
    """Puts the reference writer behind every module that writes rows."""
    def use():
        for module in WRITER_MODULES:
            monkeypatch.setattr(module, "write_rows", reference.write_rows)
    return use


@pytest.mark.parametrize("domain", ["%.17g", "5%d", "a\0b", "", 'site "A", 5%'])
def test_every_writer_matches_the_reference_writer(tmp_path, reference_writers, domain):
    rng = np.random.default_rng(8)
    features = rng.standard_normal((9, 3)) * 10.0 ** rng.integers(-6, 17, (9, 3))
    features[0] = [0.0, -0.0, 1e-4]
    ds = Dataset(features, rng.integers(0, 3, 9), domain, 3)
    writers = golden_writers()
    writers["domain_table"] = lambda p: save_table(ds, p)
    writers["domain_projection"] = (
        lambda p: save_projection(features[:, :2], ds.labels, domain, p)
    )
    evaluate_row = ["accuracy", "auc_macro"], codec.csv_cell(domain), [0.5, 1 / 3]
    assert codec_text(",", "\n", *evaluate_row) == reference_text(",", "\n", *evaluate_row)
    for name, write in writers.items():
        write(tmp_path / f"{name}.codec")
    reference_writers()
    for name, write in writers.items():
        write(tmp_path / f"{name}.reference")
        assert (tmp_path / f"{name}.codec").read_bytes() == (tmp_path / f"{name}.reference").read_bytes(), name


CELLS = np.array([[1.5, -1e-300], [math.nan, 0.1]])


@pytest.mark.parametrize("sep, end, columns", [
    (",", "\n", (CELLS,)),
    ("\t", "\r\n", ([7, 8], np.array(["a\0", "\u00e9"]), CELLS)),  # a U array holds "a"
    (" ", "", (CELLS[:, 0], CELLS[:, 1])),
    ("|", "\u00e9%%\n", ("%d", CELLS, '"q", 5%', np.array([[7, -8], [9, 10]]))),
    ("\0", "\r\n", ("", CELLS[:, 1], "\u00e9")),
])
def test_any_separator_end_and_str_columns(sep, end, columns):
    assert codec_text(sep, end, *columns) == reference_text(sep, end, *columns)


@pytest.mark.parametrize("column", [["a\0"], ("b", "a\0"), [["x", "a\0"]]])
def test_a_list_cell_ending_in_nul_is_refused(column):
    """numpy's str arrays drop a trailing NUL, so a list or tuple column would
    lose it silently; a str column keeps it."""
    buf = io.BytesIO()
    rows = [1.5] * len(column)
    with pytest.raises(ValueError, match=r"^column 1 holds a str ending in NUL"):
        codec.write_rows(buf, ",", "\n", rows, column)
    assert buf.getvalue() == b""
    codec.write_rows(buf, ",", "\n", [1.5], "a\0")
    assert buf.getvalue() == b"1.5,a\x00\n"


# -------------------------------- non-float cells, rendered once per distinct value

CELL_KINDS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
              np.bool_, np.str_]


@st.composite
def cell_columns(draw, rows: int) -> np.ndarray:
    """A 1-D or 2-D column of ``rows`` rows of integers, bools or str, whose
    cells are all equal, a few values or all distinct."""
    kind = draw(st.sampled_from(CELL_KINDS))
    shape = (rows, *draw(st.sampled_from([(), (1,), (3,)])))
    size = math.prod(shape)
    cells = (st.booleans() if kind is np.bool_ else st.text(max_size=3) if kind is np.str_
             else st.integers(int(np.iinfo(kind).min), int(np.iinfo(kind).max)))
    spread = draw(st.sampled_from(["equal", "few", "distinct"] if kind is not np.bool_ else ["equal", "few"]))
    if spread == "equal":
        values = [draw(cells)] * size
    elif spread == "few":
        values = draw(st.lists(st.sampled_from(draw(st.lists(cells, min_size=2, max_size=3))),
                               min_size=size, max_size=size))
    else:
        values = draw(st.lists(cells, min_size=size, max_size=size, unique=True))
    return np.array(values, dtype=kind).reshape(shape)


@SETTINGS
@given(data=st.data(), sep=st.sampled_from([",", " ", "\t"]), end=st.sampled_from(["\n", "\r\n", "", "\u00e9\n"]))
def test_non_float_cells_match_the_row_at_a_time_writer(chunk_rows, data, sep, end):
    rows = data.draw(st.sampled_from([0, 1, 7, 40]), label="rows")
    budget = data.draw(st.sampled_from([1, 5]), label="chunk cells")  # 2 rows a chunk at most
    seen = chunk_rows(budget)
    columns = data.draw(st.lists(cell_columns(rows), min_size=2, max_size=3), label="columns")
    if data.draw(st.booleans(), label="a float column"):
        columns.insert(1, np.linspace(-1.5, 1e5, rows))
    for at, text in [(len(columns), "last"), (1, "middle"), (0, "first")]:
        if data.draw(st.booleans(), label=f"a str column {text}"):
            columns.insert(at, data.draw(st.text(max_size=3), label=text))
    before = len(seen)
    assert codec_text(sep, end, *columns) == reference_text(sep, end, *columns)
    step = max(1, budget // sum(1 if isinstance(c, str) or c.ndim == 1 else c.shape[1] for c in columns))
    assert seen[before:] == [min(step, rows - start) for start in range(0, rows, step)]


@pytest.mark.parametrize("sep", ["", ",,", ", ", "\u00e9"])
def test_a_separator_is_one_ascii_character(sep):
    with pytest.raises(ValueError, match="separator"):
        codec.write_rows(io.BytesIO(), sep, "\n", [[1.0, 2.0]])


# ------------------------------------------------------------------ round trips

DOMAINS = ["source", "target", "", "a,b", 'q"t', "5%d", " pad ", "x\r\ny"]


@pytest.mark.parametrize("domain", DOMAINS)
def test_a_csv_cell_reads_back_as_its_text(domain):
    cell = codec.csv_cell(domain)
    assert next(csv.reader(io.StringIO(f"{cell},{cell}\r\n"))) == [domain, domain]
    assert (cell != domain) == any(c in domain for c in ',"\r\n')  # quoted only when it must be


def test_csv_writes_and_reads_nul_unquoted():
    """From Python 3.11 on, which the package requires, csv writes and reads NUL."""
    assert codec.csv_cell("a\0") == "a\0"
    assert next(csv.reader(io.StringIO("a\0,a\0\r\n"))) == ["a\0", "a\0"]


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
    elif kind == "underscore_label":
        target[-2] = "0_1"
    elif kind == "unicode_digit":
        target[col] = "\u0663"  # ARABIC-INDIC DIGIT THREE, which float() reads as 3
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
    elif kind == "non_utf8":
        target[col] += "\udcff"  # written as the byte 0xff, which UTF-8 never uses
    return lines


KINDS = [
    "none", "x_cell", "nan_cell", "inf_cell", "label_2.5", "label_2.0", "label_out_of_range",
    "negative_label", "underscore", "underscore_label", "unicode_digit", "padded_cell",
    "quoted_cell", "mixed_domain", "padded_domain", "nul_domain", "extra_field",
    "missing_field", "comment_line", "blank_line", "space_line", "bad_header", "truncated",
    "huge_label", "oversized_field", "non_utf8",
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
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert outcome(load_table, path, num_classes) == outcome(data._scan_table, path, num_classes)


@pytest.mark.parametrize("kind, col", [
    ("underscore", 0), ("underscore", 2), ("underscore_label", 0), ("unicode_digit", 1),
    ("unicode_digit", 2),
])
def test_numeric_cells_no_writer_emits_are_refused(tmp_path, kind, col):
    lines = [["f0", "f1", "label", "domain"], ["1", "2", "0", "source"], ["3", "4", "1", "source"]]
    path = tmp_path / "t.csv"
    path.write_text("".join(",".join(line) + "\n" for line in corrupt(lines, kind, 1, col)))
    with pytest.raises(TableParseError, match="t.csv: line 3: "):
        load_table(path)


# ----------------------------------------- one row reader for tables and checkpoints

def with_bad_cell(tmp_path, kind: str, bad: str):
    """A table, model.txt or bank.txt whose first cell on one data line is
    ``bad``: (path, loader, error type, that line)."""
    if kind == "table":
        path = tmp_path / "t.csv"
        path.write_text(f"f0,f1,label,domain\n1,2,0,source\n{bad},4,1,source\n")
        return path, load_table, TableParseError, 3
    if kind == "model":
        path = tmp_path / "model.txt"
        save_model(init_params(3, (), 2, 2, 0), path)
        loader, line = load_model, 3
    else:
        path = tmp_path / "bank.txt"
        path.write_text("2 2\n0.9 0.9\n1 1\n1 0\n0 1\n")
        loader, line = load_bank, 5
    lines = path.read_text().splitlines()
    lines[line - 1] = " ".join([bad] + lines[line - 1].split(" ")[1:])
    path.write_text("\n".join(lines) + "\n")
    return path, loader, StateError, line


@pytest.mark.parametrize("bad", ["1_0", "\u0661", "nan", "inf", "x", "\xa01"])
@pytest.mark.parametrize("kind", ["table", "model", "bank"])
def test_one_number_rule_refuses_a_bad_cell_naming_the_file_and_line(tmp_path, kind, bad):
    path, loader, error, line = with_bad_cell(tmp_path, kind, bad)
    with pytest.raises(error, match=f"{re.escape(str(path))}: line {line}: "):
        loader(path)


@pytest.mark.parametrize("edit", [
    lambda row: row.replace(" ", "  "), lambda row: row + " ", lambda row: " " + row,
    lambda row: " ", lambda row: row + "\0", lambda row: row.replace(" ", "\0 "),
], ids=["doubled", "trailing", "leading", "blank", "nul-last", "nul-inside"])
def test_checkpoint_cells_are_separated_by_exactly_one_space(tmp_path, edit):
    path = tmp_path / "model.txt"
    save_model(init_params(3, (), 2, 2, 0), path)
    lines = path.read_text().split("\n")
    lines[3] = edit(lines[3])  # csv refuses a NUL before Python 3.11, float after it
    path.write_text("\n".join(lines))
    with pytest.raises(StateError, match=f"{re.escape(str(path))}: line 4: "):
        load_model(path)


@pytest.mark.parametrize("kind", ["table", "model", "bank"])
def test_a_reader_that_stops_early_closes_its_file(tmp_path, monkeypatch, kind):
    path, loader, error, _ = with_bad_cell(tmp_path, kind, "x")
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(codec, "open", recording_open, raising=False)  # shadows the builtin
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(error) as refused:
            loader(path)
        assert opened and all(fh.closed for fh in opened)  # while the traceback holds the reader
        del refused


def test_only_the_codec_imports_csv():
    package = Path(codec.__file__).parent
    importers = {path.stem for path in package.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "csv"}
    assert importers == {"codec"}


def test_well_formed_tables_never_reach_the_scan(tmp_path, monkeypatch):
    ds = Dataset(TRICKY, np.array([0, 1, 2]), "target", 3)
    save_table(ds, tmp_path / "t.csv")

    def no_scan(path, num_classes):
        raise AssertionError("the line-by-line scan ran on a well-formed table")

    monkeypatch.setattr(data, "_scan_table", no_scan)
    assert same_bits(load_table(tmp_path / "t.csv").features, ds.features)  # the sidecar served it


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
    save_table(ds, path)  # csv writes NUL from Python 3.11 on
    cached = data._read_sidecar(path, num_classes)
    assert (cached is not None) == (num_classes is None or ds.labels.max() < num_classes)
    assert outcome(load_table, path, num_classes) == text_outcome(path, num_classes)


def test_sidecars_are_byte_identical_across_rewrites(tmp_path):
    ds = Dataset(TRICKY, np.array([0, 1, 2]), "target", 3)
    save_table(ds, tmp_path / "a.csv")
    save_table(ds, tmp_path / "b.csv")
    first = sidecar(tmp_path / "a.csv").read_bytes()
    save_table(ds, tmp_path / "a.csv")
    assert sidecar(tmp_path / "a.csv").read_bytes() == first == sidecar(tmp_path / "b.csv").read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_save_table_digests_the_bytes_it_writes(tmp_path, monkeypatch):
    def no_reread(path):
        raise AssertionError("save_table read back the table it wrote")

    path = tmp_path / "t.csv"
    ds = Dataset(TRICKY, np.array([0, 1, 2]), "target", 3)
    with monkeypatch.context() as patch:
        patch.setattr(data, "_file_digest", no_reread)
        save_table(ds, path)
    monkeypatch.setattr(data, "_scan_table", no_reread)
    monkeypatch.setattr(np, "loadtxt", no_reread)
    served = load_table(path, 3)  # from the sidecar: the text readers would raise
    assert same_bits(served.features, ds.features) and served.labels.tolist() == [0, 1, 2]


# 3000 rows of 5 cells: two chunks
DIGEST_ROWS = np.random.default_rng(12).standard_normal((3000, 3)), np.arange(3000) % 7, "aé"


@pytest.mark.parametrize("parts", [
    ("a header\n", "", "café \r\n"),
    (DIGEST_ROWS,),
    ("a header\n", DIGEST_ROWS, "between\n", (["x", "y"], TRICKY[:2])),
], ids=["str-parts", "rows", "mixed"])
def test_write_file_returns_the_digest_of_the_file_it_wrote(tmp_path, parts):
    path = tmp_path / "f.txt"
    assert codec.write_file(path, ",", "\n", *parts) == data._file_digest(path)


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


@SETTINGS
@given(ds=datasets(["source", "target"]), num_classes=st.sampled_from([None, 4]), draw=st.data())
def test_a_table_damaged_after_saving_reads_as_text(tmp_path, ds, num_classes, draw):
    """CRC-32 catches every burst of up to 32 flipped bits, and the length
    every truncation or append, so the sidecar never serves such a table."""
    path = tmp_path / "t.csv"
    save_table(ds, path)
    assert data._read_sidecar(path, num_classes) is not None
    table = path.read_bytes()
    kind = draw.draw(st.sampled_from(["burst", "truncate", "append"]))
    if kind == "burst":
        # bit i is bit i % 8 of byte i // 8, the order in which zlib's CRC-32 reads them
        width = draw.draw(st.integers(1, 32))
        start = draw.draw(st.integers(0, 8 * len(table) - width))
        flips = 1 | 1 << (width - 1) | draw.draw(st.integers(0, 2**width - 1))
        damaged = (int.from_bytes(table, "little") ^ flips << start).to_bytes(len(table), "little")
    elif kind == "truncate":
        damaged = table[: draw.draw(st.integers(0, len(table) - 1))]
    else:
        damaged = table + draw.draw(st.binary(min_size=1, max_size=64))
    path.write_bytes(damaged)
    assert data._read_sidecar(path, num_classes) is None
    assert outcome(load_table, path, num_classes) == outcome(data._scan_table, path, num_classes)


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


def crc32_and_length(b: bytes) -> np.ndarray:
    """A sidecar's digest of ``b``: its CRC-32 in 4 bytes, then its length in
    8, little-endian."""
    return np.frombuffer(zlib.crc32(b).to_bytes(4, "little") + len(b).to_bytes(8, "little"), np.uint8)


def blake2b_256(b: bytes) -> np.ndarray:
    """The digest of the sidecars that came before CRC-32."""
    return np.frombuffer(hashlib.blake2b(b, digest_size=32).digest(), np.uint8)


def craft_sidecar(path, domain, features, labels, digest=crc32_and_length):
    """Write a sidecar for the table at ``path``, independently of save_table,
    with valid digests around any arrays."""
    buf = io.BytesIO()
    for record in (digest(path.read_bytes()), domain, features, labels):
        np.save(buf, record)
    np.save(buf, digest(buf.getvalue()))
    sidecar(path).write_bytes(buf.getvalue())


def test_the_sidecar_format(tmp_path):
    path = tmp_path / "t.csv"
    save_table(Dataset(TRICKY, LABELS, "target", 3), path)
    written = sidecar(path).read_bytes()
    craft_sidecar(path, DOMAIN, TRICKY, LABELS)
    assert sidecar(path).read_bytes() == written
    assert data._read_sidecar(path, 3) is not None  # so the crafted sidecars below are valid


def test_a_blake2b_sidecar_reads_as_text_until_the_next_save(tmp_path):
    path = tmp_path / "t.csv"
    ds = Dataset(TRICKY, LABELS, "target", 3)
    save_table(ds, path)
    want = text_outcome(path, 3)
    craft_sidecar(path, DOMAIN, TRICKY, LABELS, blake2b_256)
    assert data._read_sidecar(path, 3) is None
    assert outcome(load_table, path, 3) == want
    save_table(ds, path)
    assert data._read_sidecar(path, 3) is not None


def test_tables_save_and_load_without_openssl(tmp_path):
    """hashlib maps about 3.5 MB of OpenSSL into a process (README): neither
    the CLI's imports nor a table's save and load may bring it in."""
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "import cclearn.cli",
        "from cclearn.data import Dataset, load_table, save_table",
        "save_table(Dataset(np.ones((2, 2)), np.array([0, 1]), 's', 2), 't.csv')",
        "assert load_table('t.csv').labels.tolist() == [0, 1]",
        "print(sorted({'_hashlib', 'hashlib', '_blake2'} & set(sys.modules)))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_non_float_cells_load_no_numpy_module():
    """Without counts, np.unique asks whether its input is masked, and numpy 2
    then imports numpy.ma: 15-90 ms in every CLI stage that writes a label."""
    script = "\n".join([
        "import io, sys",
        "import numpy as np",
        "from cclearn import codec",
        "before = set(sys.modules)",
        "cells = np.arange(3), np.array([[True], [False], [True]]), np.array(['a', 'b', 'a']), 's'",
        "codec.write_rows(io.BytesIO(), ',', '\\n', *cells)",
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


@pytest.mark.parametrize("head", ["s", "a,", 'q"'])
def test_a_domain_loads_from_its_sidecar_exactly_when_the_scan_reads_it(tmp_path, head):
    path = tmp_path / "t.csv"
    for length, served in ((131072, True), (131073, False)):  # csv's default field size limit
        save_table(Dataset(TRICKY, LABELS, head + "s" * (length - len(head)), 3), path)
        assert (data._read_sidecar(path, 3) is not None) == served
        assert outcome(load_table, path, 3) == text_outcome(path, 3)
