"""Peak-memory bounds of the forward pass, inference, the synthetic generator,
the table writer, the Dataset checks, the spread diagnostic and the
``synth-data``, ``train`` and ``diagnose`` stages of the CLI.

``tracemalloc`` sees numpy's array buffers, so each peak is a byte count that
comes out the same on every run, not a timing. The peaks count only what the
call allocates: its inputs exist before tracing starts.
"""

import json
import tracemalloc

import numpy as np

from cclearn.cli import main
from cclearn.data import Dataset, SynthConfig, generate_blobs, generate_domains, save_table
from cclearn.diagnostics import feature_spread
from cclearn.model import forward, init_params
from cclearn.trainer import predict_logits


def peak_bytes(fn, *args) -> int:
    """The most memory traced at once while ``fn(*args)`` runs and returns."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ROWS = 20000


def scale_model_and_rows():
    """The scale-50k model shape and ROWS rows of input."""
    params = init_params(64, (64, 64), 32, 10, 0)
    return params, np.random.default_rng(0).standard_normal((ROWS, 64))


def test_forward_peaks_at_one_buffer_per_layer():
    params, x = scale_model_and_rows()
    # the cache keeps 64 + 64 + 32 + 32 + 1 float64 per row and the logits 10
    assert peak_bytes(forward, params, x) / (8 * ROWS) <= 230


def test_predict_logits_holds_one_block_of_cache():
    params, x = scale_model_and_rows()
    ds = Dataset(x, np.zeros(ROWS, dtype=np.int64), "", 10)
    # blocks of 256 rows: the logits are 10 float64 per row in the one output
    # they fill, and one block's cache of about 200 per block row adds under 3
    # per table row (13.04 measured, rounded up by about 1)
    assert peak_bytes(predict_logits, params, ds) / (8 * ROWS) <= 14


def test_generate_blobs_peaks_at_two_tables():
    config = SynthConfig(input_dim=64, samples_per_class=5000)
    table_bytes = 8 * 4 * 5000 * 64
    for domain in ("source", "target"):
        # the table and the noise, or the table and its affine image
        assert peak_bytes(generate_blobs, config, domain) <= 2.5 * table_bytes, domain


def test_generate_domains_peaks_at_two_tables():
    generate_domains(SynthConfig(samples_per_class=2))  # the seeding's first-call imports
    config = SynthConfig(input_dim=64, samples_per_class=5000)
    # the two tables, then a block of noise and its scaled copy
    assert peak_bytes(generate_domains, config) <= 2.2 * 8 * 4 * 5000 * 64


def test_save_table_writes_the_arrays_in_place(tmp_path):
    rows = 50000  # a scale-50k table: np.save's 16 MiB copies fit inside it
    ds = Dataset(np.random.default_rng(2).standard_normal((rows, 64)),
                 np.arange(rows) % 10, "target", 10)
    # one chunk of rendered rows at a time, and the sidecar records unstaged
    assert peak_bytes(save_table, ds, tmp_path / "target.csv") <= 0.1 * ds.features.nbytes


def test_dataset_checks_without_a_table_sized_temporary():
    features = np.random.default_rng(3).standard_normal((ROWS, 64))
    labels = np.arange(ROWS) % 10
    # a bool per feature would be 0.125 of the table
    assert peak_bytes(Dataset, features, labels, "", 10) <= 0.05 * features.nbytes


def test_feature_spread_makes_one_copy():
    features = np.random.default_rng(1).standard_normal((ROWS, 32))
    # the centered copy, squared in place
    assert peak_bytes(feature_spread, features) <= 1.5 * features.nbytes


def test_cli_stages_peak_near_two_tables(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(
        {"num_classes": 10, "input_dim": 64, "samples_per_class": ROWS // 10}))
    (tmp_path / "train.json").write_text(json.dumps({"epochs": 1}))
    data, run = tmp_path / "data", tmp_path / "run"
    # each bound is the peak measured with Python 3.11.7 and numpy 2.4.6 (synth-data 2.28
    # tables with its first-call imports, train 2.06, diagnose 1.58), rounded up by at
    # least 0.1 table: both domains' tables; the table and its split; the fit table,
    # the output its features fill and one block
    stages = [
        (["synth-data", "--config", str(tmp_path / "synth.json"), "--out", str(data)], 2.4),
        (["train", "--config", str(tmp_path / "train.json"), "--data", str(data / "source.csv"),
          "--out", str(run)], 2.2),
        (["diagnose", "--run", str(run), "--data", str(data / "target.csv"),
          "--fit-data", str(data / "source.csv")], 1.7),
    ]
    for args, tables in stages:
        codes = []
        assert peak_bytes(lambda: codes.append(main(args))) <= tables * 8 * ROWS * 64, args[0]
        assert codes == [0], args[0]
