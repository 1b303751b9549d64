"""The kernel-free bit contracts, checked under every OpenBLAS kernel.

``OPENBLAS_CORETYPE`` picks the kernel of one process only, so one child
process runs per kernel and BLAS thread count: the CPU's own choice, Haswell,
Zen, Sandybridge, Prescott and, on a CPU with AVX-512, SkylakeX, each at
``OPENBLAS_NUM_THREADS`` 1 and 2. Prescott reads back as Katmai, OpenBLAS's
generic fallback kernel. Each child reports the synthetic tables' hashes,
the bank's hash after a fixed ``ema_update`` sequence, the hashes of
``infer``'s outputs at the scale shape, and the hash of the model and the
bank that a short ``train`` at batch 32 leaves. Each test checks one of these
contracts under every kernel. The kernel name a child reads back is only
reported, since a forced kernel may name another (Zen reads back as Haswell),
and so is numpy's SIMD dispatch level, which every child shares with the host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

KERNEL_CHILD = """
import hashlib, json, sys
import numpy as np
from cclearn.centroids import CentroidBank, batch_class_means, ema_update, row_norms, update_smoothing
from cclearn.data import SynthConfig, generate_domains
from cclearn.model import init_params
from cclearn.trainer import TrainConfig, infer, train
sys.path.insert(0, sys.argv[1])
from step_cost import blas_core, numpy_dispatch

def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()

tables = {}
for shape in ({}, {"num_classes": 10, "input_dim": 64, "samples_per_class": 300}):
    for ds in generate_domains(SynthConfig(**shape)):
        tables[f"{ds.domain}, D={ds.input_dim}"] = sha256(ds.features)

# batches of 6 rows: classes seen for the first time, blended and left out of the mask
banks = {}
for k, f in ((4, 8), (10, 32)):
    rng = np.random.default_rng([k, f])
    bank = CentroidBank(k, f, 0.9)
    for step in range(50):
        update_smoothing(bank, step // 10, 10)
        features = rng.standard_normal((6, f))
        labels = rng.integers(0, k, 6)
        ema_update(bank, *batch_class_means(features / row_norms(features)[:, None], labels, k))
    banks[f"K={k}, F={f}"] = sha256(bank.centroids, bank.seen)

inferred = {}
params = init_params(64, (64, 64), 32, 10, 3)
for rows in (80, 800, 5000, 5121, 8257, 9063, 12345, 30001, 50000):
    x = np.random.default_rng(rows).standard_normal((rows, 64))
    for output in (1, 2):
        inferred[f"output {output} at {rows} rows"] = sha256(infer(params, x, output))

# README's batch-32 training contract: 3 500 source rows, K=10, D=64, 2 epochs, base_lr 0.05
source = generate_domains(SynthConfig(num_classes=10, input_dim=64, samples_per_class=350))[0]
params, bank, _ = train(source, None, TrainConfig(epochs=2, base_lr=0.05, batch_size=32))
trained = sha256(params.flat, bank.centroids, bank.seen)
print(json.dumps({"core": blas_core(), "dispatch": numpy_dispatch(), "tables": tables, "banks": banks,
                  "infer": inferred, "train": trained}))
"""


def child_under(coretype: str | None, threads: int) -> dict:
    """The report of a child process whose OpenBLAS runs ``coretype`` (its
    own choice when None) on ``threads`` threads: the kernel's name, the
    table and bank hashes, the hash of each ``infer`` output and the hash of
    the trained model and bank."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, str(ROOT / "tools")], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def reports() -> dict:
    """One child's report per (kernel, BLAS threads), the CPU's own kernel
    under "default"."""
    default = child_under(None, 1)
    if default["core"] is None:
        pytest.skip("numpy does not run on a bundled OpenBLAS that names its kernel")
    kernels = ["Haswell", "Zen", "Sandybridge", "Prescott"]
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        if "avx512f" in fh.read().split():
            kernels.append("SkylakeX")
    return {("default", 1): default, ("default", 2): child_under(None, 2),
            **{(coretype, threads): child_under(coretype, threads)
               for coretype in kernels for threads in (1, 2)}}


def ran(reports: dict, coretype: str, threads: int) -> str:
    got = reports[coretype, threads]
    return (f"OPENBLAS_CORETYPE={coretype} at {threads} BLAS threads ran {got['core']} with numpy "
            f"dispatching {got['dispatch']}; the default ran {reports['default', 1]['core']}")


def test_the_tables_are_the_same_under_every_openblas_kernel(reports):
    for (coretype, threads), got in reports.items():
        assert got["tables"] == reports["default", 1]["tables"], ran(reports, coretype, threads)


def test_the_bank_is_the_same_under_every_openblas_kernel(reports):
    for (coretype, threads), got in reports.items():
        assert got["banks"] == reports["default", 1]["banks"], ran(reports, coretype, threads)


def test_infer_gives_the_same_bits_at_one_and_two_blas_threads_under_every_openblas_kernel(reports):
    for (coretype, threads), got in reports.items():
        one = reports[coretype, 1]["infer"]
        differ = [case for case, digest in got["infer"].items() if digest != one[case]]
        assert not differ, f"{ran(reports, coretype, threads)}; differs from 1 thread for {differ}"


def test_training_at_batch_32_gives_the_same_bits_at_one_and_two_blas_threads_under_every_openblas_kernel(
        reports):
    for (coretype, threads), got in reports.items():
        assert got["train"] == reports[coretype, 1]["train"], ran(reports, coretype, threads)
