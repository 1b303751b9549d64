"""The kernel-free bit contracts, checked under every OpenBLAS kernel.

``OPENBLAS_CORETYPE`` picks the kernel of one process only, so one child
process runs per kernel: the CPU's own choice, Haswell, Zen, Sandybridge,
Prescott and, on a CPU with AVX-512, SkylakeX. Each child reports the
synthetic tables' hashes, the bank's hash after a fixed ``ema_update``
sequence, and whether block-wise ``infer`` gives the whole-table ``forward``
bits. Each test checks one of these contracts under every kernel. The kernel
name a child reads back is only reported, since a forced kernel may name
another (Zen reads back as Haswell).
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
from cclearn.model import forward, init_params
from cclearn.trainer import infer
sys.path.insert(0, sys.argv[1])
from step_cost import blas_core

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

infer_equal = {}
params = init_params(64, (64, 64), 32, 10, 3)
for rows in (10000, 50000):
    x = np.random.default_rng(rows).standard_normal((rows, 64))
    whole = forward(params, x)
    for output in (1, 2):
        infer_equal[f"output {output} at {rows} rows"] = infer(params, x, output).tobytes() == whole[output].tobytes()
print(json.dumps({"core": blas_core(), "tables": tables, "banks": banks, "infer_equal": infer_equal}))
"""


def child_under(coretype: str | None) -> dict:
    """The report of a child process whose OpenBLAS runs ``coretype`` (its
    own choice when None): the kernel's name, the table and bank hashes, and
    whether each block-wise ``infer`` equals the whole-table pass."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, str(ROOT / "tools")], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def reports() -> dict:
    """One child's report per kernel, the CPU's own choice under "default"."""
    default = child_under(None)
    if default["core"] is None:
        pytest.skip("numpy does not run on a bundled OpenBLAS that names its kernel")
    kernels = ["Haswell", "Zen", "Sandybridge", "Prescott"]
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        if "avx512f" in fh.read().split():
            kernels.append("SkylakeX")
    return {"default": default, **{coretype: child_under(coretype) for coretype in kernels}}


def ran(reports: dict, coretype: str) -> str:
    return (f"OPENBLAS_CORETYPE={coretype} ran {reports[coretype]['core']}; "
            f"the default ran {reports['default']['core']}")


def test_the_tables_are_the_same_under_every_openblas_kernel(reports):
    for coretype, got in reports.items():
        assert got["tables"] == reports["default"]["tables"], ran(reports, coretype)


def test_the_bank_is_the_same_under_every_openblas_kernel(reports):
    for coretype, got in reports.items():
        assert got["banks"] == reports["default"]["banks"], ran(reports, coretype)


def test_infer_gives_the_whole_table_bits_under_every_openblas_kernel(reports):
    for coretype, got in reports.items():
        differ = [case for case, equal in got["infer_equal"].items() if not equal]
        assert not differ, f"{ran(reports, coretype)}; block-wise differs for {differ}"
