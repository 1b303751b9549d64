"""Smoke test of ``tools/step_cost.py`` with one call per timing."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEP = ["forward", "combined_loss_and_grads", "backward", "sgd_step", "step"]


def test_prints_the_machine_and_a_cost_per_step_function():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_cost.py"), "--number", "1"],
        capture_output=True, text=True, check=True,
    )
    head, *lines = proc.stdout.splitlines()
    assert head.startswith("machine: ")
    machine = json.loads(head.removeprefix("machine: "))
    assert {"python", "numpy", "cpu", "blas_core", "numpy_dispatch"} <= set(machine)
    assert len(machine["pinned_cpu"]) == 1
    assert machine["blas_core"] is None or machine["blas_core"].strip()
    assert all(isinstance(name, str) and name for name in machine["numpy_dispatch"])
    assert (machine["number"], machine["repeat"], machine["layer_repeat"]) == (1, 7, 1)
    assert machine["probe_median_s"] > 0 and machine["probe_ref_s"] > 0
    *rows, writer = [json.loads(line) for line in lines]
    assert [(r["shapes"], r["alpha"], r["batch"]) for r in rows] == [
        ("desk", 1.0, 32), ("desk", 0.0, 32), ("scale-50k finetune", 0.0, 32)]
    assert sorted(rows[0]["us_per_call"]) == sorted([*STEP, "batch_class_means", "ema_update"])
    for row in rows[1:]:  # alpha 0: the loop leaves the bank alone
        assert sorted(row["us_per_call"]) == sorted(STEP)
    assert all(us > 0 for r in rows for us in r["us_per_call"].values())
    assert (writer["writer"], writer["rows"]) == ("write_rows", 4096)
    assert list(writer) == [  # the older keys first, in their order
        "writer", "rows", "us_per_row", "load_table_us_per_row", "save_model_us_per_call",
        "load_model_us_per_call", "save_bank_us_per_call", "load_bank_us_per_call",
        "generate_domains_us_per_row", "auc_macro_ovr_us_per_call", "pca_2d_us_per_call",
        "project_into_us_per_call", "quadratic_weighted_kappa_us_per_call", "infer_us_per_row",
        "write_history_csv_us_per_call"]
    assert sorted(writer["us_per_row"]) == ["projection", "table"]
    assert all(us > 0 for us in writer["us_per_row"].values())
    assert writer["load_table_us_per_row"] > 0
    for name in ("save_model", "load_model", "save_bank", "load_bank", "auc_macro_ovr", "pca_2d",
                 "project_into", "quadratic_weighted_kappa", "write_history_csv"):
        assert writer[f"{name}_us_per_call"] > 0
    assert writer["generate_domains_us_per_row"] > 0
    assert writer["infer_us_per_row"] > 0
