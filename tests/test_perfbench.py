"""The benchmark's traced run wraps package functions by name; every name it
lists must exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from cclearn.data import SynthConfig, generate_domains, save_table

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def test_every_traced_name_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"cclearn.{module}.{name}"
        for module, names in traced_cli.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"cclearn.{module}"), name, None))
    ]
    assert traced_cli.TRACED and not missing


# the public functions one training step calls, each once per step
STEP_FUNCTIONS = (
    "model.sgd_step", "model.backward", "losses.combined_loss_and_grads",
    "centroids.batch_class_means", "centroids.ema_update",
)


def test_training_loop_calls_the_public_step_functions(tmp_path):
    """The traced run sees a training step only through the public functions
    it wraps (and the benchmark counts steps as ``model.sgd_step`` calls), so
    the loop must not call unchecked internals in their place."""
    config = SynthConfig(num_classes=4, input_dim=4, samples_per_class=20)
    save_table(generate_domains(config)[0], tmp_path / "source.csv")
    # 80 rows, 56 of them in the training split: 2 batches of 32 per epoch
    (tmp_path / "train.json").write_text(
        json.dumps({"epochs": 2, "batch_size": 32, "hidden_dims": [8], "feature_dim": 4})
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path]))
    subprocess.run(
        [sys.executable, str(TRACED_CLI), "trace.json", "train", "--config", "train.json",
         "--data", "source.csv", "--out", "run"],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    funcs = json.loads((tmp_path / "trace.json").read_text())["funcs"]
    calls = {name: funcs[name]["calls"] for name in STEP_FUNCTIONS}
    assert calls == dict.fromkeys(STEP_FUNCTIONS, 4)
