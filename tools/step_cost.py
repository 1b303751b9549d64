"""Time each public training-step function at the benchmark's shapes.

Usage (from the root of a source checkout):

    python3 tools/step_cost.py [--number N] [SRC]

SRC is the ``src`` tree whose ``cclearn`` is timed (default: this
checkout's). The process pins itself to one CPU and runs one BLAS thread,
as the benchmark's stages do. It prints a ``machine:`` line (Python, numpy,
CPU), then one JSON line per shape set: the microseconds per call of
``forward``, ``combined_loss_and_grads``, ``backward``, ``sgd_step``,
``batch_class_means`` and ``ema_update``, and of one whole step, each the
best of 7 ``timeit`` repeats of N calls. A last JSON line gives the
microseconds per row of the codec's ``write_rows`` into an ``io.BytesIO``,
each the best of 7 repeats of one 4096-row call, at two shapes: the
``scale-50k`` table (64 float cells, the label and the domain) and the PCA
projection (2 float cells, the label and the domain). The same line gives
the microseconds per row of ``load_table`` on a 4096-row ``scale-50k``
table, saved once to a temporary directory and read through its sidecar,
the best of 7 repeats of one call, and the microseconds per call of
``save_model``, ``load_model``, ``save_bank`` and ``load_bank`` at the
``scale-50k`` model shape (D 64, hidden (64, 64), F 32, K 10, every class
seen) in a temporary directory, each the best of 7 repeats of one call. It
ends with the microseconds per row (of one domain) of ``generate_domains``
on the ``scale-50k`` synth config, and per call of ``auc_macro_ovr`` on 50k
softmax rows of K 10, and of ``pca_2d`` and ``project_into`` on 50k feature
rows of F 32, each the best of 7 repeats of one call.

The shape sets are the ``desk`` workload's training step at alpha 1 and at
alpha 0, and the ``scale-50k`` workload's fine-tune step (alpha 0, the
fine-tune batch). The bank has every class seen and every batch holds every
class, as in all but the first steps of a run. At alpha 0 the training loop
calls neither ``batch_class_means`` nor ``ema_update``, and neither is
timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_ENV, BLAS_THREADS, WORKLOADS  # noqa: E402

REPEAT = 7  # timeit repeats; the best is kept
WRITE_ROWS = 4096  # rows per timed write_rows call


def shape_sets() -> list[dict]:
    """Name, layer sizes, batch and alpha of each timed step."""
    from cclearn.trainer import TrainConfig, finetune_config

    desk, scale = WORKLOADS["desk"], WORKLOADS["scale-50k"]
    desk_train = TrainConfig(**desk.train)
    tune = finetune_config()
    return [
        dict(name="desk", input_dim=desk.synth["input_dim"], hidden=desk_train.hidden_dims,
             feature_dim=desk_train.feature_dim, classes=desk.synth["num_classes"],
             batch=desk_train.batch_size, alpha=alpha, m0=desk_train.m0)
        for alpha in (1.0, 0.0)
    ] + [
        dict(name="scale-50k finetune", input_dim=scale.synth["input_dim"], hidden=tune.hidden_dims,
             feature_dim=tune.feature_dim, classes=scale.synth["num_classes"],
             batch=tune.batch_size, alpha=tune.alpha, m0=tune.m0),
    ]


def time_step(shape: dict, number: int) -> dict:
    """Microseconds per call of each step function at ``shape``."""
    import numpy as np

    from cclearn.centroids import CentroidBank, batch_class_means, ema_update
    from cclearn.losses import combined_loss_and_grads
    from cclearn.model import backward, forward, init_params, sgd_step

    rng = np.random.default_rng(0)
    params = init_params(shape["input_dim"], shape["hidden"], shape["feature_dim"],
                         shape["classes"], rng)
    x = rng.normal(size=(shape["batch"], shape["input_dim"]))
    y = np.arange(shape["batch"]) % shape["classes"]  # every class in the batch
    bank = CentroidBank(shape["classes"], shape["feature_dim"], shape["m0"])
    alpha, tau, lr = shape["alpha"], 1.0, 1e-3
    _, fhat, logits, cache = forward(params, x)
    ema_update(bank, *batch_class_means(fhat, y, shape["classes"]))  # every class seen
    _, d_feat, d_logits = combined_loss_and_grads(fhat, logits, y, bank, alpha, tau)
    means, mask = batch_class_means(fhat, y, shape["classes"])

    def step():
        _, fhat, logits, cache = forward(params, x)
        _, d_feat, d_logits = combined_loss_and_grads(fhat, logits, y, bank, alpha, tau)
        sgd_step(params, backward(params, cache, d_feat, d_logits), lr)
        if alpha > 0:
            ema_update(bank, *batch_class_means(fhat, y, shape["classes"]))

    calls = {
        "forward": lambda: forward(params, x),
        "combined_loss_and_grads": lambda: combined_loss_and_grads(fhat, logits, y, bank, alpha, tau),
        "backward": lambda: backward(params, cache, d_feat, d_logits),
    }
    if alpha > 0:
        calls["batch_class_means"] = lambda: batch_class_means(fhat, y, shape["classes"])
        calls["ema_update"] = lambda: ema_update(bank, means, mask)
    grads = backward(params, cache, d_feat, d_logits)
    # last: each call moves the parameters, so the cache above goes stale
    calls["sgd_step"] = lambda: sgd_step(params, grads, lr)
    calls["step"] = step
    return {
        name: round(min(timeit.repeat(fn, number=number, repeat=REPEAT)) / number * 1e6, 2)
        for name, fn in calls.items()
    }


def time_writer() -> dict:
    """Microseconds per row of ``write_rows`` at the table and projection shapes."""
    import io

    import numpy as np

    from cclearn import codec

    rng = np.random.default_rng(0)
    synth = WORKLOADS["scale-50k"].synth
    labels = rng.integers(0, synth["num_classes"], WRITE_ROWS)
    shapes = {"table": (rng.normal(size=(WRITE_ROWS, synth["input_dim"])), "\r\n"),
              "projection": (rng.normal(size=(WRITE_ROWS, 2)), "\n")}

    domain = codec.csv_cell("target")

    def call(cells, end):
        return lambda: codec.write_rows(io.BytesIO(), ",", end, cells, labels, domain)

    return {
        name: round(min(timeit.repeat(call(*shape), number=1, repeat=REPEAT)) / WRITE_ROWS * 1e6, 3)
        for name, shape in shapes.items()
    }


def time_reader() -> float:
    """Microseconds per row of ``load_table`` on a saved ``scale-50k`` table."""
    import numpy as np

    from cclearn.data import Dataset, load_table, save_table

    rng = np.random.default_rng(0)
    synth = WORKLOADS["scale-50k"].synth
    k = synth["num_classes"]
    ds = Dataset(rng.normal(size=(WRITE_ROWS, synth["input_dim"])), rng.integers(0, k, WRITE_ROWS),
                 "target", k)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "target.csv"
        save_table(ds, path)
        best = min(timeit.repeat(lambda: load_table(path, k), number=1, repeat=REPEAT))
    return round(best / WRITE_ROWS * 1e6, 3)


def time_checkpoints() -> dict:
    """Microseconds per call of the model and bank writers and readers at the
    ``scale-50k`` model shape."""
    import numpy as np

    from cclearn.centroids import bank_from_features, load_bank, save_bank
    from cclearn.model import init_params, load_model, save_model
    from cclearn.trainer import TrainConfig

    rng = np.random.default_rng(0)
    synth, train = WORKLOADS["scale-50k"].synth, TrainConfig(**WORKLOADS["scale-50k"].train)
    k = synth["num_classes"]
    params = init_params(synth["input_dim"], train.hidden_dims, train.feature_dim, k, rng)
    bank = bank_from_features(rng.normal(size=(k, train.feature_dim)), np.arange(k), k)
    with tempfile.TemporaryDirectory() as tmp:
        model, bank_file = Path(tmp) / "model.txt", Path(tmp) / "bank.txt"
        calls = {  # each save before its load
            "save_model": lambda: save_model(params, model), "load_model": lambda: load_model(model),
            "save_bank": lambda: save_bank(bank, bank_file), "load_bank": lambda: load_bank(bank_file),
        }
        return {f"{name}_us_per_call": round(min(timeit.repeat(fn, number=1, repeat=REPEAT)) * 1e6, 1)
                for name, fn in calls.items()}


def time_layers() -> dict:
    """Microseconds per row of ``generate_domains`` and per call of the
    metric and PCA layers at the ``scale-50k`` shapes."""
    import numpy as np

    from cclearn.data import SynthConfig, generate_domains
    from cclearn.diagnostics import pca_2d, project_into
    from cclearn.losses import softmax
    from cclearn.metrics import auc_macro_ovr
    from cclearn.trainer import TrainConfig

    rng = np.random.default_rng(0)
    synth = SynthConfig(**WORKLOADS["scale-50k"].synth)
    rows, k = sum(synth.class_counts()), synth.num_classes
    probs, labels = softmax(rng.normal(size=(rows, k))), np.arange(rows) % k
    feats = rng.normal(size=(rows, TrainConfig(**WORKLOADS["scale-50k"].train).feature_dim))
    basis = pca_2d(feats)

    def best(fn):
        return min(timeit.repeat(fn, number=1, repeat=REPEAT)) * 1e6

    return {
        "generate_domains_us_per_row": round(best(lambda: generate_domains(synth)) / rows, 3),
        "auc_macro_ovr_us_per_call": round(best(lambda: auc_macro_ovr(probs, labels)), 1),
        "pca_2d_us_per_call": round(best(lambda: pca_2d(feats)), 1),
        "project_into_us_per_call": round(best(lambda: project_into(basis, feats)), 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, default=2000, help="calls per timeit repeat")
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    if args.number < 1:
        parser.error("--number must be >= 1")

    os.environ.update(dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))  # before numpy loads
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    print("machine: " + json.dumps({
        "python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
        "pinned_cpu": sorted(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "number": args.number, "repeat": REPEAT,
    }, sort_keys=True))
    for shape in shape_sets():
        us = time_step(shape, args.number)
        print(json.dumps({"shapes": shape["name"], "alpha": shape["alpha"],
                          "batch": shape["batch"], "us_per_call": us}))
    print(json.dumps({"writer": "write_rows", "rows": WRITE_ROWS, "us_per_row": time_writer(),
                      "load_table_us_per_row": time_reader(), **time_checkpoints(), **time_layers()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
