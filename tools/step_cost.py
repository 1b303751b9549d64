"""Time each public training-step function and the other layers at the
benchmark's shapes.

Usage (from the root of a source checkout):

    python3 tools/step_cost.py [--number N] [SRC]

SRC is the ``src`` tree whose ``cclearn`` is timed (default: this
checkout's). The process pins itself to one CPU and runs one BLAS thread,
as the benchmark's stages do. It prints a ``machine:`` line (Python, numpy,
CPU, the OpenBLAS kernel as ``blas_core``, numpy's SIMD dispatch level as
``numpy_dispatch``, the repeats, and the median of the CPU-speed probes as
``probe_median_s`` beside ``probe_ref_s``), then one
JSON line per shape set: the microseconds per call of ``forward``,
``combined_loss_and_grads``, ``backward``, ``sgd_step``,
``batch_class_means``, ``ema_update`` and one whole step, each the best of
7 ``timeit`` repeats of N calls.

Every time is rescaled as the benchmark rescales its stage times: perfbench's
``probe`` (a fixed pure-Python loop) is timed just before each repeat, and
the repeat's time is multiplied by ``PROBE_REF_S`` over that probe's time,
since the speed of a shared virtual CPU moves by tens of percent within
minutes.
The lines are printed once every layer is timed, since the ``machine:`` line
holds the probes' median. The whole step writes its gradients into one
``Gradients`` kept across its calls (``backward``'s ``out``), as the training
loop does within a run; the ``backward`` key times the call without ``out``,
which returns a new ``Gradients``. ``out`` changes what the step times, not
which keys are printed.

The shape sets are the ``desk`` training step at alpha 1 and at alpha 0,
and the ``scale-50k`` fine-tune step (alpha 0, the fine-tune batch). The
bank has every class seen and every batch holds every class, as in all but
the first steps of a run. At alpha 0 the loop calls neither
``batch_class_means`` nor ``ema_update``, and neither is timed.

A last JSON line times the other layers at the ``scale-50k`` shapes (D 64,
hidden (64, 64), F 32, K 10, 50k rows), each the best of ``layer_repeat`` =
min(7, N) repeats of one call: ``--number 1`` makes one call, and the
default keeps the best of 7. Per row: the codec's ``write_rows`` into an
``io.BytesIO`` at the table shape (64 float cells, the label and the
domain) and the PCA projection shape (2 float cells), ``load_table`` of a
saved table through its sidecar (both 4096 rows), ``generate_domains`` (per
row of one domain) and ``trainer.infer`` of the logits. Per call:
``save_model``, ``load_model``, ``save_bank`` and ``load_bank`` (every class
seen), ``auc_macro_ovr`` on softmax rows, ``pca_2d`` and ``project_into`` on
feature rows, ``quadratic_weighted_kappa`` on labels and ``write_history_csv``
of a 50-epoch history. The fixtures are built once, their files in one
temporary directory.

The two ``write_rows`` keys (``us_per_row``) are timed after the 50k-row
fixtures were built and ``pca_2d``'s large temporaries freed. By then
glibc's dynamic mmap threshold has risen, so the codec's chunk temporaries
come from the heap rather than from a fresh mapping per chunk. A process
that writes before it frees a large block pays for the mappings: on a
2-CPU VM (Python 3.11, numpy 2.4, one pinned CPU) the same 4096-row table
write took 10.0-16.1 us per row in a fresh process and 7.6-9.0 after one
16 MB array was freed.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import BLAS_ENV, BLAS_THREADS, PROBE_REF_S, WORKLOADS, probe  # noqa: E402

REPEAT = 7  # timeit repeats; the best is kept
WRITE_ROWS = 4096  # rows per timed write_rows call
HISTORY_EPOCHS = 50  # rows of the timed history.csv
PROBES: list[float] = []  # every probe time taken, in seconds


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


def best_us(fn, number: int, per: int, digits: int, repeat: int = REPEAT) -> float:
    """Microseconds per call of ``fn``, divided by ``per``: the best of
    ``repeat`` ``timeit`` repeats of ``number`` calls, each rescaled by the
    probe timed just before it, rounded to ``digits``."""
    best = math.inf
    for _ in range(repeat):
        PROBES.append(probe())
        best = min(best, timeit.timeit(fn, number=number) * PROBE_REF_S / PROBES[-1])
    return round(best / number / per * 1e6, digits)


def time_step(shape: dict, number: int) -> dict:
    """Microseconds per call of each step function at ``shape``."""
    import numpy as np

    from cclearn.centroids import CentroidBank, batch_class_means, ema_update
    from cclearn.losses import combined_loss_and_grads
    from cclearn.model import Gradients, backward, forward, init_params, sgd_step

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
    buffer = Gradients.zeros(params.shapes)  # one per run, as in the training loop

    def step():
        _, fhat, logits, cache = forward(params, x)
        _, d_feat, d_logits = combined_loss_and_grads(fhat, logits, y, bank, alpha, tau)
        sgd_step(params, backward(params, cache, d_feat, d_logits, out=buffer), lr)
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
    return {name: best_us(fn, number, 1, 2) for name, fn in calls.items()}


def time_layers(repeat: int) -> dict:
    """Microseconds per row or per call of the layers outside the step at the
    ``scale-50k`` shapes, each the best of ``repeat`` single calls."""
    import numpy as np

    from cclearn import codec
    from cclearn.centroids import bank_from_features, load_bank, save_bank
    from cclearn.data import Dataset, SynthConfig, generate_domains, load_table, save_table
    from cclearn.diagnostics import pca_2d, project_into
    from cclearn.losses import softmax
    from cclearn.metrics import auc_macro_ovr, quadratic_weighted_kappa
    from cclearn.model import init_params, load_model, save_model
    from cclearn.trainer import EpochRecord, RunReport, TrainConfig, infer, write_history_csv

    rng = np.random.default_rng(0)
    synth = SynthConfig(**WORKLOADS["scale-50k"].synth)
    train = TrainConfig(**WORKLOADS["scale-50k"].train)
    k, d, f = synth.num_classes, synth.input_dim, train.feature_dim
    rows = k * synth.samples_per_class  # one count for every class in this workload
    table = Dataset(rng.normal(size=(WRITE_ROWS, d)), rng.integers(0, k, WRITE_ROWS), "target", k)
    projected, domain = rng.normal(size=(WRITE_ROWS, 2)), codec.csv_cell(table.domain)
    params = init_params(d, train.hidden_dims, f, k, rng)
    bank = bank_from_features(rng.normal(size=(k, f)), np.arange(k), k)
    probs, labels = softmax(rng.normal(size=(rows, k))), np.arange(rows) % k
    predicted = probs.argmax(axis=1)
    feats, x = rng.normal(size=(rows, f)), rng.normal(size=(rows, d))
    basis = pca_2d(feats)
    history = RunReport(train, [EpochRecord(e, *rng.random(5).tolist(), 1000 * e, *rng.random(2).tolist())
                                for e in range(HISTORY_EPOCHS)])

    def write(cells, end):
        return lambda: codec.write_rows(io.BytesIO(), ",", end, cells, table.labels, domain)

    with tempfile.TemporaryDirectory() as tmp:
        path, model, bank_file, history_file = (
            Path(tmp) / name for name in ("target.csv", "model.txt", "bank.txt", "history.csv"))
        save_table(table, path)
        save_model(params, model)
        save_bank(bank, bank_file)
        calls = {  # name: (call, rows or 1, digits)
            "table": (write(table.features, "\r\n"), WRITE_ROWS, 3),
            "projection": (write(projected, "\n"), WRITE_ROWS, 3),
            "load_table_us_per_row": (lambda: load_table(path, k), WRITE_ROWS, 3),
            "save_model_us_per_call": (lambda: save_model(params, model), 1, 1),
            "load_model_us_per_call": (lambda: load_model(model), 1, 1),
            "save_bank_us_per_call": (lambda: save_bank(bank, bank_file), 1, 1),
            "load_bank_us_per_call": (lambda: load_bank(bank_file), 1, 1),
            "generate_domains_us_per_row": (lambda: generate_domains(synth), rows, 3),
            "auc_macro_ovr_us_per_call": (lambda: auc_macro_ovr(probs, labels), 1, 1),
            "pca_2d_us_per_call": (lambda: pca_2d(feats), 1, 1),
            "project_into_us_per_call": (lambda: project_into(basis, feats), 1, 1),
            "quadratic_weighted_kappa_us_per_call": (
                lambda: quadratic_weighted_kappa(labels, predicted, k), 1, 1),
            "infer_us_per_row": (lambda: infer(params, x, 2), rows, 3),
            "write_history_csv_us_per_call": (lambda: write_history_csv(history, history_file), 1, 1),
        }
        us = {name: best_us(fn, 1, per, digits, repeat) for name, (fn, per, digits) in calls.items()}
    return {"writer": "write_rows", "rows": WRITE_ROWS,
            "us_per_row": {name: us.pop(name) for name in ("table", "projection")}, **us}


def blas_core() -> str | None:
    """The kernel name that numpy's OpenBLAS reports (``OPENBLAS_CORETYPE``
    may force it), or None when no loaded OpenBLAS names one. Read after
    numpy's import, from the libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            name = getattr(ctypes.CDLL(path), symbol, None)
            if name is not None:
                name.argtypes, name.restype = [], ctypes.c_char_p
                return name().decode()
    return None


def numpy_dispatch() -> list[str]:
    """The SIMD targets that numpy dispatches to at run time in this process:
    the entries of ``__cpu_dispatch__`` that ``__cpu_features__`` has on
    (``NPY_DISABLE_CPU_FEATURES`` may switch them off). numpy 2 keeps both in
    ``numpy._core._multiarray_umath``, numpy 1 in ``numpy.core._multiarray_umath``."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, default=2000, help="calls per timeit repeat")
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    if args.number < 1:
        parser.error("--number must be >= 1")
    layer_repeat = min(REPEAT, args.number)  # one call per repeat

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
    lines = [json.dumps({"shapes": shape["name"], "alpha": shape["alpha"], "batch": shape["batch"],
                         "us_per_call": time_step(shape, args.number)}) for shape in shape_sets()]
    lines.append(json.dumps(time_layers(layer_repeat)))
    print("machine: " + json.dumps({
        "python": platform.python_version(), "numpy": np.__version__, "cpu": cpu, "blas_core": blas_core(),
        "numpy_dispatch": numpy_dispatch(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "number": args.number, "repeat": REPEAT, "layer_repeat": layer_repeat,
        "probe_median_s": statistics.median(PROBES), "probe_ref_s": PROBE_REF_S,
    }, sort_keys=True))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
