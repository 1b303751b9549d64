"""Run one cclearn CLI command with a span around every traced layer call.

Usage: python3 perfbench/traced_cli.py TRACE_OUT.json <cclearn arguments>

The spans are installed from outside the package. Every attribute of a
loaded ``cclearn`` module that is bound to a traced function is replaced by
a wrapper, so calls made through ``from .model import forward`` in
``trainer`` and ``cli`` are seen as well as calls within ``model``.

A span marks a layer boundary: it opens when a traced function is entered
from outside its module. A call a module makes to its own traced functions
(``bank_from_features`` calling ``ema_update``, ``evaluate_model`` calling
``predict_logits`` inside ``train``) opens no span and counts toward the
enclosing span's self time. ``cli.main`` is called by this script, so each
``cli.cmd_*`` opens a span.

Spans stay in memory while the command runs; at exit the script writes, per
traced function, its call count and summed self time (span duration minus
the durations of the spans it directly encloses), the ``cli.main`` span,
and the byte and row counters.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import wraps

# <module>.<function> names traced; the metric names of the benchmark use them.
TRACED = {
    "data": ("generate_blobs", "save_table", "load_table", "split_dataset", "make_batches"),
    "model": ("forward", "backward", "sgd_step", "save_model", "load_model"),
    "losses": ("combined_loss_and_grads", "softmax"),
    "centroids": ("batch_class_means", "ema_update", "save_bank", "load_bank", "bank_from_features"),
    "metrics": ("accuracy", "quadratic_weighted_kappa", "auc_macro_ovr"),
    "diagnostics": (
        "class_centroid_heatmap", "pca_2d", "project_into", "feature_spread",
        "save_heatmap", "save_projection",
    ),
    "trainer": (
        "train", "finetune", "evaluate_model", "predict_logits", "write_history_csv",
        "render_report",
    ),
    "cli": ("cmd_synth_data", "cmd_train", "cmd_evaluate", "cmd_diagnose", "cmd_finetune"),
}


def _counted(name: str, args) -> dict[str, int]:
    """Work counters taken at the span's boundary, keyed by counter name."""
    if name == "model.forward":
        return {"model.forward.rows": len(args[1])}
    if name == "data.load_table":
        return {"data.load_table.bytes": os.path.getsize(args[0])}
    if name == "data.save_table":
        return {"data.save_table.bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, module: str, name: str, fn):
        spans, open_ = self.spans, self._open
        prefix = f"{module}."

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            if parent >= 0 and spans[parent][0].startswith(prefix):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                open_.pop()
            for key, value in _counted(name, args).items():
                self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Replace every module binding of each traced function by its wrapper."""
        import cclearn.cli  # noqa: F401  (with the package, loads every traced module)

        wrappers = {}
        for module, functions in TRACED.items():
            mod = sys.modules[f"cclearn.{module}"]
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = self.span(module, f"{module}.{fn_name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cclearn" and not mod_name.startswith("cclearn."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def summary(self) -> dict:
        funcs = {
            f"{module}.{fn}": {"s": 0.0, "calls": 0}
            for module, functions in TRACED.items()
            for fn in functions
        }
        for name, start, end, parent in self.spans:
            duration = end - start
            funcs[name]["s"] += duration
            funcs[name]["calls"] += 1
            if parent >= 0:
                funcs[self.spans[parent][0]]["s"] -= duration
        return {"funcs": funcs, "counters": self.counters, "spans": len(self.spans)}


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from cclearn import cli
    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        result = tracer.summary()
        result["cli.main.s"] = main_s
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
