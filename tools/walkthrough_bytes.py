"""Run the README walkthrough against two ``src`` trees and compare its bytes.

Usage (from the root of a source checkout):

    python3 tools/walkthrough_bytes.py --workload desk|desk-ce|scale-50k \\
        --seed N [--work DIR] [--coretype OLD NEW] [--explain] OLD_SRC NEW_SRC

Each tree runs, in its own directory under --work (a temporary directory by
default), the benchmark's walkthrough for the workload and seed: the
workload's configs and stages come from ``perfbench/run.py``. Four more
``diagnose`` runs follow it: the base run without ``--fit-data``, with
``--empirical-centroids``, with both, and the tuned run. Each ``diagnose``
leaves a copy of its three files in ``diagnose/<step>/``, since the next one
overwrites them. Last, a process with the tree's ``src`` on its import path
writes the raw float64 bytes of ``trainer.predict_logits`` of ``runs/base``
and ``runs/tuned`` on ``data/target.csv`` to ``logits/``: no walkthrough
file holds logits, only their argmax, kappa and rank-based AUC, so a change
in their last bits shows only there. Then ``diff -r`` compares the two
directories: ``data/``, ``runs/`` (the ``.parsed`` sidecars included),
``diagnose/`` and ``logits/``.

With ``--coretype OLD NEW`` every process of the OLD_SRC side runs with
``OPENBLAS_CORETYPE=OLD`` and every process of the NEW_SRC side with
``OPENBLAS_CORETYPE=NEW``: the two trees may be one, to compare two OpenBLAS
kernels. A name that the bundled OpenBLAS does not know leaves it on its own
choice, so the kernel each side ran under is best checked apart.

With ``--explain`` each file that differs is sized. A text file whose lines
and cells (split at commas and blanks) line up on both sides, and whose
differing cells are all numbers, and each raw ``.bin`` file of float64, get
one line: how many cells differ, the largest distance in ulps (the gap
between the cells' float64 bits read as ordered integers) and the largest
relative difference. An ``eval_*.csv`` adds each metric's delta and a
``model.txt`` the largest ulp distance in each layer. Any other file that
differs is only named. ``diff`` then names the files, not their lines.

Exits 0 and prints "no difference" when every byte matches, 1 when a byte
differs or a step fails, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import BLAS_ENV, BLAS_THREADS, CLI, WORKLOADS, walkthrough  # noqa: E402


def steps(alpha: float | None) -> list[list[str]]:
    """cclearn arguments of each step: the walkthrough, then the extra diagnoses."""
    base = ["diagnose", "--run", "runs/base", "--data", "data/target.csv"]
    fit = ["--fit-data", "data/source.csv"]
    return [
        *(args for _, args, _ in walkthrough(alpha)),
        base,
        [*base, "--empirical-centroids"],
        [*base, *fit, "--empirical-centroids"],
        ["diagnose", "--run", "runs/tuned", "--data", "data/target.csv", *fit],
    ]


# run in the compared directory with that tree's src on the import path
LOGITS = """
import os
from cclearn.data import load_table
from cclearn.model import load_model
from cclearn.trainer import predict_logits

os.mkdir("logits")
target = load_table("data/target.csv")
for run in ("base", "tuned"):
    predict_logits(load_model(f"runs/{run}/model.txt"), target).tofile(f"logits/{run}.bin")
"""


def run_walkthrough(src: Path, work: Path, workload: str, seed: int, coretype: str | None = None) -> None:
    """Run every step in ``work`` with ``src`` on the import path, under the
    OpenBLAS kernel ``coretype`` when given; SystemExit naming the step when
    one fails."""
    spec = WORKLOADS[workload]
    work.mkdir(parents=True)
    (work / "synth.json").write_text(json.dumps({**spec.synth, "seed": seed}))
    (work / "train.json").write_text(json.dumps({**spec.train, "seed": seed}))
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    env.update(dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    for i, args in enumerate([*steps(spec.alpha), ["logits"]]):
        code = LOGITS if args == ["logits"] else CLI
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], cwd=work, env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            print(f"{src}: {' '.join(args)} exited {proc.returncode}\n{proc.stderr}", end="")
            raise SystemExit(1)
        if args[0] == "diagnose":
            run = work / args[args.index("--run") + 1]
            keep = work / "diagnose" / str(i)
            keep.mkdir(parents=True)
            for name in ("heatmap_target.csv", "pca_target.csv", "spread_target.txt"):
                shutil.copyfile(run / name, keep / name)


def ulps(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The distance in ulps between two float64 arrays: their bits as int64,
    negative values mirrored so that the integers run in the floats' order
    (+0 and -0 both 0), subtracted in uint64, where the gap always fits."""
    a, b = (np.where(v < 0, np.iinfo(np.int64).min - v, v) for v in (old.view(np.int64), new.view(np.int64)))
    return np.where(a >= b, a.view(np.uint64) - b.view(np.uint64), b.view(np.uint64) - a.view(np.uint64))


def relative(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """|old - new| over the larger magnitude: 0 where both are 0, NaN where one is."""
    scale = np.maximum(np.abs(old), np.abs(new))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(scale == 0, 0.0, np.abs(old - new) / scale)


def number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def text_cells(path: Path) -> list[list[str]] | None:
    """Each line's cells, split at commas and blanks; None unless UTF-8 text."""
    try:
        return [re.split(r"[,\s]+", line) for line in path.read_text(encoding="utf-8").splitlines()]
    except UnicodeDecodeError:
        return None


def numeric_difference(old: Path, new: Path):
    """The line (a ``.bin`` file's: the index) and the old and new value of
    each differing cell, and the cell count; None unless the files line up
    cell for cell and some cells differ, each a number on both sides."""
    if old.suffix == ".bin":
        a, b = np.fromfile(old), np.fromfile(new)
        if a.shape != b.shape:
            return None
        at = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
        return at, a[at], b[at], a.size
    old_lines, new_lines = text_cells(old), text_cells(new)
    if old_lines is None or new_lines is None or len(old_lines) != len(new_lines):
        return None
    found, total = [], 0
    for i, (x, y) in enumerate(zip(old_lines, new_lines)):
        if len(x) != len(y):
            return None
        total += len(x)
        for p, q in zip(x, y):
            if p != q:
                a, b = number(p), number(q)
                if a is None or b is None:
                    return None
                found.append((i, a, b))
    if not found:
        return None
    lines, a, b = zip(*found)
    return np.array(lines), np.array(a), np.array(b), total


def model_layers(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, end line) of each tensor of a ``save_model``
    checkpoint: after the two header lines, each layer's weight rows and its
    bias row, the backbone layers first and the head last."""
    dims, sizes = path.read_text(encoding="utf-8").splitlines()[:2]
    input_dim, _, num_classes, layers = map(int, dims.split())
    widths = [input_dim, *map(int, sizes.split()), num_classes]
    spans, start = [], 2
    for i, fan_in in enumerate(widths[:-1]):
        spans.append((f"layer {i}" if i < layers else "head", start, start + fan_in + 1))
        start += fan_in + 1
    return spans


def explain(old_root: Path, new_root: Path) -> list[str]:
    """One report per file that both trees hold and whose bytes differ."""
    out = []
    for old in sorted(p for p in old_root.rglob("*") if p.is_file()):
        name = old.relative_to(old_root)
        new = new_root / name
        if not new.is_file() or filecmp.cmp(old, new, shallow=False):
            continue
        found = numeric_difference(old, new)
        if found is None:
            out.append(f"{name}: differs, and not only in numbers")
            continue
        lines, a, b, total = found
        gaps, rel = ulps(a, b), relative(a, b)
        out.append(f"{name}: {len(a)} of {total} cells differ, by at most {gaps.max()} ulps "
                   f"and {rel.max():.3g} relative")
        if name.name == "model.txt":
            out.append("  per layer, at most: " + ", ".join(
                f"{layer} {gaps[(lines >= lo) & (lines < hi)].max(initial=0)} ulps"
                for layer, lo, hi in model_layers(old)))
        elif name.name.startswith("eval_") and name.suffix == ".csv":
            with old.open(newline="") as before_file, new.open(newline="") as after_file:
                rows = list(zip(csv.reader(before_file), csv.reader(after_file)))[1:]
            for (metric, domain, before), (*_, after) in rows:
                out.append(f"  {metric} [{domain}]: {float(after) - float(before):+.3g}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", help="directory to run in; must not exist")
    parser.add_argument("--coretype", nargs=2, metavar=("OLD", "NEW"),
                        help="the OPENBLAS_CORETYPE of each side's processes")
    parser.add_argument("--explain", action="store_true",
                        help="size each difference in cells, ulps and relative terms")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        kernels = args.coretype or (None, None)
        for side, src, kernel in zip(("old", "new"), (args.old_src, args.new_src), kernels):
            run_walkthrough(src, work / side, args.workload, args.seed, kernel)
        diff = subprocess.run(  # brief with --explain: the lines after it size each difference
            ["diff", "-rq" if args.explain else "-r", str(work / "old"), str(work / "new")],
            capture_output=True, text=True,
        )
        report = explain(work / "old", work / "new") if args.explain else []
    print(diff.stdout, end="")
    print(*report, sep="\n", end="\n" if report else "")
    verdict = "no difference" if diff.returncode == 0 else "bytes differ"
    print(f"{args.workload} seed {args.seed}: {verdict}")
    return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
