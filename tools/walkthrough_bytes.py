"""Run the README walkthrough against two ``src`` trees and compare its bytes.

Usage (from the root of a source checkout):

    python3 tools/walkthrough_bytes.py --workload desk|desk-ce|scale-50k \\
        --seed N [--work DIR] [--coretype OLD NEW] OLD_SRC NEW_SRC

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

Exits 0 and prints "no difference" when every byte matches, 1 when a byte
differs or a step fails, and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", help="directory to run in; must not exist")
    parser.add_argument("--coretype", nargs=2, metavar=("OLD", "NEW"),
                        help="the OPENBLAS_CORETYPE of each side's processes")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        kernels = args.coretype or (None, None)
        for side, src, kernel in zip(("old", "new"), (args.old_src, args.new_src), kernels):
            run_walkthrough(src, work / side, args.workload, args.seed, kernel)
        diff = subprocess.run(
            ["diff", "-r", str(work / "old"), str(work / "new")], capture_output=True, text=True
        )
    print(diff.stdout, end="")
    verdict = "no difference" if diff.returncode == 0 else "bytes differ"
    print(f"{args.workload} seed {args.seed}: {verdict}")
    return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
