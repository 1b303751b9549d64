"""cclearn benchmark: the README CLI walkthrough, one fresh process per stage.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload desk|desk-ce|scale-50k|all \\
        --seed N --seconds S --trace 0|1

The stages import ``cclearn`` from ``src/``; nothing is installed. One
pipeline is the walkthrough for one seed: synth-data, train, evaluate on the
target and on the holdout split, diagnose, finetune, and evaluate the tuned
run on the target. Each stage waits for the one before it: a closed loop with
one client. A pass runs the pipeline once for each of the workload's seeds,
starting at --seed. Passes repeat while another one fits into --seconds;
there is always at least one.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 makes one untraced pass, then traced passes whose stages run
through perfbench/traced_cli.py, and prints the per-layer metrics.

Every run checks the outputs (see perfbench/README.md) and prints, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics. Run directories live under perfbench/.work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from traced_cli import TRACED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
LOG = WORK / "children.log"

# The program is single-threaded; one BLAS thread keeps its small matrix
# products (and so the bytes it writes) independent of the machine's load.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# The speed of a shared virtual CPU moves by tens of percent within seconds.
# While a child runs, a fixed pure-Python loop is timed on the same CPU every
# PROBE_INTERVAL_S; the end-to-end times are wall times rescaled to the speed
# at which that probe takes PROBE_REF_S (see README.md, "Noise").
PROBE_LOOPS = 5000
PROBE_REF_S = 3.5e-4
PROBE_INTERVAL_S = 0.05
CLI = "import sys; from cclearn.cli import main; sys.exit(main())"
MACHINE = """
import json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas}))
"""


@dataclass(frozen=True)
class Workload:
    seeds: int  # consecutive seeds per pass, from --seed
    synth: dict  # synth-data config, without the seed
    train: dict  # train config, without the seed
    alpha: float | None = None  # `train --alpha` override
    why: str = ""


DESK_SYNTH = {"num_classes": 4, "input_dim": 16, "samples_per_class": 200}
DESK_TRAIN = {"epochs": 50, "batch_size": 32, "feature_dim": 8, "m0": 0.96}
WORKLOADS = {
    "desk": Workload(
        9, DESK_SYNTH, DESK_TRAIN,
        why="README walkthrough, alpha=1: 900 steps of batch 32 and process start-up dominate",
    ),
    "desk-ce": Workload(
        9, DESK_SYNTH, DESK_TRAIN, alpha=0,
        why="desk with --alpha 0: bypasses the EMA bank update and the contrast loss; the CE quality arm",
    ),
    "scale-50k": Workload(
        1,
        {"num_classes": 10, "input_dim": 64, "samples_per_class": 5000},
        {"epochs": 3, "batch_size": 256, "m0": 0.99, "base_lr": 0.05},
        why="50k rows per domain: table reads and writes, AUC and PCA at size dominate",
    ),
}

STAGES = ("synth_data", "train", "evaluate", "diagnose", "finetune")
RUN_FILES = ("config.json", "model.txt", "bank.txt", "history.csv", "report.txt")
QUALITY = (
    "target_accuracy", "target_kappa", "target_auc_macro", "tuned_target_accuracy",
    "heatmap_diagonal",
)
E2E_UNITS = {
    "setup_s": "s", "pipeline_s": "s",
    **{f"{stage}_s": "s" for stage in STAGES},
    "peak_rss_mb": "MB",
    **dict.fromkeys(QUALITY, "score"),
}

LAYER_UNITS = {
    **{
        f"{module}.{fn}.{stat}": unit
        for module, functions in TRACED.items()
        for fn in functions
        for stat, unit in (("s", "s"), ("calls", "count"))
    },
    "cli.startup.s": "s",
    "model.forward.rows": "count",
    "trainer.steps": "count",
    "data.save_table.bytes": "B",
    "data.save_table.mb_per_s": "MB/s",
    "data.load_table.bytes": "B",
    "data.load_table.mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}


def walkthrough(alpha: float | None) -> list[tuple[str, list[str], list[str]]]:
    """(stage, cclearn arguments, files the stage must write), in README order."""
    train = ["train", "--config", "train.json", "--data", "data/source.csv", "--out", "runs/base"]
    if alpha is not None:
        train += ["--alpha", str(alpha)]
    return [
        ("synth_data", ["synth-data", "--config", "synth.json", "--out", "data/"],
         ["data/source.csv", "data/target.csv", "data/synth_config.json"]),
        ("train", train, [f"runs/base/{f}" for f in (*RUN_FILES, "holdout_test.csv")]),
        ("evaluate", ["evaluate", "--run", "runs/base", "--data", "data/target.csv"],
         ["runs/base/eval_target.csv"]),
        ("evaluate", ["evaluate", "--run", "runs/base", "--data", "runs/base/holdout_test.csv"],
         ["runs/base/eval_holdout_test.csv"]),
        ("diagnose", ["diagnose", "--run", "runs/base", "--data", "data/target.csv",
                      "--fit-data", "data/source.csv"],
         ["runs/base/heatmap_target.csv", "runs/base/pca_target.csv",
          "runs/base/spread_target.txt"]),
        ("finetune", ["finetune", "--run", "runs/base", "--data", "data/target.csv",
                      "--out", "runs/tuned"],
         [f"runs/tuned/{f}" for f in RUN_FILES]),
        ("evaluate", ["evaluate", "--run", "runs/tuned", "--data", "data/target.csv"],
         ["runs/tuned/eval_target.csv"]),
    ]


class Ops:
    """Stage invocations and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Pipeline:
    seed: int
    stage_s: dict[str, float]  # speed-adjusted
    wall_s: float  # the whole chain, as the clock read it
    peak_rss_mb: float
    quality: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


@dataclass
class Child:
    code: int
    wall_s: float
    adjusted_s: float  # wall_s at the reference probe speed
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(BLAS_ENV, str(BLAS_THREADS)))
    return env


def probe() -> float:
    """Best of two timings of a fixed pure-Python loop: the CPU's current speed."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        x = 0.0
        for i in range(PROBE_LOOPS):
            x += i * 0.5
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """Probes the CPU's speed from a thread until stopped; the median is the estimate."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(probe())
            if self._stop.wait(PROBE_INTERVAL_S):
                self.samples.append(probe())
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def run_child(argv: list[str], cwd: Path, env: dict) -> Child:
    """Run one child to completion while probing the CPU's speed."""
    with open(LOG, "ab") as log, SpeedProbe() as speed:
        log.write(f"$ {' '.join(argv)}\n".encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    adjusted = wall * PROBE_REF_S / statistics.median(speed.samples)
    return Child(proc.returncode, wall, adjusted, usage.ru_maxrss / 1024.0)


def flush_tree(base: Path) -> None:
    """fsync every file under ``base``, so that writing back what one stage wrote
    does not land in the timed interval of a later one."""
    for path in base.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def tree_digest(base: Path, dirs: tuple[str, ...]) -> str:
    """sha256 over the relative path and bytes of every file under ``dirs``."""
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted((base / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(base)).encode() + b"\0")
                digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def read_metric_csv(path: Path) -> dict[str, float]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return {metric: float(value) for metric, _, value in (line.split(",") for line in lines)}


def read_quality(pdir: Path) -> dict[str, float]:
    base = read_metric_csv(pdir / "runs/base/eval_target.csv")
    tuned = read_metric_csv(pdir / "runs/tuned/eval_target.csv")
    spread = dict(
        line.split(" ", 1)
        for line in (pdir / "runs/base/spread_target.txt").read_text(encoding="utf-8").splitlines()
    )
    return {
        "target_accuracy": base["accuracy"],
        "target_kappa": base["quadratic_weighted_kappa"],
        "target_auc_macro": base["auc_macro_ovr"],
        "tuned_target_accuracy": tuned["accuracy"],
        "heatmap_diagonal": float(spread["mean_heatmap_diagonal"]),
    }


def quality_in_range(quality: dict[str, float]) -> bool:
    low = dict.fromkeys(QUALITY, 0.0) | {"target_kappa": -1.0, "heatmap_diagonal": -1.0}
    return all(math.isfinite(v) and low[k] <= v <= 1.0 for k, v in quality.items())


class Bench:
    def __init__(self, ops: Ops, env: dict[str, str], digest_key: str):
        self.ops = ops
        self.env = env
        self.digest_file = WORK / f"digests-{digest_key}.json"
        try:
            self.digests = json.loads(self.digest_file.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.digests = {}

    def check_digest(self, workload: str, seed: int, digest: str) -> None:
        """Run directories of one (workload, seed) must match across every repeat."""
        key = f"{workload}/{seed}"
        known = self.digests.setdefault(key, digest)
        self.ops.check(known == digest, f"{key}: run directory differs from an earlier repeat")

    def save_digests(self) -> None:
        tmp = self.digest_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.digest_file)

    def time_setup(self) -> float:
        """Median adjusted time of a fresh interpreter running ``import cclearn``."""
        argv = [sys.executable, "-c", "import cclearn"]
        run_child(argv, WORK, self.env)  # warm-up: writes the bytecode caches
        times = []
        for _ in range(SETUP_REPEATS):
            child = run_child(argv, WORK, self.env)
            if self.ops.check(child.code == 0, "import cclearn failed"):
                times.append(child.adjusted_s)
        return statistics.median(times) if times else math.nan

    def pipeline(self, name: str, seed: int, traced: bool) -> Pipeline | None:
        workload = WORKLOADS[name]
        pdir = WORK / f"{name}-{seed}"
        shutil.rmtree(pdir, ignore_errors=True)
        (pdir / "trace").mkdir(parents=True)
        (pdir / "synth.json").write_text(json.dumps({**workload.synth, "seed": seed}))
        (pdir / "train.json").write_text(json.dumps({**workload.train, "seed": seed}))
        stage_s = dict.fromkeys(STAGES, 0.0)
        wall_s = 0.0
        peak = 0.0
        layers: dict[str, float] = {}
        for i, (stage, args, outputs) in enumerate(walkthrough(workload.alpha)):
            trace_file = pdir / "trace" / f"{i}.json"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_file), *args]
            else:
                argv = [sys.executable, "-c", CLI, *args]
            child = run_child(argv, pdir, self.env)
            what = f"{name} seed {seed}: cclearn {' '.join(args)}"
            if not (
                self.ops.check(child.code == 0, f"{what} exited {child.code} (see {LOG})")
                and self.ops.check(
                    all((pdir / f).is_file() for f in outputs), f"{what} left out {outputs}"
                )
            ):
                return None
            flush_tree(pdir)
            stage_s[stage] += child.adjusted_s
            wall_s += child.wall_s
            peak = max(peak, child.rss_mb)
            if traced:
                trace = json.loads(trace_file.read_text(encoding="utf-8"))
                add_trace(layers, trace, child.wall_s)
            if traced and stage == "synth_data":
                check = run_child(
                    [sys.executable, str(BENCH_DIR / "check_tables.py"), "synth.json", "data"],
                    pdir, self.env,
                )
                self.ops.check(
                    check.code == 0, f"{name} seed {seed}: tables do not load back bit-equal"
                )
        try:
            quality = read_quality(pdir)
        except (OSError, ValueError, KeyError) as exc:
            self.ops.check(False, f"{name} seed {seed}: unreadable quality output: {exc!r}")
            return None
        self.ops.check(quality_in_range(quality), f"{name} seed {seed}: quality {quality}")
        self.check_digest(name, seed, tree_digest(pdir, ("data", "runs")))
        shutil.rmtree(pdir)
        if traced:
            finish_layers(layers)
        return Pipeline(seed, stage_s, wall_s, peak, quality, layers)

    def passes(self, name: str, seed: int, seconds: float, traced: bool) -> list[Pipeline]:
        """Whole passes over the workload's seeds while another fits into ``seconds``."""
        seeds = range(seed, seed + WORKLOADS[name].seeds)
        done: list[Pipeline] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for s in seeds:
                result = self.pipeline(name, s, traced)
                if result is not None:
                    done.append(result)
            now = time.perf_counter()
            if now - start + (now - pass_start) > seconds:
                return done


def add_trace(layers: dict[str, float], trace: dict, wall: float) -> None:
    for fn, stats in trace["funcs"].items():
        layers[f"{fn}.s"] = layers.get(f"{fn}.s", 0.0) + stats["s"]
        layers[f"{fn}.calls"] = layers.get(f"{fn}.calls", 0) + stats["calls"]
    for counter, value in trace["counters"].items():
        layers[counter] = layers.get(counter, 0) + value
    layers["cli.startup.s"] = layers.get("cli.startup.s", 0.0) + wall - trace["cli.main.s"]


def finish_layers(layers: dict[str, float]) -> None:
    layers["trainer.steps"] = layers["model.sgd_step.calls"]
    for table in ("data.save_table", "data.load_table"):
        layers.setdefault(f"{table}.bytes", 0)
        seconds = layers[f"{table}.s"]
        layers[f"{table}.mb_per_s"] = layers[f"{table}.bytes"] / seconds / 1e6 if seconds else 0.0
    layers.setdefault("model.forward.rows", 0)


def per_seed_quality(pipelines: list[Pipeline]) -> dict[int, dict[str, float]]:
    by_seed: dict[int, dict[str, float]] = {}
    for p in pipelines:
        by_seed.setdefault(p.seed, p.quality)
    return dict(sorted(by_seed.items()))


def e2e_metrics(setup_s: float, pipelines: list[Pipeline]) -> dict[str, float]:
    med = statistics.median
    metrics = {"setup_s": setup_s, "pipeline_s": med(p.pipeline_s for p in pipelines)}
    for stage in STAGES:
        metrics[f"{stage}_s"] = med(p.stage_s[stage] for p in pipelines)
    metrics["peak_rss_mb"] = med(p.peak_rss_mb for p in pipelines)
    quality = per_seed_quality(pipelines).values()
    for key in QUALITY:
        metrics[key] = statistics.fmean(q[key] for q in quality)
    return metrics


def layer_metrics(untraced: list[Pipeline], traced: list[Pipeline]) -> dict[str, float]:
    metrics = {
        key: statistics.median(p.layers[key] for p in traced)
        for key in LAYER_UNITS if key != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        p.pipeline_s for p in traced
    ) / statistics.median(p.pipeline_s for p in untraced)
    return metrics


def machine_info(env: dict[str, str]) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", MACHINE], cwd=WORK, env=env,
        capture_output=True, text=True, check=True,
    )
    info = json.loads(out.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    info.update(
        nproc=os.cpu_count(),
        pinned_cpu=sorted(os.sched_getaffinity(0)),
        probe_ref_s=PROBE_REF_S,
        cpu=cpu,
        platform=platform.platform(),
        blas_threads=BLAS_THREADS,
        blas_thread_env=list(BLAS_ENV),
    )
    return info


def source_key(machine: dict) -> str:
    """Identifies the code, benchmark and toolchain a run-directory digest belongs to."""
    digest = hashlib.sha256(json.dumps(
        [machine["python"], machine["numpy"], machine["blas"]]).encode())
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def print_metrics(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for key, value in metrics.items():
        print(f"  {key:<40} {value:>14.6g} {units[key]}")


def print_quality(name: str, pipelines: list[Pipeline]) -> None:
    print(f"per-seed quality, {name}:")
    print(f"  {'seed':>6} {'target_accuracy':>16} {'heatmap_diagonal':>17} {'tuned_accuracy':>15}")
    for seed, q in per_seed_quality(pipelines).items():
        print(f"  {seed:>6} {q['target_accuracy']:>16.6f} {q['heatmap_diagonal']:>17.6f}"
              f" {q['tuned_target_accuracy']:>15.6f}")


def print_paired(contrast: list[Pipeline], ce: list[Pipeline]) -> None:
    """Per-seed desk (contrast) against desk-ce (CE): acceptance 5's paired wins."""
    a, b = per_seed_quality(contrast), per_seed_quality(ce)
    seeds = sorted(set(a) & set(b))
    print("per-seed quality, desk (contrast) vs desk-ce (CE):")
    print(f"  {'seed':>6} {'acc contrast':>13} {'acc CE':>9} {'diag contrast':>14} {'diag CE':>9}")
    for s in seeds:
        print(f"  {s:>6} {a[s]['target_accuracy']:>13.6f} {b[s]['target_accuracy']:>9.6f}"
              f" {a[s]['heatmap_diagonal']:>14.6f} {b[s]['heatmap_diagonal']:>9.6f}")
    for key in ("target_accuracy", "heatmap_diagonal"):
        wins = sum(a[s][key] > b[s][key] for s in seeds)
        print(f"  contrast beats CE on {key}: {wins} of {len(seeds)} seeds")


def run_workload(bench: Bench, name: str, args) -> tuple[dict[str, float], dict[str, str], list]:
    if args.trace:
        untraced = bench.passes(name, args.seed, 0, traced=False)
        traced = bench.passes(name, args.seed, args.seconds, traced=True)
        if not untraced or not traced:
            return {}, {}, []
        metrics = layer_metrics(untraced, traced)
        units = LAYER_UNITS
        title = (
            f"{name}: per-layer metrics, median of {len(traced)} traced pipeline(s)"
            " (self seconds, calls and counters per pipeline); pipeline_s median"
            f" {statistics.median(p.pipeline_s for p in untraced):.4f} s untraced,"
            f" {statistics.median(p.pipeline_s for p in traced):.4f} s traced"
        )
        pipelines = traced
    else:
        setup_s = bench.time_setup()
        pipelines = bench.passes(name, args.seed, args.seconds, traced=False)
        if not pipelines:
            return {}, {}, []
        metrics = e2e_metrics(setup_s, pipelines)
        units = E2E_UNITS
        title = (
            f"{name}: end-to-end metrics, median of {len(pipelines)} pipeline(s), quality"
            f" mean over seeds; setup_s median of {SETUP_REPEATS}; wall-clock pipeline_s"
            f" median {statistics.median(p.wall_s for p in pipelines):.4f} s"
        )
    print_metrics(title, metrics, units)
    print_quality(name, pipelines)
    return metrics, units, pipelines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cclearn" / "__init__.py").is_file():
        print(f"error: no cclearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    LOG.write_bytes(b"")
    # The probe speaks for the CPU the children run on only if they share one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ops = Ops()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = child_env()
    machine = machine_info(env)
    bench = Bench(ops, env, source_key(machine))
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name in names:
        print(f"workload {name}: seeds {args.seed}..{args.seed + WORKLOADS[name].seeds - 1};"
              f" {WORKLOADS[name].why}")

    results = {}
    for name in names:
        results[name] = run_workload(bench, name, args)
    bench.save_digests()
    if "desk" in results and "desk-ce" in results:
        print_paired(results["desk"][2], results["desk-ce"][2])

    metrics = {}
    for name, (values, units, _) in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    if not metrics:
        print(f"error: no pipeline completed; {ops.failed} failed operation(s)", file=sys.stderr)
        return 1
    print(f"failed_ops: {ops.failed} of {ops.attempted} stage invocations and output checks")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
