"""Smoke test of ``tools/walkthrough_bytes.py``: one tree against itself,
and the kernel of each side's processes."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("walkthrough_bytes", ROOT / "tools" / "walkthrough_bytes.py")
walkthrough_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(walkthrough_bytes)


def test_a_tree_matches_itself_on_the_desk_walkthrough(tmp_path):
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "walkthrough_bytes.py"), "--workload", "desk",
         "--seed", "0", "--work", str(tmp_path / "work"), src, src],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "desk seed 0: no difference\n"
    for side in ("old", "new"):
        work = tmp_path / "work" / side
        assert (work / "data" / "target.csv.parsed").is_file()
        assert (work / "runs" / "tuned" / "eval_target.csv").is_file()
        # the walkthrough's diagnose and the four that follow it
        kept = sorted(work.joinpath("diagnose").iterdir())
        assert len(kept) == 5
        assert all((d / "spread_target.txt").is_file() for d in kept)
        # the raw float64 logits of both runs: desk has K = 4 classes
        rows = len(work.joinpath("data", "target.csv").read_text().splitlines()) - 1
        for run in ("base", "tuned"):
            logits = work / "logits" / f"{run}.bin"
            assert logits.stat().st_size == rows * 4 * 8


def test_each_side_runs_every_process_under_its_own_kernel(tmp_path, monkeypatch):
    kernels = {}  # side: the OPENBLAS_CORETYPE of each of its processes
    real_run = subprocess.run

    def recording_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "diff":
            return real_run(cmd, cwd=cwd, env=env, **kwargs)
        kernels.setdefault(Path(cwd).name, []).append(env.get("OPENBLAS_CORETYPE"))
        if "diagnose" in cmd:  # the files the tool keeps a copy of
            run = Path(cwd, cmd[cmd.index("--run") + 1])
            run.mkdir(parents=True, exist_ok=True)
            for name in ("heatmap_target.csv", "pca_target.csv", "spread_target.txt"):
                (run / name).touch()
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(subprocess, "run", recording_run)

    def main(work, *options):
        monkeypatch.setattr(sys, "argv", ["walkthrough_bytes.py", "--workload", "desk", "--work",
                                          str(tmp_path / work), *options, "old_src", "new_src"])
        return walkthrough_bytes.main()

    steps = len(walkthrough_bytes.steps(walkthrough_bytes.WORKLOADS["desk"].alpha)) + 1  # and the logits
    assert main("kernels", "--coretype", "Haswell", "Zen") == 0
    assert kernels == {"old": ["Haswell"] * steps, "new": ["Zen"] * steps}
    kernels.clear()  # without the option each side keeps the caller's choice
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Sandybridge")
    assert main("inherited") == 0
    assert kernels == {"old": ["Sandybridge"] * steps, "new": ["Sandybridge"] * steps}
