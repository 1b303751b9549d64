"""Smoke test of ``tools/walkthrough_bytes.py``: one tree against itself,
the kernel of each side's processes, and the sizes ``--explain`` reports."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from cclearn.model import init_params, save_model

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


def test_explain_sizes_a_one_ulp_difference_in_one_cell(tmp_path, monkeypatch, capsys):
    real_run = subprocess.run

    def fake_run(cmd, cwd=None, env=None, **kwargs):  # each step succeeds; the last writes logits
        if cmd[0] == "diff":
            return real_run(cmd, cwd=cwd, env=env, **kwargs)
        if "diagnose" in cmd:
            run = Path(cwd, cmd[cmd.index("--run") + 1])
            run.mkdir(parents=True, exist_ok=True)
            for name in ("heatmap_target.csv", "pca_target.csv", "spread_target.txt"):
                (run / name).touch()
        if cmd[-1] == "logits":
            logits = np.array([0.1, 1 / 3, -2.5])
            if Path(cwd).name == "new":
                logits[1] = np.nextafter(logits[1], 1.0)
            Path(cwd, "logits").mkdir()
            logits.tofile(Path(cwd, "logits", "base.bin"))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["walkthrough_bytes.py", "--workload", "desk", "--work",
                                      str(tmp_path / "work"), "--explain", "old_src", "new_src"])
    assert walkthrough_bytes.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["logits/base.bin: 1 of 3 cells differ, by at most 1 ulps and 1.67e-16 relative",
                        "desk seed 0: bytes differ"]


def test_explain_names_each_metrics_delta_and_each_layers_ulps(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    params = init_params(3, (2,), 2, 2, 0)
    params.weights[1][0, 1] = 0.75
    for side in (old, new):
        side.mkdir()
        save_model(params, side / "model.txt")
        params.weights[1][0, 1] = np.nextafter(0.75, 1.0)  # the new side's
    (old / "eval_target.csv").write_text("metric,domain,value\naccuracy,target,0.5\nkappa,target,0.25\n")
    (new / "eval_target.csv").write_text("metric,domain,value\naccuracy,target,0.75\nkappa,target,0.25\n")
    (old / "report.txt").write_text("accuracy=0.5\n")
    (new / "report.txt").write_text("accuracy=0.75\n")
    (old / "same.txt").write_text("1 2\n")
    (new / "same.txt").write_text("1 2\n")
    assert walkthrough_bytes.explain(old, new) == [
        f"eval_target.csv: 1 of 9 cells differ, by at most {2**51} ulps and 0.333 relative",  # 0.5 to 0.75
        "  accuracy [target]: +0.25",
        "  kappa [target]: +0",
        f"model.txt: 1 of 26 cells differ, by at most 1 ulps and {np.spacing(0.75) / 0.75:.3g} relative",
        "  per layer, at most: layer 0 0 ulps, layer 1 1 ulps, head 0 ulps",
        "report.txt: differs, and not only in numbers",
    ]
