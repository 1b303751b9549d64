"""Smoke test of ``tools/walkthrough_bytes.py``: one tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
