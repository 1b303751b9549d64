"""Run the mutant catalogue: each entry breaks the program on purpose, and its
named tests must fail.

Usage (from the root of a source checkout):

    python3 tools/mutants.py

Each entry in ``MUTANTS`` gives a file, an exact text that occurs once in it,
the text that replaces it, and the pytest node IDs that must fail once it is
replaced. For each entry the tool copies the whole checkout, leaving out
``.git``, ``perfbench/.work`` and bytecode caches, to a temporary directory,
since the tests also read README, ``perfbench/`` and ``tools/``. It runs the
named tests there once unmutated, with the copy's ``src`` first on the import
path, and they must all pass; then it applies the replacement and runs them
again. An entry is killed when each of its node IDs has a failing test. The
tool prints one line per entry: killed, survived, stale (the text does not
occur exactly once) or broken (the named tests do not all pass on the
unmutated copy, so a failure would show nothing), the time taken and the
failed node IDs.

Exits 0 when every entry is killed and 1 otherwise. A refactor that moves a
mutated text or a named test therefore updates this catalogue in the same
diff.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout's root
    text: str  # occurs exactly once in ``file``
    replacement: str
    kills: tuple[str, ...]  # node IDs of which each must fail


MUTANTS = [
    Mutant(
        "rotation-sine-sign", "src/cclearn/data.py",
        "rot[j, i] = math.sin(theta)", "rot[j, i] = -math.sin(theta)",
        ("tests/test_data.py::TestRotationMatrix::test_every_value_of_the_dense_givens_product",
         "tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions"),
    ),
    Mutant(
        "translation-direction", "src/cclearn/data.py",
        "return float(config.translation) * direction",
        "return -float(config.translation) * direction",
        ("tests/test_data.py::TestGenerateBlobs::test_bit_equal_to_the_whole_array_expressions",
         "tests/test_data.py::TestGenerateDomains::test_bit_equal_to_the_whole_array_expressions"),
    ),
    Mutant(  # acceptance 6 compares checkpoints only, and passes on this mutant
        "bank-updated-at-alpha-zero", "src/cclearn/trainer.py",
        "if source and config.alpha > 0:", "if source:",
        ("tests/test_trainer.py::TestTrain::test_alpha_zero_never_touches_bank",
         "tests/test_cli.py::TestDiagnose::test_empirical_centroid_fallback"),
    ),
]


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with ``mutant.text`` replaced; ValueError unless it occurs once."""
    count = source.count(mutant.text)
    if count != 1:
        raise ValueError(f"{mutant.file}: {mutant.text!r} occurs {count} times, not once")
    return source.replace(mutant.text, mutant.replacement)


def failed_nodes(output: str, kills: tuple[str, ...]) -> list[str]:
    """The node IDs of ``kills`` under which pytest's ``-rfE`` summary in
    ``output`` reports a failed or erroring test."""
    reported = [line.split(" ", 1)[1] for line in output.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return [node for node in kills
            if any(r.startswith(node) and r[len(node):][:1] in ("", "[", ":", " ") for r in reported)]


def pytest(tree: Path, nodes: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Run ``nodes`` in ``tree`` with the tree's ``src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *nodes],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def run(mutant: Mutant) -> tuple[str, list[str]]:
    """Apply ``mutant`` to a copy of the checkout and run its named tests:
    the verdict and the node IDs that failed."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=lambda d, names: [
            n for n in names
            if n in ("__pycache__", ".pytest_cache")
            or (Path(d) == ROOT and n == ".git") or (Path(d) == ROOT / "perfbench" and n == ".work")
        ])
        path = tree / mutant.file
        try:
            mutated = mutate(path.read_text(), mutant)
        except (OSError, ValueError) as exc:
            return f"stale ({exc})", []
        baseline = pytest(tree, mutant.kills)
        if baseline.returncode != 0:
            last = (baseline.stdout.strip().splitlines() or ["no output"])[-1]
            return f"broken (unmutated: {last})", failed_nodes(baseline.stdout, mutant.kills)
        path.write_text(mutated)
        proc = pytest(tree, mutant.kills)
    failed = failed_nodes(proc.stdout, mutant.kills)
    return ("killed" if len(failed) == len(mutant.kills) else "survived"), failed


def main() -> int:
    ok = True
    for mutant in MUTANTS:
        started = time.perf_counter()
        verdict, failed = run(mutant)
        ok &= verdict == "killed"
        print(f"{verdict}: {mutant.name} ({time.perf_counter() - started:.1f}s; "
              f"{len(failed)} of {len(mutant.kills)} named failed: {', '.join(failed) or '-'})",
              flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
