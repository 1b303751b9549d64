"""Smoke test of ``tools/mutants.py``: one entry end to end, and its verdicts."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_one_entry_is_killed_by_its_named_tests(monkeypatch, capsys):
    [entry] = [m for m in mutants.MUTANTS if m.name == "bank-updated-at-alpha-zero"]
    monkeypatch.setattr(mutants, "MUTANTS", [entry])
    assert mutants.main() == 0
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("killed: bank-updated-at-alpha-zero (")
    assert "2 of 2 named failed: tests/test_trainer.py::TestTrain::" in line


def test_every_entry_names_a_text_that_occurs_once():
    for mutant in mutants.MUTANTS:
        mutants.mutate((ROOT / mutant.file).read_text(), mutant)
        assert mutant.kills and all(node.startswith("tests/") for node in mutant.kills)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_the_copy_leaves_out_git_the_caches_and_the_example_database():
    root, names = str(mutants.ROOT), [".git", ".hypothesis", ".pytest_cache", "__pycache__", ".work",
                                      "src", "README.md"]
    assert mutants.left_out(root, names) == [".git", ".hypothesis", ".pytest_cache", "__pycache__"]
    assert mutants.left_out(str(mutants.ROOT / "perfbench"), [".work", "run.py"]) == [".work"]
    assert mutants.left_out(str(mutants.ROOT / "tests"), [".git", ".work", "t.py"]) == []


def test_a_text_found_twice_or_not_at_all_is_refused():
    mutant = mutants.Mutant("m", "f.py", "x = 1", "x = 2", ("tests/t.py::test",))
    assert mutants.mutate("a\nx = 1\n", mutant) == "a\nx = 2\n"
    for source in ("", "x = 1\nx = 1\n"):
        with pytest.raises(ValueError, match="occurs"):
            mutants.mutate(source, mutant)


def test_a_node_id_fails_only_through_its_own_tests():
    output = "\n".join([
        "FAILED tests/t.py::TestA::test_x[case0] - AssertionError: 1",
        "ERROR tests/t.py::test_setup - RuntimeError",
        "FAILED tests/t.py::TestA::test_xy - AssertionError",
        "1 failed, 2 passed",
    ])
    kills = ("tests/t.py::TestA::test_x", "tests/t.py::test_setup", "tests/t.py::TestA::test_y",
             "tests/t.py::TestA")
    assert mutants.failed_nodes(output, kills) == [
        "tests/t.py::TestA::test_x", "tests/t.py::test_setup", "tests/t.py::TestA"]


def test_a_surviving_stale_or_broken_entry_exits_1(monkeypatch, capsys):
    survivor = mutants.Mutant(  # a README heading: no test reads it
        "harmless", "README.md", "## CLI walkthrough", "## CLI walk-through",
        ("tests/test_data.py::TestRotationPlanes::test_zero_angle_leaves_every_axis",))
    stale = mutants.Mutant("stale", "README.md", "no such text", "", survivor.kills)
    broken = survivor._replace(  # fails before any mutation, so its failure shows nothing
        name="broken", kills=("tests/test_data.py::TestRotationPlanes::test_no_such_test",))
    monkeypatch.setattr(mutants, "MUTANTS", [survivor, stale, broken])
    assert mutants.main() == 1
    survived, stale_line, broken_line = capsys.readouterr().out.splitlines()
    assert survived.startswith("survived: harmless (") and survived.endswith("0 of 1 named failed: -)")
    assert stale_line.startswith("stale (README.md: 'no such text' occurs 0 times, not once): stale")
    assert broken_line.startswith("broken (unmutated: ") and ": broken (" in broken_line
