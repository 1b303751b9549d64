"""The benchmark's traced run wraps package functions by name; every name it
lists must exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def test_every_traced_name_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"cclearn.{module}.{name}"
        for module, names in traced_cli.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"cclearn.{module}"), name, None))
    ]
    assert traced_cli.TRACED and not missing
