"""Every test that README.md or the CI workflow cites by its function name is
defined under ``tests/``, so a renamed or deleted test fails here until the
prose that cites it follows."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\b(test_\w+)\b(?!\.py)")  # a test file's stem, ``test_data.py``, is no test
FENCE = re.compile(r"^```.*?^```", re.M | re.S)  # README's code blocks hold code, not citations


def defined_tests() -> set[str]:
    return {name for path in (ROOT / "tests").glob("*.py")
            for name in re.findall(r"^\s*def (test_\w+)", path.read_text(encoding="utf-8"), re.M)}


def test_every_test_that_readme_and_ci_name_exists():
    defined = defined_tests()
    for doc in ("README.md", ".github/workflows/tier1.yml"):
        cited = set(CITED.findall(FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))))
        assert cited, f"{doc} names no test"
        assert not cited - defined, f"{doc} names tests that tests/ does not define: {sorted(cited - defined)}"
