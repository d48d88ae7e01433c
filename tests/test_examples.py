"""Smoke-run the example scripts.

Each example must stay runnable end to end; they double as executable
documentation. Each takes a few seconds, so every one runs in the default
suite.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def _run(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_examples_exist():
    assert "quickstart.py" in ALL_EXAMPLES
    assert len(ALL_EXAMPLES) >= 5


def test_quickstart_runs():
    result = _run("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "snapshot queries" in result.stdout


@pytest.mark.parametrize(
    "name", [n for n in ALL_EXAMPLES if n != "quickstart.py"]
)
def test_example_runs(name):
    result = _run(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
