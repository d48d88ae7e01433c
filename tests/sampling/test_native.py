"""The compiled walk kernel's loader (``repro.sampling.native``)."""

import shutil
import sys

import pytest

from repro.sampling import native


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_loads_where_a_compiler_is_found():
    """With ``cc`` on PATH the kernel must build: no silent fallback."""
    assert native.walk_rounds() is not None


def test_no_compiler_gives_none():
    assert native._build(None) is None


def test_missing_compiler_gives_none(tmp_path):
    assert native._build(str(tmp_path / "no-such-cc")) is None


def test_failing_compiler_gives_none():
    # the interpreter rejects the C compiler's flags and exits non-zero
    assert native._build(sys.executable) is None


@pytest.mark.skipif(shutil.which("true") is None, reason="no `true` on PATH")
def test_compiler_that_builds_nothing_gives_none():
    # exits 0 but writes no shared object, so loading it fails
    assert native._build(shutil.which("true")) is None
