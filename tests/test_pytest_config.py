"""The pytest configuration in pyproject.toml, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


SKIPPING = """\
import pytest


def test_needs_a_missing_module():
    pytest.importorskip("cyclelattice_no_such_module")
"""


def _run_throwaway(tmp_path, source: str) -> subprocess.CompletedProcess:
    (tmp_path / "test_throwaway.py").write_text(source)
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_throwaway.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Warnings are errors, but reporting a falsified example must not end
    the session with INTERNALERROR before the other tests run."""
    result = _run_throwaway(tmp_path, FAILING_AND_PASSING)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in result.stdout, output


def test_skipped_tests_are_listed_with_their_reason(tmp_path):
    """A test-only dependency that is missing shows up in the summary."""
    result = _run_throwaway(tmp_path, SKIPPING)
    assert "SKIPPED [1] test_throwaway.py:5: could not import 'cyclelattice_no_such_module'" in (
        result.stdout
    ), result.stdout
