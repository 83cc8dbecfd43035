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


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Warnings are errors, but reporting a falsified example must not end
    the session with INTERNALERROR before the other tests run."""
    (tmp_path / "test_throwaway.py").write_text(FAILING_AND_PASSING)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_throwaway.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in result.stdout, output
