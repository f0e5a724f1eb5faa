"""The suite's own pytest configuration (pyproject.toml)."""
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_a_passing_test():
    pass
"""


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report raises a DeprecationWarning of its own; turned
    # into an error, it ended the run with INTERNALERROR before the next test
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1], proc.stdout
