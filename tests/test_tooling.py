"""The pytest settings in pyproject.toml: a failing hypothesis test is reported
as one failure, and the session goes on to the tests after it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "test_probe.py"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment after code


# a comment line
def f(x):
    """Docstring."""
    y = (x +
         1)
    "a string statement that is no docstring"
    return y
'''


def test_code_line_counter_skips_comments_docstrings_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(path)], capture_output=True,
                            text=True, check=True, timeout=60)
    # import, def, the two lines of y, the string statement and return
    assert result.stdout.splitlines()[-1].split() == ["6", "total"]
