"""The suite's own pytest configuration, run on a case of its own."""

import os
import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_CASE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_after_one():
    pass


def test_after_two():
    pass
'''


def test_a_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # every warning is an error here; hypothesis's failure report imports
    # libcst, which raises mypy_extensions' TypedDict DeprecationWarning, and
    # as an error that stopped the session with INTERNALERROR at the first
    # failing example, without the example and without the later tests.  Of
    # the installed plugins only hypothesis's is loaded, as in CI, which
    # installs no other
    (tmp_path / "test_case.py").write_text(_CASE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "hypothesis.extra.pytestplugin",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 2 passed" in out
    assert "Falsifying example: test_fails(" in out and "x=10" in out
    assert proc.returncode == 1
