"""The suite's pytest settings report every failure: a failing hypothesis
test, or one that runs past the time limit, is one failed test, and the
tests after it still run."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import canskew

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"
FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes_after():
    pass
'''


HANGING_THEN_PASSING = '''
import time

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_hangs(n):
    time.sleep(60)


def test_passes_after():
    pass
'''


def run_pytest(tmp_path, source, *options):
    (tmp_path / "test_order.py").write_text(source, encoding="utf-8")
    # the suite's conftest imports canskew, from wherever this process does
    path = os.pathsep.join([str(Path(canskew.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "-q", "-rf", *options, str(tmp_path / "test_order.py")],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_a_failing_given_test_hides_no_later_test(tmp_path):
    run = run_pytest(tmp_path, FAILING_THEN_PASSING)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout


def test_a_test_past_the_time_limit_fails_and_hides_no_later_test(tmp_path):
    shutil.copy(CONFTEST, tmp_path / "conftest.py")
    run = run_pytest(tmp_path, HANGING_THEN_PASSING, "-o", "test_time_limit=0.5")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
    assert "test_order.py::test_hangs ran past test_time_limit (0.5 s)" in run.stdout, run.stdout
