"""The suite's pytest settings report every failure: a failing hypothesis
test is one failed test, and the tests after it still run."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
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


def test_a_failing_given_test_hides_no_later_test(tmp_path):
    (tmp_path / "test_order.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                          "-p", "no:cacheprovider", "-q", str(tmp_path / "test_order.py")],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
