"""The repository's pytest configuration reports failing property tests,
and its hypothesis profile makes every run draw the same examples."""

import subprocess
import sys
from pathlib import Path

from hypothesis import Phase, settings

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_always_fails(x):
    assert x > 1_000_000
'''


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # hypothesis writes a failing-example patch; with every warning an error,
    # a deprecation raised while writing it used to end pytest with an
    # INTERNALERROR before the falsifying example was shown
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out


def test_property_tests_are_derandomized_without_a_deadline():
    assert settings.default.derandomize is True
    assert settings.default.deadline is None
    assert Phase.explain not in settings.default.phases and Phase.shrink in settings.default.phases
