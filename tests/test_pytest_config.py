"""The suite's own pytest settings keep a failing property readable.

``pyproject.toml`` turns warnings into errors. A failing ``hypothesis``
property must still end in its falsifying example, which is what a reader
needs to reproduce the failure, and not in an error raised while hypothesis
explains it.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_probe(x):
    assert x < 5
"""


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output          # tests failed, not an internal error
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_probe(" in output
