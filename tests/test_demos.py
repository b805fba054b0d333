"""Smoke test: every narrative script under demos/ runs to completion, and so
does the README's "Quick start" block.

The demos and the README call the public API by name, so a removed or
renamed export fails here instead of only when someone next runs them.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _quick_start() -> str:
    """The first python code block of the README's "Quick start" section."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if path == README:
            code = compile(_quick_start(), f"{README.name} (Quick start)", "exec")
            exec(code, {"__name__": "__main__"})
        else:
            runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
