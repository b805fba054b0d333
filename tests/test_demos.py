"""Smoke test: every narrative script under demos/ runs to completion, and so
does the README's "Quick start" block; ``esfl optimize`` plans the README's
``users.json`` example.

The demos and the README call the public API by name, so a removed or
renamed export fails here instead of only when someone next runs them.
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

from esfl.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _quick_start() -> str:
    """The first python code block of the README's "Quick start" section."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _users_json_example() -> str:
    """The first json code block after the README names ``users.json``'s schema."""
    section = README.read_text(encoding="utf-8").split("`users.json` for `optimize`", 1)[1]
    return section.split("```json\n", 1)[1].split("\n```", 1)[0]


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


def test_readme_users_json_example_optimizes(tmp_path):
    path = tmp_path / "users.json"
    path.write_text(_users_json_example())
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["optimize", "--users", str(path), "--arch", "vgg19",
                     "--out", str(tmp_path / "opt")]) == 0
    report = json.loads((tmp_path / "opt" / "allocation.json").read_text())
    assert len(report["cuts"]) == 3
    assert out.getvalue().strip()
