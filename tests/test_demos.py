"""Smoke test: every narrative script under demos/ runs to completion, and so
does the README's "Quick start" block; ``esfl optimize`` plans the README's
``users.json`` example; and every name the README cites from the package
resolves.

The demos and the README call the public API by name, so a removed or
renamed export fails here instead of only when someone next runs them.
"""

import contextlib
import importlib
import io
import json
import pkgutil
import re
import runpy
from pathlib import Path

import pytest

import esfl
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


# a backticked name, or a call of one: `Name`, `Class.attr`, `f(x, y)`
_CODE_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)*)(?:\([^`]*\))?`")
# a name that ends in a file suffix names a file, such as `users.json`
_FILE_NAME = re.compile(r".*\.(json|txt|csv|md|py)")


def _readme_references() -> list[tuple[str, list]]:
    """Each backticked name in the README whose first part is an attribute of
    an ``esfl`` module, with the modules that have that attribute."""
    modules = [esfl] + [importlib.import_module(f"esfl.{m.name}")
                        for m in pkgutil.iter_modules(esfl.__path__)
                        if m.name != "__main__"]   # importing it runs the CLI
    names = set(_CODE_NAME.findall(README.read_text(encoding="utf-8")))
    references = []
    for name in sorted(names):
        owners = [m for m in modules if hasattr(m, name.split(".")[0])]
        if owners and not _FILE_NAME.fullmatch(name):
            references.append((name, owners))
    return references


def _resolves(module, name: str) -> bool:
    obj = module
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_code_references_resolve():
    references = _readme_references()
    assert len(references) >= 30    # the pattern still finds the README's names
    unresolved = [f"{m.__name__}: {name}" for name, owners in references
                  for m in owners if not _resolves(m, name)]
    assert unresolved == []
