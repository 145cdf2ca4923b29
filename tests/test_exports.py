"""The package's export lists name what exists, the package re-exports
only what each module lists, and the README's quick start runs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import stable_extrap

MODULES = ("basis", "cli", "experiments", "extrapolator", "fastgram",
           "solver", "vandermonde", "verify")


def init_reexports():
    """(module, name) for each `from .module import name` in __init__.py."""
    tree = ast.parse(Path(stable_extrap.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_module_is_listed():
    package = Path(stable_extrap.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == sorted(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"stable_extrap.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_reexports_are_in_their_modules_all():
    reexports = init_reexports()
    assert reexports
    for module, name in reexports:
        mod = importlib.import_module(f"stable_extrap.{module}")
        assert name in getattr(mod, "__all__", ()), f"{module}.{name}"
        assert getattr(stable_extrap, name) is getattr(mod, name)


def test_readme_quick_start_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
