"""Smoke tests: every script under scripts/ starts, and every exported name
resolves, so a name deleted from the package cannot go unnoticed."""
import ast
import importlib
import pkgutil
import runpy
import sys
from pathlib import Path

import pytest

import canskew

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
MODULES = [info.name for info in pkgutil.iter_modules(canskew.__path__)]


def test_scripts_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_exits_0(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script.name, "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"canskew.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    tree = ast.parse(Path(canskew.__file__).read_text(encoding="utf-8"))
    exports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert len(exports) > 20
    missing = [f"{module}.{attr}" for module, attr in exports
               if not hasattr(importlib.import_module(f"canskew.{module}"), attr) or not hasattr(canskew, attr)]
    assert missing == []
