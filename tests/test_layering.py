"""The accountant layers never import the layers built on top of them."""

import ast
from pathlib import Path

import pytest

import balloc

PACKAGE = Path(balloc.__file__).parent
LOWER = ("mechanism", "pld", "renyi", "condcomp", "mc")
UPPER = {"calibrate", "cli"}


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level balloc submodules named by every import in the tree, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "balloc" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["balloc"]:
                    continue
                parts = parts[1:]
            elif node.level > 1:  # above the package
                continue
            if parts:
                found.add(parts[0])
            else:  # `from . import x` or `from balloc import x`
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", LOWER)
def test_accountant_layers_do_not_import_calibrate_or_cli(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert imported_modules(tree) & UPPER == set()


def test_import_scan_sees_nested_and_absolute_imports():
    source = """
import numpy
import balloc.cli
from balloc import calibrate as c
from . import pld

def f():
    from .calibrate import profile
    from balloc.renyi import renyi_curve
"""
    assert imported_modules(ast.parse(source)) == {"cli", "calibrate", "pld", "renyi"}
