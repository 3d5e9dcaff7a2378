"""Every module of the package and of the tests reads each name it imports.

A name is read when the module loads it anywhere, annotations written as
strings included. The package's __init__.py is exempt: its imports are the
public re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for path in [*ROOT.joinpath("tests").glob("*.py"),
                      *ROOT.joinpath("src", "trinegamble").glob("*.py")]
    if path.relative_to(ROOT) != pathlib.Path("src/trinegamble/__init__.py")
)


def _imported(tree):
    """name -> line of every import binding, bar __future__ flags."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read(tree):
    """Every name the module loads, in code or in a string annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    read = _read(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os, random\n"
        "from math import pi as PI, tau\n"
        "from typing import Optional\n"
        "def f(x: 'Optional[int]') -> float:\n"
        "    random = 1\n"
        "    return os.sep, tau\n"
    )
    # random is only rebound, never read; PI is never read
    assert unused_imports(source) == [(2, "random"), (3, "PI")]
