"""Every top-level import of a library module is used in that module.

Package ``__init__`` files re-export names, so they are exempt.  Names in
quoted annotations (``-> "FiniteAlgebra"``) count as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "algdual"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(node):
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in _annotations(node):
            if (isinstance(annotation, ast.Constant)
                    and isinstance(annotation.value, str)):
                used.update(n.id for n in ast.walk(
                    ast.parse(annotation.value, mode="eval"))
                    if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_import():
    source = ('import os\nfrom x import y, z, w\n"""y"""\n'
              'def f(a: "w") -> z: pass\n')
    assert unused_imports(source) == ["os (line 1)", "y (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
