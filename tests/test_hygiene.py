"""Every top-level import of a library module is used in that module, and
every top-level definition is used somewhere.

The package's ``__init__`` re-exports names, so it is exempt from the
import check.  Names in quoted annotations (``-> "FiniteAlgebra"``) count
as used.  A definition counts as used when its name is read outside its
own body anywhere in ``src/``, ``tests/`` or ``perfbench/``: as a
variable, an attribute, an imported name, or an identifier string (the
package's export table and the benchmark's ``getattr`` tables name
functions that way).
"""

import ast
import importlib
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "algdual"
MODULES = sorted(p for p in SRC.rglob("*.py") if p != SRC / "__init__.py")
READERS = sorted([*SRC.rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


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


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(tree) -> list[tuple[str, ast.AST]]:
    """(name, node) of every top-level function, class and assigned name,
    dunder names excepted."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(n.id, node) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [(name, node) for name, node in out
            if not (name.startswith("__") and name.endswith("__"))]


def references(tree) -> list[tuple[str, int]]:
    """(name, line) of every name the module reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.append((node.value, node.lineno))
    return out


def unused_definitions(defining: dict, reading: dict) -> list[str]:
    """Definitions in the ``defining`` sources (name -> source) that no
    source in ``reading`` reads outside the definition's own lines."""
    trees = {name: ast.parse(text) for name, text in reading.items()}
    refs = {name: references(tree) for name, tree in trees.items()}
    out = []
    for module, text in defining.items():
        for name, node in definitions(ast.parse(text)):
            if not any(ref == name and not (
                    other == module
                    and node.lineno <= line <= node.end_lineno)
                    for other, found in refs.items()
                    for ref, line in found):
                out.append(f"{module}:{name}")
    return out


def test_detector_flags_unused_definition():
    lib = ('def used(): pass\ndef recursive(): recursive()\n'
           'TABLE = {"named": 1}\ndef named(): pass\nLIMIT = 3\n'
           'def _helper(): return LIMIT\n')
    reader = 'from lib import used\nused()\n'
    assert unused_definitions({"lib": lib}, {"lib": lib, "reader": reader}) \
        == ["lib:recursive", "lib:TABLE", "lib:_helper"]


def test_no_unused_top_level_definitions():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in READERS}
    defining = {name: text for name, text in sources.items()
                if name.startswith("src")}
    assert unused_definitions(defining, sources) == []


def _refs(value):
    """Every ``(module, name)`` pair of strings inside a kind-table entry."""
    if (isinstance(value, tuple) and len(value) == 2
            and all(isinstance(v, str) for v in value)):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _refs(v)
    elif isinstance(value, Mapping):
        for v in value.values():
            yield from _refs(v)


def _named_callables():
    """(where it is named, module, name) of every function that the kind
    tables and the benchmark's tracer name by strings."""
    from algdual.documents import KIND_TABLE

    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = [(f"KIND_TABLE[{kind!r}]", *ref)
            for kind, entry in KIND_TABLE.items() for ref in _refs(entry)]
    for table in ("SPANS", "CALL_COUNTERS", "SIZE_COUNTERS"):
        out += [(f"spans.{table}", *key) for key in getattr(spans, table)]
    return out


def test_named_functions_resolve():
    named = _named_callables()
    assert len(named) > 80
    missing = [f"{where}: {module}.{name}" for where, module, name in named
               if not callable(getattr(importlib.import_module(
                   f"algdual.{module}"), name, None))]
    assert missing == []
