"""Every imported name in the package and its tests is used, every
private module-level name of the package is referenced in the package, and
only the zonotope module builds sets that skip the constructor's checks.

A name counts as used when the module reads it or lists it in ``__all__``.
A package ``__init__`` re-exports what it imports from its own submodules,
so those imports count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "zonodiff").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module, package_init: bool = False) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module != "__future__"
              and not (package_init and node.level > 0)):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree, path.name == "__init__.py") == []


def test_detects_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "import numpy as np\nfrom a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(tree) == ["b (line 4)", "os (line 2)"]
    reexport = ast.parse("from .a import b\nfrom c import d\n")
    assert unused_imports(reexport, package_init=True) == ["d (line 2)"]
    assert unused_imports(reexport) == ["b (line 1)", "d (line 2)"]


def unreferenced_private(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level functions, classes and constants that no module
    of ``trees`` (name to parsed source) reads, as ``module.name``."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def test_no_unreferenced_private_names():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert unreferenced_private(trees) == []


def test_detects_unreferenced_private_name():
    a = ast.parse("_LIMIT = 3\n_USED = 1\n_ANN: int = 2\n__all__ = []\n"
                  "def _helper():\n    return _USED\n"
                  "class _Gone:\n    def _method(self):\n        pass\n"
                  "def _imported():\n    pass\n"
                  "def _via_attribute():\n    pass\n")
    b = ast.parse("from .a import _imported\nimport a\n"
                  "a._via_attribute()\n_helper = None\n")
    assert unreferenced_private({"a": a, "b": b}) == [
        "a._ANN", "a._Gone", "a._LIMIT", "a._helper", "b._helper"]


def trusted_references(tree: ast.Module) -> list[int]:
    """Lines that name ``_trusted``, the constructor without checks."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "_trusted")
                  or (isinstance(node, ast.Name) and node.id == "_trusted"))


def test_only_zonotope_module_skips_set_checks():
    # Elsewhere sets come from the checked builders (checked_zonotope,
    # stack_zonotopes, reduce) or the public constructor.
    found = {p.name: trusted_references(ast.parse(p.read_text(encoding="utf-8")))
             for p in PACKAGE if p.name != "zonotope.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detects_trusted_reference():
    tree = ast.parse("from .zonotope import Zonotope\n"
                     "z = Zonotope._trusted(c, g)\n_trusted = None\n")
    assert trusted_references(tree) == [2, 3]
