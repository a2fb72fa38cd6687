"""Every imported name in the package and its tests is used.

A name counts as used when the module reads it or lists it in ``__all__``.
A package ``__init__`` re-exports what it imports from its own submodules,
so those imports count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "zonodiff").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


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
