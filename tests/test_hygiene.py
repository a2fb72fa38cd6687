"""Every imported name in the package and its tests is used, every
private module-level name of the package is referenced in the package,
only the zonotope module builds sets that skip the constructor's checks,
and no module of the package holds a dict or set that outlives a call.

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


# Constructors of mutable mappings and sets, by the name they are called by.
MUTABLE_CONTAINERS = {"dict", "set", "defaultdict", "OrderedDict", "Counter"}


def module_containers(tree: ast.Module) -> list[int]:
    """Lines that bind a name at module or class level to a dict or set: a
    literal, a comprehension or a call of a constructor in
    ``MUTABLE_CONTAINERS``, also inside module-level ``if``, ``try`` and
    ``with`` blocks. ``__all__`` is exempt. A ``functools`` cache decorates
    or wraps a function and binds no container, so it passes."""
    found = []
    blocks = [tree.body]
    while blocks:
        for node in blocks.pop():
            if isinstance(node, ast.ClassDef):
                blocks.append(node.body)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                blocks += [getattr(node, field) for field in
                           ("body", "orelse", "finalbody") if hasattr(node, field)]
                blocks += [h.body for h in getattr(node, "handlers", [])]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if all(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in targets):
                    continue
                if node.value is not None and _is_container(node.value):
                    found.append(node.lineno)
    return sorted(found)


def _is_container(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)
    return name in MUTABLE_CONTAINERS


def test_no_module_level_containers():
    # A memo held at module level would live as long as the process, and
    # results of one run could leak into the next.
    found = {p.name: module_containers(ast.parse(p.read_text(encoding="utf-8")))
             for p in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detects_module_level_container():
    tree = ast.parse(
        "import collections, functools\n"
        "__all__ = ['f']\n"
        "_A = {}\n"
        "_B: dict = dict(x=1)\n"
        "_C = {1, 2}\n"
        "_D = {k: 1 for k in 'ab'}\n"
        "_E = collections.defaultdict(list)\n"
        "_F = frozenset({1})\n"
        "_G = (1, 2)\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    memo = {}\n"
        "    return memo\n"
        "_h = functools.cache(f)\n"
        "class K:\n"
        "    table = set()\n"
        "    def method(self):\n"
        "        self.seen = {}\n"
        "if True:\n"
        "    _I = {k for k in 'ab'}\n"
        "try:\n"
        "    _J = {}\n"
        "except ImportError:\n"
        "    _K = {}\n")
    assert module_containers(tree) == [3, 4, 5, 6, 7, 16, 20, 22, 24]


def unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines that use a ``functools`` cache other than
    ``lru_cache(maxsize=<int>)``: ``cache``, ``lru_cache`` bare or called
    without an integer ``maxsize``, and ``maxsize=None``. A module-level
    memo lives as long as the process, so it must evict. ``cached_property``
    stores its value on the instance and is not counted."""
    calls = {id(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _called_name(node.func)
            if name == "cache" or (name == "lru_cache" and not _bounded(node)):
                found.append(node.lineno)
        elif (isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in calls
              and _called_name(node) in ("cache", "lru_cache")):
            found.append(node.lineno)
    return sorted(found)


def _called_name(func: ast.expr):
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _bounded(call: ast.Call) -> bool:
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return (not call.args and len(sizes) == 1
            and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int)


def test_every_cache_is_bounded():
    found = {p.name: unbounded_caches(ast.parse(p.read_text(encoding="utf-8")))
             for p in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # The containment memo and the subset table are among the caches.
    source = (ROOT / "src" / "zonodiff" / "zonotope.py").read_text(
        encoding="utf-8")
    assert source.count("@functools.lru_cache(maxsize=") == 2


def test_detects_unbounded_cache():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache, cached_property\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def a(x): return x\n"
        "@functools.cache\n"
        "def b(x): return x\n"
        "@functools.lru_cache\n"
        "def c(x): return x\n"
        "@lru_cache(maxsize=None)\n"
        "def d(x): return x\n"
        "@lru_cache()\n"
        "def e(x): return x\n"
        "f = functools.lru_cache(maxsize=4)(a)\n"
        "g = cache(a)\n"
        "@lru_cache(16)\n"
        "def h(x): return x\n"
        "class K:\n"
        "    @cached_property\n"
        "    def p(self): return 1\n")
    assert unbounded_caches(tree) == [5, 7, 9, 11, 14, 15]
