"""The package imports only the standard library, numpy and itself.

sympy and scipy may serve as scratch oracles, never as dependencies of
src: this test reads every module's imports with ast, so none slips in.
No module imports another's private (underscore-prefixed) names either,
every upper-case module-level constant is read somewhere in src, the
package exports exactly the names its __init__ imports, and every public
function, class and method is referred to in src, demos or tools.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flagricci"
ALLOWED = {"numpy", "flagricci"}


def _imported_roots(tree: ast.AST) -> set:
    """Top-level names of every absolute import in the tree."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def _private_imports(tree: ast.AST) -> set:
    """Underscore-prefixed names imported from flagricci modules."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "flagricci")
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_flagricci(path):
    roots = _imported_roots(ast.parse(path.read_text(), filename=str(path)))
    foreign = sorted(r for r in roots if r not in ALLOWED and r not in sys.stdlib_module_names)
    assert not foreign, f"{path.name} imports {foreign}"


def test_import_scan_sees_every_form():
    tree = ast.parse("import scipy.linalg\nfrom sympy import Matrix\nfrom . import polyalg\nimport os, numpy as np\n")
    assert _imported_roots(tree) == {"scipy", "sympy", "os", "numpy"}
    assert len(list(SRC.glob("*.py"))) >= 9


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another_module(path):
    private = sorted(_private_imports(ast.parse(path.read_text(), filename=str(path))))
    assert not private, f"{path.name} imports {private}"


def test_private_import_scan_sees_every_form():
    tree = ast.parse(
        "from .polyalg import _mul, sub\nfrom . import _x\nfrom flagricci.dynamics import _limits\n"
        "from numpy import _core\n"
    )
    assert _private_imports(tree) == {"_mul", "_x", "_limits"}


def _module_constants(tree: ast.Module) -> set:
    """Upper-case names assigned at the module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and n.id.isupper())
    return names


def _names_read(tree: ast.AST) -> set:
    """Names loaded anywhere in the tree, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_module_constant_is_read():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    constants = set().union(*map(_module_constants, trees))
    dead = sorted(constants - set().union(*map(_names_read, trees)))
    assert not dead, f"constants never read in src: {dead}"
    assert len(constants) >= 100


def test_constant_scan_sees_every_form():
    tree = ast.parse(
        "A = 1\n_B, (C, d) = 2, (3, 4)\nE: int = 5\nF += 6\nif A:\n    G = 7\n"
        "def f():\n    H = 8\n    return mod.C + _B\nx = [A]\n"
    )
    assert _module_constants(tree) == {"A", "_B", "C", "E", "F"}
    assert _module_constants(tree) - _names_read(tree) == {"E", "F"}


def _public_names(tree: ast.Module) -> tuple:
    """Names imported at the module's top level, and the names its __all__ lists."""
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed = {elt.value for elt in node.value.elts}
    return imported, listed


def test_package_exports_exactly_what_it_imports():
    imported, listed = _public_names(ast.parse((SRC / "__init__.py").read_text()))
    assert imported == listed
    assert len(listed) >= 40


def test_public_name_scan_sees_every_form():
    tree = ast.parse(
        "from __future__ import annotations\nfrom .a import B, c as d\n__version__ = '1'\n"
        "__all__ = ['B', 'd', 'e']\ndef f():\n    from .g import h\n"
    )
    assert _public_names(tree) == ({"B", "d"}, {"B", "d", "e"})


ROOT = SRC.parent.parent
CALLERS = [SRC, ROOT / "demos", ROOT / "tools"]


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class
    and each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.AST) -> Counter:
    """Names the tree refers to: loaded names and attributes, imported
    names, and identifier strings such as __all__ entries."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def _unreferenced(defining: dict, callers: list) -> list:
    """Qualified names of the public definitions in the defining modules
    (name to tree) that no caller tree refers to outside the definition."""
    refs = sum(map(_references, callers), Counter())
    return sorted(f"{module}.{qual}" for module, tree in defining.items() for qual, node in _public_definitions(tree)
                  if refs[node.name] <= _references(node)[node.name])


def test_every_public_definition_is_referenced_outside_tests():
    """Each public function, class and method of the package is referred
    to in src, demos or tools; a reference from tests alone does not count."""
    defining = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    callers = [ast.parse(p.read_text(), filename=str(p)) for d in CALLERS for p in sorted(d.glob("*.py"))]
    assert len(callers) >= 15
    assert _unreferenced(defining, callers) == []


def test_caller_scan_sees_every_form():
    mod = ast.parse(
        "import os.path as osp\n__all__ = ['listed']\n"
        "def listed(): pass\ndef called(): pass\ndef loaded(): pass\ndef imported(): pass\ndef attr(): pass\n"
        "def recursive(n):\n    return recursive(n - 1)\ndef stored(): pass\ndef _private(): pass\n"
        "class Used:\n    def method(self): pass\n    def unused(self): pass\n    def _hidden(self): pass\n"
        "class Unused: pass\n"
    )
    user = ast.parse(
        "from m import imported\ncalled()\nx = [loaded]\nobj.attr\nUsed().method()\nstored = 1\nobj.stored = 2\n"
    )
    assert _unreferenced({"m": mod}, [mod, user]) == [
        "m.Unused", "m.Used.unused", "m.recursive", "m.stored",
    ]
