"""The package imports only the standard library, numpy and itself.

sympy and scipy may serve as scratch oracles, never as dependencies of
src: this test reads every module's imports with ast, so none slips in.
No module imports another's private (underscore-prefixed) names either.
"""

import ast
import sys
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
