"""numpy stays the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trustgate").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "trustgate"}


def _imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of every absolute import in a module, at any depth."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "objectives.py", "trainer.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_and_the_package(path):
    roots = _imported_roots(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert roots - ALLOWED == set()


def test_check_catches_a_third_party_import():
    tree = ast.parse("import numpy as np\nfrom scipy import special\nfrom . import core_math\n")
    assert _imported_roots(tree) - ALLOWED == {"scipy"}
