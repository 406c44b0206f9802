"""numpy stays the package's only runtime dependency, core_math the one home of the
formulas, and the modules import each other in layers, without a cycle."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trustgate"
SOURCES = sorted(PACKAGE.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "trustgate"}
# The objective, trainer and landscape modules call core_math for every log,
# root and clamp; the oracles in verification restate formulas on purpose.
FORMULA_USERS = ("objectives.py", "trainer.py", "landscape.py")
FORMULA_UFUNCS = {"log", "log1p", "expm1", "sqrt", "clip"}


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


def _formula_calls(tree: ast.AST) -> set[str]:
    """Names of the numpy log, root and clip functions a module calls as ``np.<name>`` or ``numpy.<name>``."""
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and node.func.attr in FORMULA_UFUNCS
    }


@pytest.mark.parametrize("name", FORMULA_USERS)
def test_formulas_come_from_core_math(name):
    path = PACKAGE / name
    assert _formula_calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == set()


def test_check_catches_a_formula_copy():
    tree = ast.parse("import numpy as np\nx = np.sqrt(1.0 - np.clip(p, 0, 1))\ny = np.maximum(p, 1.0)\n")
    assert _formula_calls(tree) == {"sqrt", "clip"}


# Each module may import only modules before it; the package's __init__ and
# __main__ sit above every layer.
LAYERS = ("core_math", "objectives", "trainer", "landscape", "verification", "cli")
ENTRY_POINTS = ("__init__", "__main__")


def _package_imports(tree: ast.AST) -> list[tuple[str, bool]]:
    """(module, inside a function) for each relative import of a package module."""
    nested = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
            found.extend((module, id(node) in nested) for module in modules)
    return found


def _layer_faults(name: str, tree: ast.AST) -> list[str]:
    """The imports of module ``name`` that break the layers: a module not before it, or any inside a function."""
    earlier = LAYERS[: LAYERS.index(name)]
    return [
        f"{module} inside a function" if inside else module
        for module, inside in _package_imports(tree)
        if inside or module not in earlier
    ]


def test_layers_name_every_module():
    assert sorted(path.stem for path in SOURCES) == sorted(LAYERS + ENTRY_POINTS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_follow_the_layers(name):
    path = PACKAGE / f"{name}.py"
    assert _layer_faults(name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_check_catches_a_later_layer_and_a_nested_import():
    tree = ast.parse(
        "from .objectives import gate\n"
        "from . import core_math, verification\n"
        "def grid():\n"
        "    from .core_math import entropy_rows\n"
    )
    assert sorted(_layer_faults("landscape", tree)) == ["core_math inside a function", "verification"]
