"""The package runs on the Python standard library alone, and every
public definition in it is named somewhere else in it."""

import ast
import sys
from collections import Counter
from pathlib import Path

import octic

PACKAGE = Path(octic.__file__).resolve().parent


def _imported(path: Path):
    """The top-level name of every absolute import of a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    foreign = [(path.name, name) for path in modules
               for name in _imported(path)
               if name != "octic" and name not in sys.stdlib_module_names]
    assert foreign == []


# the order-insensitive residual comparator exists for the trace tests,
# which compare residuals across blow-up orders; no command needs one
CALLED_FROM_TESTS = {("classify", "residual_key")}


def _names(node):
    """Every name an AST names: variables, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1]


def test_every_public_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    named = Counter(name for tree in trees.values()
                    for name in _names(tree))
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and (module, node.name) not in CALLED_FROM_TESTS):
                inside = sum(name == node.name for name in _names(node))
                if named[node.name] == inside:
                    uncalled.append((module, node.name))
    assert uncalled == []
