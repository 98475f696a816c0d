"""The package runs on the Python standard library alone."""

import ast
import sys
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
