"""The package runs on the Python standard library alone, every name it
imports is used, and every public definition in it is named somewhere else
in it."""

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


def _bound_by_imports(tree):
    """Every name an import statement of a module binds, ``__future__``
    features left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [(path.stem, name) for name in _bound_by_imports(tree)
                   if name not in used]
    assert unused == []


CALLED_FROM_TESTS = {
    # the order-insensitive residual comparator exists for the trace tests,
    # which compare residuals across blow-up orders; no command needs one
    ("classify", "residual_key"),
    # the profile with coordinates forgotten, which the invariance tests
    # compare under coordinate changes; commands print whole profiles
    ("incidence", "IncidenceProfile.combinatorial_key"),
    # the degenerate values alone, which the scan tests compare; commands
    # read each value with its profile and changes
    ("incidence", "DegenerationScan.sigma"),
    # the Euler number of one component geometry, which the catalogue
    # tests check; the Euler balance of ROADMAP item 7 will read it
    ("semistable", "euler"),
}


def _references(node, modules):
    """Every name an AST refers to, with the way it refers to it: ``"top"``
    for a plain name, an imported name, or an attribute of a module of the
    package (``incidence.profile``), and ``"attribute"`` for an attribute
    of anything else."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield "top", sub.id
        elif isinstance(sub, ast.alias):
            yield "top", sub.name.split(".")[-1]
        elif isinstance(sub, ast.Attribute):
            on_module = (isinstance(sub.value, ast.Name)
                         and sub.value.id in modules)
            yield "top" if on_module else "attribute", sub.attr


def _public_definitions(tree):
    """(qualified name, node) of every public top-level function and class
    of a module, and of every public method and property of its top-level
    classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, kinds[:2])
                            and not sub.name.startswith("_")):
                        yield f"{node.name}.{sub.name}", sub


def test_every_public_definition_has_a_caller():
    """A top-level function or class counts as called when the package
    names it outside its own body as a plain name, an import or an
    attribute of its module; a method or property, when the package reads
    an attribute of that name off any object outside its own body.  So a
    function is not called because some method shares its name, nor a
    method because some function does."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.rglob("*.py"))}
    named = Counter(ref for tree in trees.values()
                    for ref in _references(tree, trees))
    uncalled = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            if (module, qualified) in CALLED_FROM_TESTS:
                continue
            ref = ("attribute" if "." in qualified else "top", node.name)
            inside = sum(r == ref for r in _references(node, trees))
            if named[ref] == inside:
                uncalled.append((module, qualified))
    assert uncalled == []
