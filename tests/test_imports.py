"""The import graph of the package: no cycle, and the network layer on the core alone;
and one clause reader for every file format."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import qsr

PACKAGE = Path(qsr.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _package_imports(path: Path) -> set[str]:
    """The package modules that the file at ``path`` imports, inside functions
    too; ``__init__`` stands for a name taken from the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["qsr" if node.level else "", node.module]))
            # ``from . import x`` names module x, or a name of the package itself
            names = [f"qsr.{alias.name}" for alias in node.names] if module == "qsr" else [module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "qsr":
                found.add(parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__")
    return found


def test_package_imports_have_no_cycle_and_network_imports_only_core():
    graph = {path.stem: _package_imports(path) for path in PACKAGE.glob("*.py")}
    assert {"axioms", "registry", "models"} <= graph["cli"]  # ``from . import`` is read
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
    assert graph["network"] == {"core"}


def _callers(node: ast.AST, name: str, scope: str = "<module>") -> set[str]:
    """The innermost functions (or ``<module>``) under ``node`` that call ``name``."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                      getattr(child.func, "attr", None)):
            found.add(scope)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        found |= _callers(child, name, inner)
    return found


def test_only_the_clause_reader_reads_file_lines():
    # spec, network and model files keep their clause rules in one place: a
    # parser that read lines itself would keep its own copy of those rules
    callers = {f"{path.stem}.{scope}" for path in PACKAGE.glob("*.py")
               for scope in _callers(ast.parse(path.read_text(encoding="utf-8")), "read_lines")}
    assert callers == {"network.read_clauses"}
