"""The import graph of the package: no cycle, and the network layer on the core alone;
one clause reader for every file format, and one write routine and one safe
loop in the closure."""

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


def _scopes(node: ast.AST, match, scope: str = "<module>") -> set[str]:
    """The innermost functions (or ``<module>``) under ``node`` that hold a node ``match`` accepts."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if match(child):
            found.add(scope)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        found |= _scopes(child, match, inner)
    return found


def _calls(name: str):
    return lambda node: isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None))


def test_only_the_clause_reader_reads_file_lines():
    # spec, network and model files keep their clause rules in one place: a
    # parser that read lines itself would keep its own copy of those rules
    callers = {f"{path.stem}.{scope}" for path in PACKAGE.glob("*.py")
               for scope in _scopes(ast.parse(path.read_text(encoding="utf-8")), _calls("read_lines"))}
    assert callers == {"network.read_clauses"}


def _writes(node: ast.AST) -> bool:
    """``cells[...] = ``, ``revisions +=``, ``trail +=``, or ``.append`` or
    ``.extend`` of the trail or the queue, called or bound."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "cells"
    if isinstance(node, ast.AugAssign):
        return getattr(node.target, "id", None) in ("revisions", "trail")
    return (isinstance(node, ast.Attribute) and node.attr in ("append", "extend")
            and getattr(node.value, "id", None) in ("trail", "queue"))


def _closure_runner() -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / "closure.py").read_text(encoding="utf-8"))
    return next(node for node in tree.body if getattr(node, "name", None) == "closure_runner")


def _counts_or_queues(node: ast.AST) -> bool:
    """``revisions +=``, or ``.append`` or ``.extend`` of the queue."""
    if isinstance(node, ast.AugAssign):
        return getattr(node.target, "id", None) == "revisions"
    return (isinstance(node, ast.Attribute) and node.attr in ("append", "extend")
            and getattr(node.value, "id", None) == "queue")


def test_only_write_stores_counts_trails_and_queues_in_the_closure():
    # a certificate or a stats record hooks one routine, not a copy per pass.
    # Besides write, the session's split (restrict) and its undo store
    # cells and trail them, but neither counts a revision or queues a pair
    closure = _closure_runner()
    assert _scopes(closure, _writes, closure.name) == {"write", "restrict", "undo"}
    assert _scopes(closure, _counts_or_queues, closure.name) == {"write"}
    settle = next(node for node in ast.walk(closure) if getattr(node, "name", None) == "settle")
    assert isinstance(settle.body[-1], ast.Return) and _calls("write")(settle.body[-1].value)


def test_closure_runner_has_one_loop_over_third_variables_per_pass():
    # the dense fused, the chunked fused and the safe pass: the safe
    # revision body has one copy, whichever third variables it visits
    loops = [node for node in ast.walk(_closure_runner())
             if isinstance(node, ast.For) and getattr(node.target, "id", None) == "k"]
    assert len(loops) == 3


def test_search_leaves_the_working_network_to_the_closure_session():
    # the trail's layout is the closure's alone: the walk splits, closes and
    # undoes through the session, and stores no cell of the working network
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        names |= {getattr(node, field, None) for field in ("id", "arg", "attr", "name")}
    assert not {name for name in names if isinstance(name, str) and "trail" in name}
    assert "_undo" not in names
    search = next(node for node in tree.body if getattr(node, "name", None) == "_search")
    assert "undo" not in {arg.arg for arg in ast.walk(search.args) if isinstance(arg, ast.arg)}

    def stores_cells(node: ast.AST) -> bool:
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and "cells" in (getattr(node.value, "id", None), getattr(node.value, "attr", None)))

    # the brute-force leaf of derive_completeness writes its own copy
    assert _scopes(tree, stores_cells) == {"brute_force"}
