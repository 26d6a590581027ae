"""No call may leave a reference cycle for the garbage collector.

A nested function that names itself (a recursive closure) holds a cell
that points back at the function: a cycle that keeps everything the
closure captures alive until a full collection, so peak memory follows
gc timing.  Each such closure must be deleted by its enclosing function
once it is done.
"""

from __future__ import annotations

import ast
import gc
from pathlib import Path
from typing import List, Optional, Set

import repro
from repro.bench import BENCHMARKS
from repro.mapping import map_aig

SRC = Path(repro.__file__).parent

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _undeleted_recursive_closures(tree: ast.AST) -> List[str]:
    """``outer.inner`` for every recursive closure its outer keeps."""
    found: List[str] = []

    def visit(node: ast.AST, outer: Optional[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                if outer is not None and _names_itself(child):
                    if child.name not in _deleted_names(outer):
                        found.append(f"{outer.name}.{child.name}")
                visit(child, child)
            elif isinstance(child, ast.ClassDef):
                visit(child, None)  # methods close over nothing
            else:
                visit(child, outer)

    visit(tree, None)
    return found


def _names_itself(func: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == func.name
        for stmt in func.body
        for node in ast.walk(stmt)
    )


def _deleted_names(func: ast.AST) -> Set[str]:
    return {
        target.id
        for node in ast.walk(func)
        if isinstance(node, ast.Delete)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def test_recursive_closures_are_deleted():
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _undeleted_recursive_closures(
            ast.parse(path.read_text(encoding="utf-8"), str(path))
        )
    ]
    assert found == []


def test_scan_finds_a_kept_closure():
    kept = (
        "def outer(n):\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    return rec(n)\n"
    )
    deleted = kept.replace(
        "    return rec(n)\n",
        "    out = rec(n)\n    del rec\n    return out\n",
    )
    assert _undeleted_recursive_closures(ast.parse(kept)) == ["outer.rec"]
    assert _undeleted_recursive_closures(ast.parse(deleted)) == []


def test_map_aig_leaves_no_cyclic_garbage():
    aig = BENCHMARKS["C432"]()
    gc.collect()
    gc.disable()
    try:
        mapped = map_aig(aig)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert mapped.gates
    assert garbage == 0
