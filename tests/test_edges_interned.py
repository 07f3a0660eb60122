"""Only `graphs.straight` and `graphs.loop` call `Edge(...)`: they are its
memo, so an edge built anywhere else would be a second, unshared copy."""

from __future__ import annotations

import ast
from pathlib import Path

import crystallograph

BUILDERS = {"straight", "loop"}


def _is_edge(func: ast.expr) -> bool:
    return (isinstance(func, ast.Name) and func.id == "Edge") or (
        isinstance(func, ast.Attribute) and func.attr == "Edge"
    )


def stray_edge_calls(source: str, filename: str) -> list[str]:
    """`file:line` of every `Edge(...)` call outside a function named in BUILDERS."""
    found = []

    def visit(node: ast.AST, inside_builder: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inside_builder = getattr(node, "name", None) in BUILDERS
        elif isinstance(node, ast.Call) and _is_edge(node.func) and not inside_builder:
            found.append(f"{filename}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside_builder)

    visit(ast.parse(source, filename=filename), False)
    return found


def test_package_builds_edges_only_through_the_memo():
    root = Path(crystallograph.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        found += stray_edge_calls(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_guard_flags_edges_built_outside_the_builders():
    source = """
from crystallograph import graphs
from crystallograph.graphs import Edge

def straight(i, j, colour):
    return Edge((i, j), colour)

def loop(k, colour):
    def inner():
        return Edge((k, k), colour)
    return Edge((k,), colour)

def shift(e):
    return Edge(e.ends, e.colour)

top = graphs.Edge((1,), "R")
pick = lambda e: Edge(e.ends, e.colour)
"""
    assert stray_edge_calls(source, "x.py") == ["x.py:10", "x.py:14", "x.py:16", "x.py:17"]
