"""No `functools` cache in the package grows without bound, except the
per-n tables: an unbounded memo keyed by graphs keeps every graph of a sweep."""

from __future__ import annotations

import ast
from pathlib import Path

import crystallograph

# built once per node count (and palette or rule set), so a few entries at most
PER_N_TABLES = {"closure_rules", "all_edge_slots", "_generator_tables", "line_tables"}


def _functools_names(tree: ast.AST) -> tuple[set[str], set[str], set[str]]:
    """Local names bound to functools, functools.cache and functools.lru_cache."""
    modules, caches, lru = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            caches |= {a.asname or a.name for a in node.names if a.name == "cache"}
            lru |= {a.asname or a.name for a in node.names if a.name == "lru_cache"}
    return modules, caches, lru


def _refers_to(expr: ast.expr, attr: str, modules: set[str], names: set[str]) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in names
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == attr
        and isinstance(expr.value, ast.Name)
        and expr.value.id in modules
    )


def _unbounded(expr: ast.expr, modules: set[str], caches: set[str], lru: set[str]) -> bool:
    """Whether a decorator or wrapper is `cache` or `lru_cache(maxsize=None)`."""
    if _refers_to(expr, "cache", modules, caches):
        return True
    if isinstance(expr, ast.Call) and _refers_to(expr.func, "lru_cache", modules, lru):
        sizes = [k.value for k in expr.keywords if k.arg == "maxsize"] + expr.args[:1]
        return bool(sizes) and isinstance(sizes[0], ast.Constant) and sizes[0].value is None
    return False


def unbounded_caches(source: str, filename: str) -> list[str]:
    """`file:line name` of every unbounded functools cache outside PER_N_TABLES."""
    tree = ast.parse(source, filename=filename)
    names = _functools_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name not in PER_N_TABLES and any(_unbounded(d, *names) for d in node.decorator_list):
                found.append(f"{filename}:{node.lineno} {node.name}")
        elif isinstance(node, ast.Call) and node.args and _unbounded(node.func, *names):
            # cache(f) or lru_cache(maxsize=None)(f) outside a decorator
            found.append(f"{filename}:{node.lineno} <call>")
    return found


def unnamed_sizes(source: str, filename: str) -> list[str]:
    """`file:line name` of every `lru_cache` decorator whose size is neither
    a named constant nor 1 (a memo of one value), so each memo's bound is
    stated, and argued, once."""
    tree = ast.parse(source, filename=filename)
    modules, _, lru = _functools_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                call = d if isinstance(d, ast.Call) else None
                if not _refers_to(call.func if call else d, "lru_cache", modules, lru):
                    continue
                sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1] if call else []
                size = sizes[0] if sizes else None
                if not (isinstance(size, ast.Name) or isinstance(size, ast.Constant) and size.value == 1):
                    found.append(f"{filename}:{node.lineno} {node.name}")
    return found


def test_package_has_no_unbounded_caches():
    root = Path(crystallograph.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        found += unbounded_caches(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_guard_recognises_every_unbounded_spelling():
    flagged = """
import functools
from functools import cache, lru_cache
from functools import lru_cache as memo

@cache
def a(g): ...

@functools.cache
def b(g): ...

@lru_cache(maxsize=None)
def c(g): ...

@functools.lru_cache(None)
def d(g): ...

@memo(maxsize=None)
def e(g): ...

f = cache(len)
h = lru_cache(maxsize=None)(len)
"""
    assert [line.split()[1] for line in unbounded_caches(flagged, "x.py")] == [
        "a", "b", "c", "d", "e", "<call>", "<call>",
    ]
    allowed = """
import functools
from functools import cache, lru_cache

@cache
def closure_rules(n, propagating): ...

@lru_cache(maxsize=8)
def a(g): ...

@functools.lru_cache
def b(g): ...

@lru_cache(16)
def c(g): ...

def cache_user(cache): return cache
"""
    assert unbounded_caches(allowed, "y.py") == []


def test_package_sizes_every_memo_by_a_named_constant():
    root = Path(crystallograph.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        found += unnamed_sizes(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_size_guard_flags_literal_and_default_sizes():
    source = """
import functools
from functools import lru_cache

SIZE = 8

@lru_cache(maxsize=SIZE)
def named(g): ...

@functools.lru_cache(SIZE)
def named_positional(g): ...

@lru_cache(maxsize=1)
def single(g): ...

@lru_cache(maxsize=8)
def literal(g): ...

@functools.lru_cache
def default(g): ...

@lru_cache()
def empty_call(g): ...
"""
    assert [line.split()[1] for line in unnamed_sizes(source, "x.py")] == [
        "literal", "default", "empty_call",
    ]
