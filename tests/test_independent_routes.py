"""The graph route never borrows from the root route it is checked against.

`graphs` and `crystal` state the paper's local rules directly.  If they took
reflections, closures, the root shape and symmetry predicates or the Weyl
search from `rootsys`, or anything from `oracle`, the oracle suites would
compare a computation with itself.  In the
other direction, the oracle's `LineTables` takes from the graph route only
the numbering of its lines by edge slot, never a closure rule, predicate or
the graph Weyl action.
"""

from __future__ import annotations

import ast
from pathlib import Path

import crystallograph

GRAPH_ROUTE = ("graphs.py", "crystal.py")
ROOT_ROUTE_ONLY = {
    "is_bc_root",
    "is_symmetric",
    "reflect",
    "reflection_closure",
    "reflection_permutation",
    "is_root_subsystem",
    "weyl_apply",
    "weyl_equivalent",
    "weyl_group",
}
GRAPH_MODULES = {"graphs", "crystal"}
# what LineTables may name from GRAPH_MODULES: the slots, the one-edge graph's
# roots and the error raised when the numbering fails
LINE_NUMBERING = {"all_edge_slots", "ColouredGraph", "roots_from_graph", "InconsistencyError"}


def _borrowed(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            names = [alias.name for alias in node.names]
            if module == "oracle" or (not module and "oracle" in names):
                found.append(f"{node.lineno}: oracle")
            elif module == "rootsys":
                found += [f"{node.lineno}: rootsys.{name}" for name in names if name in ROOT_ROUTE_ONLY]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names if alias.name.endswith("oracle")]
        elif isinstance(node, ast.Attribute) and node.attr in ROOT_ROUTE_ONLY:
            if isinstance(node.value, ast.Name) and node.value.id == "rootsys":
                found.append(f"{node.lineno}: rootsys.{node.attr}")
    return found


def test_graph_route_takes_nothing_from_the_root_route():
    root = Path(crystallograph.__file__).parent
    found = []
    for name in GRAPH_ROUTE:
        tree = ast.parse((root / name).read_text(encoding="utf-8"), filename=name)
        found += [f"{name}:{line}" for line in _borrowed(tree)]
    assert found == []


def test_the_check_sees_each_kind_of_borrowing():
    sources = [
        "from .rootsys import SignedPermutation, weyl_apply",
        "from crystallograph.rootsys import reflect",
        "from .rootsys import Root, RootSet, is_bc_root, is_symmetric",
        "from . import oracle",
        "from .oracle import line_tables",
        "import crystallograph.oracle",
        "from . import rootsys\nrootsys.weyl_group(3)",
    ]
    for source in sources:
        assert _borrowed(ast.parse(source)), source
    assert _borrowed(ast.parse("from .rootsys import SignedPermutation, Root")) == []


def _line_tables_borrowed(tree: ast.AST) -> list[str]:
    """Graph-route names used in the LineTables class beyond its numbering."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] in GRAPH_MODULES:
            imported |= {alias.asname or alias.name for alias in node.names}
    (cls,) = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "LineTables"]
    found = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Name) and node.id in imported - LINE_NUMBERING:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in LINE_NUMBERING:
            if isinstance(node.value, ast.Name) and node.value.id in GRAPH_MODULES:
                found.add(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_line_tables_take_only_the_slot_numbering_from_the_graph_route():
    root = Path(crystallograph.__file__).parent
    tree = ast.parse((root / "oracle.py").read_text(encoding="utf-8"), filename="oracle.py")
    assert _line_tables_borrowed(tree) == []


def test_the_line_tables_check_sees_rules_predicates_and_the_weyl_action():
    source = """
from . import crystal
from .crystal import all_edge_slots, closed, closure_rules
from .graphs import roots_from_graph, weyl_act_graph as act

def outside(mask, rules):
    return closed(mask, rules)

class LineTables:
    def __init__(self, n):
        self.reps = [roots_from_graph(e) for e in all_edge_slots(n)]
        self.rules = closure_rules(n)

    def apply(self, w, g):
        return act(w, g) if crystal.is_crystallograph(g) else g
"""
    assert _line_tables_borrowed(ast.parse(source)) == ["act", "closure_rules", "crystal.is_crystallograph"]
