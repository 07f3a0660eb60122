"""The graph route never borrows from the root route it is checked against.

`graphs` and `crystal` state the paper's local rules directly.  If they took
reflections, closures or the Weyl search from `rootsys`, or anything from
`oracle`, the oracle suites would compare a computation with itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import crystallograph

GRAPH_ROUTE = ("graphs.py", "crystal.py")
ROOT_ROUTE_ONLY = {
    "reflect",
    "reflection_closure",
    "reflection_permutation",
    "is_root_subsystem",
    "weyl_apply",
    "weyl_equivalent",
    "weyl_group",
}


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
        "from . import oracle",
        "from .oracle import line_tables",
        "import crystallograph.oracle",
        "from . import rootsys\nrootsys.weyl_group(3)",
    ]
    for source in sources:
        assert _borrowed(ast.parse(source)), source
    assert _borrowed(ast.parse("from .rootsys import SignedPermutation, enumeration_limit")) == []
