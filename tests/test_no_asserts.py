"""The package states its invariants with raises: `python -O` strips asserts."""

from __future__ import annotations

import ast
from pathlib import Path

import crystallograph


def test_package_has_no_assert_statements():
    root = Path(crystallograph.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
