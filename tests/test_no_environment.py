"""No module in the package reads the process environment, so its answers
depend on its arguments alone: no `os.environ` and no `os.getenv`."""

from __future__ import annotations

import ast
from pathlib import Path

import crystallograph

ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str, filename: str) -> list[str]:
    """`file:line name` of every reference to the environment through `os`."""
    tree = ast.parse(source, filename=filename)
    modules, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "os" or (a.name.startswith("os.") and a.asname is None):
                    modules.add(a.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            imported |= {a.asname or a.name for a in node.names if a.name in ENVIRONMENT_NAMES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                found.append(f"{filename}:{node.lineno} {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in imported:
            found.append(f"{filename}:{node.lineno} {node.id}")
    return found


def test_package_reads_no_environment():
    root = Path(crystallograph.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        found += environment_reads(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_guard_recognises_every_environment_spelling():
    flagged = """
import os
import os as system
import os.path
from os import environ, getenv as ambient

a = os.environ.get("X")
b = os.environ["X"]
c = os.getenv("X")
d = system.environ
e = environ["X"]
f = ambient("X")
g = os.environb
"""
    assert sorted(line.split()[1] for line in environment_reads(flagged, "x.py")) == [
        "ambient", "environ", "os.environ", "os.environ", "os.environb", "os.getenv",
        "system.environ",
    ]
    allowed = """
import os
import os.path as environ
from os import path

a = os.path.join("a", "b")
b = environ.join("a")
c = os.cpu_count()
d = {"environ": 1}["environ"]

def getenv(name): return name
"""
    assert environment_reads(allowed, "y.py") == []
