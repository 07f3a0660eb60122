"""The package writes JSON in one place, `graphs.dump_json`, so every
structured output keeps the same compact form: only `graphs` imports
`json`, and it calls `json.dumps` once."""

from __future__ import annotations

import ast
from pathlib import Path

import crystallograph


def json_uses(source: str) -> list[str]:
    """Each import of `json` and each `json.dumps` call in the source, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno} import {a.name}" for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append(f"{node.lineno} from {node.module} import")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            found.append(f"{node.lineno} json.dumps")
    return sorted(found, key=lambda use: int(use.split()[0]))


def test_only_graphs_imports_json_and_it_calls_dumps_once():
    root = Path(crystallograph.__file__).parent
    uses = {path.name: json_uses(path.read_text(encoding="utf-8")) for path in sorted(root.rglob("*.py"))}
    graphs = uses.pop("graphs.py")
    assert {name: found for name, found in uses.items() if found} == {}
    assert [use.split(maxsplit=1)[1] for use in graphs] == ["import json", "json.dumps"]


def test_the_check_sees_each_way_of_writing_json():
    assert json_uses("import json\n") == ["1 import json"]
    assert json_uses("import os, json as j\n") == ["1 import json"]
    assert json_uses("from json import dumps\n") == ["1 from json import"]
    assert json_uses("x = 1\nprint(json.dumps(x))\n") == ["2 json.dumps"]
    assert json_uses("from . import json_frame\ndumps(x)\nyaml.dumps(x)\n") == []
