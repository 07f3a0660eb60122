"""The package builds its value types by hand, so a CLI process never loads
`dataclasses` and the `inspect` and `ast` it pulls in: several milliseconds
of every call's start-up."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import crystallograph

START_UP_FREE = ("dataclasses", "inspect", "ast")


def test_no_module_imports_dataclasses():
    root = Path(crystallograph.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=path.name)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_no_dataclasses():
    probe = "\n".join(
        [
            "import sys",
            "import crystallograph.cli",
            f"print(*(name for name in {START_UP_FREE!r} if name in sys.modules))",
        ]
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
