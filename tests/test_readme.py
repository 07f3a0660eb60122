"""The README's library tour runs as written against the public API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's library tour has no python block"
    return match.group(1)


def test_library_tour_runs():
    exec(compile(library_tour(), str(README), "exec"), {})
