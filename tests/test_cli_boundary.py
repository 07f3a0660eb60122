"""`cli.main` is the CLI's one error boundary: no command handles its own errors."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from crystallograph import classical, cli, crystal, quotient
from crystallograph.crystal import InconsistencyError
from crystallograph.graphs import RED, graph, graph_to_json, straight

# main maps exceptions to exit statuses; the two loaders add the path to theirs
HANDLERS = {"main", "_read_file", "_load_graph"}
_TRY_NODES = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


def _clear_classification_memos():
    # a cached report or quotient would answer without the patched matcher
    for memo in (crystal._mask_classified, crystal._graph_classified, quotient.quotient_graph):
        memo.cache_clear()


def stray_try_statements(source: str) -> list[str]:
    """`owner:line` of each try outside HANDLERS, owner being the top-level def."""
    found = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        if owner in HANDLERS and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tries = [node for node in ast.walk(stmt) if isinstance(node, _TRY_NODES)]
        found += [f"{owner}:{node.lineno}" for node in tries]
    return found


def test_only_main_and_the_loaders_catch_exceptions():
    assert stray_try_statements(Path(cli.__file__).read_text(encoding="utf-8")) == []


def test_stray_try_statements_self_test():
    source = """
try:
    import x
except ImportError:
    pass

def main():
    try:
        pass
    finally:
        pass
    def inner():
        try:
            pass
        except ValueError:
            pass

def _cmd_x(args):
    if args:
        try:
            pass
        except ValueError:
            pass

async def _cmd_y(args):
    def helper():
        try:
            pass
        except OSError:
            pass

class _load_graph:
    def method(self):
        try:
            pass
        except ValueError:
            pass
"""
    assert stray_try_statements(source) == [
        "<module>:2", "_cmd_x:20", "_cmd_y:27", "_load_graph:34"
    ]


@pytest.mark.parametrize(
    "argv", [["classify", "G"], ["arrangement", "G", "GP"]], ids=["classify", "arrangement"]
)
def test_inconsistency_is_not_an_input_error(capsys, monkeypatch, tmp_path, argv):
    """A component matching no model falsifies the theorem; the CLI says so."""

    def falsified(nodes, edges):
        raise InconsistencyError(f"component {nodes} matches no model graph")

    files = {"G": classical.graph_d(4), "GP": graph(4, [straight(1, 2, RED)])}
    for name, g in files.items():
        (tmp_path / name).write_text(graph_to_json(g))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    _clear_classification_memos()
    monkeypatch.setattr(crystal, "_match_component", falsified)
    code = cli.main(argv)
    _clear_classification_memos()
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("internal inconsistency: component (") and err.count("\n") == 1


def test_falsified_projective_classification_is_an_inconsistency(capsys, monkeypatch, tmp_path):
    """A projectified quasi graph matching no model falsifies the theorem, as
    on the bichromatic side: it is not reported as bad input."""
    exotic = classical.projective_graph_exotic_bd(1, 2)
    path = tmp_path / "exotic.json"
    path.write_text(graph_to_json(exotic))
    table = {loops: tag for loops, tag in crystal._TAG_OF_LOOPS.items() if tag != "CplusD"}
    _clear_classification_memos()
    monkeypatch.setattr(crystal, "_TAG_OF_LOOPS", table)
    with pytest.raises(InconsistencyError):
        crystal.classify_projective_components(exotic)
    code = cli.main(["classify", str(path)])
    _clear_classification_memos()
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("internal inconsistency:") and err.count("\n") == 1
