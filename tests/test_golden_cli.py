"""Every recorded cli-oneshot call of the benchmark, replayed in-process.

perfbench/data/golden.json holds the exit status and stdout of each call the
cli-oneshot workload can draw: every graph and pair subcommand of the mix on
every recorded input, and the fixed calls.  This test runs them all through
`cli.main` and compares, so a change of output fails here before it reaches
the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

from crystallograph import cli  # noqa: E402


def _recorded_calls(golden: dict, paths: dict) -> list[tuple[list[str], dict]]:
    """(argv, expected {rc, stdout}) for every recorded call."""
    calls = []
    for index, (sub, kind, template) in enumerate(run.CLI_MIX):
        if kind == "fixed":
            cases = [(paths["fixed"], golden["fixed_outputs"][str(index)])]
        else:
            entries = golden["graphs" if kind == "graph" else "pairs"]
            cases = [(paths[entry["id"]], entry["outputs"][sub]) for entry in entries]
        for files, expected in cases:
            calls.append(([files.get(token, token) for token in template], expected))
    return calls


def test_every_recorded_cli_call_gives_its_recorded_output(tmp_path):
    golden = run.load_golden()
    calls = _recorded_calls(golden, run.write_cli_inputs(golden, tmp_path))
    recorded = len(golden["fixed_outputs"]) + sum(
        len(entry["outputs"]) for entry in golden["graphs"] + golden["pairs"]
    )
    assert len(calls) == recorded
    wrong = []
    for argv, expected in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        if (rc, out.getvalue()) != (expected["rc"], expected["stdout"]):
            wrong.append(argv)
    assert wrong == []
