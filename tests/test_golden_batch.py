"""The benchmark's batch passes, replayed in-process.

perfbench/data/golden.json records what `enumerate --nodes 4 --up-to-weyl`
prints (line count and sha256) and the summary of `verify --nodes 4` and
`verify --nodes 6 --samples 2000`.  This test runs each workload's argv
through `cli.main` and judges the output with the benchmark's own
`check_batch`, so a change of output fails here before it reaches the
benchmark.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

from crystallograph import cli  # noqa: E402


@pytest.mark.parametrize("workload", list(run.BATCH))
def test_batch_pass_prints_its_recorded_output(workload):
    argv = run.batch_argv(workload, run.DEFAULT_SEED)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert run.check_batch(workload, rc, out.getvalue(), run.load_golden()), argv
    if workload == "orbits-n4":
        assert run.check_orbit_representatives(out.getvalue())
