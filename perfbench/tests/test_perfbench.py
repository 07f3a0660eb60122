"""Self-tests of the benchmark's helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_summarize_reports_sample_count_and_tail():
    stats = run.summarize([float(v) for v in range(1, 101)])
    assert stats["n"] == 100
    assert stats["p50"] == 50.5
    assert stats["p90"] == 90.0
    assert stats["beyond_p90"] == 10
    one = run.summarize([3.0])
    assert (one["n"], one["p50"], one["p90"], one["beyond_p90"]) == (1, 3.0, 3.0, 0)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    tr.enter("outer")  # 0
    tr.enter("inner")  # 1
    tr.exit()  # 3: inner lasted 2
    tr.enter("inner")  # 4
    tr.exit()  # 4.5: inner lasted 0.5
    tr.exit()  # 10: outer lasted 10, of which 2.5 in children
    assert tr.spans[("inner", "outer")] == [2, 2.5, 2.5]
    assert tr.spans[("outer", "")] == [1, 10.0, 7.5]


def _bindings() -> dict:
    """Every attribute of every loaded crystallograph module and traced class."""
    import crystallograph.cli  # noqa: F401
    from crystallograph import graphs, oracle

    out = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "crystallograph" or name.startswith("crystallograph.")):
            for attr, value in vars(module).items():
                out[name, attr] = value
    for cls in (graphs.ColouredGraph, oracle.LineTables):
        for attr, value in vars(cls).items():
            out[cls.__name__, attr] = value
    return out


def test_tracer_rebinds_callers_and_restores_bindings():
    from crystallograph import crystal, oracle

    before = _bindings()
    original = crystal.is_crystallograph
    with Tracer():
        # the caller's own binding is wrapped, not just the defining module's
        assert oracle.is_crystallograph is not original
        assert oracle.is_crystallograph.__wrapped__ is original
        assert crystal.is_crystallograph is oracle.is_crystallograph
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def _cli(argv: list[str]) -> tuple[int, str]:
    from crystallograph import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_traced_outputs_equal_untraced(tmp_path):
    golden = run.load_golden()
    d4 = tmp_path / "d4.json"
    e12 = tmp_path / "e12.json"
    d4.write_text(golden["fixed_files"]["D4"])
    e12.write_text(golden["fixed_files"]["E12"])
    commands = [
        ["verify", "--nodes", "3", "--samples", "200"],
        ["enumerate", "--nodes", "3", "--up-to-weyl"],
        ["quotient", str(d4), str(e12), "--verify"],
        ["arrangement", str(d4), str(e12)],
    ]
    for argv in commands:
        plain = _cli(argv)
        tr = Tracer()
        with tr:
            traced = _cli(argv)
        if argv[0] == "verify":
            # the summary carries its own runtime; compare everything else
            plain = (plain[0], run._verify_summary(plain[1]) | {"runtime": 0})
            traced = (traced[0], run._verify_summary(traced[1]) | {"runtime": 0})
        assert traced == plain, argv
        assert tr.spans, argv
    assert plain[1] == golden["fixed_outputs"]["13"]["stdout"]


def test_traced_verify_reaches_every_suite():
    tr = Tracer()
    with tr:
        rc, _ = _cli(["verify", "--nodes", "5", "--samples", "40"])
    assert rc == 0
    metrics = run.layer_metrics([tr.to_json()])
    for suite in run.SUITES:
        assert metrics[f"oracle.suite.{suite}.total_s"] > 0, suite
    assert metrics["oracle.suite.bijection_sweep.cases"] == 40
    assert metrics["oracle.suite.pair_failures.cases"] == 40
    assert metrics["oracle.suite.random_nested_pair.cases"] == 40
    assert metrics["oracle.suite.weyl_commutation_failures.cases"] == 40
    assert metrics["oracle.tables.build_s"] > 0
    assert 0 < metrics["quotient.quotient_graph.distinct_ratio"] <= 0.25  # 4 calls per pair
    assert metrics["rootsys.weyl_group.elements"] == 2**5 * 120


def test_every_per_layer_metric_has_a_value():
    metrics = run.layer_metrics([])
    units = run.per_layer_units()
    probe_only = {name for name in units if name.startswith("cli.")} | {"trace.overhead_ratio"}
    assert set(units) - probe_only == set(metrics)
    assert {layer for layer, *_ in tracer_mod.LAYERS} <= set(run.TIMED_LAYERS) | {
        f"oracle.suite.{s}" for s in run.SUITES
    }
