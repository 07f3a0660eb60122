"""Record the outputs the benchmark checks against, into data/golden.json.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run from the root of the checkout whose outputs are taken as correct.  It
draws the cli-oneshot input pool (seeded crystallographs and nested pairs
at n = 2..6, seed 20240801), runs every mix call on it through the CLI and
records exit status and stdout byte for byte.  It also records the verify
summaries and the digest of the orbit representatives, checking the
known counts and the D_4 / e1-e2 worked example before writing anything.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import run
from crystallograph import classical, oracle
from crystallograph.crystal import is_crystallograph
from crystallograph.graphs import RED, graph, graph_from_json, graph_to_json, straight
from crystallograph.quotient import quotient_graph

GRAPHS_PER_N = 8
PAIRS_PER_N = 4
NODES = range(2, 7)
GRAPH_SUBCOMMANDS = [(sub, t) for sub, kind, t in run.CLI_MIX if kind == "graph"]
PAIR_SUBCOMMANDS = [(sub, t) for sub, kind, t in run.CLI_MIX if kind == "pair"]


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"record_golden: unexpected output: {what}")


def _call(runner: run.Runner, template: list[str], files: dict[str, str]) -> dict:
    proc = runner.cli([files.get(token, token) for token in template])
    return {"rc": proc.rc, "stdout": proc.stdout}


def record_pool(runner: run.Runner, work: Path) -> tuple[list, list]:
    rng = random.Random(oracle.RNG_DEFAULT_SEED)
    graphs, pairs, seen = [], [], set()
    for n in NODES:
        kept = 0
        while kept < GRAPHS_PER_N:
            text = graph_to_json(oracle.random_crystallograph(n, rng))
            if text in seen:
                continue
            entry_id = f"g{len(graphs)}"
            gpath, rpath = work / f"{entry_id}.json", work / f"{entry_id}.roots"
            gpath.write_text(text + "\n", encoding="utf-8")
            roots = _call(runner, ["to-roots", "G"], {"G": str(gpath)})["stdout"]
            rpath.write_text(roots, encoding="utf-8")
            files = {"G": str(gpath), "R": str(rpath)}
            outputs = {sub: _call(runner, t, files) for sub, t in GRAPH_SUBCOMMANDS}
            if any(o["rc"] != 0 for o in outputs.values()):
                continue  # e.g. kernel refuses bipartite components; keep only calls that succeed
            seen.add(text)
            graphs.append({"id": entry_id, "graph": text, "roots": roots, "outputs": outputs})
            kept += 1
        kept = 0
        while kept < PAIRS_PER_N:
            g, gp = oracle.random_nested_pair(n, rng)
            key = (graph_to_json(g), graph_to_json(gp))
            if key in seen:
                continue
            entry_id = f"p{len(pairs)}"
            gpath, gppath = work / f"{entry_id}_g.json", work / f"{entry_id}_gp.json"
            gpath.write_text(key[0] + "\n", encoding="utf-8")
            gppath.write_text(key[1] + "\n", encoding="utf-8")
            files = {"G": str(gpath), "GP": str(gppath)}
            outputs = {sub: _call(runner, t, files) for sub, t in PAIR_SUBCOMMANDS}
            if any(o["rc"] != 0 for o in outputs.values()):
                continue
            seen.add(key)
            pairs.append({"id": entry_id, "graph": key[0], "subgraph": key[1], "outputs": outputs})
            kept += 1
    return graphs, pairs


def record_fixed(runner: run.Runner, work: Path) -> tuple[dict, dict]:
    d4 = classical.graph_d(4)
    e12 = graph(4, [straight(1, 2, RED)])
    q = quotient_graph(d4, e12)
    _require(q.n == 3 and len(q.edges) == 7, "worked example: D_4 / e1-e2 has 3 nodes and 7 edges")
    texts = {"D4": graph_to_json(d4), "E12": graph_to_json(e12), "D4Q": graph_to_json(q)}
    files = {}
    for name, text in texts.items():
        path = work / f"{name}.json"
        path.write_text(text + "\n", encoding="utf-8")
        files[name] = str(path)
    outputs = {}
    for index, (sub, kind, template) in enumerate(run.CLI_MIX):
        if kind == "fixed":
            outputs[str(index)] = _call(runner, template, files)
            _require(outputs[str(index)]["rc"] == 0, (sub, outputs[str(index)]))
    by_sub = {run.CLI_MIX[int(i)][0]: o["stdout"] for i, o in outputs.items()}
    _require(graph_from_json(by_sub["quotient"].splitlines()[0]) == q, by_sub["quotient"])
    # one C_1D_3 component: type CplusD with (r, s) = (1, 2)
    components = json.loads(by_sub["classify"])["components"]
    _require([(c["type"], c["params"]) for c in components] == [("CplusD", [1, 2])], components)
    arrangement = json.loads(by_sub["arrangement"])
    _require(len(arrangement["hyperplanes"]) == 7, arrangement)
    _require([c["type"] for c in arrangement["components"]] == ["ExoticBD"], arrangement)
    return texts, outputs


def record_batch(runner: run.Runner) -> dict:
    out = {}
    expected = {
        "verify-n4": {"n": 4, "total_graphs": 1 << 20, "crystallographs": 1080, "quasi_crystallographs": 1876, "orbits": 125, "failures": []},
        "verify-n6": {
            "n": 6,
            "total_graphs": 1 << 42,
            "crystallographs": oracle.count_crystallographs(6),
            "quasi_crystallographs": oracle.count_quasi_crystallographs(6),
            "orbits": oracle.count_weyl_orbits(6),
            "failures": [],
        },
    }
    for workload in ("verify-n4", "verify-n6"):
        proc = runner.cli(run.batch_argv(workload, run.DEFAULT_SEED))
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        summary.pop("runtime")
        _require(proc.rc == 0 and summary == expected[workload], (workload, proc.rc, summary))
        out[workload] = {"summary": summary}
    out["verify-n6"]["counts"] = "closed_form: verify samples at n=6 and reports the closed-form counts"
    out["verify-n4"]["counts"] = "counted: exhaustive scan of all 2^20 graphs"
    proc = runner.cli(run.batch_argv("orbits-n4", run.DEFAULT_SEED))
    stdout = proc.stdout
    lines = stdout.splitlines()
    _require(proc.rc == 0 and len(lines) == oracle.count_weyl_orbits(4) == 125, f"{len(lines)} orbit representatives")
    _require(all(is_crystallograph(graph_from_json(line)) for line in lines), "a representative is no crystallograph")
    out["orbits-n4"] = {"lines": len(lines), "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    return out


def main() -> int:
    root = Path.cwd()
    with tempfile.TemporaryDirectory(dir=root / ".bench_build" if (root / ".bench_build").is_dir() else None) as tmp:
        work = Path(tmp)
        runner = run.Runner(root, work)
        try:
            graphs, pairs = record_pool(runner, work)
            fixed_files, fixed_outputs = record_fixed(runner, work)
            golden = {
                "note": "Outputs recorded by perfbench/record_golden.py; the benchmark checks every call against them.",
                "graphs": graphs,
                "pairs": pairs,
                "fixed_files": fixed_files,
                "fixed_outputs": fixed_outputs,
                **record_batch(runner),
            }
        finally:
            runner.close()
    run.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.GOLDEN_PATH}: {len(graphs)} graphs, {len(pairs)} pairs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
