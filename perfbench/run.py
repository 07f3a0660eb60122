"""Benchmark of the crystallograph CLI: end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from
./src through PYTHONPATH, nothing is installed.  Every program process is
a fresh interpreter started one at a time (closed loop, one client), so
import and table set-up are paid where a user pays them.  Times are
reported in reference seconds: raw seconds divided by the host's slowdown
while the process ran (see "host speed" below); the raw values are kept.

Workloads (see README.md for why each one is there):
  verify-n4    crystallograph verify --nodes 4 --seed N (exhaustive 2^20 scan)
  verify-n6    crystallograph verify --nodes 6 --samples 2000 --seed N
  orbits-n4    crystallograph enumerate --nodes 4 --up-to-weyl
  cli-oneshot  a fixed mix of single CLI calls on recorded inputs chosen by N

A call is one program process: a CLI call in cli-oneshot, a whole pass in
the batch workloads.  call_p90_ms is the 90th percentile when at least ten
calls lie beyond it, otherwise (batch runs) the median.

With --trace 0 the last stdout line is one JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric from a
traced pass (tracer.py) and the CLI set-up probes.  The line before it
records provenance and the raw per-run values.  Any wrong output makes the
run count a failed operation and exit with status 1.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "data" / "golden.json"
DEFAULT_SEED = 20240801  # oracle.RNG_DEFAULT_SEED
SETUP_PROBES = 7
CLI_MIN_CALLS = 110  # at least 10 samples beyond call_p90_ms
INTERP_PROBES = 5

BATCH = {
    "verify-n4": {"argv": ["verify", "--nodes", "4"], "seeded": True, "n": 4},
    "verify-n6": {"argv": ["verify", "--nodes", "6", "--samples", "2000"], "seeded": True, "n": 6},
    "orbits-n4": {"argv": ["enumerate", "--nodes", "4", "--up-to-weyl"], "seeded": False, "n": 4},
}
WORKLOADS = list(BATCH) + ["cli-oneshot"]

# The cli-oneshot mix: (subcommand, input kind, argv template).  G, GP and R
# name the files of a recorded graph, subgraph and root list.  Kind "graph"
# and "pair" draw a recorded input by the seed; "fixed" is always the same.
CLI_MIX = [
    ("check", "graph", ["check", "G"]),
    ("classify", "graph", ["classify", "G"]),
    ("kernel", "graph", ["kernel", "G"]),
    ("to-roots", "graph", ["to-roots", "G"]),
    ("from-roots", "graph", ["from-roots", "R"]),
    ("projectify", "graph", ["projectify", "G"]),
    ("quotient", "pair", ["quotient", "G", "GP", "--verify"]),
    ("restrict", "pair", ["restrict", "G", "GP"]),
    ("arrangement", "pair", ["arrangement", "G", "GP"]),
    ("dot", "graph", ["dot", "G"]),
    ("enumerate", "fixed", ["enumerate", "--nodes", "3", "--count-only"]),
    ("quotient", "fixed", ["quotient", "D4", "E12", "--verify"]),
    ("classify", "fixed", ["classify", "D4Q"]),
    ("arrangement", "fixed", ["arrangement", "D4", "E12"]),
]
SUBCOMMANDS = sorted({sub for sub, _, _ in CLI_MIX})

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
}

# Per-layer metrics: program layers get calls and self_s from the tracer.
TIMED_LAYERS = [
    "graphs.construct",
    "graphs.roots",
    "graphs.weyl_act",
    "graphs.json",
    "crystal.predicates",
    "crystal.classify",
    "crystal.normalize",
    "oracle.tables",
    "quotient.quotient_graph",
    "quotient.restricted_system",
    "quotient.kernel",
    "arrange.projectify",
    "arrange.quotient_projective",
    "arrange.classify_restricted",
    "linalg.rref",
    "linalg.mat_mul",
    "rootsys.weyl_apply",
]
SUITES = [
    "bijection_sweep",
    "classification_failures",
    "kernel_failures",
    "pair_failures",
    "random_nested_pair",
    "weyl_commutation_failures",
]


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["crystal.predicates.accept_ratio"] = "ratio"
    units["oracle.tables.accept_ratio"] = "ratio"
    units["oracle.tables.build_s"] = "s"
    units["quotient.quotient_graph.distinct_ratio"] = "ratio"
    units["rootsys.weyl_group.elements"] = "count"
    units["rootsys.weyl_group.self_s"] = "s"
    for suite in SUITES:
        units[f"oracle.suite.{suite}.total_s"] = "s"
        units[f"oracle.suite.{suite}.cases"] = "count"
    units["cli.interp_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for sub in SUBCOMMANDS:
        units[f"cli.main_ms.{sub}"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# statistics


def summarize(values: list[float]) -> dict:
    """Median, p90 and the sample count, with how many samples lie beyond p90.

    p90 is the nearest-rank value: the smallest sample with at least 90% of
    the samples at or below it.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    p90 = ordered[max(0, -(-9 * n // 10) - 1)]
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "p90": p90,
        "beyond_p90": sum(1 for v in ordered if v > p90),
    }


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host this machine's CPU runs up to ~1.8x slower for seconds to
# minutes at a time (CPU time grows with wall time; no steal time shows), so
# raw seconds spread by 20-40% between runs of the same code.  Every time the
# benchmark reports is therefore in reference seconds: raw seconds divided by
# the host's slowdown while that process ran.  The slowdown is the median time
# of a fixed pure-Python mix in this harness process, sampled before the
# spawn, every CAL_INTERVAL_S while the child runs, and after it exits,
# divided by CAL_REF_S.  Raw seconds stay in the record.

# The loop's 10th-percentile time on an idle host: 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7.
CAL_REF_S = 0.000485
CAL_INTERVAL_S = 0.25


def calibration_loop() -> float:
    """Seconds a fixed mix of the program's kinds of work takes right now.

    Tuples, frozensets, sorting, dicts, Fraction arithmetic and JSON: the
    mix slows down with the host about as much as the workloads do.
    """
    start = time.perf_counter()
    items = [(frozenset((i % 7, i % 11, i % 13)), str(i)) for i in range(500)]
    items.sort(key=lambda item: item[1])
    index = {name: edges for edges, name in items}
    total = sum((Fraction(1, i) for i in range(1, 30)), Fraction(0))
    json.dumps([sorted(edges) for edges, _ in items[:80]] + [len(index), str(total)])
    return time.perf_counter() - start


@dataclass
class Proc:
    """One finished program process."""

    wall: float  # raw seconds, spawn to exit
    rc: int
    rss_mb: float
    stdout: str
    slowdown: float  # host slowdown while it ran, 1.0 on an idle host

    @property
    def ref_s(self) -> float:
        return self.wall / self.slowdown


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts program processes one at a time and records what they did.

    The processes are started by spawner.py, so their peak RSS is their own
    and not this harness's.  Call close() when done.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        env.pop("CRYSTALLOGRAPH_MAX_N", None)
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=root,
        )
        self.operations = 0
        self.failures: list[str] = []
        self._count = 0

    def close(self) -> None:
        """Stop the spawner, killing a program still running (after an interrupt)."""
        if self.spawner.poll() is None:
            self.spawner.terminate()
        self.spawner.wait()
        self.spawner.stdin.close()
        self.spawner.stdout.close()

    def spawn(self, argv: list[str]) -> Proc:
        """Run argv to completion, sampling the host's speed meanwhile."""
        self._count += 1
        out_path = self.work / f"out{self._count}.txt"
        request = "\0".join([str(out_path), *argv]) + "\n"
        samples = [calibration_loop()]
        self.spawner.stdin.write(request.encode())
        self.spawner.stdin.flush()
        reply = self.spawner.stdout
        while not select.select([reply], [], [], CAL_INTERVAL_S)[0]:
            samples.append(calibration_loop())
        line = reply.readline().split()
        samples.append(calibration_loop())
        if len(line) != 3:
            raise RuntimeError(f"spawner stopped while running {argv}")
        wall, rc, maxrss_kb = float(line[0]), int(line[1]), int(line[2])
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        return Proc(wall, rc, maxrss_kb / 1024.0, stdout, statistics.median(samples) / CAL_REF_S)

    def cli(self, args: list[str]) -> Proc:
        return self.spawn([sys.executable, "-m", "crystallograph.cli", *args])

    def child(self, args: list[str], traced: bool) -> tuple[Proc, dict | None]:
        """A CLI call through child.py: the process and the record it wrote."""
        self._count += 1
        record_path = self.work / f"child{self._count}.json"
        flags = ["--trace"] if traced else []
        proc = self.spawn([sys.executable, str(HERE / "child.py"), str(record_path), *flags, "--", *args])
        if proc.rc != 0 or not record_path.exists():
            return proc, None
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record_path.unlink()
        return proc, record

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; record it as failed unless ok."""
        self.operations += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# output checks


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _verify_summary(stdout: str) -> dict | None:
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return None


def check_batch(workload: str, rc: int, stdout: str, golden: dict) -> bool:
    """Whether a batch pass printed the recorded result."""
    if rc != 0:
        return False
    if workload == "orbits-n4":
        expected = golden["orbits-n4"]
        lines = stdout.splitlines()
        return (
            len(lines) == expected["lines"]
            and hashlib.sha256(stdout.encode("utf-8")).hexdigest() == expected["sha256"]
        )
    summary = _verify_summary(stdout)
    if summary is None:
        return False
    summary.pop("runtime", None)
    # verify-n4 counts every graph; verify-n6 samples and reports the
    # closed-form counts, recorded as such in golden.json.
    return summary == golden[workload]["summary"]


def _matches(record: dict | None, expected: dict) -> bool:
    return record is not None and record["rc"] == expected["rc"] and record["stdout"] == expected["stdout"]


def check_orbit_representatives(stdout: str) -> bool:
    """Each printed representative is a crystallograph (imports the package here)."""
    from crystallograph.crystal import is_crystallograph
    from crystallograph.graphs import graph_from_json

    return all(is_crystallograph(graph_from_json(line)) for line in stdout.splitlines())


# ---------------------------------------------------------------------------
# cli-oneshot inputs


def write_cli_inputs(golden: dict, work: Path) -> dict[str, dict[str, str]]:
    """Write every recorded input to a file; returns file paths per input id."""
    paths: dict[str, dict[str, str]] = {}
    for entry in golden["graphs"]:
        g = work / f"{entry['id']}.json"
        r = work / f"{entry['id']}.roots"
        g.write_text(entry["graph"] + "\n", encoding="utf-8")
        r.write_text(entry["roots"], encoding="utf-8")
        paths[entry["id"]] = {"G": str(g), "R": str(r)}
    for entry in golden["pairs"]:
        g = work / f"{entry['id']}_g.json"
        gp = work / f"{entry['id']}_gp.json"
        g.write_text(entry["graph"] + "\n", encoding="utf-8")
        gp.write_text(entry["subgraph"] + "\n", encoding="utf-8")
        paths[entry["id"]] = {"G": str(g), "GP": str(gp)}
    fixed = {}
    for name, text in golden["fixed_files"].items():
        path = work / f"{name}.json"
        path.write_text(text + "\n", encoding="utf-8")
        fixed[name] = str(path)
    paths["fixed"] = fixed
    return paths


def draw_cli_pass(golden: dict, paths: dict, rng: random.Random) -> list[tuple[str, list[str], dict]]:
    """One pass of the mix: (subcommand, argv, expected {rc, stdout}) per call."""
    calls = []
    for index, (sub, kind, template) in enumerate(CLI_MIX):
        if kind == "fixed":
            files = paths["fixed"]
            expected = golden["fixed_outputs"][str(index)]
        else:
            entry = rng.choice(golden["graphs" if kind == "graph" else "pairs"])
            files = paths[entry["id"]]
            expected = entry["outputs"][sub]
        argv = [files.get(token, token) for token in template]
        calls.append((sub, argv, expected))
    return calls


# ---------------------------------------------------------------------------
# one run


def batch_argv(workload: str, seed: int) -> list[str]:
    spec = BATCH[workload]
    return spec["argv"] + (["--seed", str(seed)] if spec["seeded"] else [])


def run_setup(runner: Runner, workload: str) -> list[Proc]:
    if workload == "cli-oneshot":
        code = "import crystallograph.cli"
    else:
        code = f"import crystallograph; from crystallograph import oracle; oracle.line_tables({BATCH[workload]['n']})"
    probes = []
    for _ in range(SETUP_PROBES):
        proc = runner.spawn([sys.executable, "-c", code])
        runner.check(proc.rc == 0, f"set-up probe exited {proc.rc}")
        probes.append(proc)
    return probes


def measure(runner: Runner, workload: str, seed: int, seconds: float, golden: dict, paths: dict) -> list[list[Proc]]:
    """The untraced closed loop: passes, each a list of calls, until `seconds` have elapsed."""
    passes: list[list[Proc]] = []
    rng = random.Random(seed)
    start = time.perf_counter()
    while True:
        if workload == "cli-oneshot":
            calls = []
            for sub, argv, expected in draw_cli_pass(golden, paths, rng):
                proc = runner.cli(argv)
                runner.check(_matches({"rc": proc.rc, "stdout": proc.stdout}, expected), f"{sub} {argv}: wrong output")
                calls.append(proc)
            passes.append(calls)
            done = sum(len(calls) for calls in passes) >= CLI_MIN_CALLS
        else:
            proc = runner.cli(batch_argv(workload, seed))
            ok = check_batch(workload, proc.rc, proc.stdout, golden)
            if ok and workload == "orbits-n4" and not passes:
                ok = check_orbit_representatives(proc.stdout)
            runner.check(ok, f"{workload} pass: wrong output (exit {proc.rc})")
            passes.append([proc])
            done = True
        if done and time.perf_counter() - start >= seconds:
            return passes


def _in_reference_seconds(trace: dict, slowdown: float) -> dict:
    spans = [dict(span, total_s=span["total_s"] / slowdown, self_s=span["self_s"] / slowdown) for span in trace["spans"]]
    counts = {key: value / slowdown if key.endswith("_s") else value for key, value in trace["counts"].items()}
    return dict(trace, spans=spans, counts=counts)


def traced_pass(runner: Runner, workload: str, seed: int, golden: dict, paths: dict) -> tuple[float, list[dict]]:
    """The workload's pass with the tracer in every process: (reference seconds, traces)."""
    if workload == "cli-oneshot":
        calls = draw_cli_pass(golden, paths, random.Random(seed))
    else:
        calls = [(workload, batch_argv(workload, seed), None)]
    total, traces = 0.0, []
    for sub, argv, expected in calls:
        proc, record = runner.child(argv, traced=True)
        if expected is None:
            ok = record is not None and check_batch(workload, record["rc"], record["stdout"], golden)
        else:
            ok = _matches(record, expected)
        runner.check(ok, f"traced {sub}: wrong output")
        total += proc.ref_s
        if record is not None:
            traces.append(_in_reference_seconds(record["trace"], proc.slowdown))
    return total, traces


def cli_probe(runner: Runner, seed: int, golden: dict, paths: dict) -> dict[str, float]:
    """Split a CLI call into interpreter start, package import and cli.main."""
    interp = []
    for _ in range(INTERP_PROBES):
        proc = runner.spawn([sys.executable, "-c", "pass"])
        runner.check(proc.rc == 0, "interpreter probe failed")
        interp.append(proc.ref_s * 1e3)
    imports: list[float] = []
    mains: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
    for sub, argv, expected in draw_cli_pass(golden, paths, random.Random(seed)):
        proc, record = runner.child(argv, traced=False)
        runner.check(_matches(record, expected), f"probe {sub}: wrong output")
        if record is not None:
            imports.append(record["import_ms"] / proc.slowdown)
            mains[sub].append(record["main_ms"] / proc.slowdown)
    out = {"cli.interp_ms": statistics.median(interp), "cli.import_ms": statistics.median(imports or [0.0])}
    for sub, values in mains.items():
        out[f"cli.main_ms.{sub}"] = statistics.median(values or [0.0])
    return out


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics from span aggregates, summed over processes."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    distinct: dict[str, int] = {}
    for trace in traces:
        for span in trace["spans"]:
            layer = span["layer"]
            calls[layer] = calls.get(layer, 0) + span["calls"]
            self_s[layer] = self_s.get(layer, 0.0) + span["self_s"]
            total_s[layer] = total_s.get(layer, 0.0) + span["total_s"]
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in trace["distinct"].items():
            distinct[key] = distinct.get(key, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("crystal.predicates", "oracle.tables"):
        out[f"{layer}.accept_ratio"] = ratio(counts.get(f"{layer}|accepted", 0), counts.get(f"{layer}|accept_calls", 0))
    out["oracle.tables.build_s"] = counts.get("oracle.tables|build_s", 0.0)
    out["quotient.quotient_graph.distinct_ratio"] = ratio(
        distinct.get("quotient.quotient_graph", 0), calls.get("quotient.quotient_graph", 0)
    )
    out["rootsys.weyl_group.elements"] = counts.get("rootsys.weyl_group|elements", 0)
    out["rootsys.weyl_group.self_s"] = self_s.get("rootsys.weyl_group", 0.0)
    for suite in SUITES:
        layer = f"oracle.suite.{suite}"
        out[f"{layer}.total_s"] = total_s.get(layer, 0.0)
        out[f"{layer}.cases"] = counts.get(f"{layer}|cases", 0)
    return out


def dominant_share(workload: str, layers: dict[str, float], e2e: dict[str, float]) -> tuple[str, float]:
    """The share of the workload's stated dominant layers, on untraced time."""
    if workload == "verify-n4":
        part = layers["graphs.construct.self_s"] + layers["crystal.predicates.self_s"]
        return "graphs.construct+crystal.predicates self_s / wall_s", part / e2e["wall_s"]
    if workload == "verify-n6":
        return "oracle.suite.kernel_failures total_s / wall_s", layers["oracle.suite.kernel_failures.total_s"] / e2e["wall_s"]
    if workload == "orbits-n4":
        part = layers["graphs.weyl_act.self_s"] + layers["graphs.json.self_s"] + layers["rootsys.weyl_group.self_s"]
        return "graphs.weyl_act+graphs.json+rootsys.weyl_group self_s / wall_s", part / e2e["wall_s"]
    part = layers["cli.interp_ms"] + layers["cli.import_ms"]
    return "cli.interp_ms+cli.import_ms / call_p50_ms", part / e2e["call_p50_ms"]


def provenance(seed: int, workload: str, seconds: float, trace: bool, root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = "unknown", None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True, check=True
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One run: set-up probes, the measured loop and, traced, the layer metrics."""
    golden = load_golden()
    build = root / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    runner = Runner(root, work)
    try:
        paths = write_cli_inputs(golden, work)
        # Compile the package's bytecode before timing, as an installed copy has it.
        runner.spawn([sys.executable, "-c", "import crystallograph.cli"])
        setup = run_setup(runner, workload)
        passes = measure(runner, workload, seed, seconds, golden, paths)
        every_call = [proc for calls in passes for proc in calls]
        stats = summarize([proc.ref_s for proc in every_call])
        e2e = {
            "wall_s": statistics.median([sum(proc.ref_s for proc in calls) for calls in passes]),
            "setup_s": statistics.median([proc.ref_s for proc in setup]),
            "peak_rss_mb": max(proc.rss_mb for proc in every_call),
            "call_p50_ms": stats["p50"] * 1e3,
            # p90 needs ten samples beyond it; a batch run has 1-7 calls, so it reports the median
            "call_p90_ms": (stats["p90"] if stats["beyond_p90"] >= 10 else stats["p50"]) * 1e3,
        }
        raw = {
            "setup_raw_s": [proc.wall for proc in setup],
            "setup_slowdown": [proc.slowdown for proc in setup],
            "call_raw_s": [[proc.wall for proc in calls] for calls in passes],
            "call_slowdown": [[proc.slowdown for proc in calls] for calls in passes],
            "calls": stats,
        }
        if trace:
            traced_s, traces = traced_pass(runner, workload, seed, golden, paths)
            metrics = layer_metrics(traces)
            metrics.update(cli_probe(runner, seed, golden, paths))
            metrics["trace.overhead_ratio"] = traced_s / e2e["wall_s"]
            label, share = dominant_share(workload, metrics, e2e)
            raw.update({"traced_s": traced_s, "untraced": e2e, "dominant": {"what": label, "share": share}})
            units = per_layer_units()
        else:
            metrics, units = e2e, END_TO_END
        return {
            "correct": not runner.failures,
            "attempted": runner.operations,
            "failed": len(runner.failures),
            "failures": runner.failures[:20],
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            "raw": raw,
        }
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full record (provenance, raw values) to this JSON file")
    args = parser.parse_args(argv)
    # a terminated run still kills its current child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "crystallograph" / "cli.py").is_file() or not GOLDEN_PATH.is_file():
        print("error: run from the root of a crystallograph source checkout (src/crystallograph missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
        result["provenance"] = provenance(args.seed, workload, args.seconds, bool(args.trace), root)
        records[workload] = result
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:48s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:12s} {'fail_ratio':48s} {ratio:.6g} ratio ({result['attempted']} operations)", file=sys.stderr)
        if "dominant" in result["raw"]:
            dom = result["raw"]["dominant"]
            print(f"{workload:12s} dominant share {dom['what']} = {dom['share']:.3f}", file=sys.stderr)
        for line in result["failures"]:
            print(f"{workload:12s} FAIL {line}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")

    ok = all(r["correct"] for r in records.values())
    if args.workload == "all":
        print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for w, r in records.items()}))
    else:
        record = records[args.workload]
        print(json.dumps({"provenance": record["provenance"], "raw": record["raw"]}))
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
