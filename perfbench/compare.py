"""Compare two sets of benchmark records written by `run.py --out`.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

For every workload and metric present on both sides it prints each side's
median and quartile spread, and the change of the medians as a share of
the base median.  It refuses (exit 2) to compare records whose Python
version or core count differ, since neither side would then explain the
other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, plus the provenance seen."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        for workload, record in records.items():
            for name, metric in record["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return values


def machines(paths: list[str]) -> set[tuple[str, int]]:
    seen = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for record in json.load(fh).values():
                seen.add((record["provenance"]["python"], record["provenance"]["nproc"]))
    return seen


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)

    seen = machines(args.base) | machines(args.new)
    if len(seen) != 1:
        print(f"error: records differ in (python, nproc): {sorted(seen)}", file=sys.stderr)
        return 2
    base, new = load(args.base), load(args.new)
    print(f"{'workload':12s} {'metric':48s} {'base':>12s} {'spread':>7s} {'new':>12s} {'spread':>7s} {'change':>8s}")
    for workload in sorted(base.keys() & new.keys()):
        for name in sorted(base[workload].keys() & new[workload].keys()):
            b, n = base[workload][name], new[workload][name]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            print(
                f"{workload:12s} {name:48s} {mb:12.6g} {spread(b):7.3f} {mn:12.6g} {spread(n):7.3f} {change:+8.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
