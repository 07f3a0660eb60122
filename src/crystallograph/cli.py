"""Command-line interface.

Subcommands map one-to-one onto library operations; all structured output
uses the canonical JSON forms, so anything emitted re-parses through the
matching input path.  Exit status: 0 on success, 1 on a domain failure
(bad input data, failed precondition, verification counterexample), 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arrange, crystal, oracle, quotient
from .crystal import InconsistencyError
from .graphs import (
    BICHROMATIC,
    ColouredGraph,
    arrangement_from_graph,
    graph_from_json,
    graph_from_roots,
    graph_to_dot,
    graph_to_json,
    parse_roots_text,
    roots_from_graph,
    roots_to_text,
)
from .rootsys import weyl_apply


class CliError(Exception):
    """Domain failure surfaced to the user with exit status 1."""


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str, roots_mode: bool = False, nodes: int | None = None) -> ColouredGraph:
    text = _read_file(path)
    try:
        if roots_mode:
            phi = parse_roots_text(text)
            if not phi:
                if nodes is None:
                    raise ValueError("empty root file; pass --nodes to fix the dimension")
                return ColouredGraph(nodes, frozenset())
            return graph_from_roots(phi, nodes)
        return graph_from_json(text)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _normalized_pair(g: ColouredGraph, gp: ColouredGraph):
    gstar, word = crystal.bipartite_normalize(gp)
    if word.word:
        flipped = sorted(alpha.index(1) + 1 for alpha in word.word)
        print(f"normalized: sign flips applied at nodes {flipped}", file=sys.stderr)
        g = graph_from_roots(weyl_apply(word.element, roots_from_graph(g)), g.n)
    return g, gstar


def _cmd_check(args) -> int:
    g = _load_graph(args.graph, args.roots, args.nodes)
    results: dict[str, bool | None] = {
        "crystallograph": None,
        "quasi_crystallograph": None,
        "projective_crystallograph": None,
    }
    if g.palette == BICHROMATIC:
        results["crystallograph"] = crystal.is_crystallograph(g)
        results["quasi_crystallograph"] = crystal.is_quasi_crystallograph(g)
    else:
        results["projective_crystallograph"] = crystal.is_projective_crystallograph(g)
    if args.format == "text":
        for name, value in results.items():
            shown = "n/a" if value is None else ("yes" if value else "no")
            print(f"{name}: {shown}")
    else:
        print(json.dumps({"palette": g.palette, **results}, separators=(",", ":")))
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph, args.roots, args.nodes)
    try:
        if g.palette == BICHROMATIC:
            report = crystal.classify_components(g)
        else:
            report = crystal.classify_projective_components(g)
    except (ValueError, InconsistencyError) as exc:
        raise CliError(str(exc)) from None
    if args.format == "text":
        for comp in report.components:
            params = ",".join(str(p) for p in comp.params)
            print(f"{comp.type}({params}) on nodes {list(comp.nodes)}")
    else:
        print(report.to_json())
    return 0


def _cmd_to_roots(args) -> int:
    g = _load_graph(args.graph)
    try:
        phi = roots_from_graph(g)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    sys.stdout.write(roots_to_text(phi))
    return 0


def _cmd_from_roots(args) -> int:
    print(graph_to_json(_load_graph(args.file, roots_mode=True, nodes=args.nodes)))
    return 0


def _cmd_kernel(args) -> int:
    g = _load_graph(args.graph, args.roots, args.nodes)
    try:
        basis = quotient.kernel_basis(g)
        proj = quotient.orthogonal_projection(g)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    obj = basis.to_json_obj()
    obj["projection"] = [[str(x) for x in row] for row in proj]
    print(json.dumps(obj, separators=(",", ":")))
    return 0


def _cmd_quotient(args) -> int:
    g = _load_graph(args.graph)
    gp = _load_graph(args.subgraph)
    try:
        if args.normalize:
            g, gp = _normalized_pair(g, gp)
        q = quotient.quotient_graph(g, gp)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(graph_to_json(q))
    if args.verify:
        if not quotient.verify_quotient_theorem(g, gp):
            restricted = quotient.restricted_system(g, gp)
            print(
                "verification failed: quotient graph does not match the "
                f"restricted system {restricted.to_json()}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_restrict(args) -> int:
    g = _load_graph(args.graph)
    gp = _load_graph(args.subgraph)
    try:
        if args.normalize:
            g, gp = _normalized_pair(g, gp)
        restricted = quotient.restricted_system(g, gp)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(restricted.to_json())
    return 0


def _cmd_projectify(args) -> int:
    g = _load_graph(args.graph, args.roots, args.nodes)
    try:
        print(graph_to_json(arrange.projectify(g)))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return 0


def _cmd_arrangement(args) -> int:
    g = _load_graph(args.graph)
    try:
        if args.subgraph is not None:
            gp = _load_graph(args.subgraph)
            if g.palette == BICHROMATIC:
                projectified = arrange.projectify(quotient.quotient_graph(g, gp))
            else:
                projectified = arrange.quotient_projective(g, gp)
        elif g.palette == BICHROMATIC:
            projectified = arrange.projectify(g)
        else:
            projectified = g
        hyperplanes = arrangement_from_graph(projectified)
        report = crystal.classify_projective_components(projectified)
    except (ValueError, InconsistencyError) as exc:
        raise CliError(str(exc)) from None
    obj = {
        "hyperplanes": sorted(list(h.normal) for h in hyperplanes),
        "components": report.to_json_obj()["components"],
    }
    print(json.dumps(obj, separators=(",", ":")))
    return 0


def _cmd_enumerate(args) -> int:
    mode = "all"
    if args.quasi:
        mode = "quasi"
    if args.up_to_weyl:
        mode = "up_to_weyl"
    try:
        stream = crystal.enumerate_crystallographs(args.nodes, mode)
        if args.count_only:
            print(sum(1 for _ in stream))
        else:
            for g in stream:
                print(graph_to_json(g))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return 0


def _cmd_verify(args) -> int:
    try:
        summary, failures = oracle.verify_all(args.nodes, samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(
        f"n={summary.n}: {summary.crystallographs} crystallographs, "
        f"{summary.quasi_crystallographs} quasi, {summary.orbits} orbits, "
        f"{len(failures)} failures in {summary.runtime:.2f}s",
        file=sys.stderr,
    )
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(oracle.summary_to_json(summary, failures))
    return 1 if failures else 0


def _cmd_dot(args) -> int:
    g = _load_graph(args.graph, args.roots, args.nodes)
    sys.stdout.write(graph_to_dot(g))
    return 0


def _add_graph_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="graph JSON file (or root list with --roots)")
    parser.add_argument(
        "--roots", action="store_true", help="read the input as a root list, one vector per line"
    )
    parser.add_argument("--nodes", type=int, default=None, help="ambient dimension for --roots")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystallograph",
        description="Coloured-graph calculus for root subsystems of BC_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report which predicates the graph satisfies")
    _add_graph_input(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="decompose into typed components")
    _add_graph_input(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("to-roots", help="print the encoded root set, one per line")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_to_roots)

    p = sub.add_parser("from-roots", help="build the graph of a root list")
    p.add_argument("file")
    p.add_argument("--nodes", type=int, default=None)
    p.set_defaults(func=_cmd_from_roots)

    p = sub.add_parser("kernel", help="kernel basis and orthogonal projection")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("quotient", help="quotient of nested crystallographs")
    p.add_argument("graph")
    p.add_argument("subgraph")
    p.add_argument("--normalize", action="store_true", help="sign-flip bipartite parts of the subgraph first")
    p.add_argument("--verify", action="store_true", help="cross-check against the restricted system")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("restrict", help="restricted system of a nested pair")
    p.add_argument("graph")
    p.add_argument("subgraph")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("projectify", help="fuse loops into blue loops")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_projectify)

    p = sub.add_parser("arrangement", help="hyperplanes and arrangement type")
    p.add_argument("graph")
    p.add_argument("subgraph", nargs="?", default=None)
    p.set_defaults(func=_cmd_arrangement)

    p = sub.add_parser("enumerate", help="stream graphs passing a predicate")
    p.add_argument("--nodes", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quasi", action="store_true")
    group.add_argument("--up-to-weyl", dest="up_to_weyl", action="store_true")
    p.add_argument("--count-only", dest="count_only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the full verification suites")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=oracle.RNG_DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="emit Graphviz DOT")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
