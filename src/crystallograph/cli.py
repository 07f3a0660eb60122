"""Command-line interface.

Subcommands map one-to-one onto library operations; all structured output
uses the canonical JSON forms, so anything emitted re-parses through the
matching input path.  Exit status: 0 on success, 1 on a domain failure
(bad input data, failed precondition, verification counterexample), 2 on a
usage error.

The commands are bare library calls.  `main` is the one place that turns an
exception into an exit status: every input failure is a `ValueError`
(`_read_file` and `_load_graph` prefix theirs with the path) and prints one
`error:` line; an `InconsistencyError` means the classification theorem
itself failed and prints `internal inconsistency:`; an unwritable stdout
prints `error:`, except a closed pipe, which ends silently.  All exit 1.

Commands import the modules they run at call time, so a call pays only for
its own work.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from . import crystal
from .crystal import InconsistencyError
from .graphs import (
    BICHROMATIC,
    ColouredGraph,
    arrangement_from_graph,
    dump_json,
    graph_from_json,
    graph_from_roots,
    graph_to_dot,
    graph_to_json,
    parse_roots_text,
    projectify,
    roots_from_graph,
    roots_to_text,
    weyl_act_graph,
)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


# Fixed caps on a graph's declared node count.  Every graph-reading command
# builds something per node (a length-n vector for each root, the node
# partition of the components), so `_load_graph` refuses a graph on more than
# MAX_NODES nodes; `kernel` prints an n x n projection, which costs n^2
# Fractions even on an edgeless graph, so it stops at KERNEL_MAX_N.
MAX_NODES = 100_000
KERNEL_MAX_N = 1000


def _load_graph(path: str, roots_mode: bool = False, nodes: int | None = None) -> ColouredGraph:
    text = _read_file(path)
    try:
        if not roots_mode:
            g = graph_from_json(text)
        elif not (phi := parse_roots_text(text)) and nodes is None:
            raise ValueError("empty root file; pass --nodes to fix the dimension")
        else:
            g = graph_from_roots(phi, nodes)
        if g.n > MAX_NODES:
            raise ValueError(f"a graph may have at most {MAX_NODES} nodes, got {g.n}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return g


def _load_pair(args) -> tuple[ColouredGraph, ColouredGraph]:
    """The nested pair of `quotient` and `restrict`, normalised on --normalize."""
    g = _load_graph(args.graph)
    gp = _load_graph(args.subgraph)
    if not args.normalize:
        return g, gp
    gstar, w = crystal.bipartite_normalize(gp)
    flipped = [k for k, sign in enumerate(w.signs, start=1) if sign == -1]
    if flipped:
        print(f"normalized: sign flips applied at nodes {flipped}", file=sys.stderr)
        g = weyl_act_graph(w, g)
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
        print(dump_json({"palette": g.palette, **results}))
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph, args.roots, args.nodes)
    if g.palette == BICHROMATIC:
        report = crystal.classify_components(g)
    else:
        report = crystal.classify_projective_components(g)
    if args.format == "text":
        for comp in report.components:
            params = ",".join(str(p) for p in comp.params)
            print(f"{comp.type}({params}) on nodes {list(comp.nodes)}")
    else:
        print(report.to_json())
    return 0


def _cmd_to_roots(args) -> int:
    sys.stdout.write(roots_to_text(roots_from_graph(_load_graph(args.graph))))
    return 0


def _cmd_from_roots(args) -> int:
    print(graph_to_json(_load_graph(args.file, roots_mode=True, nodes=args.nodes)))
    return 0


def _cmd_kernel(args) -> int:
    from . import quotient

    g = _load_graph(args.graph, args.roots, args.nodes)
    if g.n > KERNEL_MAX_N:
        raise ValueError(f"kernel needs at most {KERNEL_MAX_N} nodes, got {g.n}")
    obj = quotient.kernel_basis(g).to_json_obj()
    obj["projection"] = [[str(x) for x in row] for row in quotient.orthogonal_projection(g)]
    print(dump_json(obj))
    return 0


def _cmd_quotient(args) -> int:
    from . import quotient

    g, gp = _load_pair(args)
    print(graph_to_json(quotient.quotient_graph(g, gp)))
    if args.verify and not quotient.verify_quotient_theorem(g, gp):
        restricted = quotient.restricted_system(g, gp)
        print(
            "verification failed: quotient graph does not match the "
            f"restricted system {restricted.to_json()}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_restrict(args) -> int:
    from . import quotient

    g, gp = _load_pair(args)
    print(quotient.restricted_system(g, gp).to_json())
    return 0


def _cmd_projectify(args) -> int:
    print(graph_to_json(projectify(_load_graph(args.graph, args.roots, args.nodes))))
    return 0


def _cmd_arrangement(args) -> int:
    g = _load_graph(args.graph)
    if args.subgraph is not None:
        from . import arrange, quotient

        gp = _load_graph(args.subgraph)
        if g.palette == BICHROMATIC:
            projectified = projectify(quotient.quotient_graph(g, gp))
        else:
            projectified = arrange.quotient_projective(g, gp)
    elif g.palette == BICHROMATIC:
        projectified = projectify(g)
    else:
        projectified = g
    hyperplanes = arrangement_from_graph(projectified)
    report = crystal.classify_projective_components(projectified)
    obj = {
        "hyperplanes": sorted(list(h.normal) for h in hyperplanes),
        "components": report.to_json_obj()["components"],
    }
    print(dump_json(obj))
    return 0


def _cmd_enumerate(args) -> int:
    if args.count_only:
        print(crystal.count_enumerated(args.nodes, args.mode))
    else:
        for text, _ in crystal.ranked_enumeration(args.nodes, args.mode):
            print(text)
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    summary, failures = oracle.verify_all(args.nodes, samples=args.samples, seed=args.seed)
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


# built on first use, not at import, then reused by every `main` call
@lru_cache(maxsize=1)
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
    group.add_argument("--quasi", dest="mode", action="store_const", const="quasi")
    group.add_argument("--up-to-weyl", dest="mode", action="store_const", const="up_to_weyl")
    p.add_argument("--count-only", dest="count_only", action="store_true")
    p.set_defaults(func=_cmd_enumerate, mode="all")

    p = sub.add_parser("verify", help="run the full verification suites")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=crystal.RNG_DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="emit Graphviz DOT")
    _add_graph_input(p)
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
    except OSError as exc:
        # The output is unwritable; point fd 1 at devnull so the flush at
        # interpreter exit does not fail a second time.  A closed pipe is the
        # reader's choice (`| head`), so it ends quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
