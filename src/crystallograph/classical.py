"""Builders for the model graphs of the classification.

The classical bichromatic graphs on a node set S:

    A:  complete red, no loops (a single node counts as A with m = 1)
    D:  simply-laced complete bichromatic (every pair carries R and G)
    B:  D plus a red loop at every node
    C:  D plus a green loop at every node
    BC: D plus both loops at every node

plus the bipartite graphs (two red cliques joined by all-green edges), the
two quasi-crystallograph families obtained by gluing green loops onto B or D,
and the pairs-and-points subgraphs used to realise those families as
quotients.  Each model is `crystal.model_graph`: the graph on nodes 1..m of
the edge set `crystal.model_edges` draws, which the classification checks
components against.  The two projective models are `graphs.projectify` of B
and of C+D.
"""

from __future__ import annotations

from .crystal import model_graph
from .graphs import RED, ColouredGraph, projectify, straight


def graph_a(m: int) -> ColouredGraph:
    """Complete red graph on m nodes; encodes A_{m-1}."""
    return model_graph(m, "A")


def graph_d(m: int) -> ColouredGraph:
    """Simply-laced complete bichromatic graph on m nodes; encodes D_m."""
    return model_graph(m, "D")


def graph_b(m: int) -> ColouredGraph:
    return model_graph(m, "B")


def graph_c(m: int) -> ColouredGraph:
    return model_graph(m, "C")


def graph_bc(m: int) -> ColouredGraph:
    return model_graph(m, "BC")


def graph_bipartite(d1: int, d2: int) -> ColouredGraph:
    """Two red cliques of sizes d1, d2 joined by all green edges (d1, d2 >= 1)."""
    if d1 < 1 or d2 < 1:
        raise ValueError("both parts of a bipartite graph must be nonempty")
    parts = (tuple(range(1, d1 + 1)), tuple(range(d1 + 1, d1 + d2 + 1)))
    return model_graph(d1 + d2, "Bipartite", parts)


def graph_b_plus_c(r: int, s: int) -> ColouredGraph:
    """Type-B graph on r+s nodes with green loops glued at the first r nodes."""
    return model_graph(r + s, "BplusC", (tuple(range(1, r + 1)),))


def graph_c_plus_d(r: int, s: int) -> ColouredGraph:
    """Type-D graph on r+s nodes with green loops glued at the first r nodes."""
    return model_graph(r + s, "CplusD", (tuple(range(1, r + 1)),))


def graph_pairs_and_points(r: int, s: int) -> ColouredGraph:
    """r disjoint red edges plus s isolated nodes, on 2r + s nodes.

    Quotienting the type-B (resp. type-D) graph on 2r + s nodes by this
    subgraph produces the exotic graph with green loops at the r fused pairs.
    """
    edges = {straight(2 * k - 1, 2 * k, RED) for k in range(1, r + 1)}
    return ColouredGraph(2 * r + s, frozenset(edges))


def projective_graph_borc(m: int) -> ColouredGraph:
    """Simply-laced complete bichromatic plus a blue loop at every node."""
    return projectify(graph_b(m))


def projective_graph_exotic_bd(r: int, s: int) -> ColouredGraph:
    """Simply-laced complete bichromatic on r+s nodes, blue loops at the first r."""
    return projectify(graph_c_plus_d(r, s))
