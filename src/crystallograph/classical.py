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
quotients.  Trichromatic counterparts carry blue loops instead.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .graphs import (
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    Edge,
    loop,
    straight,
)


def _red_clique(nodes: Sequence[int]) -> set[Edge]:
    return {straight(i, j, RED) for i, j in combinations(sorted(nodes), 2)}


def _bichromatic_clique(nodes: Sequence[int]) -> set[Edge]:
    edges = set()
    for i, j in combinations(sorted(nodes), 2):
        edges.add(straight(i, j, RED))
        edges.add(straight(i, j, GREEN))
    return edges


def graph_a(m: int) -> ColouredGraph:
    """Complete red graph on m nodes; encodes A_{m-1}."""
    return ColouredGraph(m, frozenset(_red_clique(range(1, m + 1))))


def graph_d(m: int) -> ColouredGraph:
    """Simply-laced complete bichromatic graph on m nodes; encodes D_m."""
    return ColouredGraph(m, frozenset(_bichromatic_clique(range(1, m + 1))))


def graph_b(m: int) -> ColouredGraph:
    edges = _bichromatic_clique(range(1, m + 1))
    edges |= {loop(k, RED) for k in range(1, m + 1)}
    return ColouredGraph(m, frozenset(edges))


def graph_c(m: int) -> ColouredGraph:
    edges = _bichromatic_clique(range(1, m + 1))
    edges |= {loop(k, GREEN) for k in range(1, m + 1)}
    return ColouredGraph(m, frozenset(edges))


def graph_bc(m: int) -> ColouredGraph:
    edges = _bichromatic_clique(range(1, m + 1))
    edges |= {loop(k, RED) for k in range(1, m + 1)}
    edges |= {loop(k, GREEN) for k in range(1, m + 1)}
    return ColouredGraph(m, frozenset(edges))


def graph_bipartite(d1: int, d2: int) -> ColouredGraph:
    """Two red cliques of sizes d1, d2 joined by all green edges (d1, d2 >= 1)."""
    if d1 < 1 or d2 < 1:
        raise ValueError("both parts of a bipartite graph must be nonempty")
    part1 = range(1, d1 + 1)
    part2 = range(d1 + 1, d1 + d2 + 1)
    edges = _red_clique(part1) | _red_clique(part2)
    edges |= {straight(i, j, GREEN) for i in part1 for j in part2}
    return ColouredGraph(d1 + d2, frozenset(edges))


def graph_b_plus_c(r: int, s: int) -> ColouredGraph:
    """Type-B graph on r+s nodes with green loops glued at the first r nodes."""
    edges = set(graph_b(r + s).edges)
    edges |= {loop(k, GREEN) for k in range(1, r + 1)}
    return ColouredGraph(r + s, frozenset(edges))


def graph_c_plus_d(r: int, s: int) -> ColouredGraph:
    """Type-D graph on r+s nodes with green loops glued at the first r nodes."""
    edges = set(graph_d(r + s).edges)
    edges |= {loop(k, GREEN) for k in range(1, r + 1)}
    return ColouredGraph(r + s, frozenset(edges))


def graph_pairs_and_points(r: int, s: int) -> ColouredGraph:
    """r disjoint red edges plus s isolated nodes, on 2r + s nodes.

    Quotienting the type-B (resp. type-D) graph on 2r + s nodes by this
    subgraph produces the exotic graph with green loops at the r fused pairs.
    """
    edges = {straight(2 * k - 1, 2 * k, RED) for k in range(1, r + 1)}
    return ColouredGraph(2 * r + s, frozenset(edges))


def projective_graph_borc(m: int) -> ColouredGraph:
    """Simply-laced complete bichromatic plus a blue loop at every node."""
    edges = _bichromatic_clique(range(1, m + 1))
    edges |= {loop(k, BLUE) for k in range(1, m + 1)}
    return ColouredGraph(m, frozenset(edges), TRICHROMATIC)


def projective_graph_exotic_bd(r: int, s: int) -> ColouredGraph:
    """Simply-laced complete bichromatic on r+s nodes, blue loops at the first r."""
    edges = _bichromatic_clique(range(1, r + s + 1))
    edges |= {loop(k, BLUE) for k in range(1, r + 1)}
    return ColouredGraph(r + s, frozenset(edges), TRICHROMATIC)
