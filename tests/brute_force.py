"""Brute-force references shared by the tests."""

from __future__ import annotations

import json

from crystallograph.crystal import graph_from_slot_mask
from crystallograph.graphs import BICHROMATIC, BLUE, GREEN, RED, TRICHROMATIC, loop, straight


def all_graphs(n: int, palette: str):
    """Every graph of this palette on n nodes, mask order."""
    slots = n * n + n + (n if palette == TRICHROMATIC else 0)
    for mask in range(1 << slots):
        yield graph_from_slot_mask(n, mask, palette)


def all_bichromatic_graphs(n: int):
    """Every bichromatic graph on n nodes (2^(n^2+n) of them), mask order."""
    return all_graphs(n, BICHROMATIC)


def reference_slots(n: int, palette: str) -> list:
    """The slot layout written out edge by edge: each pair i < j in order,
    red then green; then each node's red and green loop; then the blue loops."""
    slots = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            slots += [straight(i, j, RED), straight(i, j, GREEN)]
    for k in range(1, n + 1):
        slots += [loop(k, RED), loop(k, GREEN)]
    if palette == TRICHROMATIC:
        slots += [loop(k, BLUE) for k in range(1, n + 1)]
    return slots


def reference_slot_mask(g) -> int:
    """The graph's slot mask, each edge looked up in `reference_slots`."""
    slots = reference_slots(g.n, g.palette)
    return sum(1 << slots.index(e) for e in g.edges)


def reference_roots(g) -> frozenset:
    """The roots of a bichromatic graph, built from the correspondence table:
    straight R/G {i,j} is +-(e_i -/+ e_j), loop R/G {k} is +-e_k / +-2 e_k."""
    out = set()
    for e in g.edges:
        v = [0] * g.n
        if e.is_loop:
            v[e.ends[0] - 1] = 1 if e.colour == RED else 2
        else:
            i, j = e.ends
            v[i - 1] = 1
            v[j - 1] = -1 if e.colour == RED else 1
        out.add(tuple(v))
        out.add(tuple(-c for c in v))
    return frozenset(out)


def graph_to_json_obj(g) -> dict:
    """The graph as a JSON object: palette, node count, then its edges in
    `edge_sort_key` order, each with its kind, ends and colour."""
    edges = []
    for e in g.sorted_edges():
        if e.is_loop:
            edges.append({"kind": "loop", "k": e.ends[0], "colour": e.colour})
        else:
            edges.append({"kind": "straight", "i": e.ends[0], "j": e.ends[1], "colour": e.colour})
    return {"palette": g.palette, "nodes": g.n, "edges": edges}


def reference_json(g) -> str:
    """The canonical JSON written by `json.dumps` of `graph_to_json_obj`."""
    return json.dumps(graph_to_json_obj(g), separators=(",", ":"))
