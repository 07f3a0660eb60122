"""Coloured graphs and their two correspondences.

A bichromatic graph on nodes 1..n has straight edges {i, j} and loop edges
{k}, each painted R (red) or G (green), with at most one edge per colour per
endpoint set.  It encodes a symmetric subset of BC_n:

    straight R {i,j} <-> +-(e_i - e_j)      loop R {k} <-> +-e_k
    straight G {i,j} <-> +-(e_i + e_j)      loop G {k} <-> +-2 e_k

A trichromatic graph additionally allows blue (B), but only on loops.  A
blue loop is a red or green loop whose length is forgotten, since
Ker(e_k) = Ker(2 e_k): `projectify` fuses the loops at a node into one blue
loop and `lift` repaints each blue loop green.  So a trichromatic graph g with
R/G straight edges and B loops encodes the sub-arrangement of the B_n/C_n
hyperplane arrangement made of the kernels of the roots of lift(g), read
through the table above and no second one.  Green makes `lift` undo
`projectify` on quasi-crystallographs: lift(projectify(q)) is quasi when q is.

An Edge is the tuple (ends, colour), validated on construction, so it
equals, hashes and orders like that plain tuple.  Edges are built only by
`straight` and `loop`, from a bounded memo, so each distinct (ends, colour)
is one shared object however many graphs hold it.  `roots_from_graph`
reads each edge's pair +-alpha from another bounded memo, keyed by
(n, edge), so the roots of the same few edges are not built again and again.

Graphs are immutable values; equality is literal (same node count, same edge
set).  The constructor freezes whatever edge iterable it is given, so every
graph hashes and can key a cache.  The canonical JSON form and the DOT
export are byte-deterministic.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .rootsys import Root, RootSet, SignedPermutation, is_bc_root, is_symmetric

RED = "R"
GREEN = "G"
BLUE = "B"

BICHROMATIC = "bi"
TRICHROMATIC = "tri"

_COLOUR_FLIP = {RED: GREEN, GREEN: RED}
_DOT_COLOUR = {RED: "red", GREEN: "green", BLUE: "blue"}


class Edge(namedtuple("Edge", "ends colour")):
    """A coloured edge: ends is (i, j) with i < j for straight, (k,) for a loop.

    Build edges with `straight` and `loop`: they memoise, so each distinct
    (ends, colour) is constructed and validated once and then shared.
    """

    __slots__ = ()

    def __new__(cls, ends: tuple[int, ...], colour: str) -> Edge:
        if len(ends) not in (1, 2):
            raise ValueError(f"edge must have one or two endpoints: {ends}")
        if len(ends) == 2 and not ends[0] < ends[1]:
            raise ValueError(f"straight edge endpoints must satisfy i < j: {ends}")
        if colour not in (RED, GREEN, BLUE):
            raise ValueError(f"unknown colour: {colour!r}")
        return super().__new__(cls, ends, colour)

    @property
    def is_loop(self) -> bool:
        return len(self.ends) == 1


# Entries per memo of `straight` and `loop`.  verify at n <= 6 builds at most
# 78 distinct edges: 60 straight (15 pairs, both argument orders, two colours)
# and 18 loops (6 nodes, three colours), so every one stays cached; a larger
# graph only evicts.  Exceptions are never cached, so bad input raises anew.
_EDGE_MEMO_SIZE = 128


@lru_cache(maxsize=_EDGE_MEMO_SIZE)
def straight(i: int, j: int, colour: str) -> Edge:
    if i == j:
        raise ValueError("a straight edge needs two distinct endpoints")
    return Edge((min(i, j), max(i, j)), colour)


@lru_cache(maxsize=_EDGE_MEMO_SIZE)
def loop(k: int, colour: str) -> Edge:
    return Edge((k,), colour)


def edge_sort_key(e: Edge) -> tuple:
    kind = "loop" if e.is_loop else "straight"
    return (kind, e.ends[0], e.ends[-1], e.colour)


@dataclass(frozen=True)
class ColouredGraph:
    n: int
    edges: frozenset[Edge]
    palette: str = BICHROMATIC

    def __post_init__(self) -> None:
        if type(self.edges) is not frozenset:
            # a graph is a value: it keeps no caller's mutable container, so
            # it hashes, compares equal to its frozen twin and never changes
            object.__setattr__(self, "edges", frozenset(self.edges))
        if self.n < 0:
            raise ValueError("node count must be >= 0")
        if self.palette not in (BICHROMATIC, TRICHROMATIC):
            raise ValueError(f"unknown palette: {self.palette!r}")
        n = self.n
        for e in self.edges:
            # the ends are sorted, so the first and last bound them all
            if not (e.ends[0] >= 1 and e.ends[-1] <= n):
                raise ValueError(f"edge {e} out of node range 1..{n}")
            if e.colour == BLUE and (self.palette == BICHROMATIC or not e.is_loop):
                raise ValueError(f"blue is only legal on trichromatic loops: {e}")

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=edge_sort_key)

    def is_subgraph_of(self, other: ColouredGraph) -> bool:
        return self.n == other.n and self.palette == other.palette and self.edges <= other.edges


def empty_graph(n: int, palette: str = BICHROMATIC) -> ColouredGraph:
    return ColouredGraph(n, frozenset(), palette)


# the constructor freezes any edge iterable, so `graph` is just its short name
graph = ColouredGraph


# ---------------------------------------------------------------------------
# main correspondence: bichromatic graphs <-> symmetric subsets of BC_n


# Entries of the `_root_pair` memo: as many (n, edge) keys as the slot bits
# of `crystal.slot_mask`, at most 112 bichromatic ones for verify at n <= 6.
_ROOT_MEMO_SIZE = 256


@lru_cache(maxsize=_ROOT_MEMO_SIZE)
def _root_pair(n: int, e: Edge) -> tuple[Root, Root]:
    """The roots +-alpha in Q^n of a red or green edge, by the table above."""
    ends, colour = e
    pos = [0] * n
    neg = [0] * n
    if len(ends) == 1:
        k = ends[0] - 1
        pos[k] = 1 if colour == RED else 2
        neg[k] = -pos[k]
    else:
        i, j = ends[0] - 1, ends[1] - 1
        pos[i], neg[i] = 1, -1
        pos[j], neg[j] = (-1, 1) if colour == RED else (1, -1)
    return tuple(pos), tuple(neg)


def roots_from_graph(g: ColouredGraph) -> RootSet:
    """The symmetric subset of BC_n encoded by a bichromatic graph."""
    if g.palette != BICHROMATIC:
        raise ValueError("roots_from_graph needs a bichromatic graph")
    n = g.n
    out: set[Root] = set()
    for e in g.edges:
        out.update(_root_pair(n, e))
    return frozenset(out)


def graph_from_roots(phi, n: int | None = None) -> ColouredGraph:
    """The bichromatic graph of a symmetric subset of BC_n (inverse of roots_from_graph)."""
    phi = frozenset(phi)
    if n is None:
        if not phi:
            raise ValueError("cannot infer the node count of an empty root set")
        n = len(next(iter(phi)))
    edges: set[Edge] = set()
    for alpha in phi:
        if len(alpha) != n:
            raise ValueError(f"root {alpha} does not live in Q^{n}")
        if not is_bc_root(alpha):
            raise ValueError(f"not a BC root: {alpha}")
        support = [(i + 1, c) for i, c in enumerate(alpha) if c != 0]
        if len(support) == 1:
            k, c = support[0]
            edges.add(loop(k, RED if abs(c) == 1 else GREEN))
        else:
            (i, ci), (j, cj) = support
            edges.add(straight(i, j, RED if ci * cj < 0 else GREEN))
    # after the shape checks, so a lone malformed root is named as such
    if not is_symmetric(phi):
        raise ValueError("graph_from_roots needs a symmetric root set")
    return ColouredGraph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# projective correspondence: trichromatic graphs <-> sub-arrangements of B/C


def projectify(g: ColouredGraph) -> ColouredGraph:
    """Fuse the red/green loops at each node into a single blue loop."""
    if g.palette != BICHROMATIC:
        raise ValueError("projectify needs a bichromatic graph")
    edges = frozenset(loop(e.ends[0], BLUE) if e.is_loop else e for e in g.edges)
    return ColouredGraph(g.n, edges, TRICHROMATIC)


def lift(g: ColouredGraph) -> ColouredGraph:
    """Repaint blue loops green (2 e_k), producing a bichromatic graph that
    projectifies back, and is quasi if g projectifies a quasi-crystallograph."""
    if g.palette != TRICHROMATIC:
        raise ValueError("lift needs a trichromatic graph")
    edges = []
    for e in g.edges:
        if e.is_loop and e.colour != BLUE:
            raise ValueError(f"lift needs all loops blue, got {e}")
        edges.append(loop(e.ends[0], GREEN) if e.colour == BLUE else e)
    return ColouredGraph(g.n, frozenset(edges), BICHROMATIC)


@dataclass(frozen=True, order=True)
class Hyperplane:
    """A hyperplane Ker(normal), stored by its canonical normal.

    The constructor makes the normal primitive with first nonzero entry
    positive, so e_i, 2 e_i and -e_i name the same hyperplane (dilation does
    not move a kernel), and equal hyperplanes are equal values.
    """

    normal: tuple[int, ...]

    def __post_init__(self) -> None:
        v = tuple(self.normal)
        g = gcd(*v)
        if g == 0:
            raise ValueError("the zero covector has no kernel hyperplane")
        if next(c for c in v if c != 0) < 0:
            g = -g
        object.__setattr__(self, "normal", tuple(c // g for c in v))


def normal_lines(arrangement) -> frozenset[Root]:
    """The +- normals of an arrangement's hyperplanes."""
    return frozenset(v for h in arrangement for v in (h.normal, tuple(-c for c in h.normal)))


def arrangement_from_graph(g: ColouredGraph) -> frozenset[Hyperplane]:
    """Hyperplanes encoded by a trichromatic graph with R/G straights and B loops."""
    return frozenset(Hyperplane(alpha) for alpha in roots_from_graph(lift(g)))


def graph_from_arrangement(hyperplanes, n: int | None = None) -> ColouredGraph:
    """Inverse of arrangement_from_graph; rejects hyperplanes outside the B/C arrangement."""
    return projectify(graph_from_roots(normal_lines(hyperplanes), n))


# ---------------------------------------------------------------------------
# structural operations


def disjoint_union(g1: ColouredGraph, g2: ColouredGraph) -> ColouredGraph:
    """Concatenate node sets (g2's nodes shifted by g1.n) and merge edges."""
    if g1.palette != g2.palette:
        raise ValueError("palette mismatch in disjoint union")
    edges = set(g1.edges)
    for e in g2.edges:
        ends = [v + g1.n for v in e.ends]
        edges.add(loop(*ends, e.colour) if e.is_loop else straight(*ends, e.colour))
    return ColouredGraph(g1.n + g2.n, frozenset(edges), g1.palette)


def linked_parts(nodes: Sequence[int], links: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Partition of `nodes` joined by the (i, j) pairs in `links`, by union-find.

    Parts are sorted tuples, ordered by least node; every pair must lie in
    `nodes`.
    """
    parent = dict(zip(nodes, nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in links:
        parent[find(i)] = find(j)
    buckets: dict[int, list[int]] = {}
    for v in nodes:
        buckets.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(part)) for part in buckets.values()), key=lambda p: p[0])


def connected_components(g: ColouredGraph) -> list[tuple[int, ...]]:
    """Partition of 1..n by edge connectivity (colours ignored), sorted by least node."""
    return linked_parts(range(1, g.n + 1), [e.ends for e in g.edges if len(e.ends) == 2])


def weyl_act_graph(w: SignedPermutation, g: ColouredGraph) -> ColouredGraph:
    """Direct action of a signed permutation on a coloured graph.

    Nodes are relabelled through the permutation; a straight edge swaps
    colour iff exactly one endpoint is sign-flipped.  Loops keep their
    colour: sigma_i fixes e_j for j != i and negates e_i, 2e_i in place.
    """
    if w.n != g.n:
        raise ValueError(f"dimension mismatch: {g.n} vs {w.n}")
    edges: set[Edge] = set()
    for e in g.edges:
        if e.is_loop:
            k = e.ends[0]
            edges.add(loop(w.perm[k - 1] + 1, e.colour))
        else:
            i, j = e.ends
            colour = e.colour
            if w.signs[i - 1] * w.signs[j - 1] == -1:
                colour = _COLOUR_FLIP[colour]
            edges.add(straight(w.perm[i - 1] + 1, w.perm[j - 1] + 1, colour))
    return ColouredGraph(g.n, frozenset(edges), g.palette)


# ---------------------------------------------------------------------------
# serialisation


def graph_to_json_obj(g: ColouredGraph) -> dict:
    edges = []
    for e in g.sorted_edges():
        if e.is_loop:
            edges.append({"kind": "loop", "k": e.ends[0], "colour": e.colour})
        else:
            edges.append({"kind": "straight", "i": e.ends[0], "j": e.ends[1], "colour": e.colour})
    return {"palette": g.palette, "nodes": g.n, "edges": edges}


def graph_to_json(g: ColouredGraph) -> str:
    """Canonical JSON form: fixed key order, sorted edges, no whitespace."""
    return json.dumps(graph_to_json_obj(g), separators=(",", ":"))


def _json_node(item: dict, key: str) -> int:
    value = item.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"edge {item!r}: {key!r} must be an integer node")
    return value


def _json_colour(item: dict) -> str:
    # checked before the edge memo, which would raise TypeError on a list or object
    colour = item.get("colour")
    if not isinstance(colour, str):
        raise ValueError(f"unknown colour: {colour!r}")
    return colour


def graph_from_json_obj(obj: dict) -> ColouredGraph:
    if not isinstance(obj, dict):
        raise ValueError("a graph must be a JSON object")
    try:
        palette = obj["palette"]
        n = obj["nodes"]
        raw_edges = obj["edges"]
    except KeyError as exc:
        raise ValueError(f"malformed graph object: missing {exc}") from None
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("'nodes' must be an integer")
    if not isinstance(raw_edges, list):
        raise ValueError("'edges' must be a list")
    edges: set[Edge] = set()
    for item in raw_edges:
        if not isinstance(item, dict):
            raise ValueError(f"edge {item!r} is not an object")
        kind = item.get("kind")
        if kind == "straight":
            edges.add(straight(_json_node(item, "i"), _json_node(item, "j"), _json_colour(item)))
        elif kind == "loop":
            edges.add(loop(_json_node(item, "k"), _json_colour(item)))
        else:
            raise ValueError(f"unknown edge kind: {kind!r}")
    return ColouredGraph(n, frozenset(edges), palette)


def graph_from_json(text: str) -> ColouredGraph:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("graph JSON is nested too deeply") from None
    return graph_from_json_obj(obj)


def graph_to_dot(g: ColouredGraph) -> str:
    """DOT rendering: nodes 1..n, edges coloured red/green/blue, deterministic order."""
    lines = ["graph {"]
    for v in range(1, g.n + 1):
        lines.append(f"  {v};")
    for e in g.sorted_edges():
        a = e.ends[0]
        b = e.ends[-1]
        lines.append(f"  {a} -- {b} [color={_DOT_COLOUR[e.colour]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_roots_text(text: str) -> set[Root]:
    """Root set text form: one space-separated integer vector per line."""
    out: set[Root] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            vec = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: not an integer vector: {line!r}") from None
        out.add(vec)
    return out


def roots_to_text(phi) -> str:
    return "\n".join(" ".join(str(c) for c in alpha) for alpha in sorted(phi)) + ("\n" if phi else "")
