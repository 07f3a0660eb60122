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

The table above is read in two directions.  `_root_pair` reads it
forward, an edge to its pair +-alpha, and `graph_from_roots` reads it
backward, one pass per root: the root's support names its edge and its
coefficients must be the ones the table gives that edge.  Each edge names
exactly two roots, so a set of such roots is symmetric exactly when it has
twice as many roots as edges.

An Edge is the tuple (ends, colour), validated on construction, so it
equals, hashes and orders like that plain tuple.  Edges are built only by
`straight` and `loop`, from a bounded memo, so each distinct (ends, colour)
is one shared object however many graphs hold it.  `roots_from_graph`
reads each edge's pair +-alpha from another bounded memo, keyed by
(n, edge), so the roots of the same few edges are not built again and again.
`graph_to_json` reads each edge's canonical JSON text and sort key from a
third memo, `_edge_json`, and joins the texts of its sorted edges inside
the fixed graph frame, `_json_frame`.  `_slot_texts` lists the texts of a
slot layout in that order once, so `crystal.orbit_canonical` builds the
text of a slot mask without decoding it.  One constant, `_EDGE_MEMO_SIZE`,
sizes every memo keyed by an edge, these four and `crystal._slot_bit`.

Graphs are immutable values; equality is literal (same node count, same edge
set).  The constructor freezes whatever edge iterable it is given, so every
graph hashes and can key a cache, and validates it: on at most
`_TABLE_MAX_N` nodes one subset test against the palette's legal edges,
read from the one slot list `all_edge_slots`, accepts it, and otherwise
each edge is checked in turn.  A graph also caches its slot mask, which
`crystal` fills (`_set_slot_mask`) and keys its memos by; the cache is no
part of the value.  The canonical JSON form and the DOT export are
byte-deterministic.

The package's small value types (`Hyperplane` here, `SignedPermutation`,
`Component`, `ComponentReport`, `KernelBasis`, `RestrictedSystem` and
`EnumerationSummary`) are `namedtuple` subclasses with no instance dict,
like Edge: each equals, hashes and orders like its field tuple, and a type
with checks makes them in `__new__`.  `_make` and `_replace` skip `__new__`,
so they skip those checks too; only `Component._replace` is called, and
Component has none.  `ColouredGraph` is a slotted class rather than a tuple,
so that a graph never equals a plain tuple, `perfbench` can trace its
`__init__`, and a graph can be weakly referenced.  All are written out by
hand, not generated by a class decorator, because the standard library's
one imports `inspect` and `ast` and builds its methods with `exec`: some
milliseconds of start-up in every CLI process.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache, lru_cache
from itertools import chain, repeat
from math import gcd

from .rootsys import Root, RootSet, SignedPermutation

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


# Entries per memo keyed by an edge or by (n, edge): `straight`, `loop`,
# `_root_pair`, `_edge_json` and `crystal._slot_bit`.  verify at n <= 6 asks
# each for at most 133 keys: n^2 + 2n (n, edge) keys per node count, 60
# straight edges (both argument orders) and 18 loops; `_edge_json` has 48,
# the 30 straight edges and 18 loops of all three colours.  So every one
# stays cached; a larger graph only evicts.  Exceptions are never cached,
# so bad input raises anew.
_EDGE_MEMO_SIZE = 256


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


@cache
def all_edge_slots(n: int, palette: str = BICHROMATIC) -> tuple[Edge, ...]:
    """The edges a graph of this palette on n nodes can hold, in slot order:
    the n^2 + n bichromatic edges, then the n blue loops when trichromatic."""
    if palette == TRICHROMATIC:
        return all_edge_slots(n) + tuple(loop(k, BLUE) for k in range(1, n + 1))
    slots: list[Edge] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            slots.append(straight(i, j, RED))
            slots.append(straight(i, j, GREEN))
    for k in range(1, n + 1):
        slots.append(loop(k, RED))
        slots.append(loop(k, GREEN))
    return tuple(slots)


# Graphs on at most this many nodes are validated by one set test against
# their legal edges, and `crystal` checks their closure against its cached
# full table and memoises their answers by slot mask; larger graphs are
# checked edge by edge (`crystal._edges_closed`).
_TABLE_MAX_N = 8
# Entries of `_legal_edges`: one per palette and node count up to _TABLE_MAX_N.
_LEGAL_MEMO_SIZE = 2 * (_TABLE_MAX_N + 1)


@lru_cache(maxsize=_LEGAL_MEMO_SIZE)
def _legal_edges(n: int, palette: str) -> frozenset[Edge]:
    """The set of `all_edge_slots(n, palette)`: every edge in node range 1..n
    whose colour the palette allows there, and no other."""
    return frozenset(all_edge_slots(n, palette))


class ColouredGraph:
    """A coloured graph on nodes 1..n: an immutable value, compared and hashed
    by (n, edges, palette) and equal only to another ColouredGraph.

    The constructor validates every edge set.  On at most `_TABLE_MAX_N`
    nodes one subset test against `_legal_edges` accepts it; otherwise, and
    whenever that test fails, each edge's range and colour are checked in
    turn, so the error names the first bad edge found.

    `_slot_mask` caches the graph's `crystal.slot_mask`, None until the
    decoder or the first encoding fills it; equality, hashing, copying and
    pickling ignore it.
    """

    __slots__ = ("n", "edges", "palette", "_slot_mask", "__weakref__")

    def __init__(self, n: int, edges: Iterable[Edge], palette: str = BICHROMATIC) -> None:
        if type(edges) is not frozenset:
            # a graph is a value: it keeps no caller's mutable container, so
            # it hashes, compares equal to its frozen twin and never changes
            edges = frozenset(edges)
        if n < 0:
            raise ValueError("node count must be >= 0")
        if palette not in (BICHROMATIC, TRICHROMATIC):
            raise ValueError(f"unknown palette: {palette!r}")
        if not (type(n) is int and n <= _TABLE_MAX_N and edges <= _legal_edges(n, palette)):
            # larger graphs, node counts that are no int, and any edge set
            # the legal set does not take are checked edge by edge, so a
            # bad edge is named
            for e in edges:
                # the ends are sorted, so the first and last bound them all
                if not (e.ends[0] >= 1 and e.ends[-1] <= n):
                    raise ValueError(f"edge {e} out of node range 1..{n}")
                if e.colour == BLUE and (palette == BICHROMATIC or not e.is_loop):
                    raise ValueError(f"blue is only legal on trichromatic loops: {e}")
        _set_n(self, n)
        _set_edges(self, edges)
        _set_palette(self, palette)
        _set_slot_mask(self, None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not ColouredGraph:
            return NotImplemented
        return (self.n, self.edges, self.palette) == (other.n, other.edges, other.palette)

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.palette))

    def __repr__(self) -> str:
        return f"ColouredGraph(n={self.n!r}, edges={self.edges!r}, palette={self.palette!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which __setattr__ leaves open
        return ColouredGraph, (self.n, self.edges, self.palette)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=edge_sort_key)

    def is_subgraph_of(self, other: ColouredGraph) -> bool:
        return self.n == other.n and self.palette == other.palette and self.edges <= other.edges


# the slots' own setters, which `__init__` calls past the blocked __setattr__
_set_n = ColouredGraph.n.__set__
_set_edges = ColouredGraph.edges.__set__
_set_palette = ColouredGraph.palette.__set__
# `crystal` fills the cached slot mask through this one
_set_slot_mask = ColouredGraph._slot_mask.__set__


def empty_graph(n: int, palette: str = BICHROMATIC) -> ColouredGraph:
    return ColouredGraph(n, frozenset(), palette)


# the constructor freezes any edge iterable, so `graph` is just its short name
graph = ColouredGraph


# ---------------------------------------------------------------------------
# main correspondence: bichromatic graphs <-> symmetric subsets of BC_n


@lru_cache(maxsize=_EDGE_MEMO_SIZE)
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
    return frozenset(chain.from_iterable(map(_root_pair, repeat(g.n), g.edges)))


def graph_from_roots(phi, n: int | None = None) -> ColouredGraph:
    """The bichromatic graph of a symmetric subset of BC_n (inverse of roots_from_graph).

    Without n, the dimension is the roots' length.  A bad set names its
    least root of another length (the least root's, if the lengths differ
    and n is not given), else its least root outside the table, else its
    asymmetry: one message per set, whatever order it is read in.
    """
    phi = frozenset(phi)
    inferred = n is None
    if inferred:
        if not phi:
            raise ValueError("cannot infer the node count of an empty root set")
        n = len(next(iter(phi)))
    edges: set[Edge] = set()
    wrong_length: list[Root] = []
    wrong_shape: list[Root] = []
    for alpha in phi:
        if len(alpha) != n:
            wrong_length.append(alpha)
            continue
        support = [(i, c) for i, c in enumerate(alpha, start=1) if c != 0]
        if len(support) == 1 and support[0][1] in (-2, -1, 1, 2):
            k, c = support[0]
            edges.add(loop(k, RED if abs(c) == 1 else GREEN))
        elif len(support) == 2 and support[0][1] in (-1, 1) and support[1][1] in (-1, 1):
            (i, ci), (j, cj) = support
            edges.add(straight(i, j, RED if ci != cj else GREEN))
        else:
            wrong_shape.append(alpha)
    # the error names the least malformed root, so the same set gets the
    # same message whatever order the frozenset yields its roots in
    if wrong_length:
        if inferred:
            # n came from whichever root was read first; take the least one's
            n = len(min(phi))
            wrong_length = [alpha for alpha in phi if len(alpha) != n]
        raise ValueError(f"root {min(wrong_length)} does not live in Q^{n}")
    if wrong_shape:
        raise ValueError(f"not a BC root: {min(wrong_shape)}")
    # each edge names two roots, so phi holds both of every pair iff it has
    # twice as many roots as edges; after the shape checks, so a lone
    # malformed root is named as such
    if len(phi) != 2 * len(edges):
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


class Hyperplane(namedtuple("Hyperplane", "normal")):
    """A hyperplane Ker(normal), stored by its canonical normal.

    The constructor makes the normal primitive with first nonzero entry
    positive, so e_i, 2 e_i and -e_i name the same hyperplane (dilation does
    not move a kernel), and equal hyperplanes are equal values.
    """

    __slots__ = ()

    def __new__(cls, normal: Iterable[int]) -> Hyperplane:
        v = tuple(normal)
        g = gcd(*v)
        if g == 0:
            raise ValueError("the zero covector has no kernel hyperplane")
        if next(c for c in v if c != 0) < 0:
            g = -g
        return super().__new__(cls, tuple(c // g for c in v))


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


@lru_cache(maxsize=_EDGE_MEMO_SIZE)
def _edge_json(e: Edge) -> tuple[tuple, str]:
    """An edge's `edge_sort_key` and its canonical JSON text, the object
    {"kind", then "k" or "i" and "j", then "colour"} with no whitespace."""
    if e.is_loop:
        return edge_sort_key(e), f'{{"kind":"loop","k":{e.ends[0]},"colour":"{e.colour}"}}'
    i, j = e.ends
    return edge_sort_key(e), f'{{"kind":"straight","i":{i},"j":{j},"colour":"{e.colour}"}}'


def _json_frame(palette: str, n: int, edge_texts: Iterable[str]) -> str:
    """The canonical JSON of a graph from its edges' texts in sorted order."""
    return f'{{"palette":"{palette}","nodes":{n},"edges":[{",".join(edge_texts)}]}}'


def dump_json(obj) -> str:
    """The package's one JSON writer: `json.dumps` with no whitespace."""
    return json.dumps(obj, separators=(",", ":"))


def graph_to_json(g: ColouredGraph) -> str:
    """Canonical JSON form: fixed key order, sorted edges, no whitespace."""
    return _json_frame(g.palette, g.n, [text for _, text in sorted(map(_edge_json, g.edges))])


@lru_cache(maxsize=1)
def _slot_texts(slots: tuple[Edge, ...]) -> tuple[tuple[int, str], ...]:
    """Each slot of a layout as (its bit, its edge's JSON text), in
    `graph_to_json`'s edge order: the graph whose edges are a mask's set
    slots serialises to `_json_frame` around the texts of the set bits."""
    return tuple((1 << b, text) for (_, text), b in sorted((_edge_json(e), b) for b, e in enumerate(slots)))


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
