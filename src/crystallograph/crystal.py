"""Crystallograph predicates, component classification, and Weyl normalisation.

A bichromatic graph is a crystallograph when its edge set is closed the way
a root subsystem is closed under its own reflections:

  1. two straight edges sharing exactly one node force the straight edge
     closing the triangle, red if the two agree in colour and green
     otherwise;
  2. a loop edge next to a straight edge forces the parallel straight edge
     of the opposite colour, and the same-colour loop at the far end.

Quasi-crystallographs weaken rule 2 for green loops only: the straight edge
still doubles but the green loop need not propagate.  Projective
crystallographs are the trichromatic analogue where blue is the unique loop
colour and propagates like a red loop.

Both rules are Horn implications "slot s and slot t force these slots" over
the n^2 + n edge slots of `all_edge_slots`.  A graph is an integer mask over
those slots (`slot_mask`), `closure_rules` lists the implications per slot,
and `closed` checks a mask against them.  A blue loop takes the red-loop
slot, so the projective predicate is the quasi check.  The full table has
about 2n^3 entries, so a graph on more than `_TABLE_MAX_N` nodes is checked
against `_GraphRules`, the implications between its own edges, built by the
same slot arithmetic; its cost follows its edges, not n.  The rules are
written from the two statements above, never from reflections, so the
sweeps in `oracle` still compare two independent routes.

Every graph passing these predicates decomposes into connected components
drawn from a short list of models; `classify_components` finds the
decomposition and raises if a component matches nothing, which would mean
the classification itself is broken.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import isqrt

from . import linalg
from .graphs import (
    BICHROMATIC,
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    Edge,
    connected_components,
    disjoint_union,
    empty_graph,
    graph_from_roots,
    graph_to_json,
    linked_parts,
    loop,
    roots_from_graph,
    straight,
    weyl_act_graph,
)
from .rootsys import (
    Root,
    SignedPermutation,
    enumeration_limit,
    reflection_permutation,
    weyl_apply,
    weyl_group,
)


class InconsistencyError(RuntimeError):
    """A component of a (quasi-)crystallograph matched no model.

    This cannot happen if the classification theorems hold; reaching it from
    a graph that passes the predicates is a falsification signal, not a
    recoverable input error.
    """


# ---------------------------------------------------------------------------
# closure predicates


def _straight_slot(n: int, i: int, j: int, green: int) -> int:
    """Slot of straight {i, j} in the order of all_edge_slots(n)."""
    if i > j:
        i, j = j, i
    return 2 * ((i - 1) * n - (i - 1) * i // 2 + j - i - 1) + green


def _loop_slot(n: int, k: int, green: int) -> int:
    return n * (n - 1) + 2 * (k - 1) + green


def _pair_of_slot(n: int, s: int) -> tuple[int, int, int]:
    """Inverse of _straight_slot: (i, j, green) with i < j."""
    q, green = divmod(s, 2)

    def before(r: int) -> int:  # pairs whose first node is at most r
        return r * (2 * n - r - 1) // 2

    r = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 8 * q)) // 2
    while before(r + 1) <= q:
        r += 1
    while before(r) > q:
        r -= 1
    return r + 1, q - before(r) + r + 2, green


CRYSTAL_PROPAGATING = frozenset((RED, GREEN))
QUASI_PROPAGATING = frozenset((RED,))

HornRules = tuple[tuple[tuple[int, int], ...], ...]


def _implications(
    n: int, propagating: frozenset[str], s: int, near: Mapping[int, Iterable[int]]
):
    """Yield (partner slot, required slots) for each implication whose later
    premise is slot s.  Loop colours in `propagating` spread along straight
    edges.  Only straight edges {v, b} with b in near[v] are taken as
    partners.
    """
    if s >= n * (n - 1):
        # rule 2: a loop at k next to straight {k,b} forces {k,b} in the
        # other colour, and a propagating loop colour forces the same loop at b
        k, green_loop = divmod(s - n * (n - 1), 2)
        k += 1
        spreads = (GREEN if green_loop else RED) in propagating
        for b in near.get(k, ()):
            if b == k:
                continue
            kb = _straight_slot(n, k, b, 0)
            far = (_loop_slot(n, b, green_loop),) if spreads else ()
            yield kb, (kb + 1, *far)
            yield kb + 1, (kb, *far)
        return
    # rule 1: straight edges {v,a} and {v,b} force {a,b}, red when their
    # colours agree and green otherwise
    i, j, green = _pair_of_slot(n, s)
    for v, a in ((i, j), (j, i)):
        for b in near.get(v, ()):
            if b == i or b == j:
                continue
            vb = _straight_slot(n, v, b, 0)
            if vb < s:
                ab = _straight_slot(n, a, b, 0)
                yield vb, (ab + green,)
                yield vb + 1, (ab + 1 - green,)


def _bits(slots: Iterable[int]) -> int:
    mask = 0
    for t in slots:
        mask |= 1 << t
    return mask


def _edge_slots(n: int, edges: Iterable[Edge]) -> set[int]:
    """Slots of the edges over all_edge_slots(n); a blue loop takes the
    red-loop slot."""
    slots = set()
    for e in edges:
        ends = e.ends
        green = e.colour == GREEN
        if len(ends) == 1:
            slots.add(_loop_slot(n, ends[0], green))
        else:
            slots.add(_straight_slot(n, ends[0], ends[1], green))
    return slots


@cache
def closure_rules(n: int, propagating: frozenset[str]) -> HornRules:
    """Both closure rules as Horn implications over the n^2 + n edge slots.

    Entry s lists pairs (partner bit, required mask): a graph holding slot
    s and the partner must hold every slot of the required mask.  Each
    implication is listed once, under the later of its two premise slots,
    with partners in increasing order; the slots follow all_edge_slots(n).
    The table has about 2n^3 entries, so it serves the small n of the
    exhaustive scans; larger graphs are checked with `_GraphRules`.
    """
    every = {v: range(1, n + 1) for v in range(1, n + 1)}
    return tuple(
        tuple(sorted((1 << t, _bits(req)) for t, req in _implications(n, propagating, s, every)))
        for s in range(n * n + n)
    )


class _GraphRules:
    """The implications between one graph's own edges, as `closed` reads them.

    Bit c stands for the graph's c-th edge slot in slot order, and bit
    len(slots) for any slot the graph lacks; `mask` sets the graph's bits.
    Entry c lists the implications whose later premise is edge c and whose
    partner is also an edge, built when `closed` reaches it.  `closed`
    passes over an implication whose partner is not set, so the answer is
    that of the full table, while the bit width follows the edge count and
    the work the edges at each node: a graph on many nodes costs what its
    edges cost.
    """

    def __init__(self, g: ColouredGraph, propagating: frozenset[str]):
        self.n = g.n
        self.propagating = propagating
        self.slots = sorted(_edge_slots(g.n, g.edges))
        self.index = {s: c for c, s in enumerate(self.slots)}
        self.absent = 1 << len(self.slots)
        self.mask = self.absent - 1
        self.neighbours: dict[int, set[int]] = {}
        for e in g.edges:
            if not e.is_loop:
                i, j = e.ends
                self.neighbours.setdefault(i, set()).add(j)
                self.neighbours.setdefault(j, set()).add(i)

    def __getitem__(self, c: int) -> list[tuple[int, int]]:
        index = self.index
        entries = []
        for t, req in _implications(self.n, self.propagating, self.slots[c], self.neighbours):
            if t in index:
                required = 0
                for r in req:
                    required |= 1 << index[r] if r in index else self.absent
                entries.append((1 << index[t], required))
        return entries


def slot_mask(g: ColouredGraph) -> int:
    """The graph's edges as a mask over all_edge_slots(g.n).

    A blue loop takes the red-loop slot, so a projective graph is checked
    with the rules in which red propagates.
    """
    return _bits(_edge_slots(g.n, g.edges))


def closed(mask: int, rules: HornRules | _GraphRules) -> bool:
    """Whether the slot mask satisfies every implication of `rules`."""
    missing = ~mask
    m = mask
    while m:
        low = m & -m
        for partner, required in rules[low.bit_length() - 1]:
            if partner & mask and required & missing:
                return False
        m ^= low
    return True


# Graphs on at most this many nodes are checked against the cached full
# table; larger ones against their own edges.
_TABLE_MAX_N = 8


def _graph_closed(g: ColouredGraph, propagating: frozenset[str]) -> bool:
    if g.n <= _TABLE_MAX_N:
        return closed(slot_mask(g), closure_rules(g.n, propagating))
    rules = _GraphRules(g, propagating)
    return closed(rules.mask, rules)


def is_crystallograph(g: ColouredGraph) -> bool:
    """Whether the graph of a symmetric subset is closed under reflections."""
    if g.palette != BICHROMATIC:
        raise ValueError("is_crystallograph needs a bichromatic graph")
    return _graph_closed(g, CRYSTAL_PROPAGATING)


def is_quasi_crystallograph(g: ColouredGraph) -> bool:
    """Crystallograph rules with green loops exempt from propagating."""
    if g.palette != BICHROMATIC:
        raise ValueError("is_quasi_crystallograph needs a bichromatic graph")
    return _graph_closed(g, QUASI_PROPAGATING)


def is_projective_crystallograph(g: ColouredGraph) -> bool:
    """Trichromatic closure: all loops blue, blue propagating like red."""
    if g.palette != TRICHROMATIC:
        raise ValueError("is_projective_crystallograph needs a trichromatic graph")
    if any(e.is_loop and e.colour != BLUE for e in g.edges):
        return False
    return _graph_closed(g, QUASI_PROPAGATING)


# ---------------------------------------------------------------------------
# component classification


@dataclass(frozen=True)
class Component:
    """One connected component with its model tag.

    `detail` records the designated node subsets a model needs beyond its
    parameters: the two parts for Bipartite, the green- or blue-looped nodes
    for the exotic tags.
    """

    nodes: tuple[int, ...]
    type: str
    params: tuple[int, ...]
    detail: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[Component, ...]

    def tags(self) -> list[str]:
        return [c.type for c in self.components]

    def has_bipartite(self) -> bool:
        return any(c.type == "Bipartite" for c in self.components)

    def by_type(self, tag: str) -> list[Component]:
        return [c for c in self.components if c.type == tag]

    def to_json_obj(self) -> dict:
        return {
            "components": [
                {"nodes": list(c.nodes), "type": c.type, "params": list(c.params)}
                for c in self.components
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def model_edges(comp: Component) -> frozenset[Edge]:
    """The exact edge set of a component's model graph on its own node labels."""
    nodes = comp.nodes
    pairs = list(combinations(nodes, 2))
    red_clique = {straight(i, j, RED) for i, j in pairs}
    both = red_clique | {straight(i, j, GREEN) for i, j in pairs}
    tag = comp.type
    if tag == "A":
        return frozenset(red_clique)
    if tag == "D":
        return frozenset(both)
    if tag == "B":
        return frozenset(both | {loop(k, RED) for k in nodes})
    if tag == "C":
        return frozenset(both | {loop(k, GREEN) for k in nodes})
    if tag == "BC":
        return frozenset(both | {loop(k, RED) for k in nodes} | {loop(k, GREEN) for k in nodes})
    if tag == "Bipartite":
        part1, part2 = comp.detail
        edges = {straight(i, j, RED) for i, j in combinations(part1, 2)}
        edges |= {straight(i, j, RED) for i, j in combinations(part2, 2)}
        edges |= {straight(i, j, GREEN) for i in part1 for j in part2}
        return frozenset(edges)
    if tag == "BplusC":
        (green_nodes,) = comp.detail
        return frozenset(
            both | {loop(k, RED) for k in nodes} | {loop(k, GREEN) for k in green_nodes}
        )
    if tag == "CplusD":
        (green_nodes,) = comp.detail
        return frozenset(both | {loop(k, GREEN) for k in green_nodes})
    if tag == "BorC":
        return frozenset(both | {loop(k, BLUE) for k in nodes})
    if tag == "ExoticBD":
        (blue_nodes,) = comp.detail
        return frozenset(both | {loop(k, BLUE) for k in blue_nodes})
    raise ValueError(f"unknown component tag: {tag!r}")


def _component_edges(g: ColouredGraph, nodes: tuple[int, ...]) -> frozenset[Edge]:
    node_set = set(nodes)
    return frozenset(e for e in g.edges if set(e.ends) <= node_set)


def _bipartite_parts(g: ColouredGraph, nodes: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Red-connectivity parts of a loopless component, or None if not two parts."""
    node_set = set(nodes)
    red = (e.ends for e in g.edges if not e.is_loop and e.colour == RED and set(e.ends) <= node_set)
    parts = linked_parts(nodes, red)
    if len(parts) != 2:
        return None
    parts.sort(key=lambda p: (len(p), p[0]))
    return parts


def _match_component(
    g: ColouredGraph, nodes: tuple[int, ...], loop_palette: str
) -> Component:
    """Identify the model of one connected component, verifying edge-exactness.

    loop_palette is BICHROMATIC for quasi-crystallograph components or
    TRICHROMATIC for projectified ones (blue loops).
    """
    m = len(nodes)
    actual = _component_edges(g, nodes)
    red_loops = {v for v in nodes if loop(v, RED) in actual}
    green_loops = {v for v in nodes if loop(v, GREEN) in actual}
    blue_loops = {v for v in nodes if loop(v, BLUE) in actual}
    any_green_straight = any(
        not e.is_loop and e.colour == GREEN for e in actual
    )

    candidate: Component | None = None
    if loop_palette == TRICHROMATIC and (red_loops or green_loops):
        raise ValueError(f"component {nodes} carries non-blue loops")

    looped = red_loops | green_loops | blue_loops
    all_nodes = set(nodes)
    if not looped:
        if m == 1:
            candidate = Component(nodes, "A", (1,))
        elif not any_green_straight:
            candidate = Component(nodes, "A", (m,))
        elif all(
            {RED, GREEN} <= g.straight_colours(i, j) for i, j in combinations(nodes, 2)
        ):
            candidate = Component(nodes, "D", (m,))
        else:
            parts = _bipartite_parts(g, nodes)
            if parts is not None:
                candidate = Component(
                    nodes, "Bipartite", (len(parts[0]), len(parts[1])), tuple(parts)
                )
    elif loop_palette == BICHROMATIC:
        if red_loops == all_nodes:
            if green_loops == all_nodes:
                candidate = Component(nodes, "BC", (m,))
            elif not green_loops:
                candidate = Component(nodes, "B", (m,))
            else:
                r = len(green_loops)
                candidate = Component(
                    nodes, "BplusC", (r, m - r), (tuple(sorted(green_loops)),)
                )
        elif not red_loops and green_loops:
            if green_loops == all_nodes:
                candidate = Component(nodes, "C", (m,))
            else:
                r = len(green_loops)
                candidate = Component(
                    nodes, "CplusD", (r, m - r), (tuple(sorted(green_loops)),)
                )
    else:
        if blue_loops == all_nodes:
            candidate = Component(nodes, "BorC", (m,))
        else:
            r = len(blue_loops)
            candidate = Component(
                nodes, "ExoticBD", (r, m - r), (tuple(sorted(blue_loops)),)
            )

    if candidate is not None and model_edges(candidate) == actual:
        return candidate
    raise InconsistencyError(
        f"component {nodes} matches no model graph (classification falsified?)"
    )


def classify_components(g: ColouredGraph) -> ComponentReport:
    """Decompose a quasi-crystallograph into typed components.

    Degenerate exotic parameters collapse to their classical tags, so
    BplusC/CplusD are only ever emitted with 0 < r < r + s.
    """
    if not is_quasi_crystallograph(g):
        raise ValueError("classify_components needs a quasi-crystallograph")
    parts = connected_components(g)
    return ComponentReport(tuple(_match_component(g, p, BICHROMATIC) for p in parts))


def classify_projective_components(g: ColouredGraph) -> ComponentReport:
    """Decompose a projectified quasi-crystallograph into typed components."""
    if g.palette != TRICHROMATIC:
        raise ValueError("classify_projective_components needs a trichromatic graph")
    parts = connected_components(g)
    out = []
    for p in parts:
        try:
            out.append(_match_component(g, p, TRICHROMATIC))
        except InconsistencyError:
            raise ValueError(
                f"component {p} matches no projective model; "
                "not a projectification of a quasi-crystallograph"
            ) from None
    return ComponentReport(tuple(out))


def red_components(g: ColouredGraph) -> list[tuple[int, ...]]:
    """Node sets of the type-A components (singletons included), by least node."""
    report = classify_components(g)
    return [c.nodes for c in report.components if c.type == "A"]


# ---------------------------------------------------------------------------
# Weyl normalisation of bipartite components


@dataclass(frozen=True)
class WeylWord:
    """An ordered word of generator reflections together with its product."""

    word: tuple[Root, ...]
    element: SignedPermutation

    @classmethod
    def from_word(cls, word: tuple[Root, ...], n: int) -> WeylWord:
        element = SignedPermutation.identity(n)
        for alpha in word:
            element = element.compose(reflection_permutation(alpha))
        return cls(tuple(word), element)


def bipartite_normalize(g: ColouredGraph) -> tuple[ColouredGraph, WeylWord]:
    """Sign-flip every bipartite component onto its complete red equivalent.

    Flipping all nodes of the smaller part turns the green cross edges red
    while every edge inside a part is flipped twice or never; the word lists
    the flips by increasing node index.  Non-bipartite components are
    untouched.
    """
    if not is_crystallograph(g):
        raise ValueError("bipartite_normalize needs a crystallograph")
    report = classify_components(g)
    flips: list[int] = []
    for comp in report.by_type("Bipartite"):
        flips.extend(comp.detail[0])
    word = []
    for node in sorted(flips):
        alpha = [0] * g.n
        alpha[node - 1] = 1
        word.append(tuple(alpha))
    ww = WeylWord.from_word(tuple(word), g.n)
    gstar = graph_from_roots(weyl_apply(ww.element, roots_from_graph(g)), g.n)
    return gstar, ww


def rank(g: ColouredGraph) -> int:
    """Dimension of the span of the encoded roots, by exact elimination."""
    if g.palette != BICHROMATIC:
        raise ValueError("rank needs a bichromatic graph")
    return linalg.rank(sorted(roots_from_graph(g)))


# ---------------------------------------------------------------------------
# enumeration


@cache
def all_edge_slots(n: int) -> tuple[Edge, ...]:
    """The n^2 + n possible bichromatic edges on n nodes, in a fixed order."""
    slots: list[Edge] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            slots.append(straight(i, j, RED))
            slots.append(straight(i, j, GREEN))
    for k in range(1, n + 1):
        slots.append(loop(k, RED))
        slots.append(loop(k, GREEN))
    return tuple(slots)


def graph_from_slot_mask(n: int, mask: int) -> ColouredGraph:
    """The bichromatic graph whose edges are the set bits of a slot mask."""
    slots = all_edge_slots(n)
    return ColouredGraph(n, frozenset(slots[b] for b in range(len(slots)) if mask >> b & 1))


def all_bichromatic_graphs(n: int):
    """Every bichromatic graph on n nodes (2^(n^2+n) of them), mask order."""
    for mask in range(1 << (n * n + n)):
        yield graph_from_slot_mask(n, mask)


def _classical_component_menu(m: int) -> list[tuple[str, ColouredGraph]]:
    """Classical connected models on m nodes, in tag order."""
    nodes = tuple(range(1, m + 1))
    tags = ("A", "B", "BC", "C", "D") if m >= 2 else ("A", "B", "BC", "C")
    return [(tag, ColouredGraph(m, model_edges(Component(nodes, tag, (m,))))) for tag in tags]


def orbit_canonical(g: ColouredGraph) -> tuple[str, ColouredGraph]:
    """Lexicographically minimal serialisation over the W(BC_n) orbit, with
    the graph it serialises."""
    best: tuple[str, ColouredGraph] | None = None
    for w in weyl_group(g.n):
        image = weyl_act_graph(w, g)
        key = graph_to_json(image)
        if best is None or key < best[0]:
            best = (key, image)
    if best is None:
        raise InconsistencyError(f"the Weyl group of BC_{g.n} listed no element")
    return best


def _weyl_orbit_representatives(n: int) -> list[ColouredGraph]:
    """One representative per Weyl orbit of crystallographs on n nodes.

    Orbits are indexed by multisets of classical component types: bipartite
    components normalise to type A and signed permutations preserve the
    per-component root counts and length multisets, so distinct multisets
    are inequivalent.
    """
    results: list[tuple[str, ColouredGraph]] = []

    def build(sizes_left: int, min_key: tuple, assembled: ColouredGraph) -> None:
        if sizes_left == 0:
            results.append(orbit_canonical(assembled))
            return
        for m in range(1, sizes_left + 1):
            for key, model in _classical_component_menu(m):
                if (m, key) < min_key:
                    continue
                build(sizes_left - m, (m, key), disjoint_union(assembled, model))

    build(n, (0, ""), empty_graph(0))
    results.sort(key=lambda pair: pair[0])
    return [g for _, g in results]


def enumerate_crystallographs(n: int, mode: str = "all"):
    """Stream graphs on n nodes passing the requested predicate.

    mode "all" / "quasi" filter every bichromatic graph (limit n <= 4);
    "up_to_weyl" yields one canonical representative per Weyl orbit of
    crystallographs (limit n <= 5), built from the classification rather
    than by scanning.  Output is sorted by canonical serialisation.
    """
    if mode not in ("all", "quasi", "up_to_weyl"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "up_to_weyl":
        if n > enumeration_limit(5):
            raise ValueError(f"n={n} exceeds the up_to_weyl limit {enumeration_limit(5)}")
        yield from _weyl_orbit_representatives(n)
        return
    if n > enumeration_limit(4):
        raise ValueError(f"n={n} exceeds the enumeration limit {enumeration_limit(4)}")
    rules = closure_rules(n, CRYSTAL_PROPAGATING if mode == "all" else QUASI_PROPAGATING)
    found = [
        graph_from_slot_mask(n, mask) for mask in range(1 << (n * n + n)) if closed(mask, rules)
    ]
    found.sort(key=graph_to_json)
    yield from found
