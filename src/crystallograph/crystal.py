"""Crystallograph predicates, component classification, and Weyl normalisation.

A bichromatic graph is a crystallograph when its edge set is closed the way
a root subsystem is closed under its own reflections:

  1. two straight edges sharing exactly one node force the straight edge
     closing the triangle, red if the two agree in colour and green
     otherwise;
  2. a loop edge next to a straight edge forces the parallel straight edge
     of the opposite colour, and the same-colour loop at the far end.

Quasi-crystallographs weaken rule 2 for green loops only: the straight edge
still doubles but the green loop need not propagate.  A projective
crystallograph is read through `graphs.lift`: a trichromatic graph whose
loops are all blue and whose lift (blue repainted green) is a crystallograph.

Every graph is an integer mask over one slot layout,
`graphs.all_edge_slots`: the n^2 + n bichromatic edges (straight pairs,
then red and green loops), then the n blue loops.  `_slot` computes an
edge's slot and is the only encoder; `slot_mask` ORs it over a graph's
edges, and `graph_from_slot_mask` decodes a mask with the cached slot
tuple of the graph's palette.  A bichromatic graph never sets a blue bit;
the blue slots serve `orbit_canonical`.

Both rules are Horn implications "slot s and slot t force these slots" over
the n^2 + n bichromatic slots, in two configurations: every loop colour
propagating (crystallographs) or red only (quasi).  `closure_rules` lists
the implications per slot, and `closed` checks one mask against them.
`closed_masks` lists the masks that satisfy a table without visiting the
other 2^(n^2+n): it grows closed masks one slot at a time, closing each
extension by forward chaining, so its work follows the closed masks it
finds.  It reads any rules in this format, the oracle's reflection rules
too.  The full table has about 2n^3 entries, so a graph on more than
`_TABLE_MAX_N` nodes is checked by `_edges_closed`, a loop over the
implications between its own edges read from the same `_implications`; its
cost follows its edges, not n.  The rules are written from the two
statements above, never from reflections, so the sweeps in `oracle` still
compare two independent routes.

Every graph passing these predicates decomposes into connected components
drawn from a short list of models, written once in `_LOOP_MODELS`.  Apart
from A (a red clique) and Bipartite (red parts, green across), every model
has both straight colours on every pair and is named by its loops: the
colours looping at every node and the one colour, if any, looping at
exactly the `detail` nodes.  `model_edges` draws a model from the table;
`classify_components` splits the graph into components, looks each
component's loop pattern up in the same table inverted (a loopless one is
A, D or Bipartite by its red parts), and raises unless the component equals
the model drawn, which would mean the classification itself is broken.
Both speak only red and green: `classify_projective_components` classifies
`lift(g)` and names its C components BorC and its CplusD ones ExoticBD.  It
has no check of its own: the quasi precondition is `classify_components`'.

Two graph-level answers are memoised, because every layer above asks for
them again: `_graph_closed(g, propagating)`, the one closure check behind
the predicates, and `classify_components(g)`, the ComponentReport.  A
nested pair's quotient routes test both graphs and classify the subgraph
again and again, and the sampled pair stream draws the same graphs again
hundreds of draws later.  For a bichromatic graph on at most
`_TABLE_MAX_N` nodes the key is one int, its slot mask and node count
packed by `_mask_key` (and the rule set's bit, for closure): the graph
caches its slot mask, so the key is free after the first encoding, equal
graphs built apart share an entry, and no memo holds a graph.  A
classification miss decodes the mask afresh, and the reports share their
`Component` objects through `_shared`.  Both are `functools.lru_cache`s:
the closure memo of `_MASK_MEMO_SIZE` entries, sized to the pair stream's
working set, and the classification memo of `_CLASSIFIED_MEMO_SIZE`,
which also holds every report of `verify`'s classification suite until
the kernel suite reads the same graphs next.  Larger graphs and
trichromatic input go to memos keyed by the graph, of `_MEMO_SIZE`
entries, as nested pairs do in `quotient.quotient_graph`: an unbounded
memo, or one kept on each graph, would hold on to the graphs of a whole
sweep and raise the peak memory of `verify`.  Exceptions are never cached.  The sweep-long memo of the
`oracle` suites, which skips repeated draws, is keyed by slot-mask ints
for the same reason (see `oracle._replayed_failures`).

Three value-level memos hold no graph at all, since their keys are the
small values graphs are made of: `_slot_bit(n, e)`, the bit `_slot` gives
an interned edge, which `slot_mask` ORs over a graph's edges,
`model_edges(comp)`, keyed by the `Component` value, so a model matched,
drawn or rebuilt again is one shared frozenset (`graphs._root_pair` keeps
each edge's +- roots for `roots_from_graph` the same way), and
`_shared(comp)`, the first equal Component it was given.  The sampled
suites ask for the same few edges and components over and over; each memo
is a `functools.lru_cache` bounded by a named constant, `_MODEL_MEMO_SIZE`
or `graphs._EDGE_MEMO_SIZE`, the one size of every per-edge memo, and
importing the package fills none of them.  `model_graph` is a model as a
graph on nodes 1..m, drawn by `model_edges`.

Weyl orbits are found on slot masks too.  A signed permutation permutes the
slots of a graph's palette, so each Coxeter generator of W(BC_n) is read
off `weyl_act_graph` one edge at a time and kept as a few masked shifts,
one selection mask per distance its slots move.  `orbit_canonical` closes
the graph's mask under the n generators and ranks the distinct images by
text built straight from their masks: the JSON texts of the set slots,
taken in `graph_to_json`'s edge order (`graphs._slot_texts`).  Only
the least image is decoded into a graph; counting the orbits needs no
closure.

`ranked_enumeration` is every listing of `enumerate`, as (canonical JSON,
graph) pairs sorted by the JSON: up to Weyl the `orbit_canonical` pairs of
the classical unions, else each decoded closed mask with its
`graph_to_json`, so no listed graph is serialised twice.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cache, lru_cache, partial
from itertools import combinations

from .graphs import (
    BICHROMATIC,
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    _EDGE_MEMO_SIZE,
    _TABLE_MAX_N,
    ColouredGraph,
    Edge,
    _json_frame,
    _set_slot_mask,
    _slot_texts,
    all_edge_slots,
    connected_components,
    disjoint_union,
    dump_json,
    empty_graph,
    graph_to_json,
    lift,
    linked_parts,
    loop,
    roots_from_graph,
    straight,
    weyl_act_graph,
)
from .rootsys import SignedPermutation


class InconsistencyError(RuntimeError):
    """A component matched no model, or a slot or line table broke its invariant.

    This cannot happen if the classification theorems hold; reaching it from
    a graph that passes the predicates is a falsification signal, not a
    recoverable input error.
    """


# ---------------------------------------------------------------------------
# closure predicates


def _slot(n: int, ends: tuple[int, ...], colour: str) -> int:
    """Slot of the edge with these ends and colour on n nodes: its index in
    all_edge_slots(n), and a blue loop at k takes slot n^2 + n + k - 1."""
    if len(ends) == 1:
        k = ends[0]
        if colour == BLUE:
            return n * n + n + k - 1
        return n * (n - 1) + 2 * (k - 1) + (colour == GREEN)
    i, j = ends
    if i > j:
        i, j = j, i
    return 2 * ((i - 1) * n - (i - 1) * i // 2 + j - i - 1) + (colour == GREEN)


CRYSTAL_PROPAGATING = frozenset((RED, GREEN))
QUASI_PROPAGATING = frozenset((RED,))

HornRules = tuple[tuple[tuple[int, int], ...], ...]


def _implications(
    n: int, propagating: frozenset[str], e: Edge, near: Mapping[int, Iterable[int]]
):
    """Yield (partner slot, required slots) for each implication whose later
    premise is edge e.  Loop colours in `propagating` spread along straight
    edges.  Only straight edges {v, b} with b in near[v] are taken as
    partners.
    """
    if e.is_loop:
        # rule 2: a loop at k next to straight {k,b} forces {k,b} in the
        # other colour, and a propagating loop colour forces the same loop at b
        (k,) = e.ends
        spreads = e.colour in propagating
        for b in near.get(k, ()):
            if b == k:
                continue
            kb = _slot(n, (k, b), RED)
            far = (_slot(n, (b,), e.colour),) if spreads else ()
            yield kb, (kb + 1, *far)
            yield kb + 1, (kb, *far)
        return
    # rule 1: straight edges {v,a} and {v,b} force {a,b}, red when their
    # colours agree and green otherwise
    i, j = e.ends
    s = _slot(n, e.ends, e.colour)
    green = e.colour == GREEN
    for v, a in ((i, j), (j, i)):
        for b in near.get(v, ()):
            if b == i or b == j:
                continue
            vb = _slot(n, (v, b), RED)
            if vb < s:
                ab = _slot(n, (a, b), RED)
                yield vb, (ab + green,)
                yield vb + 1, (ab + 1 - green,)


def _bits(slots: Iterable[int]) -> int:
    mask = 0
    for t in slots:
        mask |= 1 << t
    return mask


@cache
def closure_rules(n: int, propagating: frozenset[str]) -> HornRules:
    """Both closure rules as Horn implications over the n^2 + n edge slots
    of `all_edge_slots(n)`, the loop colours in `propagating` spreading.

    Entry s lists pairs (partner bit, required mask): a graph holding slot
    s and the partner must hold every slot of the required mask.  Each
    implication is listed once, under the later of its two premise slots,
    with partners in increasing order.  The table has about 2n^3 entries,
    so it serves `closed` on graphs of up to `_TABLE_MAX_N` nodes and
    `closed_masks`; larger graphs are checked with `_edges_closed`.
    """
    every = {v: range(1, n + 1) for v in range(1, n + 1)}
    return tuple(
        tuple(sorted((1 << t, _bits(req)) for t, req in _implications(n, propagating, e, every)))
        for e in all_edge_slots(n)
    )


@lru_cache(maxsize=_EDGE_MEMO_SIZE)
def _slot_bit(n: int, e: Edge) -> int:
    """The bit of edge e's slot on n nodes, as `_slot` computes it."""
    return 1 << _slot(n, e.ends, e.colour)


def slot_mask(g: ColouredGraph) -> int:
    """The graph's edges as a mask over `all_edge_slots(g.n, g.palette)`.

    Every graph mask has this one layout: the n^2 + n bichromatic slots,
    then the n blue loops, so a bichromatic graph never sets the blue bits.
    `graph_from_slot_mask` is its inverse.  The mask is cached on the graph,
    so each graph is encoded once.
    """
    mask = g._slot_mask
    if mask is None:
        n = g.n
        mask = 0
        for e in g.edges:
            mask |= _slot_bit(n, e)
        _set_slot_mask(g, mask)
    return mask


def closed(mask: int, rules: HornRules) -> bool:
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


def closed_masks(rules: HornRules, within: int | None = None):
    """Yield every mask inside `within` (by default every slot of `rules`)
    that satisfies `rules`, each once, in search order rather than mask
    order.

    These are the closed sets of the table's forward chaining, listed by
    prefix-preserving closure extension (the depth-first search of LCM;
    Uno, Kiyomi and Arimura, 2004): a closed mask reached by extending at
    slot i - 1 is extended at each free slot j >= i in turn, and the
    closure of mask | 1 << j is kept only if it adds no slot below j and
    none outside `within`.  Every closed mask but 0 has one parent: the
    closure of its slots below j, for the least j whose slots up to j close
    to the whole mask.  The parent lies inside the mask, so no closed mask
    inside `within` is cut off.  Every implication has two premises, so 0
    is closed and the search starts there.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in rules]
    for s, entry in enumerate(rules):
        for partner, required in entry:
            adjacency[s].append((partner, required))
            adjacency[partner.bit_length() - 1].append((1 << s, required))

    def extend(mask: int, bit: int, barred: int) -> int:
        """The closure of mask | bit, or 0 once it reaches a barred slot."""
        mask |= bit
        todo = bit
        while todo:
            low = todo & -todo
            todo ^= low
            for partner, required in adjacency[low.bit_length() - 1]:
                if partner & mask:
                    new = required & ~mask
                    if new:
                        if new & barred:
                            return 0
                        mask |= new
                        todo |= new
        return mask

    if within is None:
        within = (1 << len(rules)) - 1
    stack = [(0, 0)]
    while stack:
        mask, start = stack.pop()
        yield mask
        free = within & ~mask & -(1 << start)
        while free:
            bit = free & -free
            free ^= bit
            child = extend(mask, bit, ~within | (bit - 1) & ~mask)
            if child:
                stack.append((child, bit.bit_length()))


# Entries of the closure memo, `_mask_closed`, keyed by `_mask_key` ints,
# sized to the pair stream's working set: `verify --nodes 4` draws 10,000
# pairs, 4,005 of them distinct.  An answer holds about 0.16 kB
# (tracemalloc).  Doubling it to 2,048 saved no CPU time at n = 4 and about
# 4% at n = 6 (`--samples 2000`), for about 0.4 MB more peak RSS at both.
_MASK_MEMO_SIZE = 1024
# Entries of the classification memo, `_mask_classified`, a report holding
# about 0.3 kB.  It must hold every graph of `verify`'s classification
# suite until the kernel suite classifies the same graphs: the 1,080 swept
# crystallographs at n <= `oracle.SCAN_LIMIT`, or a stream of at most 2,000
# draws above it.  At 1,024 entries that scan missed on every graph of the
# second pass; at 2,048 it misses on none.  With the closure memo at 1,024,
# moving this one from 1,024 to 2,048 cut the classifications of `verify
# --nodes 4` from 2,539 to 1,142 and its process CPU time from 1.07 to
# 0.99 s, and at n = 6 from 1.06 to 1.01 s, for 0.3 MB more peak RSS at
# n = 6 and none at n = 4 (medians of five fresh runs, 2-vCPU Xeon, Python
# 3.11.7).
_CLASSIFIED_MEMO_SIZE = 2048
# Entries of each memo keyed by graphs (`_edges_closed`, `_graph_classified`,
# `quotient.quotient_graph`): graphs above `_TABLE_MAX_N`, trichromatic
# input, and nested pairs.  The repeats come in runs over the few graphs of
# one check; the pair suite asks for each pair's quotient four times in a row.
_MEMO_SIZE = 8


@lru_cache(maxsize=_MEMO_SIZE)
def _edges_closed(g: ColouredGraph, propagating: frozenset[str]) -> bool:
    """Whether g satisfies every implication between its own edges.

    Each edge's implications come from `_implications`, with g's straight
    edges as the only partners, so the answer is that of the full table
    while the work follows the edges at each node, not n.  Memoised by
    graph, since it checks the graphs too large for the slot-mask memo.
    """
    n = g.n
    held = set()
    near: dict[int, set[int]] = {}
    for e in g.edges:
        held.add(_slot(n, e.ends, e.colour))
        if not e.is_loop:
            i, j = e.ends
            near.setdefault(i, set()).add(j)
            near.setdefault(j, set()).add(i)
    for e in g.edges:
        for partner, required in _implications(n, propagating, e, near):
            if partner in held:
                for r in required:
                    if r not in held:
                        return False
    return True


# the rule sets of the closure memo, by the bit that names them in its key
_RULE_SETS = (CRYSTAL_PROPAGATING, QUASI_PROPAGATING)


def _mask_key(g: ColouredGraph) -> int:
    """A graph on at most `_TABLE_MAX_N` (< 16) nodes as one int, its slot
    mask and node count packed as mask << 4 | n, so a memo keyed by it holds
    one int per entry and neither a tuple nor a graph."""
    return slot_mask(g) << 4 | g.n


@lru_cache(maxsize=_MASK_MEMO_SIZE)
def _mask_closed(key: int) -> bool:
    """Whether the graph of `_mask_key` key >> 1 satisfies the closure rules
    of the rule set `_RULE_SETS[key & 1]`."""
    return closed(key >> 5, closure_rules(key >> 1 & 15, _RULE_SETS[key & 1]))


def _graph_closed(g: ColouredGraph, propagating: frozenset[str]) -> bool:
    """The one closure check behind the predicates, memoised by slot mask up
    to `_TABLE_MAX_N` nodes and by graph above."""
    if g.n <= _TABLE_MAX_N:
        return _mask_closed(_mask_key(g) << 1 | _RULE_SETS.index(propagating))
    return _edges_closed(g, propagating)


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
    """Every loop blue, and `lift` (blue repainted green) a crystallograph."""
    if g.palette != TRICHROMATIC:
        raise ValueError("is_projective_crystallograph needs a trichromatic graph")
    return all(e.colour == BLUE for e in g.edges if e.is_loop) and is_crystallograph(lift(g))


# ---------------------------------------------------------------------------
# component classification


class Component(namedtuple("Component", "nodes type detail", defaults=((),))):
    """One connected component with its model tag.

    `detail` records the designated node subsets a model needs beyond its
    node count: the two parts for Bipartite, the green- or blue-looped nodes
    for the exotic tags.
    """

    __slots__ = ()

    @property
    def params(self) -> tuple[int, ...]:
        """Part sizes: (m,), the two Bipartite parts, or (r, m - r) for r marked."""
        sizes = tuple(len(part) for part in self.detail)
        rest = len(self.nodes) - sum(sizes)
        return sizes + (rest,) if rest else sizes


class ComponentReport(namedtuple("ComponentReport", "components")):
    __slots__ = ()

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
        return dump_json(self.to_json_obj())


# tag -> (loop colours at every node, loop colour at exactly the detail nodes);
# A and Bipartite are written out in `model_edges`.
_LOOP_MODELS: dict[str, tuple[frozenset[str], str | None]] = {
    "D": (frozenset(), None),
    "B": (frozenset((RED,)), None),
    "C": (frozenset((GREEN,)), None),
    "BC": (frozenset((RED, GREEN)), None),
    "BplusC": (frozenset((RED,)), GREEN),
    "CplusD": (frozenset(), GREEN),
}
_TAG_OF_LOOPS = {loops: tag for tag, loops in _LOOP_MODELS.items()}
# a blue loop lifts to green, so BorC lifts to C and ExoticBD to CplusD
_PROJECTIVE_TAG = {"C": "BorC", "CplusD": "ExoticBD"}


# Entries of the `model_edges` and `_shared` memos.  `verify --nodes 6
# --samples 2000` asks `model_edges` for 909 distinct components in 38,470
# calls, and 256 entries answer 88% of them (128: 80%, 512: 96%); `verify
# --nodes 4` asks for 165, all kept.  An entry holds about 0.7 kB at n = 6
# (tracemalloc).  Sharing the components halves what a cached report holds,
# from about 0.66 to 0.28 kB at n = 4.
_MODEL_MEMO_SIZE = 256


@lru_cache(maxsize=_MODEL_MEMO_SIZE)
def model_edges(comp: Component) -> frozenset[Edge]:
    """The exact edge set of a component's model graph on its own node labels.

    Memoised: equal components share one frozenset, which is immutable.
    """
    nodes = comp.nodes
    tag = comp.type
    if tag == "A":
        return frozenset(straight(i, j, RED) for i, j in combinations(nodes, 2))
    if tag == "Bipartite":
        part1, part2 = comp.detail
        edges = {straight(i, j, RED) for part in comp.detail for i, j in combinations(part, 2)}
        edges |= {straight(i, j, GREEN) for i in part1 for j in part2}
        return frozenset(edges)
    if tag not in _LOOP_MODELS:
        raise ValueError(f"unknown component tag: {tag!r}")
    everywhere, marked = _LOOP_MODELS[tag]
    edges = {straight(i, j, c) for i, j in combinations(nodes, 2) for c in (RED, GREEN)}
    edges |= {loop(k, c) for k in nodes for c in everywhere}
    if marked is not None:
        (marked_nodes,) = comp.detail
        edges |= {loop(k, marked) for k in marked_nodes}
    return frozenset(edges)


@lru_cache(maxsize=_MODEL_MEMO_SIZE)
def _shared(comp: Component) -> Component:
    """The cached Component equal to comp, so the memoised reports share
    one object per component rather than each holding its own."""
    return comp


def model_graph(m: int, tag: str, detail=()) -> ColouredGraph:
    """The model graph of `tag` on nodes 1..m, as `model_edges` draws it."""
    return ColouredGraph(m, model_edges(Component(tuple(range(1, m + 1)), tag, detail)))


def _split_components(g: ColouredGraph) -> list[tuple[tuple[int, ...], list[Edge]]]:
    """The connected components by least node, each with its own edges."""
    parts = connected_components(g)
    part_of = {v: c for c, part in enumerate(parts) for v in part}
    edges: list[list[Edge]] = [[] for _ in parts]
    for e in g.edges:
        edges[part_of[e.ends[0]]].append(e)
    return list(zip(parts, edges))


def _match_component(nodes: tuple[int, ...], edges: list[Edge]) -> Component:
    """Identify the model of one connected component, verifying edge-exactness.

    Its loops are red and green; their colours pick the model.
    """
    m = len(nodes)
    looped: dict[str, list[int]] = {}
    red_links = []
    green_straight = False
    for e in edges:
        if e.is_loop:
            looped.setdefault(e.colour, []).append(e.ends[0])
        elif e.colour == RED:
            red_links.append(e.ends)
        else:
            green_straight = True

    # the loop pattern: colours looping at every node, and at most one more
    # looping at a proper nonempty subset
    everywhere = frozenset(c for c, at in looped.items() if len(at) == m)
    marked = [c for c in looped if c not in everywhere]
    key = (everywhere, marked[0] if marked else None)
    tag = _TAG_OF_LOOPS.get(key) if len(marked) < 2 else None
    if tag is None:
        candidate = None
    elif marked:
        at = tuple(sorted(looped[marked[0]]))
        candidate = Component(nodes, tag, (at,))
    elif tag != "D":
        candidate = Component(nodes, tag)
    elif not green_straight:  # loopless: A, D or Bipartite by the red parts
        candidate = Component(nodes, "A")
    else:
        parts = linked_parts(nodes, red_links)
        if len(parts) == 2:
            parts.sort(key=lambda p: (len(p), p[0]))
            candidate = Component(nodes, "Bipartite", tuple(parts))
        else:
            candidate = Component(nodes, "D")

    if candidate is not None and model_edges(candidate) == frozenset(edges):
        return candidate
    raise InconsistencyError(
        f"component {nodes} matches no model graph (classification falsified?)"
    )


def _classified(g: ColouredGraph) -> ComponentReport:
    """The classification behind both memos of `classify_components`."""
    if not is_quasi_crystallograph(g):
        raise ValueError("classify_components needs a quasi-crystallograph")
    return ComponentReport(
        tuple(_shared(_match_component(p, edges)) for p, edges in _split_components(g))
    )


@lru_cache(maxsize=_CLASSIFIED_MEMO_SIZE)
def _mask_classified(key: int) -> ComponentReport:
    """`_classified` of the graph whose `_mask_key` is key, decoded afresh."""
    return _classified(graph_from_slot_mask(key & 15, key >> 4))


@lru_cache(maxsize=_MEMO_SIZE)
def _graph_classified(g: ColouredGraph) -> ComponentReport:
    """`_classified`, memoised by graph, for what `_mask_key` does not pack."""
    return _classified(g)


def classify_components(g: ColouredGraph) -> ComponentReport:
    """Decompose a quasi-crystallograph into typed components.

    Degenerate exotic parameters collapse to their classical tags, so
    BplusC/CplusD are only ever emitted with 0 < r < r + s.  Memoised by
    slot mask for bichromatic graphs up to `_TABLE_MAX_N` nodes, and by
    graph otherwise.
    """
    if g.palette == BICHROMATIC and g.n <= _TABLE_MAX_N:
        return _mask_classified(_mask_key(g))
    return _graph_classified(g)


def classify_projective_components(g: ColouredGraph) -> ComponentReport:
    """Decompose a projectified quasi-crystallograph into typed components:
    those of `lift(g)`, with C named BorC and CplusD named ExoticBD."""
    comps = classify_components(lift(g)).components
    return ComponentReport(
        tuple(c._replace(type=_PROJECTIVE_TAG.get(c.type, c.type)) for c in comps)
    )


# ---------------------------------------------------------------------------
# Weyl normalisation of bipartite components


def bipartite_normalize(g: ColouredGraph) -> tuple[ColouredGraph, SignedPermutation]:
    """Sign-flip every bipartite component onto its complete red equivalent.

    Returns (w(g), w), where w is the signed permutation with the identity
    permutation and sign -1 at every node of the smaller part of each
    bipartite component.  Those flips turn the green cross edges red, while
    every edge inside a part is flipped twice or never; non-bipartite
    components are untouched.
    """
    if not is_crystallograph(g):
        raise ValueError("bipartite_normalize needs a crystallograph")
    signs = [1] * g.n
    for comp in classify_components(g).by_type("Bipartite"):
        for node in comp.detail[0]:
            signs[node - 1] = -1
    w = SignedPermutation(tuple(range(g.n)), tuple(signs))
    return weyl_act_graph(w, g), w


def rank(g: ColouredGraph) -> int:
    """Dimension of the span of the encoded roots, by exact elimination."""
    if g.palette != BICHROMATIC:
        raise ValueError("rank needs a bichromatic graph")
    from . import linalg  # here, not at the top: it loads `fractions`, which no CLI check needs

    return linalg.rank(sorted(roots_from_graph(g)))


# ---------------------------------------------------------------------------
# enumeration


def graph_from_slot_mask(n: int, mask: int, palette: str = BICHROMATIC) -> ColouredGraph:
    """The graph whose edges are the set bits of a slot mask; the inverse of
    `slot_mask`, whose cache it fills.  A negative mask, or one with a bit
    beyond the palette's slots (a blue loop decoded as bichromatic), is a
    ValueError."""
    slots = all_edge_slots(n, palette)
    if mask < 0 or mask >> len(slots):
        raise ValueError(
            f"slot mask {mask} does not fit the {len(slots)} slots of a {palette} graph on {n} nodes"
        )
    edges = []
    m = mask
    while m:
        low = m & -m
        edges.append(slots[low.bit_length() - 1])
        m ^= low
    g = ColouredGraph(n, frozenset(edges), palette)
    _set_slot_mask(g, mask)
    return g


def _slot_moves(images: list[int]) -> tuple[tuple[int, int], ...]:
    """The permutation sending slot b to the one bit images[b], as (shift,
    selection) pairs in increasing shift: the slots of `selection` all move
    `shift` places.  InconsistencyError unless the images permute the slots.
    """
    if sorted(images) != [1 << b for b in range(len(images))]:
        raise InconsistencyError(f"slot images {images} are not a permutation of the slots")
    moves: dict[int, int] = {}
    for b, image in enumerate(images):
        shift = image.bit_length() - 1 - b
        moves[shift] = moves.get(shift, 0) | 1 << b
    return tuple(sorted(moves.items()))


def _moved(moves: tuple[tuple[int, int], ...], mask: int) -> int:
    """The image of a slot mask under a permutation given by `_slot_moves`."""
    out = 0
    for shift, selection in moves:
        out |= (mask & selection) << shift if shift >= 0 else (mask & selection) >> -shift
    return out


@cache
def _generator_tables(n: int, palette: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The n Coxeter generators of W(BC_n), the sign flip of node 1 and the
    adjacent transpositions (k k+1), as `_slot_moves` of this palette's slots.

    Each slot's image is read off `weyl_act_graph` on its one-edge graph,
    never from reflections, so the orbit route stays independent of the
    root route.  A generator moves only the edges at node 1 or at k and
    k+1, whose slots move alike in runs: at most seven moves at every n.
    """
    generators = [SignedPermutation.sign_flip(n, 1)] if n else []
    for k in range(n - 1):
        perm = list(range(n))
        perm[k], perm[k + 1] = k + 1, k
        generators.append(SignedPermutation(tuple(perm), (1,) * n))
    nslots = len(all_edge_slots(n, palette))
    return tuple(
        _slot_moves(
            [slot_mask(weyl_act_graph(w, graph_from_slot_mask(n, 1 << b, palette)))
             for b in range(nslots)]
        )
        for w in generators
    )


def _weyl_orbit_masks(n: int, palette: str, mask: int) -> set[int]:
    """The W(BC_n) orbit of a slot mask of a graph of this palette, closed
    under the generator moves with a worklist."""
    generators = _generator_tables(n, palette)
    seen = {mask}
    todo = [mask]
    while todo:
        m = todo.pop()
        for moves in generators:
            image = _moved(moves, m)
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


def orbit_canonical(g: ColouredGraph) -> tuple[str, ColouredGraph]:
    """Lexicographically minimal serialisation over the W(BC_n) orbit, with
    the graph it serialises.

    The orbit is found on slot masks by closing the graph's mask under the
    generators of W(BC_n) (`_weyl_orbit_masks`), not by walking all 2^n n!
    group elements.  Each distinct image is ranked by the text of its mask
    and only the least one is decoded.
    """
    n, palette = g.n, g.palette
    texts = _slot_texts(all_edge_slots(n, palette))
    text, least = min(
        (_json_frame(palette, n, [t for bit, t in texts if mask & bit]), mask)
        for mask in _weyl_orbit_masks(n, palette, slot_mask(g))
    )
    return text, graph_from_slot_mask(n, least, palette)


def _classical_unions(n: int):
    """Yield one disjoint union of classical connected models per multiset
    of (size, tag) whose sizes sum to n, its components in (size, tag) order.

    These index the Weyl orbits of crystallographs on n nodes: bipartite
    components normalise to type A and signed permutations preserve the
    per-component root counts and length multisets, so distinct multisets
    are inequivalent.
    """
    # the classical connected models on m nodes, in tag order; D needs a pair
    menus = {
        m: [(tag, model_graph(m, tag)) for tag in ("A", "B", "BC", "C", "D") if m >= 2 or tag != "D"]
        for m in range(1, n + 1)
    }

    def build(sizes_left: int, min_key: tuple, assembled: ColouredGraph):
        if sizes_left == 0:
            yield assembled
            return
        for m in range(1, sizes_left + 1):
            for key, model in menus[m]:
                if (m, key) < min_key:
                    continue
                yield from build(sizes_left - m, (m, key), disjoint_union(assembled, model))

    return build(n, (0, ""), empty_graph(0))


# Not the cost of 2^(n^2+n) masks: `closed_masks` lists the 83,172
# crystallographs on 6 nodes in 0.3 s (2-vCPU Xeon, Python 3.11.7).  4 stays
# for verify, which samples the bijection above it, and for the sampled case
# count that a benchmark self-test pins.
SCAN_LIMIT = 4
# `up_to_weyl` ranks every orbit's images by mask text and decodes only the
# least: the 9,044 images of the 316 orbits at n = 5 take about 0.05 s, and
# the 83,172 of the 759 at n = 6 would take about 0.6 s (2-vCPU Xeon,
# Python 3.11.7).
ORBIT_LIMIT = 5
# The seed of verify's sampled suites, defined here so that the CLI parser
# reads it without loading `oracle`, which re-exports it.
RNG_DEFAULT_SEED = 20240801


def _enumeration_rules(n: int, mode: str) -> HornRules | None:
    """Check (n, mode) against the enumeration limits; the closure rules of
    mode "all" or "quasi", None for "up_to_weyl"."""
    if mode not in ("all", "quasi", "up_to_weyl"):
        raise ValueError(f"unknown mode: {mode!r}")
    if n < 0:
        raise ValueError("node count must be >= 0")
    if mode == "up_to_weyl":
        if n > ORBIT_LIMIT:
            raise ValueError(f"n={n} exceeds the up_to_weyl limit {ORBIT_LIMIT}")
        return None
    if n > SCAN_LIMIT:
        raise ValueError(f"n={n} exceeds the enumeration limit {SCAN_LIMIT}")
    return closure_rules(n, CRYSTAL_PROPAGATING if mode == "all" else QUASI_PROPAGATING)


def ranked_enumeration(n: int, mode: str = "all") -> list[tuple[str, ColouredGraph]]:
    """The graphs on n nodes passing the requested predicate, as
    (canonical JSON, graph) pairs sorted by the JSON.

    mode "all" / "quasi" decodes the closed masks of the crystal or quasi
    rules (n <= SCAN_LIMIT); "up_to_weyl" takes one `orbit_canonical` pair
    per Weyl orbit of crystallographs (n <= ORBIT_LIMIT), built from the
    classification rather than from the rules.
    """
    rules = _enumeration_rules(n, mode)
    if rules is None:
        ranked = [orbit_canonical(g) for g in _classical_unions(n)]
    else:
        ranked = [(graph_to_json(g), g) for g in map(partial(graph_from_slot_mask, n), closed_masks(rules))]
    ranked.sort(key=lambda pair: pair[0])
    return ranked


def enumerate_crystallographs(n: int, mode: str = "all"):
    """Stream the graphs of `ranked_enumeration(n, mode)`, in its order."""
    for _, g in ranked_enumeration(n, mode):
        yield g


def count_enumerated(n: int, mode: str = "all") -> int:
    """How many graphs `enumerate_crystallographs(n, mode)` yields, under the
    same limits; modes "all" and "quasi" count the closed masks without
    decoding them, and "up_to_weyl" the built orbit representatives without
    canonicalising them."""
    rules = _enumeration_rules(n, mode)
    if rules is None:
        return sum(1 for _ in _classical_unions(n))
    return sum(1 for _ in closed_masks(rules))
