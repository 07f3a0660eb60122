"""Projectification, projective quotients, and restricted-arrangement types.

Passing from roots to their kernel hyperplanes forgets dilations, so the
short and long loop at a node fuse into one blue loop.  On graphs this is
the projectification operation; it commutes with quotients, and the
projectified quotients realise every restricted hyperplane arrangement.
"""

from __future__ import annotations

from .crystal import (
    ComponentReport,
    InconsistencyError,
    classify_projective_components,
    is_projective_crystallograph,
)
from .graphs import (
    BICHROMATIC,
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    Hyperplane,
    loop,
    straight,
)
from .quotient import quotient_graph
from .rootsys import SignedPermutation, enumeration_limit, weyl_group


def projectify(g: ColouredGraph) -> ColouredGraph:
    """Fuse the red/green loops at each node into a single blue loop."""
    if g.palette != BICHROMATIC:
        raise ValueError("projectify needs a bichromatic graph")
    edges = {e for e in g.edges if not e.is_loop}
    edges |= {loop(e.ends[0], BLUE) for e in g.edges if e.is_loop}
    return ColouredGraph(g.n, frozenset(edges), TRICHROMATIC)


def lift(g: ColouredGraph) -> ColouredGraph:
    """Repaint blue loops red, producing a bichromatic graph that projectifies back."""
    if g.palette != TRICHROMATIC:
        raise ValueError("lift needs a trichromatic graph")
    if any(e.is_loop and e.colour != BLUE for e in g.edges):
        raise ValueError("lift needs all loops blue")
    edges = {e if not e.is_loop else loop(e.ends[0], RED) for e in g.edges}
    return ColouredGraph(g.n, frozenset(edges), BICHROMATIC)


def quotient_projective(g: ColouredGraph, gp: ColouredGraph) -> ColouredGraph:
    """Quotient of nested projective crystallographs.

    Same algorithm as the bichromatic quotient, except every rule that made
    a loop (green edge inside a part, edge into a non-red component, loop in
    a part) now makes a single blue loop.
    """
    if g.n != gp.n:
        raise ValueError(f"node counts differ: {g.n} vs {gp.n}")
    if not gp.edges <= g.edges:
        raise ValueError("subgraph relation violated: gp has edges outside g")
    if not is_projective_crystallograph(g) or not is_projective_crystallograph(gp):
        raise ValueError("both inputs must be projective crystallographs")
    report = classify_projective_components(gp)
    if report.has_bipartite():
        raise ValueError("gp has a bipartite component; quotient needs classical form")
    parts = [c.nodes for c in report.components if c.type == "A"]
    part_of: dict[int, int] = {}
    for index, part in enumerate(parts, start=1):
        for v in part:
            part_of[v] = index
    edges = set()
    for e in g.edges - gp.edges:
        if e.is_loop:
            p = part_of.get(e.ends[0])
            if p is not None:
                edges.add(loop(p, BLUE))
            continue
        a, b = e.ends
        pa, pb = part_of.get(a), part_of.get(b)
        if pa is not None and pb is not None:
            if pa != pb:
                edges.add(straight(pa, pb, e.colour))
            elif e.colour == GREEN:
                edges.add(loop(pa, BLUE))
            else:
                raise InconsistencyError(f"red edge {e} inside a red component of gp")
        elif pa is not None:
            edges.add(loop(pa, BLUE))
        elif pb is not None:
            edges.add(loop(pb, BLUE))
    return ColouredGraph(len(parts), frozenset(edges), TRICHROMATIC)


def verify_projectification_compatibility(g: ColouredGraph, gp: ColouredGraph) -> bool:
    """Whether P(g)/P(gp) equals P(g/gp) as literal trichromatic graphs."""
    lhs = quotient_projective(projectify(g), projectify(gp))
    rhs = projectify(quotient_graph(g, gp))
    return lhs == rhs


def classify_restricted_arrangement(g: ColouredGraph, gp: ColouredGraph) -> ComponentReport:
    """Arrangement type of the restricted system, component by component."""
    return classify_projective_components(projectify(quotient_graph(g, gp)))


def arrangements_equivalent(
    arrangement_a: frozenset[Hyperplane],
    arrangement_b: frozenset[Hyperplane],
    n: int,
    limit: int = 4,
) -> SignedPermutation | None:
    """A signed permutation carrying one arrangement onto the other, if any.

    Brute-force witness search used as an extra oracle next to the
    structural classification; default limit n <= 4.
    """
    if n > enumeration_limit(limit):
        raise ValueError(f"n={n} exceeds the search limit {enumeration_limit(limit)}")
    if len(arrangement_a) != len(arrangement_b):
        return None
    for w in weyl_group(n):
        image = frozenset(Hyperplane.from_normal(w.apply(h.normal)) for h in arrangement_a)
        if image == arrangement_b:
            return w
    return None

