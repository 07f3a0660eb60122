"""Kernels, orthogonal projections, quotient graphs, and restricted systems.

For a crystallograph in classical normal form (no bipartite components) the
common kernel of its roots has a basis indexed by the red components I_j:
the vectors e_{I_j} / |I_j|.  Quotienting a crystallograph by a nested one
collapses each red component of the subgraph to a single node and rewrites
the leftover edges by four local rules; the restricted system evaluates the
leftover roots on the vectors e_{I_j} instead, giving an independent
linear-algebra route to the same answer.

The rewrite is one loop, `_rewrite`, shared with the projective quotient of
`arrange`: its loops are painted by the rules on a bichromatic graph and
blue on a trichromatic one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .crystal import InconsistencyError, classify_components, is_crystallograph
from .graphs import (
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    loop,
    roots_from_graph,
    straight,
)
from .linalg import RationalMatrix, RationalVector
from .rootsys import is_bc_root


@dataclass(frozen=True)
class KernelBasis:
    """Red components and the kernel vectors e_{I_j}/|I_j| they index."""

    parts: tuple[tuple[int, ...], ...]
    vectors: tuple[RationalVector, ...]

    def to_json_obj(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "vectors": [[str(x) for x in v] for v in self.vectors],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


@dataclass(frozen=True)
class RestrictedSystem:
    """Nonzero restrictions of the leftover roots, in red-component coordinates."""

    dimension: int
    covectors: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        for v in self.covectors:
            if len(v) != self.dimension:
                raise ValueError(f"covector {v} has the wrong length")
            if not is_bc_root(v):
                raise ValueError(f"restricted covector {v} is not a BC shape")

    def to_json_obj(self) -> dict:
        return {"dimension": self.dimension, "covectors": [list(v) for v in sorted(self.covectors)]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _classical_red_parts(g: ColouredGraph) -> tuple[list[tuple[int, ...]], set[int]]:
    """Red components and the remaining (bichromatic-component) nodes.

    Rejects graphs that are not crystallographs in classical normal form.
    """
    if not is_crystallograph(g):
        raise ValueError("expected a crystallograph")
    report = classify_components(g)
    if report.has_bipartite():
        raise ValueError(
            "graph has a bipartite component; apply bipartite_normalize first"
        )
    parts = [c.nodes for c in report.components if c.type == "A"]
    other = {v for c in report.components if c.type != "A" for v in c.nodes}
    return parts, other


def kernel_basis(g: ColouredGraph) -> KernelBasis:
    """Basis of the common kernel of the encoded roots, one vector per red part."""
    parts, _ = _classical_red_parts(g)
    vectors = []
    for part in parts:
        entry = Fraction(1, len(part))
        vec = [Fraction(0)] * g.n
        for v in part:
            vec[v - 1] = entry
        vectors.append(tuple(vec))
    return KernelBasis(tuple(parts), tuple(vectors))


def orthogonal_projection(g: ColouredGraph) -> RationalMatrix:
    """The orthogonal projection of Q^n onto the kernel, as an exact matrix.

    Sends e_i to e_{I_i}/|I_i| when node i lies in a red component I_i and
    to 0 otherwise; symmetric and idempotent by construction.
    """
    parts, _ = _classical_red_parts(g)
    matrix = [[Fraction(0)] * g.n for _ in range(g.n)]
    for part in parts:
        entry = Fraction(1, len(part))
        for a in part:
            for b in part:
                matrix[a - 1][b - 1] = entry
    return tuple(tuple(row) for row in matrix)


def _check_nested(g: ColouredGraph, gp: ColouredGraph) -> None:
    if g.n != gp.n:
        raise ValueError(f"node counts differ: {g.n} vs {gp.n}")
    if not gp.edges <= g.edges:
        raise ValueError("subgraph relation violated: gp has edges outside g")


def _nested_parts(g: ColouredGraph, gp: ColouredGraph):
    _check_nested(g, gp)
    if not is_crystallograph(g):
        raise ValueError("the ambient graph is not a crystallograph")
    parts, bichromatic_nodes = _classical_red_parts(gp)
    return parts, bichromatic_nodes


def _rewrite(g: ColouredGraph, gp: ColouredGraph, parts) -> ColouredGraph:
    """The quotient graph of g by gp on the given red parts of gp.

    The rules are those of `quotient_graph`; on a trichromatic g every loop
    they make is blue, and the quotient is trichromatic too.
    """
    blue = g.palette == TRICHROMATIC
    part_of: dict[int, int] = {}
    for index, part in enumerate(parts, start=1):
        for v in part:
            part_of[v] = index
    edges = set()
    for e in g.edges - gp.edges:
        if e.is_loop:
            p = part_of.get(e.ends[0])
            if p is not None:
                edges.add(loop(p, BLUE if blue else e.colour))
            continue
        a, b = e.ends
        pa, pb = part_of.get(a), part_of.get(b)
        if pa is not None and pb is not None:
            if pa != pb:
                edges.add(straight(pa, pb, e.colour))
            elif e.colour == GREEN:
                edges.add(loop(pa, BLUE if blue else GREEN))
            else:
                # a red edge inside a part would already belong to gp's clique
                raise InconsistencyError(f"red edge {e} inside a red component of gp")
        elif pa is not None or pb is not None:
            edges.add(loop(pb if pa is None else pa, BLUE if blue else RED))
    return ColouredGraph(len(parts), frozenset(edges), g.palette)


def quotient_graph(g: ColouredGraph, gp: ColouredGraph) -> ColouredGraph:
    """The quotient of nested crystallographs, on the red components of gp.

    Quotient nodes are the red components of gp ordered by least original
    node.  Each edge of g outside gp contributes:

      * a straight edge of its own colour between the two parts it joins;
      * a green loop, if it is a green straight edge inside one part;
      * a red loop on the part, if it runs from a part into a bichromatic
        component of gp;
      * a loop of its own colour, if it is a loop at a node of a part.

    Edges inside the bichromatic components of gp restrict to zero and are
    dropped.  The edge set is deduplicated.
    """
    parts, _ = _nested_parts(g, gp)
    return _rewrite(g, gp, parts)


def restricted_system(g: ColouredGraph, gp: ColouredGraph) -> RestrictedSystem:
    """Evaluate the leftover roots of g on the vectors e_{I_j} of gp's kernel.

    This is the independent oracle for quotient_graph: no graph rewriting,
    just exact evaluation of covectors, zero restrictions dropped and the
    rest deduplicated.
    """
    parts, _ = _nested_parts(g, gp)
    covectors = set()
    for alpha in roots_from_graph(g) - roots_from_graph(gp):
        vec = tuple(sum(alpha[v - 1] for v in part) for part in parts)
        if any(vec):
            covectors.add(vec)
    return RestrictedSystem(len(parts), frozenset(covectors))


def verify_quotient_theorem(g: ColouredGraph, gp: ColouredGraph) -> bool:
    """Whether the quotient graph encodes exactly the restricted system."""
    graph_side = roots_from_graph(quotient_graph(g, gp))
    linear_side = restricted_system(g, gp).covectors
    return graph_side == linear_side
