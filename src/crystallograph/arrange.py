"""Projective quotients and restricted-arrangement types.

Passing from roots to their kernel hyperplanes forgets dilations, so the
short and long loop at a node fuse into one blue loop (`graphs.projectify`).
Projectification commutes with quotients, and the projectified quotients
realise every restricted hyperplane arrangement.

The projective quotient checks its own preconditions and then runs the one
rewrite of `quotient`, whose loops come out blue on a trichromatic graph.
Equivalence of arrangements is the Weyl search of `rootsys` on the root
lines of their normals.
"""

from __future__ import annotations

from .crystal import (
    ComponentReport,
    classify_projective_components,
    is_projective_crystallograph,
)
from .graphs import ColouredGraph, Hyperplane, normal_lines, projectify
from .quotient import _check_nested, _rewrite, quotient_graph
from .rootsys import SignedPermutation, enumeration_limit, weyl_equivalent


def quotient_projective(g: ColouredGraph, gp: ColouredGraph) -> ColouredGraph:
    """Quotient of nested projective crystallographs.

    Same rewrite as the bichromatic quotient, except every rule that made
    a loop (green edge inside a part, edge into a non-red component, loop in
    a part) now makes a single blue loop.
    """
    _check_nested(g, gp)
    if not is_projective_crystallograph(g) or not is_projective_crystallograph(gp):
        raise ValueError("both inputs must be projective crystallographs")
    report = classify_projective_components(gp)
    if report.has_bipartite():
        raise ValueError("gp has a bipartite component; quotient needs classical form")
    return _rewrite(g, gp, [c.nodes for c in report.components if c.type == "A"])


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
) -> SignedPermutation | None:
    """A signed permutation carrying one arrangement onto the other, if any.

    Brute-force witness search used as an extra oracle next to the
    structural classification; default limit n <= 4.  A signed permutation
    carries Ker(v) to Ker(w(v)), so this is `weyl_equivalent` on the +-
    normals, which must be root lines of B_n.
    """
    if n > enumeration_limit(4):
        raise ValueError(f"n={n} exceeds the search limit {enumeration_limit(4)}")
    if len(arrangement_a) != len(arrangement_b):
        return None
    if any(len(h.normal) != n for h in arrangement_a | arrangement_b):
        raise ValueError(f"hyperplane normals must live in Q^{n}")
    if not arrangement_a:
        return SignedPermutation.identity(n)
    return weyl_equivalent(normal_lines(arrangement_a), normal_lines(arrangement_b), 4)

