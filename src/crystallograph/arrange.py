"""Projective quotients and restricted-arrangement types.

Passing from roots to their kernel hyperplanes forgets dilations, so the
short and long loop at a node fuse into one blue loop (`graphs.projectify`).
Projectification commutes with quotients, and the projectified quotients
realise every restricted hyperplane arrangement.

The projective quotient is `projectify` of the one rewrite of `quotient` on
the pair lifted by `graphs.lift`, with the lifted pair's checks and red parts.
Equivalence of arrangements is the Weyl search of `rootsys` on the root
lines of their normals.
"""

from __future__ import annotations

from .crystal import ComponentReport, classify_projective_components
from .graphs import ColouredGraph, Hyperplane, lift, normal_lines, projectify
from .quotient import _check_nested, _nested_parts, _rewrite, quotient_graph
from .rootsys import SignedPermutation, weyl_equivalent


def quotient_projective(g: ColouredGraph, gp: ColouredGraph) -> ColouredGraph:
    """Quotient of nested projective crystallographs.

    `projectify` of the bichromatic rewrite of the lifted pair (blue loops
    repainted green), so every loop the rules make comes out one blue loop.
    The pair is checked before lifting, so a palette mismatch is named as
    such; the lifted pair is split into red parts by `_nested_parts`.
    """
    _check_nested(g, gp)
    lg, lgp = lift(g), lift(gp)
    return projectify(_rewrite(lg, lgp, _nested_parts(lg, lgp)))


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
    structural classification.  A signed permutation carries Ker(v) to
    Ker(w(v)), so this is `weyl_equivalent` on the +- normals, which must be
    root lines of B_n; its limit n <= rootsys.WEYL_LIMIT is the one bound.
    """
    if any(len(h.normal) != n for h in arrangement_a | arrangement_b):
        raise ValueError(f"hyperplane normals must live in Q^{n}")
    if not arrangement_a and not arrangement_b:
        return SignedPermutation.identity(n)
    return weyl_equivalent(normal_lines(arrangement_a), normal_lines(arrangement_b))

