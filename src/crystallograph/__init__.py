"""Coloured-graph calculus for root subsystems of BC_n.

Bichromatic graphs encode symmetric subsets of the nonreduced root system
BC_n; crystallographs are the ones encoding actual root subsystems.  The
package computes the correspondence both ways, classifies the graphs into
their model components, takes kernels and quotients in exact rational
arithmetic, projectifies down to hyperplane arrangements, and verifies
every step against independent brute-force oracles.
"""

from .arrange import (
    arrangements_equivalent,
    classify_restricted_arrangement,
    quotient_projective,
    verify_projectification_compatibility,
)
from .classical import (
    graph_a,
    graph_b,
    graph_b_plus_c,
    graph_bc,
    graph_bipartite,
    graph_c,
    graph_c_plus_d,
    graph_d,
    graph_pairs_and_points,
    projective_graph_borc,
    projective_graph_exotic_bd,
)
from .crystal import (
    Component,
    ComponentReport,
    InconsistencyError,
    bipartite_normalize,
    classify_components,
    classify_projective_components,
    enumerate_crystallographs,
    is_crystallograph,
    is_projective_crystallograph,
    is_quasi_crystallograph,
    rank,
)
from .graphs import (
    BICHROMATIC,
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    Edge,
    Hyperplane,
    arrangement_from_graph,
    connected_components,
    disjoint_union,
    empty_graph,
    graph,
    graph_from_arrangement,
    graph_from_json,
    graph_from_roots,
    graph_to_dot,
    graph_to_json,
    lift,
    loop,
    projectify,
    roots_from_graph,
    straight,
    weyl_act_graph,
)
from .oracle import (
    EnumerationSummary,
    enumerate_subsystems_bruteforce,
    verify_all,
)
from .quotient import (
    KernelBasis,
    RestrictedSystem,
    kernel_basis,
    orthogonal_projection,
    quotient_graph,
    restricted_system,
    verify_quotient_theorem,
)
from .rootsys import (
    SignedPermutation,
    is_root_subsystem,
    is_symmetric,
    reflect,
    reflection_closure,
    roots_a,
    roots_b,
    roots_bc,
    roots_c,
    roots_d,
    weyl_apply,
    weyl_equivalent,
)

__version__ = "0.1.0"
