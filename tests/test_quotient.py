"""Kernels, projections, quotient graphs, restricted systems."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crystallograph import classical, oracle
from crystallograph.crystal import classify_components, is_quasi_crystallograph
from crystallograph.graphs import (
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    disjoint_union,
    empty_graph,
    graph,
    loop,
    roots_from_graph,
    straight,
)
from crystallograph.linalg import mat_mul, nullspace_basis, span_equal
from crystallograph.quotient import (
    kernel_basis,
    orthogonal_projection,
    quotient_graph,
    restricted_system,
    verify_quotient_theorem,
)


def red_edge(n, i, j):
    return graph(n, [straight(i, j, RED)])


def test_kernel_basis_examples():
    for n in (2, 3, 4):
        kb = kernel_basis(classical.graph_a(n))
        assert kb.parts == (tuple(range(1, n + 1)),)
        assert kb.vectors == ((Fraction(1, n),) * n,)

    kb = kernel_basis(empty_graph(3))
    assert kb.parts == ((1,), (2,), (3,))
    assert [tuple(map(int, v)) for v in kb.vectors] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    kb = kernel_basis(classical.graph_bc(3))
    assert kb.parts == () and kb.vectors == ()


def test_kernel_vectors_pairwise_orthogonal():
    g = disjoint_union(classical.graph_a(2), classical.graph_a(3))
    kb = kernel_basis(g)
    for i, u in enumerate(kb.vectors):
        for v in kb.vectors[i + 1 :]:
            assert sum(a * b for a, b in zip(u, v)) == 0


def test_kernel_basis_rejects_bipartite_and_noncrystallograph():
    with pytest.raises(ValueError):
        kernel_basis(classical.graph_bipartite(1, 2))
    with pytest.raises(ValueError):
        kernel_basis(graph(3, [straight(1, 2, RED), straight(2, 3, RED)]))


def test_kernel_json_form():
    g = disjoint_union(classical.graph_a(2), empty_graph(1))
    assert kernel_basis(g).to_json() == (
        '{"parts":[[1,2],[3]],"vectors":[["1/2","1/2","0"],["0","0","1"]]}'
    )


def test_orthogonal_projection_examples():
    proj = orthogonal_projection(red_edge(2, 1, 2))
    assert proj == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))

    eye = orthogonal_projection(empty_graph(2))
    assert eye == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    zero = orthogonal_projection(classical.graph_b(2))
    assert all(x == 0 for row in zero for x in row)


def test_projection_properties_across_small_crystallographs(crystallographs_small):
    for g in crystallographs_small[3]:
        if classify_components(g).has_bipartite():
            continue
        proj = orthogonal_projection(g)
        assert mat_mul(proj, proj) == proj
        assert all(proj[i][j] == proj[j][i] for i in range(3) for j in range(3))
        kb = kernel_basis(g)
        generic = nullspace_basis(sorted(roots_from_graph(g)), 3)
        assert span_equal(kb.vectors, generic)
        assert len(kb.parts) == len(generic)
        for alpha in roots_from_graph(g):
            assert all(
                sum(alpha[i] * proj[i][j] for i in range(3)) == 0 for j in range(3)
            )


def test_quotient_worked_example():
    d4 = classical.graph_d(4)
    gp = red_edge(4, 1, 2)
    q = quotient_graph(d4, gp)
    assert q.n == 3 and len(q.edges) == 7
    expected = graph(
        3,
        list(classical.graph_d(3).edges) + [loop(1, GREEN)],
    )
    assert q == expected
    assert q == classical.graph_c_plus_d(1, 2)


def test_quotient_by_empty_graph_is_identity():
    for g in (classical.graph_d(3), classical.graph_bc(2), classical.graph_a(4)):
        assert quotient_graph(g, empty_graph(g.n)) == g


def test_quotient_of_graph_by_itself():
    g = disjoint_union(classical.graph_a(2), classical.graph_b(2))
    q = quotient_graph(g, g)
    assert q.n == 1 and q.edges == frozenset()


def test_quotient_realises_exotic_families():
    for r in range(0, 4):
        for s in range(0, 4):
            if r + s == 0:
                continue
            n = 2 * r + s
            gp = classical.graph_pairs_and_points(r, s)
            assert quotient_graph(classical.graph_b(n), gp) == classical.graph_b_plus_c(r, s)
            assert quotient_graph(classical.graph_d(n), gp) == classical.graph_c_plus_d(r, s)


def test_quotient_type_a_specialisation():
    # inside a union of A components the quotient is the partition fusion
    a4 = classical.graph_a(4)
    edge_list = a4.sorted_edges()
    seen = 0
    for mask in range(1 << len(edge_list)):
        edges = frozenset(e for b, e in enumerate(edge_list) if mask >> b & 1)
        gp = ColouredGraph(4, edges)
        from crystallograph.crystal import is_crystallograph

        if not is_crystallograph(gp):
            continue
        seen += 1
        q = quotient_graph(a4, gp)
        parts = [c.nodes for c in classify_components(gp).components if c.type == "A"]
        assert q == classical.graph_a(len(parts))
    assert seen > 1


def test_quotient_preconditions():
    # node counts must agree
    with pytest.raises(ValueError):
        quotient_graph(classical.graph_d(3), empty_graph(2))
    # a trichromatic gp is no subgraph of a bichromatic g, even with no edges
    with pytest.raises(ValueError, match="palettes differ: bi vs tri"):
        quotient_graph(classical.graph_d(3), empty_graph(3, TRICHROMATIC))
    # gp must be an edge subset of g
    with pytest.raises(ValueError):
        quotient_graph(classical.graph_a(3), graph(3, [straight(1, 3, GREEN)]))
    # gp must be in classical normal form
    with pytest.raises(ValueError):
        quotient_graph(classical.graph_d(2), classical.graph_bipartite(1, 1))
    # g must itself be a crystallograph
    with pytest.raises(ValueError):
        quotient_graph(graph(3, [straight(1, 2, RED), straight(2, 3, RED)]), empty_graph(3))


def test_restricted_system_worked_example():
    d4 = classical.graph_d(4)
    gp = red_edge(4, 1, 2)
    rs = restricted_system(d4, gp)
    assert rs.dimension == 3
    assert len(rs.covectors) == 14
    expected = set()
    for a in range(3):
        for b in range(a + 1, 3):
            for sb in (1, -1):
                v = [0, 0, 0]
                v[a], v[b] = 1, sb
                expected.add(tuple(v))
                expected.add(tuple(-c for c in v))
    expected |= {(2, 0, 0), (-2, 0, 0)}
    assert rs.covectors == frozenset(expected)


def test_restricted_system_trivial_cases():
    g = classical.graph_d(3)
    rs = restricted_system(g, empty_graph(3))
    assert rs.dimension == 3 and rs.covectors == roots_from_graph(g)

    rs = restricted_system(classical.graph_b(2), classical.graph_d(2))
    assert rs.dimension == 0 and rs.covectors == frozenset()


def test_quotient_theorem_exhaustive_small():
    for n in (1, 2):
        for g, gp in oracle.nested_pairs_exhaustive(n):
            assert verify_quotient_theorem(g, gp)
            assert is_quasi_crystallograph(quotient_graph(g, gp))


def test_quotient_theorem_sampled_n4():
    rng = random.Random(99)
    for _ in range(500):
        g, gp = oracle.random_nested_pair(4, rng)
        assert verify_quotient_theorem(g, gp)


def realize_as_quotient(target):
    """A nested pair (g, gp) with quotient_graph(g, gp) literally the target.

    Crystallographic components come from trivial quotients; exotic
    components from pairs-and-points subgraphs of the matching B or D
    block.  Every green-looped target node gets a fused pair of ambient
    nodes, every other node a single one, allocated in target-node order so
    the quotient's part numbering reproduces the target labels.
    """
    from itertools import combinations

    report = classify_components(target)
    doubled = set()
    comp_of = {}
    for comp in report.components:
        for v in comp.nodes:
            comp_of[v] = comp
        if comp.type in ("BplusC", "CplusD"):
            doubled |= set(comp.detail[0])
    alloc = {}
    next_node = 1
    for v in range(1, target.n + 1):
        width = 2 if v in doubled else 1
        alloc[v] = tuple(range(next_node, next_node + width))
        next_node += width
    total = next_node - 1

    g_edges = set()
    gp_edges = {straight(*alloc[v], RED) for v in doubled}
    for comp in report.components:
        ambient = sorted(a for v in comp.nodes for a in alloc[v])
        if comp.type in ("BplusC", "CplusD"):
            for i, j in combinations(ambient, 2):
                g_edges.add(straight(i, j, RED))
                g_edges.add(straight(i, j, GREEN))
            if comp.type == "BplusC":
                g_edges |= {loop(k, RED) for k in ambient}
        else:
            lift_map = {v: alloc[v][0] for v in comp.nodes}
            for e in target.edges:
                if set(e.ends) <= set(comp.nodes):
                    if e.is_loop:
                        g_edges.add(loop(lift_map[e.ends[0]], e.colour))
                    else:
                        g_edges.add(
                            straight(lift_map[e.ends[0]], lift_map[e.ends[1]], e.colour)
                        )
    return ColouredGraph(total, frozenset(g_edges)), ColouredGraph(total, frozenset(gp_edges))


def test_every_small_quasi_crystallograph_is_a_quotient():
    from crystallograph.crystal import enumerate_crystallographs

    for n in (1, 2, 3):
        for target in enumerate_crystallographs(n, "quasi"):
            g, gp = realize_as_quotient(target)
            assert quotient_graph(g, gp) == target
            assert verify_quotient_theorem(g, gp)
