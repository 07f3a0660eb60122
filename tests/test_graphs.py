"""The graph <-> root and graph <-> arrangement correspondences."""

from __future__ import annotations

import json
import random

import pytest

from crystallograph import classical, oracle
from crystallograph.graphs import (
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
    loop,
    parse_roots_text,
    roots_from_graph,
    roots_to_text,
    straight,
    weyl_act_graph,
)
from crystallograph.crystal import all_bichromatic_graphs
from crystallograph.rootsys import SignedPermutation, weyl_apply


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge((2, 1), RED)
    with pytest.raises(ValueError):
        Edge((1, 2, 3), RED)
    with pytest.raises(ValueError):
        straight(1, 1, RED)
    with pytest.raises(ValueError):
        loop(1, "purple")


def test_graph_validation():
    with pytest.raises(ValueError):
        graph(1, [loop(2, RED)])
    with pytest.raises(ValueError):
        graph(2, [loop(1, BLUE)])  # blue needs the trichromatic palette
    with pytest.raises(ValueError):
        graph(2, [straight(1, 2, BLUE)], TRICHROMATIC)
    graph(2, [loop(1, BLUE)], TRICHROMATIC)


def test_graph_freezes_its_edges():
    e = straight(1, 2, RED)
    frozen = ColouredGraph(2, frozenset([e]))
    from_list = ColouredGraph(2, [e])
    assert type(from_list.edges) is frozenset
    assert from_list == frozen
    assert hash(from_list) == hash(frozen)
    assert len({from_list, frozen}) == 1
    # mutating the caller's set afterwards leaves the graph as it was built
    source = {e}
    from_set = ColouredGraph(2, source)
    source.add(loop(1, RED))
    assert from_set.edges == frozenset([e])
    assert from_set == frozen


def test_roots_from_graph_examples():
    a3 = classical.graph_a(4)
    phi = roots_from_graph(a3)
    # the twelve roots +-(e_i - e_j) on four coordinates
    assert len(phi) == 12
    assert all(sorted(alpha) == [-1, 0, 0, 1] for alpha in phi)
    from crystallograph.rootsys import roots_a

    assert phi == roots_a(4)

    assert roots_from_graph(empty_graph(3)) == frozenset()

    g = graph(2, [loop(2, GREEN)])
    assert roots_from_graph(g) == frozenset({(0, 2), (0, -2)})


def test_roots_from_graph_rejects_trichromatic():
    with pytest.raises(ValueError):
        roots_from_graph(empty_graph(2, TRICHROMATIC))


def test_graph_from_roots_examples():
    b2 = classical.graph_b(2)
    assert graph_from_roots(roots_from_graph(b2), 2) == b2
    assert straight(1, 2, RED) in b2.edges and straight(1, 2, GREEN) in b2.edges
    for k in (1, 2):
        assert loop(k, RED) in b2.edges and loop(k, GREEN) not in b2.edges

    assert graph_from_roots(frozenset(), 3) == empty_graph(3)

    g = graph_from_roots({(1, 1), (-1, -1)}, 2)
    assert g == graph(2, [straight(1, 2, GREEN)])


def test_classical_models_match_root_systems():
    from crystallograph.rootsys import roots_a, roots_b, roots_bc, roots_c, roots_d

    pairs = [
        (roots_a, classical.graph_a),
        (roots_d, classical.graph_d),
        (roots_b, classical.graph_b),
        (roots_c, classical.graph_c),
        (roots_bc, classical.graph_bc),
    ]
    for roots, model in pairs:
        for m in range(1, 6):
            assert graph_from_roots(roots(m), m) == model(m), (model.__name__, m)


def test_graph_from_roots_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        graph_from_roots({(1, -1)}, 2)  # not symmetric
    with pytest.raises(ValueError, match=r"not a BC root: \(1, 2, 3\)"):
        graph_from_roots({(1, 2, 3)}, 3)  # shape is checked before symmetry
    with pytest.raises(ValueError):
        graph_from_roots({(1, 1, 1), (-1, -1, -1)}, 3)  # not a BC root
    with pytest.raises(ValueError):
        graph_from_roots(frozenset())  # no dimension to infer


def test_roundtrip_exhaustive_n_le_3():
    for n in (1, 2, 3):
        for g in all_bichromatic_graphs(n):
            phi = roots_from_graph(g)
            assert len(phi) == 2 * len(g.edges)
            assert graph_from_roots(phi, n) == g


def test_roundtrip_random_n_4_5_6():
    rng = random.Random(2024)
    per_n = 100_000 // 3
    for n in (4, 5, 6):
        for _ in range(per_n):
            g = oracle.random_bichromatic_graph(n, rng)
            assert graph_from_roots(roots_from_graph(g), n) == g


def test_correspondences_inclusion_preserving():
    rng = random.Random(5)
    for _ in range(200):
        big = oracle.random_bichromatic_graph(4, rng)
        edges = list(big.edges)
        small = ColouredGraph(4, frozenset(e for e in edges if rng.random() < 0.5))
        other = oracle.random_bichromatic_graph(4, rng)
        assert small.is_subgraph_of(big)
        assert roots_from_graph(small) <= roots_from_graph(big)
        assert other.is_subgraph_of(big) == (roots_from_graph(other) <= roots_from_graph(big))


def test_disjoint_union_examples():
    g = disjoint_union(classical.graph_a(2), classical.graph_a(2))
    assert g == classical.graph_pairs_and_points(2, 0)
    any_graph = classical.graph_bc(2)
    assert disjoint_union(any_graph, empty_graph(0)) == any_graph
    assert disjoint_union(empty_graph(1), empty_graph(1)) == empty_graph(2)
    with pytest.raises(ValueError):
        disjoint_union(empty_graph(1), empty_graph(1, TRICHROMATIC))


def test_disjoint_union_is_direct_sum_on_roots():
    rng = random.Random(9)
    for _ in range(50):
        g1 = oracle.random_bichromatic_graph(2, rng)
        g2 = oracle.random_bichromatic_graph(3, rng)
        combined = roots_from_graph(disjoint_union(g1, g2))
        expected = {alpha + (0, 0, 0) for alpha in roots_from_graph(g1)}
        expected |= {(0, 0) + alpha for alpha in roots_from_graph(g2)}
        assert combined == frozenset(expected)


def test_connected_components():
    g11 = disjoint_union(classical.graph_a(2), empty_graph(1))
    assert connected_components(g11) == [(1, 2), (3,)]
    assert connected_components(empty_graph(3)) == [(1,), (2,), (3,)]
    assert connected_components(classical.graph_d(4)) == [(1, 2, 3, 4)]
    assert connected_components(empty_graph(0)) == []


def test_arrangement_from_graph_examples():
    hb4 = classical.projective_graph_borc(4)
    arr = arrangement_from_graph(hb4)
    assert len(arr) == 16
    assert arrangement_from_graph(empty_graph(2, TRICHROMATIC)) == frozenset()
    single = graph(1, [loop(1, BLUE)], TRICHROMATIC)
    assert arrangement_from_graph(single) == frozenset({Hyperplane((1,))})
    with pytest.raises(ValueError):
        arrangement_from_graph(graph(1, [loop(1, RED)], TRICHROMATIC))


def test_arrangement_count_equals_edge_count():
    rng = random.Random(13)
    for _ in range(100):
        g = oracle.random_bichromatic_graph(3, rng)
        projective = ColouredGraph(
            3,
            frozenset(
                e if not e.is_loop else loop(e.ends[0], BLUE) for e in g.edges
            ),
            TRICHROMATIC,
        )
        assert len(arrangement_from_graph(projective)) == len(projective.edges)


def test_graph_from_arrangement_examples():
    hs = {
        Hyperplane((1, -1, 0)),
        Hyperplane((1, 1, 0)),
        Hyperplane((1, 0, 0)),
    }
    g = graph_from_arrangement(hs, 3)
    assert g.edges == frozenset(
        {straight(1, 2, RED), straight(1, 2, GREEN), loop(1, BLUE)}
    )
    assert graph_from_arrangement(frozenset(), 2) == empty_graph(2, TRICHROMATIC)

    a2 = {Hyperplane((1, -1, 0)), Hyperplane((1, 0, -1)), Hyperplane((0, 1, -1))}
    assert graph_from_arrangement(a2, 3) == ColouredGraph(
        3, classical.graph_a(3).edges, TRICHROMATIC
    )
    with pytest.raises(ValueError):
        graph_from_arrangement({Hyperplane((1, 1, 1))}, 3)


def test_hyperplane_canonicalisation():
    # one hyperplane is one value, whatever normal it is written with
    assert Hyperplane((0, 2)) == Hyperplane((0, 1))
    assert Hyperplane((0, -1)) == Hyperplane((0, 1))
    assert Hyperplane((-1, 1)) == Hyperplane((1, -1))
    assert Hyperplane((-3, 3, 0)).normal == (1, -1, 0)
    assert hash(Hyperplane((2, 2))) == hash(Hyperplane((-1, -1)))
    assert len({Hyperplane((1, -1)), Hyperplane((-1, 1)), Hyperplane((2, -2))}) == 1
    for zero in ((0, 0), (0,), ()):
        with pytest.raises(ValueError):
            Hyperplane(zero)


def test_arrangement_roundtrip_exhaustive_n_le_3():
    # all trichromatic graphs with R/G straights and B loops on n <= 3 nodes
    for n in (1, 2, 3):
        slots = [loop(k, BLUE) for k in range(1, n + 1)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                slots += [straight(i, j, RED), straight(i, j, GREEN)]
        for mask in range(1 << len(slots)):
            g = ColouredGraph(
                n, frozenset(s for b, s in enumerate(slots) if mask >> b & 1), TRICHROMATIC
            )
            assert graph_from_arrangement(arrangement_from_graph(g), n) == g


def test_json_canonical_form():
    b2 = classical.graph_b(2)
    expected = (
        '{"palette":"bi","nodes":2,"edges":['
        '{"kind":"loop","k":1,"colour":"R"},'
        '{"kind":"loop","k":2,"colour":"R"},'
        '{"kind":"straight","i":1,"j":2,"colour":"G"},'
        '{"kind":"straight","i":1,"j":2,"colour":"R"}]}'
    )
    assert graph_to_json(b2) == expected
    assert graph_from_json(expected) == b2


def test_json_roundtrip_random():
    rng = random.Random(17)
    for _ in range(500):
        g = oracle.random_bichromatic_graph(4, rng)
        assert graph_from_json(graph_to_json(g)) == g


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_json('{"palette":"bi","edges":[]}')
    with pytest.raises(ValueError):
        graph_from_json('{"palette":"bi","nodes":2,"edges":[{"kind":"arc"}]}')


def test_dot_output():
    g = graph(2, [straight(1, 2, RED), loop(1, GREEN)])
    assert graph_to_dot(g) == (
        "graph {\n"
        "  1;\n"
        "  2;\n"
        "  1 -- 1 [color=green];\n"
        "  1 -- 2 [color=red];\n"
        "}\n"
    )
    tri = graph(1, [loop(1, BLUE)], TRICHROMATIC)
    assert "1 -- 1 [color=blue];" in graph_to_dot(tri)


def test_roots_text_roundtrip():
    phi = roots_from_graph(classical.graph_c(3))
    text = roots_to_text(phi)
    assert parse_roots_text(text) == set(phi)
    assert parse_roots_text("") == set()
    with pytest.raises(ValueError):
        parse_roots_text("1 x 0")


def test_weyl_act_graph_matches_root_action():
    rng = random.Random(23)
    from crystallograph.rootsys import weyl_group

    group = list(weyl_group(4))
    for _ in range(500):
        g = oracle.random_bichromatic_graph(4, rng)
        w = rng.choice(group)
        assert weyl_act_graph(w, g) == graph_from_roots(
            weyl_apply(w, roots_from_graph(g)), 4
        )


def test_sign_flip_recolours_incident_straights_only():
    flip = SignedPermutation.sign_flip(3, 1)
    g = graph(3, [straight(1, 2, RED), straight(2, 3, RED), loop(1, RED), loop(2, GREEN)])
    image = weyl_act_graph(flip, g)
    assert image == graph(
        3, [straight(1, 2, GREEN), straight(2, 3, RED), loop(1, RED), loop(2, GREEN)]
    )
