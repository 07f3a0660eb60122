"""The graph <-> root and graph <-> arrangement correspondences."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys

import pytest

from crystallograph import classical, graphs, oracle
from crystallograph.graphs import (
    BICHROMATIC,
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    Edge,
    Hyperplane,
    all_edge_slots,
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
from crystallograph.rootsys import SignedPermutation, is_bc_root, weyl_apply

from brute_force import all_bichromatic_graphs, all_graphs, reference_json


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge((2, 1), RED)
    with pytest.raises(ValueError):
        Edge((1, 2, 3), RED)
    with pytest.raises(ValueError):
        straight(1, 1, RED)
    with pytest.raises(ValueError):
        loop(1, "purple")


def test_edge_is_its_plain_tuple():
    e = straight(1, 2, RED)
    # CLI error lines embed this repr
    assert repr(e) == "Edge(ends=(1, 2), colour='R')"
    with pytest.raises(AttributeError):
        e.colour = GREEN
    twin = Edge((1, 2), RED)
    assert twin == e and twin is not e
    assert hash(e) == hash((e.ends, e.colour))


def test_edges_are_interned():
    assert straight(1, 2, RED) is straight(1, 2, RED)
    assert loop(3, BLUE) is loop(3, BLUE)
    assert straight(2, 1, GREEN) == straight(1, 2, GREEN)
    # a failed build is not memoised: bad input raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            straight(1, 1, RED)
        with pytest.raises(ValueError, match="unknown colour: 'X'"):
            loop(1, "X")


def test_graphs_share_the_edges_they_have_in_common():
    rng = random.Random(5)
    g, h = (oracle.random_crystallograph(4, rng) for _ in range(2))
    while not g.edges & h.edges:
        h = oracle.random_crystallograph(4, rng)
    h_edge = {e: e for e in h.edges}
    assert all(h_edge[e] is e for e in g.edges & h.edges)
    shifted = disjoint_union(g, g)
    assert all(any(e is f for f in shifted.edges) for e in g.edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        graph(1, [loop(2, RED)])
    with pytest.raises(ValueError):
        graph(1, [loop(0, RED)])
    with pytest.raises(ValueError):
        graph(2, [straight(0, 1, RED)])
    with pytest.raises(ValueError):
        graph(2, [straight(1, 3, GREEN)])
    with pytest.raises(ValueError):
        graph(2, [loop(1, BLUE)])  # blue needs the trichromatic palette
    with pytest.raises(ValueError):
        graph(2, [straight(1, 2, BLUE)], TRICHROMATIC)
    graph(2, [loop(1, BLUE)], TRICHROMATIC)


def loop_check_error(n, edges, palette):
    """The message of the edge-by-edge check of `ColouredGraph.__init__`, or
    None when every edge passes; `edges` is read in its own order."""
    for e in edges:
        if not (e.ends[0] >= 1 and e.ends[-1] <= n):
            return f"edge {e} out of node range 1..{n}"
        if e.colour == BLUE and (palette == BICHROMATIC or not e.is_loop):
            return f"blue is only legal on trichromatic loops: {e}"
    return None


def _bad_edges(n):
    """Node-0 ends, node-(n + 1) ends, blue straight edges and a blue loop."""
    return [loop(0, RED), straight(0, 1, GREEN), loop(n + 1, GREEN), straight(1, max(n + 1, 2), RED),
            straight(1, 2, BLUE), straight(n + 1, n + 2, BLUE), loop(1, BLUE)]


@pytest.mark.parametrize("palette", [BICHROMATIC, TRICHROMATIC])
def test_the_set_test_accepts_and_rejects_what_the_edge_loop_does(palette):
    # on both sides of _TABLE_MAX_N, where the graph is checked edge by edge
    for n in range(graphs._TABLE_MAX_N + 2):
        slots = all_edge_slots(n, palette)
        bad = [e for e in all_edge_slots(n, TRICHROMATIC) + tuple(_bad_edges(n)) if e not in slots]
        cases = [frozenset(slots)] + [frozenset((e,)) for e in slots + tuple(bad)]
        cases += [frozenset(slots) | {e} for e in bad] + [frozenset(bad), frozenset(slots) | frozenset(bad)]
        for edges in cases:
            # the constructor reads this same frozenset, so in the same order
            expected = loop_check_error(n, edges, palette)
            if expected is None:
                assert ColouredGraph(n, edges, palette).edges is edges
            else:
                with pytest.raises(ValueError) as raised:
                    ColouredGraph(n, edges, palette)
                assert str(raised.value) == expected
        # every edge the loop passes is a slot, and every slot passes
        assert [e for e in slots + tuple(bad) if loop_check_error(n, (e,), palette) is None] == list(slots)


def test_only_graphs_up_to_the_table_bound_read_the_legal_sets():
    graphs._legal_edges.cache_clear()
    big = graphs._TABLE_MAX_N + 1
    ColouredGraph(big, all_edge_slots(big))
    with pytest.raises(ValueError, match=f"out of node range 1..{big}"):
        ColouredGraph(big, [loop(big + 1, RED)])
    assert graphs._legal_edges.cache_info().currsize == 0
    for palette in (BICHROMATIC, TRICHROMATIC):
        for n in range(big):
            ColouredGraph(n, all_edge_slots(n, palette), palette)
    info = graphs._legal_edges.cache_info()
    assert (info.currsize, info.maxsize) == (2 * big, graphs._LEGAL_MEMO_SIZE)


def test_graph_freezes_its_edges():
    assert graph is ColouredGraph
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
    with pytest.raises(ValueError, match="^graph_from_roots needs a symmetric root set$"):
        graph_from_roots({(2, 0), (-1, 0)}, 2)  # two valid roots of two edges, one root each
    for alpha in [(1, 2, 3), (0,), (1, 0, 0)]:
        # the length is checked before the shape
        with pytest.raises(ValueError, match=rf"^root {re.escape(str(alpha))} does not live in Q\^2$"):
            graph_from_roots({alpha}, 2)
    with pytest.raises(ValueError, match=r"not a BC root: \(1, 2, 3\)"):
        graph_from_roots({(1, 2, 3)}, 3)  # shape is checked before symmetry
    with pytest.raises(ValueError):
        graph_from_roots({(1, 1, 1), (-1, -1, -1)}, 3)  # not a BC root
    with pytest.raises(ValueError):
        graph_from_roots(frozenset())  # no dimension to infer


def test_graph_from_roots_rejects_every_set_missing_one_root():
    for n in (1, 2, 3):
        for g in all_bichromatic_graphs(n):
            phi = roots_from_graph(g)
            for alpha in phi:
                with pytest.raises(ValueError, match="^graph_from_roots needs a symmetric root set$"):
                    graph_from_roots(phi - {alpha}, n)


@pytest.mark.parametrize("alpha", [(0, 0), (3, 0), (1, 2), (2, 2), (1, 1, 1)])
def test_graph_from_roots_names_a_root_outside_the_table(alpha):
    negated = tuple(-c for c in alpha)
    for phi in ({alpha}, {alpha, negated}):
        with pytest.raises(ValueError) as caught:
            graph_from_roots(phi, len(alpha))
        # the error names whichever of the two it reads first
        assert str(caught.value) in {f"not a BC root: {alpha}", f"not a BC root: {negated}"}


# Seeded corrupted root sets: the roots of a random graph on 2..5 nodes and
# three random vectors, some of another length, with n given or inferred.
# Each set is built in the probe's own process, so the order its frozenset
# yields its roots in follows the hash seed (the colours of its edges).
CORRUPTED_ROOTS_PROBE = """
import json, random
from crystallograph.crystal import graph_from_slot_mask
from crystallograph.graphs import graph_from_roots, roots_from_graph
rng = random.Random(3302)
cases = []
for _ in range(3000):
    n = rng.randrange(2, 6)
    phi = set(roots_from_graph(graph_from_slot_mask(n, rng.getrandbits(n * n + n))))
    for _ in range(3):
        length = n if rng.randrange(4) else n + rng.choice((-1, 1))
        phi.add(tuple(rng.randint(-3, 3) for _ in range(length)))
    given = rng.choice((n, None))
    try:
        graph_from_roots(phi, given)
        message = None
    except ValueError as exc:
        message = str(exc)
    cases.append([sorted(phi), given, message])
print(json.dumps(cases))
"""


def _expected_root_set_error(phi, n):
    """The message the least malformed root gets, by `rootsys.is_bc_root`."""
    if n is None:
        n = len(min(phi))
    wrong_length = [alpha for alpha in phi if len(alpha) != n]
    if wrong_length:
        return f"root {min(wrong_length)} does not live in Q^{n}"
    wrong_shape = [alpha for alpha in phi if not is_bc_root(alpha)]
    if wrong_shape:
        return f"not a BC root: {min(wrong_shape)}"
    return "graph_from_roots needs a symmetric root set"


def test_graph_from_roots_names_the_same_root_under_every_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-c", CORRUPTED_ROOTS_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    cases = json.loads(outputs[0])
    several = 0
    for roots, n, message in cases:
        phi = frozenset(map(tuple, roots))
        assert message == _expected_root_set_error(phi, n), (roots, n)
        dim = len(roots[0]) if n is None else n
        several += sum(len(alpha) != dim or not is_bc_root(alpha) for alpha in phi) > 1
    # most sets have more than one root to choose from
    assert len(cases) == 3000 and several > 1500


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


def test_subgraph_needs_the_same_palette():
    bi, tri = empty_graph(2), empty_graph(2, TRICHROMATIC)
    assert bi.is_subgraph_of(bi) and tri.is_subgraph_of(tri)
    assert not bi.is_subgraph_of(tri) and not tri.is_subgraph_of(bi)


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


@pytest.mark.parametrize("palette", [BICHROMATIC, TRICHROMATIC])
def test_json_equals_the_json_dumps_reference_on_every_graph(palette):
    for n in range(4):
        for g in all_graphs(n, palette):
            assert graph_to_json(g) == reference_json(g)


def test_json_equals_the_json_dumps_reference_on_long_labels():
    # from 10 nodes on, labels of two digits sort numerically, not as text
    rng = random.Random(3310)
    for n in (10, 12):
        for palette, colours in ((BICHROMATIC, (RED, GREEN)), (TRICHROMATIC, (RED, GREEN, BLUE))):
            edges = [straight(i, j, c) for i in range(1, n + 1) for j in range(i + 1, n + 1) for c in (RED, GREEN)]
            edges += [loop(k, c) for k in range(1, n + 1) for c in colours]
            for _ in range(100):
                g = ColouredGraph(n, rng.sample(edges, rng.randrange(len(edges) + 1)), palette)
                assert graph_to_json(g) == reference_json(g)
    big = 100_000
    for g in (
        ColouredGraph(big, [straight(big - 1, big, GREEN)]),
        ColouredGraph(big, [straight(1, 2, RED)]),
        ColouredGraph(big, [loop(big, BLUE)], TRICHROMATIC),
    ):
        assert graph_to_json(g) == reference_json(g)
        assert graph_from_json(graph_to_json(g)) == g


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
    # unhashable colours too: the edge memo never sees them
    for colour in (None, 2, [], ["R"], {}, {"a": 1}):
        for edge in ({"kind": "straight", "i": 1, "j": 2, "colour": colour}, {"kind": "loop", "k": 1, "colour": colour}):
            text = json.dumps({"palette": "bi", "nodes": 2, "edges": [edge]})
            with pytest.raises(ValueError, match="unknown colour: "):
                graph_from_json(text)


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
