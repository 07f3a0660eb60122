"""Predicates, classification, normalisation, rank, enumeration."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from itertools import chain, combinations

import pytest

from crystallograph import classical, crystal, oracle
from crystallograph.crystal import (
    CRYSTAL_PROPAGATING,
    QUASI_PROPAGATING,
    Component,
    InconsistencyError,
    all_bichromatic_graphs,
    all_edge_slots,
    bipartite_normalize,
    classify_components,
    classify_projective_components,
    closed,
    closure_rules,
    enumerate_crystallographs,
    graph_from_slot_mask,
    is_crystallograph,
    is_projective_crystallograph,
    is_quasi_crystallograph,
    model_edges,
    orbit_canonical,
    rank,
    slot_mask,
)
from crystallograph.graphs import (
    BICHROMATIC,
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    connected_components,
    disjoint_union,
    empty_graph,
    graph,
    graph_from_roots,
    graph_to_json,
    loop,
    projectify,
    roots_from_graph,
    straight,
    weyl_act_graph,
)
from crystallograph.linalg import nullspace_basis
from crystallograph.quotient import kernel_basis
from crystallograph.rootsys import SignedPermutation, roots_a, weyl_apply, weyl_group


def test_is_crystallograph_classical_graphs():
    for builder in (classical.graph_a, classical.graph_d, classical.graph_b,
                    classical.graph_c, classical.graph_bc):
        assert is_crystallograph(builder(4))
    assert is_crystallograph(classical.graph_bipartite(2, 3))


def test_is_crystallograph_open_path_fails():
    path = graph(3, [straight(1, 2, RED), straight(2, 3, RED)])
    assert not is_crystallograph(path)
    # closing the red triangle repairs it
    assert is_crystallograph(graph(3, list(path.edges) + [straight(1, 3, RED)]))
    # mixed-colour path needs a green closing side
    mixed = graph(3, [straight(1, 2, RED), straight(2, 3, GREEN), straight(1, 3, RED)])
    assert not is_crystallograph(mixed)
    assert is_crystallograph(
        graph(3, [straight(1, 2, RED), straight(2, 3, GREEN), straight(1, 3, GREEN)])
    )


def test_is_crystallograph_loop_conditions():
    assert is_crystallograph(graph(1, [loop(1, RED), loop(1, GREEN)]))  # BC_1
    # a loop next to a single straight edge forces doubling plus propagation
    bad = graph(2, [loop(1, RED), straight(1, 2, RED)])
    assert not is_crystallograph(bad)
    still_bad = graph(2, [loop(1, RED), straight(1, 2, RED), straight(1, 2, GREEN)])
    assert not is_crystallograph(still_bad)
    good = graph(
        2, [loop(1, RED), loop(2, RED), straight(1, 2, RED), straight(1, 2, GREEN)]
    )
    assert is_crystallograph(good)


def test_parallel_edges_impose_nothing():
    assert is_crystallograph(graph(2, [straight(1, 2, RED), straight(1, 2, GREEN)]))


def test_is_quasi_crystallograph_examples():
    c1d3 = classical.graph_c_plus_d(1, 2)
    assert is_quasi_crystallograph(c1d3)
    assert not is_crystallograph(c1d3)

    red_loop_variant = graph(
        3, [e for e in classical.graph_d(3).edges] + [loop(1, RED)]
    )
    assert not is_quasi_crystallograph(red_loop_variant)

    for g in enumerate_crystallographs(3, "all"):
        assert is_quasi_crystallograph(g)


def test_quasi_green_loop_still_requires_doubling():
    g = graph(2, [loop(1, GREEN), straight(1, 2, RED)])
    assert not is_quasi_crystallograph(g)
    doubled = graph(2, [loop(1, GREEN), straight(1, 2, RED), straight(1, 2, GREEN)])
    assert is_quasi_crystallograph(doubled)
    assert not is_crystallograph(doubled)


def test_is_projective_crystallograph_examples():
    assert is_projective_crystallograph(classical.projective_graph_borc(4))
    bad = graph(2, [loop(1, BLUE), straight(1, 2, RED)], TRICHROMATIC)
    assert not is_projective_crystallograph(bad)
    assert is_projective_crystallograph(empty_graph(3, TRICHROMATIC))
    rg_loop = graph(1, [loop(1, RED)], TRICHROMATIC)
    assert not is_projective_crystallograph(rg_loop)


def test_closure_rules_match_statement():
    """The Horn rules, rebuilt edge by edge from the two closure rules."""
    flipped = {RED: GREEN, GREEN: RED}
    for n in range(7):
        slots = all_edge_slots(n)
        bit = {e: 1 << b for b, e in enumerate(slots)}
        for e in slots:
            assert slot_mask(graph(n, [e])) == bit[e]
        for k in range(1, n + 1):
            assert slot_mask(graph(n, [loop(k, BLUE)], TRICHROMATIC)) == 1 << (n * n + n + k - 1)
        straights = [e for e in slots if not e.is_loop]
        loops = [e for e in slots if e.is_loop]
        for propagating in (CRYSTAL_PROPAGATING, QUASI_PROPAGATING):
            expected: list[set] = [set() for _ in slots]

            def implies(e, f, required):
                later, earlier = (e, f) if bit[e] > bit[f] else (f, e)
                expected[bit[later].bit_length() - 1].add((bit[earlier], required))

            # rule 1: two straight edges sharing exactly one node force the
            # edge closing the triangle, red if they agree in colour, green if not
            for e, f in combinations(straights, 2):
                shared = set(e.ends) & set(f.ends)
                if len(shared) != 1:
                    continue
                (a,) = set(e.ends) - shared
                (b,) = set(f.ends) - shared
                closing = straight(a, b, RED if e.colour == f.colour else GREEN)
                implies(e, f, bit[closing])
            # rule 2: a loop next to a straight edge forces the parallel edge of
            # the opposite colour and, if its colour propagates, the same loop
            # at the far end
            for lp in loops:
                (k,) = lp.ends
                for e in straights:
                    if k not in e.ends:
                        continue
                    (far,) = set(e.ends) - {k}
                    required = bit[straight(e.ends[0], e.ends[1], flipped[e.colour])]
                    if lp.colour in propagating:
                        required |= bit[loop(far, lp.colour)]
                    implies(lp, e, required)
            assert closure_rules(n, propagating) == tuple(tuple(sorted(r)) for r in expected)


def test_quasi_rules_are_weakened_crystal_rules():
    """Each quasi implication is a crystal one with the same premises and a
    subset of its required slots, so a mask the quasi rules reject the
    crystal rules reject too: every crystallograph is a
    quasi-crystallograph."""
    for n in range(1, 9):
        crystal_rules = closure_rules(n, CRYSTAL_PROPAGATING)
        for s, row in enumerate(closure_rules(n, QUASI_PROPAGATING)):
            for partner, required in row:
                assert any(
                    p == partner and required & ~r == 0 for p, r in crystal_rules[s]
                ), (n, s, partner, required)


def test_edges_closed_matches_full_table():
    """The edge-by-edge check used on large graphs gives the table's answer."""
    rng = random.Random(11)
    for n in (2, 3, 5, 9, 10):
        slots = all_edge_slots(n)
        graphs = [classical.graph_b(n), classical.graph_d(n), classical.graph_c_plus_d(2, n - 2)]
        for _ in range(60):
            k = rng.randrange(len(slots) + 1)
            graphs.append(graph(n, rng.sample(slots, k)))
        # near-misses: one edge off a crystallograph
        for g in graphs[:3]:
            edges = sorted(g.edges, key=str)
            for drop in rng.sample(edges, min(5, len(edges))):
                graphs.append(graph(n, [e for e in edges if e != drop]))
        # every one-edge-off near-miss of the red clique, the densest
        # straight-edge case
        clique = classical.graph_a(n).edges
        graphs += [graph(n, clique - {drop}) for drop in clique]
        for propagating in (CRYSTAL_PROPAGATING, QUASI_PROPAGATING):
            table = closure_rules(n, propagating)
            for g in graphs:
                assert crystal._edges_closed(g, propagating) == closed(slot_mask(g), table)


def test_slot_mask_is_lossless_on_both_palettes():
    """Each graph of a palette gets its own mask, which decodes back to it."""
    for n in range(3):
        for graphs, nslots in (
            (list(all_bichromatic_graphs(n)), n * n + n),
            (list(_trichromatic_graphs(n)), n * n + 2 * n),
        ):
            masks = [slot_mask(g) for g in graphs]
            assert len(graphs) == len(set(masks)) == 2**nslots
            for g, mask in zip(graphs, masks):
                assert graph_from_slot_mask(n, mask, g.palette) == g
    rng = random.Random(7)
    straights = [straight(i, j, c) for i, j in combinations((1, 2, 3), 2) for c in (RED, GREEN)]
    for palette, colours in ((BICHROMATIC, (RED, GREEN)), (TRICHROMATIC, (RED, GREEN, BLUE))):
        edges = straights + [loop(k, c) for k in (1, 2, 3) for c in colours]
        for _ in range(500):
            g = graph(3, rng.sample(edges, rng.randrange(len(edges) + 1)), palette)
            assert graph_from_slot_mask(3, slot_mask(g), palette) == g


def test_graph_from_slot_mask_rejects_masks_that_do_not_fit():
    for n in range(4):
        for palette, nslots in ((BICHROMATIC, n * n + n), (TRICHROMATIC, n * n + 2 * n)):
            full = (1 << nslots) - 1
            assert len(graph_from_slot_mask(n, full, palette).edges) == nslots
            for bad in (-1, -full - 1, 1 << nslots, full | 1 << 40):
                with pytest.raises(ValueError):
                    graph_from_slot_mask(n, bad, palette)
    with pytest.raises(ValueError):
        graph_from_slot_mask(2, 1 << 40)
    with pytest.raises(ValueError):
        graph_from_slot_mask(2, -1)
    # a trichromatic mask with a blue loop does not decode as bichromatic
    blue = graph(2, [straight(1, 2, GREEN), loop(1, BLUE)], TRICHROMATIC)
    mask = slot_mask(blue)
    assert mask >> 6 == 1
    assert graph_from_slot_mask(2, mask, TRICHROMATIC) == blue
    with pytest.raises(ValueError):
        graph_from_slot_mask(2, mask)


def test_projective_predicate_matches_red_lift():
    """Projective closure against its statement: every loop blue, and the
    graph with its blue loops painted red a quasi-crystallograph."""
    accepted = 0
    for n in range(4):
        for g in _trichromatic_graphs(n):
            all_blue = all(e.colour == BLUE for e in g.edges if e.is_loop)
            red = graph(n, (loop(e.ends[0], RED) if e.is_loop else e for e in g.edges))
            expected = all_blue and is_quasi_crystallograph(red)
            assert is_projective_crystallograph(g) == expected, graph_to_json(g)
            accepted += expected
    assert accepted > 0


def test_predicates_scale_with_edges_not_nodes():
    n = 100_000
    triangle = graph(n, [straight(n - 2, n - 1, RED), straight(n - 1, n, RED),
                         straight(n - 2, n, RED)])
    assert is_crystallograph(triangle) and is_quasi_crystallograph(triangle)
    path = graph(n, [straight(k, k + 1, RED) for k in range(1, 3000)])
    assert not is_crystallograph(path)
    star = graph(n, [loop(n, GREEN), straight(1, n, RED), straight(1, n, GREEN)])
    assert is_quasi_crystallograph(star) and not is_crystallograph(star)
    assert is_crystallograph(graph(n, [*star.edges, loop(1, GREEN)]))
    blue = graph(n, [loop(n, BLUE), straight(1, n, RED), straight(1, n, GREEN)], TRICHROMATIC)
    assert not is_projective_crystallograph(blue)
    assert is_projective_crystallograph(graph(n, [*blue.edges, loop(1, BLUE)], TRICHROMATIC))


def test_enumerate_matches_predicate_filter_exhaustive_n3():
    for n in range(4):
        for mode, predicate in (("all", is_crystallograph), ("quasi", is_quasi_crystallograph)):
            expected = sorted(
                (g for g in all_bichromatic_graphs(n) if predicate(g)), key=graph_to_json
            )
            assert list(enumerate_crystallographs(n, mode)) == expected


def test_palette_preconditions():
    with pytest.raises(ValueError):
        is_crystallograph(empty_graph(1, TRICHROMATIC))
    with pytest.raises(ValueError):
        is_projective_crystallograph(empty_graph(1))


def test_classify_classical_union():
    g = disjoint_union(classical.graph_a(4), classical.graph_b(2))
    report = classify_components(g)
    assert [(c.type, c.params) for c in report.components] == [("A", (4,)), ("B", (2,))]


def test_classify_bipartite():
    report = classify_components(classical.graph_bipartite(3, 4))
    (comp,) = report.components
    assert comp.type == "Bipartite" and comp.params == (3, 4)
    assert comp.detail == ((1, 2, 3), (4, 5, 6, 7))


def test_classify_exotic():
    report = classify_components(classical.graph_c_plus_d(2, 2))
    (comp,) = report.components
    assert comp.type == "CplusD" and comp.params == (2, 2)
    report = classify_components(classical.graph_b_plus_c(1, 3))
    (comp,) = report.components
    assert comp.type == "BplusC" and comp.params == (1, 3)


def test_classify_degenerate_exotics_get_classical_tags():
    assert classify_components(classical.graph_b_plus_c(0, 3)).tags() == ["B"]
    assert classify_components(classical.graph_b_plus_c(3, 0)).tags() == ["BC"]
    assert classify_components(classical.graph_c_plus_d(0, 3)).tags() == ["D"]
    assert classify_components(classical.graph_c_plus_d(3, 0)).tags() == ["C"]


def test_classify_singletons_and_small():
    report = classify_components(empty_graph(3))
    assert report.tags() == ["A", "A", "A"]
    assert classify_components(graph(1, [loop(1, RED)])).tags() == ["B"]
    assert classify_components(graph(1, [loop(1, GREEN)])).tags() == ["C"]
    assert classify_components(graph(1, [loop(1, RED), loop(1, GREEN)])).tags() == ["BC"]
    # complete bichromatic simply-laced on 2 nodes is tagged D
    assert classify_components(classical.graph_d(2)).tags() == ["D"]


def test_classify_requires_quasi():
    with pytest.raises(ValueError):
        classify_components(graph(3, [straight(1, 2, RED), straight(2, 3, RED)]))


def test_classification_soundness_exhaustive_n3(crystallographs_small):
    for n, graphs in crystallographs_small.items():
        for g in graphs:
            report = classify_components(g)
            rebuilt = frozenset()
            for comp in report.components:
                rebuilt |= model_edges(comp)
            assert rebuilt == g.edges
            covered = sorted(v for comp in report.components for v in comp.nodes)
            assert covered == list(range(1, n + 1))


def test_quasi_hierarchy_exhaustive_n3():
    for n in (1, 2, 3):
        for g in enumerate_crystallographs(n, "quasi"):
            exotic = any(t in ("BplusC", "CplusD") for t in classify_components(g).tags())
            assert is_crystallograph(g) == (not exotic)


def test_classify_projective_components():
    p = classify_projective_components(classical.projective_graph_borc(4))
    assert [(c.type, c.params) for c in p.components] == [("BorC", (4,))]
    p = classify_projective_components(classical.projective_graph_exotic_bd(1, 2))
    assert [(c.type, c.params) for c in p.components] == [("ExoticBD", (1, 2))]
    p = classify_projective_components(empty_graph(2, TRICHROMATIC))
    assert p.tags() == ["A", "A"]
    with pytest.raises(ValueError):
        classify_projective_components(
            graph(2, [loop(1, BLUE), straight(1, 2, RED)], TRICHROMATIC)
        )


def test_classify_projective_components_checks_quasi_once(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return is_quasi_crystallograph(g)

    monkeypatch.setattr(crystal, "is_quasi_crystallograph", counted)
    classify_components.cache_clear()
    classify_projective_components(classical.projective_graph_exotic_bd(1, 2))
    assert len(calls) == 1


_BICHROMATIC_TAGS = ("A", "D", "B", "C", "BC", "Bipartite", "BplusC", "CplusD")
# the projective models are the projectified models of these tags, renamed
_PROJECTIVE_TAGS = {"A": "A", "D": "D", "Bipartite": "Bipartite", "C": "BorC", "CplusD": "ExoticBD"}
_NOT_PROJECTIVE = "classify_components needs a quasi-crystallograph|lift needs all loops blue"


def _models_by_edges(nodes, tags):
    """Every model on `nodes`, drawn through model_edges and keyed by its edge
    set: each tag with every detail (every proper nonempty node subset for
    the exotic tags, both orders of every split into two parts for
    Bipartite).  D is drawn from two nodes up: on one node it is A."""
    m = len(nodes)
    subsets = [s for r in range(1, m) for s in combinations(nodes, r)]
    candidates = []
    for tag in tags:
        if tag in ("BplusC", "CplusD"):
            candidates += [Component(nodes, tag, (s,)) for s in subsets]
        elif tag == "Bipartite":
            for s in subsets:
                rest = tuple(v for v in nodes if v not in s)
                candidates.append(Component(nodes, tag, (s, rest)))
        elif tag != "D" or m >= 2:
            candidates.append(Component(nodes, tag))
    models: dict[frozenset, list[Component]] = {}
    for comp in candidates:
        models.setdefault(model_edges(comp), []).append(comp)
    return models


def _projective_models_by_edges(nodes):
    """The projective models on `nodes`: `projectify` of the bichromatic
    models of _PROJECTIVE_TAGS, keyed by edge set and given their names."""
    models: dict[frozenset, list[Component]] = {}
    for edges, comps in _models_by_edges(nodes, _PROJECTIVE_TAGS).items():
        key = projectify(ColouredGraph(max(nodes), edges)).edges
        models.setdefault(key, []).extend(replace(c, type=_PROJECTIVE_TAGS[c.type]) for c in comps)
    return models


def _unique_match(models, edges):
    """The one model a component's edges match, its detail in canonical order
    (parts by size, then least node), or None if nothing matches."""
    matches = models.get(frozenset(edges), [])
    # a model graph names its tag and its detail parts
    assert len({(c.type, frozenset(c.detail)) for c in matches}) <= 1, matches
    return min(matches, key=lambda c: [(len(p), p) for p in c.detail], default=None)


def _trichromatic_graphs(n):
    """Every trichromatic graph on n nodes: red/green straights, red/green/blue loops."""
    slots = [straight(i, j, c) for i, j in combinations(range(1, n + 1), 2) for c in (RED, GREEN)]
    slots += [loop(k, c) for k in range(1, n + 1) for c in (RED, GREEN, BLUE)]
    for mask in range(1 << len(slots)):
        yield graph(n, (e for b, e in enumerate(slots) if mask >> b & 1), TRICHROMATIC)


def test_classification_matches_brute_force_models_n3():
    """Every component of every bichromatic and trichromatic graph with n <= 3
    gets the unique model drawn by model_edges that matches it, or raises."""
    models = {}
    outcomes = Counter()
    for n in range(4):
        for g in chain(all_bichromatic_graphs(n), _trichromatic_graphs(n)):
            projective = g.palette == TRICHROMATIC
            found = []
            for nodes in connected_components(g):
                if (nodes, g.palette) not in models:
                    models[nodes, g.palette] = (
                        _projective_models_by_edges(nodes)
                        if projective
                        else _models_by_edges(nodes, _BICHROMATIC_TAGS)
                    )
                edges = [e for e in g.edges if set(e.ends) <= set(nodes)]
                expected = _unique_match(models[nodes, g.palette], edges)
                outcomes[g.palette, expected is not None] += 1
                if projective:
                    alone = graph(n, edges, TRICHROMATIC)
                    if expected is None:
                        with pytest.raises(ValueError, match=_NOT_PROJECTIVE):
                            classify_projective_components(alone)
                    else:
                        report = classify_projective_components(alone)
                        assert [c for c in report.components if c.nodes == nodes] == [expected]
                elif expected is None:
                    with pytest.raises(InconsistencyError, match="matches no model graph"):
                        crystal._match_component(nodes, edges)
                else:
                    assert crystal._match_component(nodes, edges) == expected
                found.append(expected)
            if not projective and is_quasi_crystallograph(g):
                assert classify_components(g).components == tuple(found)
    assert sum(outcomes.values()) == 43612
    assert len(outcomes) == 4, outcomes  # matches and misses on both palettes


def test_red_components_examples():
    g = classical.graph_pairs_and_points(2, 1)
    assert kernel_basis(g).parts == ((1, 2), (3, 4), (5,))
    assert kernel_basis(classical.graph_bc(3)).parts == ()
    assert kernel_basis(empty_graph(3)).parts == ((1,), (2,), (3,))


def test_bipartite_normalize_examples():
    g34 = classical.graph_bipartite(3, 4)
    gstar, w = bipartite_normalize(g34)
    assert gstar == classical.graph_a(7)
    assert w == SignedPermutation(tuple(range(7)), (-1, -1, -1, 1, 1, 1, 1))

    unchanged, w = bipartite_normalize(classical.graph_a(4))
    assert unchanged == classical.graph_a(4) and w == SignedPermutation.identity(4)

    g11 = classical.graph_bipartite(1, 1)
    gstar, w = bipartite_normalize(g11)
    assert gstar == classical.graph_a(2)
    assert w == SignedPermutation.sign_flip(2, 1)


def test_bipartite_normalize_is_weyl_image():
    """Graph action against root action: every bipartite crystallograph with
    n <= 4, and 50 seeded crystallographs on 5 nodes."""
    bipartite = [
        g
        for n in range(1, 5)
        for g in enumerate_crystallographs(n, "all")
        if classify_components(g).has_bipartite()
    ]
    assert len(bipartite) == 200
    rng = random.Random(31)
    for g in bipartite + [oracle.random_crystallograph(5, rng) for _ in range(50)]:
        gstar, w = bipartite_normalize(g)
        assert w.perm == tuple(range(g.n))
        assert roots_from_graph(gstar) == weyl_apply(w, roots_from_graph(g))
        assert not classify_components(gstar).has_bipartite()


def test_bipartite_normalize_all_d1_d2_up_to_4():
    for d1 in range(1, 5):
        for d2 in range(d1, 5):
            g = classical.graph_bipartite(d1, d2)
            gstar, w = bipartite_normalize(g)
            assert gstar == classical.graph_a(d1 + d2)
            assert w.signs == (-1,) * d1 + (1,) * d2


def test_rank_examples():
    for d1 in range(1, 4):
        for d2 in range(d1, 4):
            assert rank(classical.graph_bipartite(d1, d2)) == d1 + d2 - 1
    assert rank(empty_graph(4)) == 0
    for n in range(1, 7):
        assert rank(classical.graph_bc(n)) == n
        assert rank(classical.graph_a(n)) == n - 1
        assert rank(classical.graph_b(n)) == n
        assert rank(classical.graph_c(n)) == n
        if n >= 2:
            assert rank(classical.graph_d(n)) == n


def test_bipartite_edge_count_and_orthocomplement():
    from math import comb

    for d1 in range(1, 5):
        for d2 in range(d1, 5):
            g = classical.graph_bipartite(d1, d2)
            assert len(g.edges) == comb(d1 + d2, 2)
            basis = nullspace_basis(sorted(roots_from_graph(g)), d1 + d2)
            assert len(basis) == 1
            v = [1] * d1 + [-1] * d2
            (w,) = basis
            scale = None
            for a, b in zip(v, w):
                if b != 0:
                    scale = a / b
                    break
            assert scale is not None
            assert all(a == b * scale for a, b in zip(v, w))


def test_enumerate_counts():
    assert len(list(enumerate_crystallographs(1, "all"))) == 4
    assert len(list(enumerate_crystallographs(1, "quasi"))) == 4
    # derived twice: predicate filtering here, closed-form count in oracle
    n2 = list(enumerate_crystallographs(2, "all"))
    assert len(n2) == 22 == oracle.count_crystallographs(2)
    assert len(list(enumerate_crystallographs(2, "quasi"))) == 26 == oracle.count_quasi_crystallographs(2)
    assert len(list(enumerate_crystallographs(3, "all"))) == 144 == oracle.count_crystallographs(3)
    assert len(list(enumerate_crystallographs(3, "quasi"))) == 204 == oracle.count_quasi_crystallographs(3)


def test_enumerate_canonical_order_and_limits():
    from crystallograph.graphs import graph_to_json

    listed = [graph_to_json(g) for g in enumerate_crystallographs(2, "all")]
    assert listed == sorted(listed)
    with pytest.raises(ValueError):
        next(enumerate_crystallographs(5, "all"))
    with pytest.raises(ValueError):
        next(enumerate_crystallographs(6, "up_to_weyl"))
    with pytest.raises(ValueError):
        next(enumerate_crystallographs(2, "sideways"))
    for mode in ("all", "quasi", "up_to_weyl"):
        with pytest.raises(ValueError, match="node count must be >= 0"):
            next(enumerate_crystallographs(-3, mode))


def test_enumerate_up_to_weyl():
    reps1 = list(enumerate_crystallographs(1, "up_to_weyl"))
    assert len(reps1) == 4
    reps2 = list(enumerate_crystallographs(2, "up_to_weyl"))
    assert len(reps2) == 15 == oracle.count_weyl_orbits(2)
    reps3 = list(enumerate_crystallographs(3, "up_to_weyl"))
    assert len(reps3) == 45 == oracle.count_weyl_orbits(3)
    # representatives are crystallographs and pairwise inequivalent
    seen = set()
    for g in reps3:
        assert is_crystallograph(g)
        key, _ = orbit_canonical(g)
        assert key not in seen
        seen.add(key)


def test_up_to_weyl_matches_orbit_decomposition(crystallographs_small):
    reps = list(enumerate_crystallographs(3, "up_to_weyl"))
    orbits = Counter(orbit_canonical(g)[0] for g in crystallographs_small[3])
    assert len(orbits) == len(reps)
    assert sum(orbits.values()) == 144
    assert set(orbits) == {orbit_canonical(g)[0] for g in reps}


def _reference_orbit_canonical(g):
    """The full-group route: serialise the image under every signed permutation."""
    best = None
    for w in weyl_group(g.n):
        image = weyl_act_graph(w, g)
        key = graph_to_json(image)
        if best is None or key < best[0]:
            best = (key, image)
    return best


def test_orbit_canonical_matches_full_group():
    rng = random.Random(606)
    graphs = [graph_from_slot_mask(n, mask) for n in (0, 1, 2) for mask in range(1 << (n * n + n))]
    graphs += [oracle.random_bichromatic_graph(3, rng) for _ in range(2000)]
    tri_slots = all_edge_slots(3) + tuple(loop(k, BLUE) for k in (1, 2, 3))
    for _ in range(500):
        mask = rng.getrandbits(len(tri_slots))
        edges = frozenset(e for b, e in enumerate(tri_slots) if mask >> b & 1)
        graphs.append(ColouredGraph(3, edges, TRICHROMATIC))
    assert any(e.colour == BLUE for g in graphs for e in g.edges)
    graphs += enumerate_crystallographs(4, "up_to_weyl")
    graphs += [oracle.random_bichromatic_graph(5, rng) for _ in range(10)]
    for g in graphs:
        assert orbit_canonical(g) == _reference_orbit_canonical(g), graph_to_json(g)


def test_enumerate_up_to_weyl_n5():
    reps = list(enumerate_crystallographs(5, "up_to_weyl"))
    assert len(reps) == 316 == oracle.count_weyl_orbits(5)
    assert all(is_crystallograph(g) for g in reps)
    assert len({orbit_canonical(g)[0] for g in reps}) == 316


# ---------------------------------------------------------------------------
# the graph-level memos


def _memo_cases():
    """Every bichromatic graph with n <= 3 and every quasi-crystallograph at
    n = 4, each with an equal graph built from a fresh edge set."""
    cases = [g for n in range(4) for g in all_bichromatic_graphs(n)]
    cases += enumerate_crystallographs(4, "quasi")
    return [(g, ColouredGraph(g.n, set(g.edges))) for g in cases]


def test_memoised_answers_equal_direct_ones():
    closed_direct = crystal._graph_closed.__wrapped__
    classify_direct = classify_components.__wrapped__
    quasi = 0
    for g, twin in _memo_cases():
        for propagating in (CRYSTAL_PROPAGATING, QUASI_PROPAGATING):
            expected = closed_direct(g, propagating)
            assert crystal._graph_closed(g, propagating) == expected, graph_to_json(g)
            assert crystal._graph_closed(twin, propagating) == expected, graph_to_json(g)
        if closed_direct(g, QUASI_PROPAGATING):
            quasi += 1
            expected = classify_direct(g)
            assert classify_components(g) == expected, graph_to_json(g)
            assert classify_components(twin) == expected, graph_to_json(g)
    assert quasi == sum(oracle.count_quasi_crystallographs(n) for n in range(5))


def test_equal_graphs_share_memo_entries():
    g = classical.graph_bc(3)
    twin = graph(3, list(g.edges))
    assert twin is not g
    for memo, rest in ((classify_components, ()), (crystal._graph_closed, (CRYSTAL_PROPAGATING,))):
        memo.cache_clear()
        first = memo(g, *rest)
        assert memo(twin, *rest) is first
        info = memo.cache_info()
        assert (info.hits, info.misses) == (1, 1)


def test_classify_raises_on_every_call_for_non_quasi():
    path = graph(3, [straight(1, 2, RED), straight(2, 3, RED)])
    classify_components.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError):
            classify_components(path)
    info = classify_components.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 0)
