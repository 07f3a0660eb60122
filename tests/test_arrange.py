"""Projectification, projective quotients, arrangement classification."""

from __future__ import annotations

import random

import pytest

from crystallograph import classical, oracle
from crystallograph.arrange import (
    arrangements_equivalent,
    classify_restricted_arrangement,
    quotient_projective,
    verify_projectification_compatibility,
)
from crystallograph.crystal import (
    is_crystallograph,
    is_projective_crystallograph,
)
from crystallograph.graphs import (
    BLUE,
    GREEN,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    Hyperplane,
    arrangement_from_graph,
    empty_graph,
    graph,
    lift,
    loop,
    projectify,
    roots_from_graph,
    straight,
)


def test_projectify_fuses_loop_colours():
    pb = projectify(classical.graph_b(4))
    pc = projectify(classical.graph_c(4))
    pbc = projectify(classical.graph_bc(4))
    assert pb == pc == pbc == classical.projective_graph_borc(4)

    d = classical.graph_d(3)
    assert projectify(d) == ColouredGraph(3, d.edges, TRICHROMATIC)

    both = graph(1, [loop(1, RED), loop(1, GREEN)])
    assert projectify(both) == graph(1, [loop(1, BLUE)], TRICHROMATIC)


def test_projectify_requires_bichromatic():
    with pytest.raises(ValueError):
        projectify(empty_graph(1, TRICHROMATIC))


def test_lift_examples():
    assert lift(classical.projective_graph_borc(4)) == classical.graph_b(4)
    loopless = ColouredGraph(3, classical.graph_d(3).edges, TRICHROMATIC)
    assert lift(loopless) == classical.graph_d(3)
    assert lift(graph(1, [loop(1, BLUE)], TRICHROMATIC)) == graph(1, [loop(1, RED)])
    with pytest.raises(ValueError):
        lift(graph(1, [loop(1, GREEN)], TRICHROMATIC))
    with pytest.raises(ValueError):
        lift(empty_graph(1))


def test_projectify_lift_inverse_laws():
    rng = random.Random(41)
    for _ in range(200):
        g = oracle.random_bichromatic_graph(3, rng)
        p = projectify(g)
        assert projectify(lift(p)) == p
        if not any(e.is_loop for e in g.edges):
            assert lift(projectify(g)) == g


def test_projective_predicate_equals_lifted_crystallograph():
    # exhaustive over all trichromatic graphs with R/G straights, B loops, n <= 3
    for n in (1, 2, 3):
        slots = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                slots.append(straight(i, j, RED))
                slots.append(straight(i, j, GREEN))
        for k in range(1, n + 1):
            slots.append(loop(k, BLUE))
        for mask in range(1 << len(slots)):
            g = ColouredGraph(
                n, frozenset(s for b, s in enumerate(slots) if mask >> b & 1), TRICHROMATIC
            )
            assert is_projective_crystallograph(g) == is_crystallograph(lift(g))


def test_hyperplane_count_is_root_line_count():
    from crystallograph.crystal import all_bichromatic_graphs

    for n in (1, 2, 3):
        for g in all_bichromatic_graphs(n):
            lines = {min(a, tuple(-c for c in a)) for a in roots_from_graph(g)}
            # short and long loops at a node span the same line projectively
            distinct = set()
            for a in lines:
                support = [i for i, c in enumerate(a) if c != 0]
                if len(support) == 1:
                    distinct.add((support[0],))
                else:
                    distinct.add((tuple(support), a[support[0]] * a[support[1]] > 0))
            assert len(arrangement_from_graph(projectify(g))) == len(distinct)


def test_quotient_projective_worked_example():
    pd4 = projectify(classical.graph_d(4))
    pgp = projectify(graph(4, [straight(1, 2, RED)]))
    q = quotient_projective(pd4, pgp)
    expected = ColouredGraph(
        3, classical.graph_d(3).edges | frozenset({loop(1, BLUE)}), TRICHROMATIC
    )
    assert q == expected


def test_quotient_projective_trivial_cases():
    pg = projectify(classical.graph_b(3))
    assert quotient_projective(pg, empty_graph(3, TRICHROMATIC)) == pg
    pa = projectify(classical.graph_a(3))
    q = quotient_projective(pa, pa)
    assert q.n == 1 and q.edges == frozenset()


def test_quotient_projective_preconditions():
    pd = projectify(classical.graph_d(2))
    with pytest.raises(ValueError):
        quotient_projective(pd, empty_graph(3, TRICHROMATIC))
    bip = projectify(classical.graph_bipartite(1, 1))
    with pytest.raises(ValueError):
        quotient_projective(bip, bip)


def test_compatibility_examples():
    d4 = classical.graph_d(4)
    gp = graph(4, [straight(1, 2, RED)])
    assert verify_projectification_compatibility(d4, gp)
    assert verify_projectification_compatibility(d4, empty_graph(4))
    for r in range(0, 3):
        for s in range(0, 3):
            if r + s == 0:
                continue
            n = 2 * r + s
            pairs = classical.graph_pairs_and_points(r, s)
            assert verify_projectification_compatibility(classical.graph_d(n), pairs)
            lhs = quotient_projective(
                projectify(classical.graph_d(n)), projectify(pairs)
            )
            assert lhs == projectify(classical.graph_c_plus_d(r, s))


def test_compatibility_exhaustive_n2():
    for g, gp in oracle.nested_pairs_exhaustive(2):
        assert verify_projectification_compatibility(g, gp)


def test_classify_restricted_arrangement_examples():
    d4 = classical.graph_d(4)
    gp = graph(4, [straight(1, 2, RED)])
    report = classify_restricted_arrangement(d4, gp)
    assert [(c.type, c.params) for c in report.components] == [("ExoticBD", (1, 2))]

    for r in range(0, 3):
        for s in range(0, 3):
            if r + s == 0:
                continue
            n = 2 * r + s
            pairs = classical.graph_pairs_and_points(r, s)
            report = classify_restricted_arrangement(classical.graph_b(n), pairs)
            assert [(c.type, c.params) for c in report.components] == [("BorC", (r + s,))]

    report = classify_restricted_arrangement(classical.graph_a(4), empty_graph(4))
    assert [(c.type, c.params) for c in report.components] == [("A", (4,))]


def test_arrangements_equivalent_witness_search():
    exotic = arrangement_from_graph(classical.projective_graph_exotic_bd(1, 2))
    model = arrangement_from_graph(projectify(classical.graph_c_plus_d(1, 2)))
    assert arrangements_equivalent(exotic, model, 3) is not None

    borc = arrangement_from_graph(classical.projective_graph_borc(3))
    assert arrangements_equivalent(exotic, borc, 3) is None

    # a bipartite arrangement is isomorphic to the type-A arrangement
    bip = arrangement_from_graph(projectify(classical.graph_bipartite(1, 2)))
    a3 = arrangement_from_graph(projectify(classical.graph_a(3)))
    assert arrangements_equivalent(bip, a3, 3) is not None


def test_arrangements_equivalent_witnesses_carry_exhaustive_n2():
    lines = sorted(arrangement_from_graph(projectify(classical.graph_bc(2))))
    subsets = [
        frozenset(h for b, h in enumerate(lines) if mask >> b & 1) for mask in range(1 << len(lines))
    ]
    found = 0
    for a in subsets:
        for b in subsets:
            w = arrangements_equivalent(a, b, 2)
            if w is not None:
                found += 1
                assert frozenset(Hyperplane(w.apply(h.normal)) for h in a) == b
    # W(B_2) orbits on subsets of its four hyperplanes, by subset size:
    # 1 | 2, 2 | 1, 1, 4 | 2, 2 | 1; equivalent pairs are the sum of squares
    assert found == sum(k * k for k in (1, 2, 2, 1, 1, 4, 2, 2, 1))


def test_arrangements_equivalent_counts_hyperplanes_not_normals():
    # Ker(a_1 - a_2) written twice is still one hyperplane
    twice = {Hyperplane((1, -1)), Hyperplane((-1, 1))}
    once = {Hyperplane((1, -1))}
    assert len(twice) == 1
    assert arrangements_equivalent(twice, once, 2) is not None


def test_arrangements_equivalent_limit():
    arr = arrangement_from_graph(projectify(classical.graph_a(5)))
    with pytest.raises(ValueError):
        arrangements_equivalent(arr, arr, 5)
    # normals outside Q^n or outside B_n are errors, not a search
    a3 = arrangement_from_graph(projectify(classical.graph_a(3)))
    with pytest.raises(ValueError):
        arrangements_equivalent(a3, a3, 2)
    odd = frozenset({Hyperplane((1, 2))})
    with pytest.raises(ValueError):
        arrangements_equivalent(odd, odd, 2)
