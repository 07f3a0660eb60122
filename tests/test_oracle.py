"""Brute-force oracles against the structured implementations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from crystallograph import classical, oracle
from crystallograph.linalg import nullspace_basis
from crystallograph.crystal import (
    classify_components,
    enumerate_crystallographs,
    is_crystallograph,
)
from crystallograph.graphs import (
    ColouredGraph,
    graph_from_roots,
    graph_to_json,
    roots_from_graph,
)
from crystallograph.oracle import (
    LineTables,
    bijection_sweep,
    count_crystallographs,
    count_quasi_crystallographs,
    count_weyl_orbits,
    enumerate_subsystems_bruteforce,
    kernel_failures,
    line_tables,
    orbit_decomposition,
    random_crystallograph,
    random_nested_pair,
    verify_all,
    weyl_commutation_failures,
)
from crystallograph.rootsys import (
    is_root_subsystem,
    reflection_closure,
    roots_a,
    roots_b,
    roots_bc,
)


def test_line_tables_subsystem_matches_naive_exhaustive_n2():
    tables = line_tables(2)
    for mask in range(1 << tables.count):
        phi = tables.mask_to_roots(mask)
        assert tables.is_subsystem(mask) == is_root_subsystem(phi)


def test_line_tables_subsystem_matches_naive_sampled_n3_n4():
    rng = random.Random(61)
    for n in (3, 4):
        tables = line_tables(n)
        for _ in range(400):
            mask = rng.getrandbits(tables.count)
            phi = tables.mask_to_roots(mask)
            assert tables.is_subsystem(mask) == is_root_subsystem(phi)


def test_line_tables_closure_matches_naive():
    rng = random.Random(67)
    tables = line_tables(3)
    for _ in range(200):
        mask = rng.getrandbits(tables.count) & rng.getrandbits(tables.count)
        closed = tables.closure(mask)
        assert tables.mask_to_roots(closed) == reflection_closure(tables.mask_to_roots(mask))


def test_enumerate_subsystems_bruteforce_counts():
    assert len(list(enumerate_subsystems_bruteforce(1))) == 4
    subs2 = list(enumerate_subsystems_bruteforce(2))
    graphs2 = set(enumerate_crystallographs(2, "all"))
    assert {graph_from_roots(phi, 2) for phi in subs2} == graphs2
    subs3 = list(enumerate_subsystems_bruteforce(3))
    assert len(subs3) == 144
    assert {graph_from_roots(phi, 3) for phi in subs3} == set(
        enumerate_crystallographs(3, "all")
    )


def test_bruteforce_limit():
    with pytest.raises(ValueError):
        next(enumerate_subsystems_bruteforce(5))


def test_nullspace_examples():
    # the generic nullspace that kernel_failures checks kernel_basis against
    (v,) = nullspace_basis(sorted(roots_a(3)), 3)
    assert v[0] == v[1] == v[2] != 0
    assert nullspace_basis(sorted(frozenset()), 3) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]
    assert nullspace_basis(sorted(roots_b(2)), 2) == []
    assert graph_from_roots(roots_a(3), 3) == classical.graph_a(3)
    assert kernel_failures(
        [classical.graph_a(3), classical.graph_b(2), ColouredGraph(3, [])]
    ) == []


def test_orbit_decomposition_examples():
    pair = [classical.graph_bipartite(1, 1), classical.graph_a(2)]
    orbits = orbit_decomposition(pair, 2)
    assert len(orbits) == 1 and orbits[0][1] == 2

    single = orbit_decomposition([classical.graph_bc(2)], 2)
    assert len(single) == 1 and single[0][1] == 1

    all2 = list(enumerate_crystallographs(2, "all"))
    orbits2 = orbit_decomposition(all2, 2)
    assert len(orbits2) == 15
    assert sum(size for _, size in orbits2) == 22
    for rep, _ in orbits2:
        assert is_crystallograph(rep)


def test_count_formulas_match_enumeration():
    assert [count_crystallographs(n) for n in (1, 2, 3, 4)] == [4, 22, 144, 1080]
    assert [count_quasi_crystallographs(n) for n in (1, 2, 3, 4)] == [4, 26, 204, 1876]
    assert [count_weyl_orbits(n) for n in (1, 2, 3)] == [4, 15, 45]
    for n in (1, 2, 3):
        assert count_crystallographs(n) == len(list(enumerate_crystallographs(n, "all")))
        assert count_quasi_crystallographs(n) == len(
            list(enumerate_crystallographs(n, "quasi"))
        )


def test_bijection_sweep_small(sweep3):
    assert sweep3["checked"] == 4096
    assert len(sweep3["crystallographs"]) == 144
    assert sweep3["quasi"] == 204
    assert sweep3["failures"] == []


def test_bijection_sweep_reports_mismatches(monkeypatch):
    # with the graph rules emptied, every mask passes the graph side, so each
    # non-subsystem must come back as a mismatch
    monkeypatch.setattr(oracle, "closure_rules", lambda n, propagating: ((),) * (n * n + n))
    checked, crystallographs, quasi_count, failures = bijection_sweep(2)
    assert checked == len(crystallographs) == quasi_count == 64
    assert len(failures) == 64 - count_crystallographs(2)
    assert all(line.startswith("bijection mismatch: ") for line in failures)


def test_nested_pairs_exhaustive_matches_subgraph_scan():
    # the mask filter yields what a scan over subgraph objects finds, in order
    expected = []
    for g in enumerate_crystallographs(3, "all"):
        edge_list = g.sorted_edges()
        for mask in range(1 << len(edge_list)):
            gp = ColouredGraph(3, frozenset(e for b, e in enumerate(edge_list) if mask >> b & 1))
            if is_crystallograph(gp) and not classify_components(gp).has_bipartite():
                expected.append((g, gp))
    assert len(expected) == 2043
    assert list(oracle.nested_pairs_exhaustive(3)) == expected


def test_bijection_sampled_n5_n6():
    # graph predicate vs reflection-closure oracle on random graphs beyond
    # the exhaustive range
    for n in (5, 6):
        checked, _, _, failures = bijection_sweep(n, samples=33_000, seed=n)
        assert checked == 33_000
        assert failures == []


def test_random_crystallograph_is_one():
    rng = random.Random(71)
    for n in (1, 3, 5, 6):
        for _ in range(100):
            g = random_crystallograph(n, rng)
            assert g.n == n
            assert is_crystallograph(g)


def test_random_nested_pair_is_valid():
    rng = random.Random(73)
    for n in (2, 4, 5):
        for _ in range(100):
            g, gp = random_nested_pair(n, rng)
            assert gp.edges <= g.edges
            assert is_crystallograph(g) and is_crystallograph(gp)
            assert not classify_components(gp).has_bipartite()


def test_weyl_commutation():
    assert weyl_commutation_failures(4, 2000, seed=5) == []


def test_verify_all_small():
    for n in (1, 2):
        summary, failures = verify_all(n, samples=200)
        assert failures == []
        assert summary.total_graphs == 1 << (n * n + n)
        assert summary.crystallographs == count_crystallographs(n)
        assert summary.quasi_crystallographs == count_quasi_crystallographs(n)
        assert summary.orbits == count_weyl_orbits(n)
        assert summary.runtime >= 0


def test_verify_all_n3():
    summary, failures = verify_all(3, samples=100)
    assert failures == []
    assert summary.crystallographs == 144
    assert summary.quasi_crystallographs == 204
    assert summary.orbits == 45


def test_summary_json():
    summary, failures = verify_all(1, samples=10)
    text = oracle.summary_to_json(summary, failures)
    import json

    obj = json.loads(text)
    assert obj["n"] == 1 and obj["failures"] == []
    assert obj["total_graphs"] == 4
