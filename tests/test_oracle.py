"""Brute-force oracles against the structured implementations."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from crystallograph import classical, oracle
from crystallograph.linalg import nullspace_basis
from crystallograph.arrange import verify_projectification_compatibility
from crystallograph.quotient import KernelBasis, kernel_basis, quotient_graph
from crystallograph.crystal import (
    InconsistencyError,
    _generator_tables,
    _mask_map_apply,
    all_bichromatic_graphs,
    all_edge_slots,
    classify_components,
    enumerate_crystallographs,
    is_crystallograph,
    orbit_canonical,
    slot_mask,
)
from crystallograph.graphs import (
    BICHROMATIC,
    RED,
    ColouredGraph,
    graph,
    graph_from_roots,
    graph_to_json,
    lift,
    loop,
    projectify,
    roots_from_graph,
    weyl_act_graph,
)
from crystallograph.oracle import (
    LineTables,
    bijection_sweep,
    count_crystallographs,
    count_quasi_crystallographs,
    count_weyl_orbits,
    kernel_failures,
    line_tables,
    random_bichromatic_graph,
    random_crystallograph,
    random_nested_pair,
    verify_all,
    weyl_commutation_failures,
    weyl_orbit_failures,
)
from crystallograph.rootsys import (
    SignedPermutation,
    is_root_subsystem,
    reflection_closure,
    roots_a,
    roots_b,
    roots_bc,
    weyl_apply,
    weyl_group,
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


@pytest.mark.parametrize("n", [4, 5, 6])
def test_line_tables_match_the_root_set_references_on_seeded_closures(n):
    # uniform masks are almost never closed at n >= 5, so draw sub-masks of
    # crystallographs; each closure is checked, and so is a one-bit neighbour
    rng = random.Random(101 + n)
    tables = line_tables(n)
    for _ in range(100):
        sub = slot_mask(random_crystallograph(n, rng)) & rng.getrandbits(tables.count)
        closed = tables.closure(sub)
        assert tables.mask_to_roots(closed) == reflection_closure(tables.mask_to_roots(sub))
        for mask in (closed, closed ^ 1 << rng.randrange(tables.count)):
            assert tables.is_subsystem(mask) == is_root_subsystem(tables.mask_to_roots(mask))


def test_slot_mask_is_line_mask():
    # line i of the oracle is the line of the edge in slot i
    for n in (1, 2, 3):
        tables = line_tables(n)
        for g in all_bichromatic_graphs(n):
            assert tables.mask_to_roots(slot_mask(g)) == roots_from_graph(g)
    rng = random.Random(79)
    for n in (4, 5, 6):
        tables = line_tables(n)
        for _ in range(300):
            g = random_bichromatic_graph(n, rng)
            assert tables.mask_to_roots(slot_mask(g)) == roots_from_graph(g)


def test_line_tables_reject_two_slots_on_one_line(monkeypatch):
    first, second = all_edge_slots(3)[:2]

    def merged(g):
        if g.edges == {second}:
            g = ColouredGraph(3, frozenset((first,)))
        return roots_from_graph(g)

    monkeypatch.setattr(oracle, "roots_from_graph", merged)
    with pytest.raises(InconsistencyError):
        LineTables(3)


def test_enumerate_subsystems_bruteforce_counts():
    # the root side's own subsystems, read back as graphs through their roots
    for n, count in ((1, 4), (2, 22), (3, 144)):
        tables = line_tables(n)
        subsystems = [
            tables.mask_to_roots(mask)
            for mask in range(1 << tables.count)
            if tables.is_subsystem(mask)
        ]
        graphs = [graph_from_roots(phi, n) for phi in subsystems]
        assert len(graphs) == len(set(graphs)) == count
        assert set(graphs) == set(enumerate_crystallographs(n, "all"))


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


@pytest.mark.parametrize("error", [ValueError, InconsistencyError])
def test_kernel_failures_reports_a_raising_graph_and_goes_on(
    monkeypatch, crystallographs_small, error
):
    graphs = crystallographs_small[3]
    checked = [g for g in graphs if not classify_components(g).has_bipartite()]
    chosen = checked[len(checked) // 2]
    reached = []

    def raising_on_one(g):
        reached.append(g)
        if g == chosen:
            raise error("planted")
        return kernel_basis(g)

    monkeypatch.setattr(oracle, "kernel_basis", raising_on_one)
    assert kernel_failures(graphs) == [f"kernel check failed: {graph_to_json(chosen)}: planted"]
    assert reached == checked


def _third(*rows):
    return tuple(tuple(Fraction(x, 3) for x in row) for row in rows)


@pytest.mark.parametrize(
    "case",
    ["wrong span", "not idempotent", "not symmetric", "moves e_I/|I|", "root not annihilated"],
)
def test_kernel_failures_reports_each_fault(monkeypatch, case):
    # A_2 on 3 nodes: one red part {1,2,3}, kernel vector (1,1,1)/3, projection J/3
    g = classical.graph_a(3)
    label = graph_to_json(g)
    least_root = min(roots_from_graph(g))
    faults = {
        # spans the wrong line
        "wrong span": (None, [f"kernel span mismatch: {label}"]),
        # 2J/3 is symmetric and kills every root, but squares to 4J/3 and doubles e_I/|I|
        "not idempotent": (
            _third((2, 2, 2), (2, 2, 2), (2, 2, 2)),
            [f"projection not idempotent: {label}", f"projection moves a kernel vector: {label}"],
        ),
        # the oblique projection onto (1,1,1) along x_1 = 0
        "not symmetric": (_third((3, 0, 0), (3, 0, 0), (3, 0, 0)), [f"projection not symmetric: {label}"]),
        "moves e_I/|I|": (_third((0, 0, 0), (0, 0, 0), (0, 0, 0)), [f"projection moves a kernel vector: {label}"]),
        "root not annihilated": (
            _third((3, 0, 0), (0, 3, 0), (0, 0, 3)),
            [f"projection image not annihilated by {least_root}: {label}"],
        ),
    }
    proj, expected = faults[case]
    if proj is None:
        wrong = KernelBasis(((1, 2, 3),), ((Fraction(1), Fraction(0), Fraction(0)),))
        monkeypatch.setattr(oracle, "kernel_basis", lambda graph: wrong)
    else:
        monkeypatch.setattr(oracle, "orthogonal_projection", lambda graph: proj)
    assert kernel_failures([g]) == expected
    monkeypatch.undo()
    assert kernel_failures([g]) == []


def test_orbit_decomposition_examples():
    def orbit_sizes(graphs):
        return Counter(orbit_canonical(g)[0] for g in graphs)

    pair = [classical.graph_bipartite(1, 1), classical.graph_a(2)]
    assert list(orbit_sizes(pair).values()) == [2]

    assert list(orbit_sizes([classical.graph_bc(2)]).values()) == [1]

    all2 = list(enumerate_crystallographs(2, "all"))
    orbits2 = orbit_sizes(all2)
    assert len(orbits2) == 15
    assert sum(orbits2.values()) == 22
    for g in all2:
        assert is_crystallograph(orbit_canonical(g)[1])


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


def test_bijection_sweep_decodes_only_accepted_masks(monkeypatch):
    # the rules are read by the enumerator, never one mask at a time, and
    # only the masks a side accepts are decoded and put through
    # is_crystallograph
    calls = Counter()

    def counting(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(oracle, "closed", counting("closed", oracle.closed))
    monkeypatch.setattr(LineTables, "is_subsystem", counting("is_subsystem", LineTables.is_subsystem))
    monkeypatch.setattr(oracle, "graph_from_slot_mask", counting("decode", oracle.graph_from_slot_mask))
    monkeypatch.setattr(oracle, "is_crystallograph", counting("is_crystallograph", oracle.is_crystallograph))
    bijection_sweep(3)
    assert calls == {"decode": 144, "is_crystallograph": 144}


def test_bijection_sweep_reports_mismatches(monkeypatch):
    # with the graph rules emptied, every mask passes the graph side, so each
    # non-subsystem must come back as a mismatch
    monkeypatch.setattr(oracle, "closure_rules", lambda n, propagating: ((),) * (n * n + n))
    checked, crystallographs, quasi_count, failures = bijection_sweep(2)
    assert checked == len(crystallographs) == quasi_count == 64
    assert len(failures) == 64 - count_crystallographs(2)
    assert all(line.startswith("bijection mismatch: ") for line in failures)


def test_nested_pairs_exhaustive_matches_subgraph_scan():
    # the sub-mask walk yields what a scan over subgraph objects finds: each
    # g's pairs together and in enumeration order of g, each pair once
    expected = []
    for g in enumerate_crystallographs(3, "all"):
        edge_list = g.sorted_edges()
        for mask in range(1 << len(edge_list)):
            gp = ColouredGraph(3, frozenset(e for b, e in enumerate(edge_list) if mask >> b & 1))
            if is_crystallograph(gp) and not classify_components(gp).has_bipartite():
                expected.append((g, gp))
    assert len(expected) == 2043
    actual = list(oracle.nested_pairs_exhaustive(3))
    assert [g for g, _ in actual] == [g for g, _ in expected]
    assert Counter(actual) == Counter(expected)


def test_pair_failures_classifies_each_subgraph_once(exhaustive_pairs):
    # the six quotient routes of a pair ask for gp's report (the projective
    # one for the lift of its projectification), and the restricted
    # arrangement for the lifted projectified quotient's; the memo computes
    # each distinct graph once per pair
    classify_components.cache_clear()
    assert oracle.pair_failures(exhaustive_pairs) == []
    info = classify_components.cache_info()
    distinct = sum(
        len({gp, lift(projectify(gp)), lift(projectify(quotient_graph(g, gp)))})
        for g, gp in exhaustive_pairs
    )
    assert info.misses <= distinct
    assert info.hits + info.misses == 7 * len(exhaustive_pairs)


def test_pair_failures_labels_only_failing_pairs(monkeypatch):
    pairs = list(oracle.nested_pairs_exhaustive(2))[:3]
    serialised = []

    def counting_to_json(g):
        serialised.append(g)
        return graph_to_json(g)

    monkeypatch.setattr(oracle, "graph_to_json", counting_to_json)
    assert oracle.pair_failures(pairs) == []
    assert serialised == []
    # force one failing pair: its message text is the pair's two graphs
    g, gp = pairs[0]
    monkeypatch.setattr(
        oracle, "verify_quotient_theorem", lambda a, b: (a, b) != (g, gp)
    )
    assert oracle.pair_failures(pairs) == [
        f"quotient theorem fails: {graph_to_json(g)} / {graph_to_json(gp)}"
    ]
    assert serialised == [g, gp]


@pytest.mark.parametrize("error", [ValueError, InconsistencyError])
def test_pair_failures_reports_a_raising_pair_and_goes_on(monkeypatch, error):
    pairs = list(oracle.nested_pairs_exhaustive(2))
    chosen = pairs[len(pairs) // 2]
    reached = []

    def raising_on_one(g, gp):
        reached.append((g, gp))
        if (g, gp) == chosen:
            raise error("planted")
        return verify_projectification_compatibility(g, gp)

    monkeypatch.setattr(oracle, "verify_projectification_compatibility", raising_on_one)
    g, gp = chosen
    assert oracle.pair_failures(pairs) == [
        f"pair check failed: {graph_to_json(g)} / {graph_to_json(gp)}: planted"
    ]
    assert reached == pairs


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


def test_weyl_generators_move_slots_as_they_move_lines():
    # the orbit route's generator slot maps, read off the graph action, equal
    # the root action on the lines, so every product of them, that is every
    # w in W(BC_n), acts alike on every mask
    for n in range(1, 8):
        tables = line_tables(n)
        index = {rep: i for i, rep in enumerate(tables.reps)}
        generators = [SignedPermutation.sign_flip(n, 1)]
        for k in range(n - 1):
            perm = list(range(n))
            perm[k], perm[k + 1] = k + 1, k
            generators.append(SignedPermutation(tuple(perm), (1,) * n))
        slot_maps = _generator_tables(n, BICHROMATIC)
        assert len(slot_maps) == len(generators) == n
        for w, slot_map in zip(generators, slot_maps):
            lines = [1 << index[oracle._canon_line(w.apply(rep))] for rep in tables.reps]
            assert [_mask_map_apply(slot_map, 1 << b) for b in range(tables.count)] == lines, (n, w)


def test_weyl_commutation_compares_the_seeded_draws(monkeypatch):
    # the suite compares the pairs that rng.choice over the whole group draws
    compared = []

    def recording(w, g):
        compared.append((g, w))
        return weyl_act_graph(w, g)

    monkeypatch.setattr(oracle, "weyl_act_graph", recording)
    for n, seed in ((3, 83), (4, 5)):
        compared.clear()
        assert weyl_commutation_failures(n, 1000, seed) == []
        rng = random.Random(seed)
        group = list(weyl_group(n))
        expected = []
        for _ in range(1000):
            g = random_bichromatic_graph(n, rng)
            expected.append((g, rng.choice(group)))
        assert compared == expected


def test_weyl_commutation_catches_a_sign_blind_action(monkeypatch):
    def sign_blind(w, g):
        return weyl_act_graph(SignedPermutation(w.perm, (1,) * w.n), g)

    monkeypatch.setattr(oracle, "weyl_act_graph", sign_blind)
    failures = weyl_commutation_failures(3, 200, seed=89)
    assert failures
    assert all(line.startswith("weyl action mismatch: ") for line in failures)


def test_weyl_commutation_reports_an_action_leaving_bc(monkeypatch):
    # doubling the first coordinate sends e_1 - e_2 to 2e_1 - e_2, no BC root
    def doubling(w, phi):
        return frozenset((2 * alpha[0], *alpha[1:]) for alpha in weyl_apply(w, phi))

    monkeypatch.setattr(oracle, "weyl_apply", doubling)
    failures = weyl_commutation_failures(3, 200, seed=89)
    assert failures
    assert all(line.startswith("weyl action mismatch: ") for line in failures)


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


def test_verify_all_reports_orbit_count_mismatch(monkeypatch):
    closed_form = count_weyl_orbits
    monkeypatch.setattr(oracle, "count_weyl_orbits", lambda n: closed_form(n) + 1)
    _, failures = verify_all(3, samples=100)
    assert failures == ["orbit count 45 != closed form 46"]


def test_weyl_orbit_failures_names_stray_images():
    crystallographs = list(enumerate_crystallographs(3, "all"))
    assert weyl_orbit_failures(3, crystallographs) == []
    # drop one of the three single red loops: their orbit still counts once,
    # and the dropped graph is reported as an image of the first one kept
    dropped = graph(3, [loop(3, RED)])
    kept = [g for g in crystallographs if g != dropped]
    failures = weyl_orbit_failures(3, kept)
    assert len(failures) == 1
    assert failures[0].startswith(f"Weyl image {graph_to_json(dropped)} of crystallograph ")


@pytest.mark.parametrize("n, samples", [(5, -1), (5, 0), (1, 0)])
def test_verify_all_rejects_samples_below_one(n, samples):
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        verify_all(n, samples=samples)


def test_summary_json():
    summary, failures = verify_all(1, samples=10)
    text = oracle.summary_to_json(summary, failures)
    import json

    obj = json.loads(text)
    assert obj["n"] == 1 and obj["failures"] == []
    assert obj["total_graphs"] == 4
