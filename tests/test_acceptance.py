"""Acceptance criteria, one test per criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as the
criteria complete.  Everything is exact arithmetic; tolerances are zero.
"""

from __future__ import annotations

import random
import time

from crystallograph import classical, oracle
from crystallograph.crystal import (
    bipartite_normalize,
    classify_components,
    enumerate_crystallographs,
    rank,
)
from crystallograph.graphs import (
    graph,
    loop,
    roots_from_graph,
    straight,
    GREEN,
    RED,
)
from crystallograph.linalg import nullspace_basis, span_equal
from crystallograph.oracle import (
    classification_failures,
    kernel_failures,
    line_tables,
)
from crystallograph.rootsys import (
    is_root_subsystem,
    roots_a,
    roots_b,
    roots_bc,
    roots_c,
    roots_d,
    weyl_apply,
)


def _report(number: int, name: str, detail: str) -> None:
    print(f"criterion {number:2d} ({name}): PASS  [{detail}]")


def test_criterion_01_bijection(sweep3, sweep4):
    # the fast root-side oracle agrees with the naive reflection check
    tables = line_tables(3)
    for mask in range(1 << tables.count):
        naive = is_root_subsystem(tables.mask_to_roots(mask))
        assert tables.is_subsystem(mask) == naive
    rng = random.Random(oracle.RNG_DEFAULT_SEED)
    tables4 = line_tables(4)
    for _ in range(2000):
        mask = rng.getrandbits(tables4.count)
        assert tables4.is_subsystem(mask) == is_root_subsystem(tables4.mask_to_roots(mask))

    assert sweep3["checked"] == 4096
    assert sweep3["failures"] == []
    assert sweep3["elapsed"] < 5.0

    assert sweep4["checked"] == 1 << 20
    assert sweep4["failures"] == []
    assert sweep4["elapsed"] < 600.0

    _report(
        1,
        "bijection",
        f"4096 graphs in {sweep3['elapsed']:.2f}s, 2^20 graphs in {sweep4['elapsed']:.1f}s, 0 mismatches",
    )


def test_criterion_02_classification(crystallographs_small, sweep4):
    checked = 0
    for n in (1, 2, 3):
        failures = classification_failures(crystallographs_small[n])
        assert failures == []
        checked += len(crystallographs_small[n])
    failures = classification_failures(sweep4["crystallographs"])
    assert failures == []
    checked += len(sweep4["crystallographs"])
    _report(2, "classification", f"{checked} crystallographs, 0 unmatched components")


def test_criterion_03_bipartite_lemma():
    count = 0
    for d1 in range(1, 5):
        for d2 in range(d1, 5):
            g = classical.graph_bipartite(d1, d2)
            gstar, word = bipartite_normalize(g)
            target = roots_from_graph(classical.graph_a(d1 + d2))
            assert weyl_apply(word.element, roots_from_graph(g)) == target
            assert gstar == classical.graph_a(d1 + d2)
            assert rank(g) == d1 + d2 - 1
            basis = nullspace_basis(sorted(roots_from_graph(g)), d1 + d2)
            witness = [1] * d1 + [-1] * d2
            assert span_equal(basis, [witness])
            count += 1
    _report(3, "bipartite lemma", f"{count} bipartite shapes normalised exactly")


def test_criterion_04_kernels(crystallographs_small, sweep4):
    checked = 0
    for graphs in (*crystallographs_small.values(), sweep4["crystallographs"]):
        classical_form = [
            g for g in graphs if not classify_components(g).has_bipartite()
        ]
        assert kernel_failures(classical_form) == []
        checked += len(classical_form)
    _report(4, "kernels", f"{checked} classical-form crystallographs, exact span equality")


def test_criterion_05_quotient_theorem(pair_results):
    by_group = {"exhaustive": 0, "sampled4": 0, "sampled5": 0}
    for record in pair_results:
        assert record["theorem"], record
        assert record["quasi"], record
        by_group[record["group"]] += 1
    assert by_group["sampled4"] >= 10_000 and by_group["sampled5"] >= 10_000
    _report(
        5,
        "quotient theorem",
        f"{by_group['exhaustive']} exhaustive pairs (n<=3), "
        f"{by_group['sampled4']}+{by_group['sampled5']} sampled (n=4,5), 0 failures",
    )


def test_criterion_06_worked_example():
    d4 = classical.graph_d(4)
    gp = graph(4, [straight(1, 2, RED)])
    from crystallograph.arrange import classify_restricted_arrangement, projectify
    from crystallograph.graphs import arrangement_from_graph
    from crystallograph.quotient import quotient_graph

    q = quotient_graph(d4, gp)
    assert q.n == 3 and len(q.edges) == 7
    assert classify_components(q).components[0].type == "CplusD"
    assert classify_components(q).components[0].params == (1, 2)
    report = classify_restricted_arrangement(d4, gp)
    assert [(c.type, c.params) for c in report.components] == [("ExoticBD", (1, 2))]
    assert len(arrangement_from_graph(projectify(q))) == 7
    _report(6, "worked example", "D_4 / {red edge}: 3 nodes, 7 edges, CplusD(1,2) -> ExoticBD(1,2)")


def test_criterion_07_quasi_realization():
    # ambient node count is 2r+s: the pairs-and-points graph has r two-node
    # components and s singletons, and the quotient lives on their r+s parts
    from crystallograph.quotient import quotient_graph

    count = 0
    for r in range(0, 4):
        for s in range(0, 4):
            if r + s == 0:
                continue
            n = 2 * r + s
            gp = classical.graph_pairs_and_points(r, s)
            assert quotient_graph(classical.graph_b(n), gp) == classical.graph_b_plus_c(r, s)
            assert quotient_graph(classical.graph_d(n), gp) == classical.graph_c_plus_d(r, s)
            count += 2
    _report(7, "quasi realization", f"{count} literal graph equalities for r,s <= 3")


def test_criterion_08_projectification_compatibility(pair_results):
    for record in pair_results:
        assert record["compatible"], record
    _report(
        8,
        "projectification compatibility",
        f"P(g)/P(gp) = P(g/gp) on all {len(pair_results)} pairs",
    )


def test_criterion_09_arrangement_classification(pair_results):
    allowed = {"A", "D", "BorC", "ExoticBD"}
    seen_exotic = 0
    for record in pair_results:
        for tag, params in record["tags"]:
            if tag == "Bipartite":
                # arrangement-isomorphic to the type-A arrangement on the
                # same nodes; counted under its classical type
                tag = "A"
            assert tag in allowed, record
            if tag == "ExoticBD":
                r, s = params
                assert 0 < r < r + s, record
                seen_exotic += 1
    assert seen_exotic > 0
    _report(
        9,
        "arrangement classification",
        f"tags within {{A,D,BorC,ExoticBD}}, {seen_exotic} exotic components seen",
    )


def test_criterion_10_cardinalities():
    for n in range(1, 7):
        assert len(roots_a(n)) == n * (n - 1)
        assert len(roots_d(n)) == 2 * n * (n - 1)
        assert len(roots_b(n)) == 2 * n * n
        assert len(roots_c(n)) == 2 * n * n
        assert len(roots_bc(n)) == 2 * n * n + 2 * n
    from crystallograph.crystal import all_bichromatic_graphs

    checked = 0
    for n in (1, 2, 3):
        for g in all_bichromatic_graphs(n):
            assert len(roots_from_graph(g)) == 2 * len(g.edges)
            checked += 1
    assert len(list(enumerate_crystallographs(1, "all"))) == 4
    _report(10, "cardinalities", f"classical counts n<=6, |roots|=2|edges| on {checked} graphs")
