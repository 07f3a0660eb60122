"""The graph and pair suites check each distinct item once and replay its lines.

A repeated item must give the same failure lines, at the same places, as a
check of every item would; these tests compare against one-item calls,
which never see a repeat.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from crystallograph import oracle
from crystallograph.crystal import classify_components, graph_from_slot_mask, slot_mask
from crystallograph.graphs import TRICHROMATIC, ColouredGraph, empty_graph, graph_to_json
from crystallograph.quotient import kernel_basis, verify_quotient_theorem


def _label(g, gp):
    return f"{graph_to_json(g)} / {graph_to_json(gp)}"


def _unmemoised(suite, stream):
    return [line for item in stream for line in suite([item])]


@pytest.fixture
def pairs3():
    pairs = list(oracle.nested_pairs_exhaustive(3))
    return pairs[100], pairs[500], pairs[900], pairs[1500]


@pytest.fixture
def graphs3(crystallographs_small):
    graphs = [g for g in crystallographs_small[3] if not classify_components(g).has_bipartite()]
    return graphs[10], graphs[20], graphs[30], graphs[40]


def _counting(monkeypatch, name, fn, fail_on=(), error=None):
    """Replace oracle.<name> by fn, recording its first argument (or pair)."""
    seen = []

    def wrapper(*args):
        item = args if len(args) > 1 else args[0]
        seen.append(item)
        if item in fail_on:
            if error is not None:
                raise error("planted")
            return False
        return fn(*args)

    monkeypatch.setattr(oracle, name, wrapper)
    return seen


def test_pair_failures_checks_each_distinct_pair_once(monkeypatch, pairs3):
    a, b, c, d = pairs3
    stream = [a, b, a, c, d, b, a, c]
    seen = _counting(monkeypatch, "verify_quotient_theorem", verify_quotient_theorem)
    assert oracle.pair_failures(iter(stream)) == []
    assert seen == [a, b, c, d]


def test_pair_failures_replays_a_planted_failure_in_place(monkeypatch, pairs3):
    a, b, c, d = pairs3
    stream = [a, b, a, c, d, b, a, c]
    seen = _counting(monkeypatch, "verify_quotient_theorem", verify_quotient_theorem, fail_on=(a, c))
    got = oracle.pair_failures(stream)
    assert seen == [a, b, c, d]
    la, lc = (f"quotient theorem fails: {_label(*p)}" for p in (a, c))
    assert got == [la, la, lc, la, lc]
    assert got == _unmemoised(oracle.pair_failures, stream)


def test_kernel_failures_checks_each_distinct_graph_once(monkeypatch, graphs3):
    a, b, c, d = graphs3
    stream = [a, b, a, c, d, b, a, c]
    seen = _counting(monkeypatch, "kernel_basis", kernel_basis)
    assert oracle.kernel_failures(iter(stream)) == []
    assert seen == [a, b, c, d]


def test_kernel_failures_replays_a_planted_failure_in_place(monkeypatch, graphs3):
    a, b, c, d = graphs3
    stream = [b, a, c, a, d, b, a]
    seen = _counting(monkeypatch, "kernel_basis", kernel_basis, fail_on=(a,), error=ValueError)
    got = oracle.kernel_failures(stream)
    assert seen == [b, a, c, d]
    assert got == [f"kernel check failed: {graph_to_json(a)}: planted"] * 3
    assert got == _unmemoised(oracle.kernel_failures, stream)


def test_classification_failures_checks_each_distinct_graph_once(monkeypatch, graphs3):
    a, b, c, d = graphs3
    stream = [a, b, a, c, d, b, a, c]
    seen = _counting(monkeypatch, "classify_components", classify_components)
    assert oracle.classification_failures(iter(stream)) == []
    assert seen == [a, b, c, d]


def test_classification_failures_replays_a_planted_failure_in_place(monkeypatch, graphs3):
    a, b, c, d = graphs3
    stream = [a, b, d, a, c, a, d]
    seen = _counting(
        monkeypatch, "classify_components", classify_components, fail_on=(a, d), error=ValueError
    )
    got = oracle.classification_failures(stream)
    assert seen == [a, b, d, c]
    la, ld = (f"classification failed: {graph_to_json(g)}: planted" for g in (a, d))
    assert got == [la, ld, la, la, ld]
    assert got == _unmemoised(oracle.classification_failures, stream)


def test_empty_items_at_each_node_count_are_kept_apart(monkeypatch):
    # every empty graph has slot mask 0: the node count must scope the key
    empties = [empty_graph(n) for n in (1, 2, 3)]
    pairs = [(e, e) for e in empties]
    seen = _counting(monkeypatch, "verify_quotient_theorem", verify_quotient_theorem, fail_on=pairs)
    assert oracle.pair_failures(pairs + pairs) == [
        f"quotient theorem fails: {_label(e, e)}" for e in empties + empties
    ]
    assert seen == pairs
    seen = _counting(
        monkeypatch, "classify_components", classify_components, fail_on=empties, error=ValueError
    )
    assert oracle.classification_failures(empties) == [
        f"classification failed: {graph_to_json(e)}: planted" for e in empties
    ]
    assert seen == empties


def test_palette_twins_are_kept_apart(monkeypatch, pairs3):
    # a trichromatic graph without blue loops has its bichromatic twin's mask
    g, gp = pairs3[2]
    g3, gp3 = (ColouredGraph(x.n, x.edges, TRICHROMATIC) for x in (g, gp))
    assert (slot_mask(g), slot_mask(gp)) == (slot_mask(g3), slot_mask(gp3))
    # with a shift of only n^2 + n, a blue loop in gp would collide with g's bit 0
    low, blue = graph_from_slot_mask(1, 1, TRICHROMATIC), graph_from_slot_mask(1, 4, TRICHROMATIC)
    none = empty_graph(1, TRICHROMATIC)
    pairs = [(g, gp), (g3, gp3), (g, gp3), (g3, gp), (low, none), (none, blue)]
    seen = _counting(monkeypatch, "verify_quotient_theorem", verify_quotient_theorem, fail_on=pairs)
    assert oracle.pair_failures(pairs) == [f"quotient theorem fails: {_label(*p)}" for p in pairs]
    assert seen == pairs
    graphs = [g, g3]
    seen = _counting(
        monkeypatch, "classify_components", classify_components, fail_on=graphs, error=ValueError
    )
    assert oracle.classification_failures(graphs) == [
        f"classification failed: {graph_to_json(x)}: planted" for x in graphs
    ]
    assert seen == graphs


def test_pair_failures_lets_checked_graphs_die():
    # the memo keys are ints: once the crystal memos evict a pair's graphs,
    # nothing the suite holds keeps them alive
    refs = []
    early_alive = []

    def distinct_pairs(count):
        rng = random.Random(4)
        keys = set()
        while len(refs) < count:
            g, gp = oracle.random_nested_pair(4, rng)
            key = (slot_mask(g), slot_mask(gp))
            if key in keys:
                continue
            keys.add(key)
            refs.append((weakref.ref(g), weakref.ref(gp)))
            if len(refs) == count:
                gc.collect()
                early_alive.extend(r() is not None for pair in refs[:10] for r in pair)
            yield g, gp

    assert oracle.pair_failures(distinct_pairs(100)) == []
    assert early_alive == [False] * 20
