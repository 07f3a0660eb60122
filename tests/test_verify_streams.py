"""verify_all feeds its graph suites without holding a list of graphs.

Above SCAN_LIMIT the classification and kernel suites each read their own
stream of the seeded draws; at n <= SCAN_LIMIT the swept list dies before
the pair suite starts.  The suites must see what a list of every draw
would have given them, in the same order.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from crystallograph import crystal, oracle
from crystallograph.crystal import slot_mask
from crystallograph.graphs import graph_to_json

GRAPH_CHECKS = ("_classification_lines", "_kernel_lines")


def _draw_list(n, samples, seed=oracle.RNG_DEFAULT_SEED):
    """The graphs of the classification and kernel suites above SCAN_LIMIT, as one list."""
    rng = random.Random(seed + 1)
    return [oracle.random_crystallograph(n, rng) for _ in range(min(samples, 2000))]


@pytest.mark.parametrize("n, samples", [(5, 40), (6, 30)])
def test_each_graph_suite_sees_the_seeded_draws_in_order(monkeypatch, n, samples):
    seen = {}
    for name in GRAPH_CHECKS:
        check, got = getattr(oracle, name), []
        seen[name] = got

        def recording(g, check=check, got=got):
            got.append(g)
            return check(g)

        monkeypatch.setattr(oracle, name, recording)
    oracle.verify_all(n, samples=samples)
    # a repeated draw is replayed, not checked again
    first_draws = list(dict.fromkeys(_draw_list(n, samples)))
    assert seen == {name: first_draws for name in GRAPH_CHECKS}


@pytest.mark.parametrize("n, samples", [(5, 40), (6, 30)])
def test_planted_failures_match_the_list_fed_suites(monkeypatch, n, samples):
    for name in GRAPH_CHECKS:

        def planted(g, name=name):
            return [f"planted {name}: {graph_to_json(g)}"] if slot_mask(g) % 3 == 0 else []

        monkeypatch.setattr(oracle, name, planted)
    draws = _draw_list(n, samples)
    expected = oracle.classification_failures(draws) + oracle.kernel_failures(draws)
    assert expected
    _, failures = oracle.verify_all(n, samples=samples)
    assert failures == expected


def _alive_when_pairs_start(monkeypatch, refs):
    """Patch pair_failures to record, on entry, how many graphs were recorded
    and how many of them are still alive."""
    counts = []
    pair_failures = oracle.pair_failures

    def counting(pairs):
        gc.collect()
        counts.append((len(refs), sum(r() is not None for r in refs)))
        return pair_failures(pairs)

    monkeypatch.setattr(oracle, "pair_failures", counting)
    return counts


def test_sampled_draws_die_with_their_suite(monkeypatch):
    # the memos read a draw's slot mask, so none holds a draw once its suite is done
    refs = []
    draw = oracle.random_crystallograph

    def recorded(n, rng):
        g = draw(n, rng)
        refs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(oracle, "random_crystallograph", recorded)
    counts = _alive_when_pairs_start(monkeypatch, refs)
    oracle.verify_all(5, samples=40)
    [(drawn, alive)] = counts
    assert drawn > 2 * crystal._MEMO_SIZE
    assert alive == 0


def test_swept_list_dies_before_the_pair_suite(monkeypatch):
    refs = []
    sweep = oracle.bijection_sweep

    def recorded(*args, **kwargs):
        result = sweep(*args, **kwargs)
        refs.extend(weakref.ref(g) for g in result[1])
        return result

    monkeypatch.setattr(oracle, "bijection_sweep", recorded)
    counts = _alive_when_pairs_start(monkeypatch, refs)
    oracle.verify_all(3, samples=50)
    [(swept, alive)] = counts
    assert swept == oracle.count_crystallographs(3)
    assert alive == 0
