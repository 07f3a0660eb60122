"""The closed-set enumerator against its per-mask references.

`bijection_sweep`, `enumerate_crystallographs` and `nested_pairs_exhaustive`
list both sides of the bijection through one enumerator,
`crystal.closed_masks`.  A fault there would move both sides at once, so it
is checked here against `closed`, one mask at a time, and its counts
against the closed forms; `test_slices.py` checks every family at n <= 3
over the whole mask space, the root family also against
`LineTables.is_subsystem`.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from crystallograph.crystal import (
    CRYSTAL_PROPAGATING,
    QUASI_PROPAGATING,
    closed,
    closed_masks,
    closure_rules,
    enumerate_crystallographs,
    slot_mask,
)
from crystallograph.oracle import count_crystallographs, count_quasi_crystallographs, line_tables
from crystallograph.rootsys import reflect


def _listed_once(rules, within=None) -> set[int]:
    masks = list(closed_masks(rules, within))
    assert max(Counter(masks).values()) == 1
    return set(masks)


def test_graph_families_match_closed_on_every_mask_at_4():
    crystal = closure_rules(4, CRYSTAL_PROPAGATING)
    quasi = closure_rules(4, QUASI_PROPAGATING)
    crystal_family, quasi_family = _listed_once(crystal), _listed_once(quasi)
    for mask in range(1 << 20):
        assert closed(mask, crystal) == (mask in crystal_family)
        assert closed(mask, quasi) == (mask in quasi_family)
    assert (len(crystal_family), len(quasi_family)) == (1080, 1876)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_masks_within_a_mask_are_its_closed_sub_masks(n):
    # within every crystallograph, as the pair search uses it, and at n <= 2
    # within every mask, closed or not
    rules = closure_rules(n, CRYSTAL_PROPAGATING)
    withins = [slot_mask(g) for g in enumerate_crystallographs(n, "all")]
    if n <= 2:
        withins += range(1 << (n * n + n))
    for within in withins:
        subs = [mask for mask in range(within + 1) if mask & ~within == 0]
        assert _listed_once(rules, within) == {mask for mask in subs if closed(mask, rules)}, within


def test_closed_masks_on_seeded_random_tables():
    # the graph and root tables are redundant enough to hide a closure that
    # misses an implication; random tables in the same format are not
    rng = random.Random(26)
    nslots = 8
    for _ in range(300):
        rules = tuple(
            tuple((1 << t, rng.getrandbits(nslots)) for t in range(s) if rng.random() < 0.3)
            for s in range(nslots)
        )
        within = rng.choice((None, rng.getrandbits(nslots)))
        inside = [m for m in range(1 << nslots) if within is None or m & ~within == 0]
        assert _listed_once(rules, within) == {m for m in inside if closed(m, rules)}, rules


@pytest.mark.parametrize("n", [5, 6])
def test_bijection_families_agree_beyond_the_scan_limit(n):
    # verify samples the bijection at n = 5 and 6, where a uniform draw is
    # almost never closed; the two families themselves are compared here
    crystal = set(closed_masks(closure_rules(n, CRYSTAL_PROPAGATING)))
    assert len(crystal) == count_crystallographs(n)
    assert crystal == set(closed_masks(line_tables(n).rules))
    if n == 5:
        quasi = sum(1 for _ in closed_masks(closure_rules(n, QUASI_PROPAGATING)))
        assert quasi == count_quasi_crystallographs(n)


def test_root_rules_match_their_statement():
    # where a pair of lines forces two lines, each is implied by the other
    # rules at n <= 4 (dropping either leaves every family as it was), so
    # only the table itself can show that one is missing: rebuild it from
    # `reflect` on the line representatives, each pair b < a listed under a
    def line(alpha):
        return alpha if next(c for c in alpha if c) > 0 else tuple(-c for c in alpha)

    counts = []
    for n in range(7):
        tables = line_tables(n)
        index = {rep: i for i, rep in enumerate(tables.reps)}
        expected = []
        for a, alpha in enumerate(tables.reps):
            entry = []
            for b, beta in enumerate(tables.reps[:a]):
                forced = {index[line(reflect(alpha, beta))], index[line(reflect(beta, alpha))]} - {a, b}
                if forced:
                    entry.append((1 << b, sum(1 << c for c in forced)))
            expected.append(tuple(entry))
        assert tables.rules == tuple(expected), n
        counts.append((sum(map(len, expected)), sum(r.bit_count() for e in expected for _, r in e)))
    assert counts == [(0, 0), (0, 0), (8, 16), (36, 60), (96, 144), (200, 280), (360, 480)]
