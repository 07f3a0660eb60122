"""The vector evaluator against its per-mask references.

`bijection_sweep` and `enumerate_crystallographs` read both sides of the
bijection through one evaluator, `crystal.closed_slices`, on the slot vectors
of `crystal.mask_slices` and `transposed_slices`.  A fault there would move both sides at once, so
it is checked here against `closed` and `LineTables.is_subsystem`, one mask
at a time.
"""

from __future__ import annotations

import random

import pytest

from crystallograph import crystal
from crystallograph.crystal import (
    CRYSTAL_PROPAGATING,
    QUASI_PROPAGATING,
    closed,
    closed_slices,
    closure_rules,
    mask_slices,
    slot_mask,
    transposed_slices,
)
from crystallograph.oracle import line_tables, random_crystallograph
from crystallograph.rootsys import reflect


def _references(n: int):
    """(name, rules, per-mask reference) for each rule set on n nodes."""
    tables = line_tables(n)
    quasi = closure_rules(n, QUASI_PROPAGATING)
    full = closure_rules(n, CRYSTAL_PROPAGATING)
    return [
        ("quasi", quasi, lambda mask: closed(mask, quasi)),
        ("crystal", full, lambda mask: closed(mask, full)),
        ("roots", tables.rules, tables.is_subsystem),
    ]


def _vector(masks, accepts) -> int:
    return sum(1 << k for k, mask in enumerate(masks) if accepts(mask))


def _check_slices(n: int, slices) -> dict[str, int]:
    """Compare every slice's accept vectors with the references; count accepts."""
    accepted = dict.fromkeys(("quasi", "crystal", "roots"), 0)
    for masks, vectors, full in slices:
        for name, rules, reference in _references(n):
            got = closed_slices(vectors, full, rules)
            assert got == _vector(masks, reference), (n, name)
            accepted[name] += got.bit_count()
    return accepted


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_slices_match_the_per_mask_references_exhaustively(n):
    accepted = _check_slices(n, mask_slices(n * n + n))
    assert accepted == {
        "quasi": [1, 4, 26, 204][n],
        "crystal": [1, 4, 22, 144][n],
        "roots": [1, 4, 22, 144][n],
    }


@pytest.mark.parametrize("n", [4, 5, 6])
def test_slices_match_on_seeded_subsystems_and_their_neighbours(n):
    # uniform draws are almost never closed at n >= 5, so the masks here are
    # reflection closures of random sub-masks of crystallographs, each with
    # every mask one bit away
    tables = line_tables(n)
    rng = random.Random(9000 + n)
    closures = [
        tables.closure(slot_mask(random_crystallograph(n, rng)) & rng.getrandbits(tables.count))
        for _ in range(2000)
    ]
    masks = [m ^ flip for m in closures for flip in (0, *(1 << s for s in range(tables.count)))]
    accepted = _check_slices(n, transposed_slices(tables.count, masks))
    assert accepted["roots"] == accepted["crystal"] >= len(closures)
    assert accepted["quasi"] > accepted["crystal"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_rules_alone_reproduce_is_subsystem(n):
    tables = line_tables(n)
    for mask in range(1 << tables.count):
        assert closed(mask, tables.rules) == tables.is_subsystem(mask)


def test_root_rules_match_their_statement():
    # where a pair of lines forces two lines, each is implied by the other
    # rules at n <= 4 (dropping either leaves every accept vector as it was),
    # so only the table itself can show that one is missing: rebuild it from
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


@pytest.mark.parametrize("bits", [0, 1, 3])
def test_slices_cover_every_mask_in_order_at_any_width(monkeypatch, bits):
    # with narrow slices most slots are high ones, constant over a slice
    monkeypatch.setattr(crystal, "_SLICE_BITS", bits)
    nslots = 6
    seen = []
    for masks, vectors, full in mask_slices(nslots):
        assert full == (1 << len(masks)) - 1 == (1 << (1 << min(bits, nslots))) - 1
        for k, mask in enumerate(masks):
            assert sum((vectors[s] >> k & 1) << s for s in range(nslots)) == mask
        seen += masks
    assert seen == list(range(1 << nslots))


def test_full_width_slices_decode_to_their_masks():
    # at n = 4 the slices hold 2^14 of the 2^20 masks, so the six high slots
    # are constant over each; spot-check each slice's ends and a few inside
    nslots, seen, rng = 20, 0, random.Random(4)
    for masks, vectors, full in mask_slices(nslots):
        assert masks[0] == seen and full == (1 << len(masks)) - 1
        seen += len(masks)
        for k in (0, 1, len(masks) - 1, *rng.sample(range(len(masks)), 5)):
            assert sum((vectors[s] >> k & 1) << s for s in range(nslots)) == masks[k]
    assert seen == 1 << nslots


def test_given_masks_are_transposed_in_runs(monkeypatch):
    monkeypatch.setattr(crystal, "_SLICE_BITS", 2)
    rng = random.Random(5)
    given = [rng.getrandbits(12) for _ in range(11)]
    runs = list(transposed_slices(12, given))
    assert [len(masks) for masks, _, _ in runs] == [4, 4, 3]
    assert [m for masks, _, _ in runs for m in masks] == given
    for masks, vectors, full in runs:
        assert full == (1 << len(masks)) - 1
        for k, mask in enumerate(masks):
            assert sum((vectors[s] >> k & 1) << s for s in range(12)) == mask
