"""Every closed-mask family at n <= 3 against its per-mask references.

At n <= 3 the whole mask space, 2^(n^2+n) masks, is small enough to check
one mask at a time: each family `crystal.closed_masks` lists must be exactly
the masks `closed` accepts under the same table, and the root family exactly
the masks `LineTables.is_subsystem` accepts.  The rest of the enumerator's
tests are in `test_closed_masks.py`.
"""

from __future__ import annotations

from collections import Counter

import pytest

from crystallograph.crystal import (
    CRYSTAL_PROPAGATING,
    QUASI_PROPAGATING,
    closed,
    closed_masks,
    closure_rules,
)
from crystallograph.oracle import line_tables


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_slices_match_the_per_mask_references_exhaustively(n):
    tables = line_tables(n)
    every = range(1 << tables.count)
    families = {}
    for name, rules in (
        ("quasi", closure_rules(n, QUASI_PROPAGATING)),
        ("crystal", closure_rules(n, CRYSTAL_PROPAGATING)),
        ("roots", tables.rules),
    ):
        masks = list(closed_masks(rules))
        assert max(Counter(masks).values()) == 1, name
        families[name] = set(masks)
        assert families[name] == {mask for mask in every if closed(mask, rules)}, name
    assert families["roots"] == {mask for mask in every if tables.is_subsystem(mask)}
    assert {name: len(family) for name, family in families.items()} == {
        "quasi": [1, 4, 26, 204][n],
        "crystal": [1, 4, 22, 144][n],
        "roots": [1, 4, 22, 144][n],
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_rules_alone_reproduce_is_subsystem(n):
    tables = line_tables(n)
    for mask in range(1 << tables.count):
        assert closed(mask, tables.rules) == tables.is_subsystem(mask)
