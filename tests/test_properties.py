"""Properties over drawn graphs and nested pairs, next to the seeded sweeps.

Hypothesis shrinks a failing draw to a small graph or pair, which the seeded
sweeps in the other test files do not.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from crystallograph.arrange import verify_projectification_compatibility
from crystallograph.crystal import all_edge_slots, graph_from_slot_mask
from crystallograph.graphs import BICHROMATIC, TRICHROMATIC, graph_from_json, graph_to_json
from crystallograph.oracle import random_nested_pair
from crystallograph.quotient import verify_quotient_theorem

# Deterministic: the same examples on every run, and no example database.
derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def slot_mask_graphs(draw):
    """Any graph on n <= 5 nodes, either palette, as a slot mask."""
    palette = draw(st.sampled_from([BICHROMATIC, TRICHROMATIC]))
    n = draw(st.integers(0, 5))
    mask = draw(st.integers(0, (1 << len(all_edge_slots(n, palette))) - 1))
    return graph_from_slot_mask(n, mask, palette)


@st.composite
def nested_pairs(draw):
    """A nested crystallograph pair on 2..5 nodes, gp in classical normal form."""
    n = draw(st.integers(2, 5))
    return random_nested_pair(n, draw(st.randoms(use_true_random=False)))


@derandomized
@given(slot_mask_graphs())
def test_json_round_trip(g):
    text = graph_to_json(g)
    assert graph_from_json(text) == g
    assert graph_to_json(graph_from_json(text)) == text


@derandomized
@given(nested_pairs())
def test_quotient_theorem_on_drawn_pairs(pair):
    assert verify_quotient_theorem(*pair)


@derandomized
@given(nested_pairs())
def test_projectification_commutes_with_quotients_on_drawn_pairs(pair):
    assert verify_projectification_compatibility(*pair)
