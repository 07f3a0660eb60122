"""Brute-force references shared by the tests."""

from __future__ import annotations

from crystallograph.crystal import graph_from_slot_mask


def all_bichromatic_graphs(n: int):
    """Every bichromatic graph on n nodes (2^(n^2+n) of them), mask order."""
    for mask in range(1 << (n * n + n)):
        yield graph_from_slot_mask(n, mask)
