"""Each exhaustive operation has one fixed limit, and at limit + 1 it raises
its own `ValueError` before it starts to work: the functions that do the work
are replaced by ones that fail the test if called."""

from __future__ import annotations

import pytest

from crystallograph import arrange, classical, crystal, oracle, rootsys
from crystallograph.graphs import arrangement_from_graph, projectify


def _no_work(*args, **kwargs):
    raise AssertionError("the limit was checked after the work began")


@pytest.fixture
def forbid_work(monkeypatch):
    for module, name in (
        (crystal, "closure_rules"),
        (crystal, "closed_masks"),
        (crystal, "_weyl_orbit_representatives"),
        (oracle, "line_tables"),
        (oracle, "closure_rules"),
        (oracle, "closed_masks"),
        (oracle, "enumerate_crystallographs"),
        (oracle, "bijection_sweep"),
        (rootsys, "weyl_group"),
    ):
        monkeypatch.setattr(module, name, _no_work)


def _q7_lines():
    return frozenset({(1, 0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0, 0)})


def _a7_arrangement():
    return arrangement_from_graph(projectify(classical.graph_a(7)))


CASES = {
    "enumerate-all": (lambda: next(crystal.enumerate_crystallographs(5, "all")),
                      "n=5 exceeds the enumeration limit 4"),
    "enumerate-quasi": (lambda: next(crystal.enumerate_crystallographs(5, "quasi")),
                        "n=5 exceeds the enumeration limit 4"),
    "up-to-weyl": (lambda: next(crystal.enumerate_crystallographs(6, "up_to_weyl")),
                   "n=6 exceeds the up_to_weyl limit 5"),
    "pairs": (lambda: next(oracle.nested_pairs_exhaustive(4)),
              "n=4 exceeds the exhaustive pair limit 3"),
    "verify": (lambda: oracle.verify_all(7), "n=7 exceeds the verification limit 6"),
    "weyl-equivalent": (lambda: rootsys.weyl_equivalent(_q7_lines(), _q7_lines()),
                        "n=7 exceeds the Weyl search limit 6"),
    "arrangements-equivalent": (
        lambda: arrange.arrangements_equivalent(_a7_arrangement(), _a7_arrangement(), 7),
        "n=7 exceeds the Weyl search limit 6",
    ),
}


def test_limits_are_fixed_constants():
    assert (crystal.SCAN_LIMIT, crystal.ORBIT_LIMIT) == (4, 5)
    assert (oracle.PAIR_LIMIT, oracle.VERIFY_LIMIT, rootsys.WEYL_LIMIT) == (3, 6, 6)


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_limit_raises_before_any_work(forbid_work, case):
    call, text = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text
