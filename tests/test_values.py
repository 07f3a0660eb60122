"""Value semantics of the package's record types: each prints, hashes and
refuses assignment as it always has, and each check keeps its message.

The tuple records hash like their field tuple, so sets of them iterate in
the same order and every JSON, DOT and CLI output stays byte-identical."""

from __future__ import annotations

import copy
import pickle
import weakref
from fractions import Fraction

import pytest

from crystallograph.crystal import Component, ComponentReport
from crystallograph.graphs import (
    BICHROMATIC,
    BLUE,
    RED,
    TRICHROMATIC,
    ColouredGraph,
    Hyperplane,
    loop,
    straight,
)
from crystallograph.oracle import EnumerationSummary
from crystallograph.quotient import KernelBasis, RestrictedSystem
from crystallograph.rootsys import SignedPermutation

HALF = Fraction(1, 2)

# (value, its repr, its field tuple)
RECORDS = [
    (Hyperplane((1, 0)), "Hyperplane(normal=(1, 0))", ((1, 0),)),
    (Component((1, 2), "A"), "Component(nodes=(1, 2), type='A', detail=())", ((1, 2), "A", ())),
    (
        Component((1, 2, 3), "Bipartite", ((1,), (2, 3))),
        "Component(nodes=(1, 2, 3), type='Bipartite', detail=((1,), (2, 3)))",
        ((1, 2, 3), "Bipartite", ((1,), (2, 3))),
    ),
    (
        ComponentReport((Component((1,), "C"),)),
        "ComponentReport(components=(Component(nodes=(1,), type='C', detail=()),))",
        ((Component((1,), "C"),),),
    ),
    (
        KernelBasis(((1, 2),), ((HALF, HALF),)),
        "KernelBasis(parts=((1, 2),), vectors=((Fraction(1, 2), Fraction(1, 2)),))",
        (((1, 2),), ((HALF, HALF),)),
    ),
    (
        RestrictedSystem(1, frozenset({(1,), (-1,)})),
        "RestrictedSystem(dimension=1, covectors=frozenset({(1,), (-1,)}))",
        (1, frozenset({(1,), (-1,)})),
    ),
    (
        SignedPermutation((1, 0), (1, -1)),
        "SignedPermutation(perm=(1, 0), signs=(1, -1))",
        ((1, 0), (1, -1)),
    ),
    (
        EnumerationSummary(1, 4, 3, 3, 2, 0.5),
        "EnumerationSummary(n=1, total_graphs=4, crystallographs=3, quasi_crystallographs=3, orbits=2, runtime=0.5)",
        (1, 4, 3, 3, 2, 0.5),
    ),
]


@pytest.mark.parametrize("value, text, fields", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_repr_hash_and_immutability(value, text, fields):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)
    first_field = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(value, first_field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RestrictedSystem(2, frozenset({(1,)})), "covector (1,) has the wrong length"),
        (lambda: RestrictedSystem(1, frozenset({(3,)})), "restricted covector (3,) is not a BC shape"),
        (lambda: SignedPermutation((0, 0), (1, 1)), "not a permutation of 0..1: (0, 0)"),
        (lambda: SignedPermutation((0, 1), (1,)), "signs must be +-1 of length 2: (1,)"),
        (lambda: SignedPermutation((0, 1), (1, 2)), "signs must be +-1 of length 2: (1, 2)"),
        (lambda: Hyperplane((0, 0)), "the zero covector has no kernel hyperplane"),
        (lambda: ColouredGraph(-1, frozenset()), "node count must be >= 0"),
        (lambda: ColouredGraph(1, frozenset(), "quad"), "unknown palette: 'quad'"),
        (
            lambda: ColouredGraph(1, frozenset([loop(2, RED)])),
            "edge Edge(ends=(2,), colour='R') out of node range 1..1",
        ),
        (
            lambda: ColouredGraph(1, frozenset([loop(1, BLUE)])),
            "blue is only legal on trichromatic loops: Edge(ends=(1,), colour='B')",
        ),
        (
            lambda: ColouredGraph(2, frozenset([straight(1, 2, BLUE)]), TRICHROMATIC),
            "blue is only legal on trichromatic loops: Edge(ends=(1, 2), colour='B')",
        ),
    ],
)
def test_check_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_component_detail_defaults_to_empty():
    assert Component((1,), "C").detail == ()
    assert Component((1, 2), "A")._replace(type="B") == Component((1, 2), "B")


def test_summary_json_keys_keep_field_order():
    assert list(EnumerationSummary(1, 4, 3, 3, 2, 0.5)._asdict()) == [
        "n",
        "total_graphs",
        "crystallographs",
        "quasi_crystallographs",
        "orbits",
        "runtime",
    ]


def test_hyperplane_normal_and_order():
    assert Hyperplane((-2, 0)) == Hyperplane((1, 0))
    planes = [Hyperplane(v) for v in ((1, 1), (1, 0), (-1, 1), (0, 1), (0, 2), (2, -2))]
    assert sorted(planes) == [
        Hyperplane((0, 1)),
        Hyperplane((0, 1)),
        Hyperplane((1, -1)),
        Hyperplane((1, -1)),
        Hyperplane((1, 0)),
        Hyperplane((1, 1)),
    ]


def test_graph_value_semantics():
    e = frozenset([straight(1, 2, RED)])
    g = ColouredGraph(2, e)
    assert repr(g) == "ColouredGraph(n=2, edges=frozenset({Edge(ends=(1, 2), colour='R')}), palette='bi')"
    assert hash(g) == hash((2, e, BICHROMATIC))
    # a graph is not its field tuple, unlike the tuple records
    assert g != (2, e, BICHROMATIC)
    assert (2, e, BICHROMATIC) != g
    assert g == ColouredGraph(2, e, BICHROMATIC)
    assert g != ColouredGraph(2, e, TRICHROMATIC)
    assert g != ColouredGraph(3, e)
    # built from a mutable set, it is its frozen twin
    twin = ColouredGraph(2, set(e))
    assert twin == g and hash(twin) == hash(g)
    for name in ("n", "edges", "palette", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(AttributeError):
        del g.n
    assert g.n == 2 and g.edges == e and g.palette == BICHROMATIC
    assert weakref.ref(g)() is g
    # perfbench traces construction by patching the class's own __init__
    assert "__init__" in ColouredGraph.__dict__
    assert copy.copy(g) == g
    assert pickle.loads(pickle.dumps(g)) == g
