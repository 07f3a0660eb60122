"""Exact elimination helpers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from crystallograph.linalg import mat_mul, nullspace_basis, rank, rref, span_equal
from crystallograph.rootsys import roots_a, roots_b


def test_rref_identity_like():
    rows, pivots = rref([[2, 0], [0, 3]])
    assert rows == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert pivots == [0, 1]
    assert len(rows) == 2


def test_rref_rejects_ragged():
    with pytest.raises(ValueError):
        rref([[1, 2], [1]])


def test_rank():
    assert rank([]) == 0
    assert rank([[0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2


def test_nullspace_basis():
    basis = nullspace_basis([[1, -1, 0], [0, 1, -1]], 3)
    assert basis == [(Fraction(1), Fraction(1), Fraction(1))]
    assert nullspace_basis([], 2) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    # root sets: A_2 leaves the diagonal, B_2 spans the plane
    (v,) = nullspace_basis(sorted(roots_a(3)), 3)
    assert v[0] == v[1] == v[2] != 0
    assert nullspace_basis(sorted(roots_b(2)), 2) == []
    # basis vectors actually annihilate the rows
    rows = [[1, 2, 3, 4], [0, 1, 1, 0]]
    for v in nullspace_basis(rows, 4):
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0


def test_span_equal():
    assert span_equal([[1, 0], [0, 1]], [[1, 1], [1, -1]])
    assert not span_equal([[1, 0]], [[0, 1]])
    assert span_equal([], [[0, 0]])


def test_mat_mul():
    a = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    b = ((Fraction(1), Fraction(0)), (Fraction(3), Fraction(1)))
    assert mat_mul(a, b) == ((Fraction(7), Fraction(2)), (Fraction(3), Fraction(1)))
