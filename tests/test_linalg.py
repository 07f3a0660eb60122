"""Exact elimination helpers."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystallograph.linalg import clear_denominators, mat_mul, nullspace_basis, rank, rref, span_equal
from crystallograph.rootsys import roots_a, roots_b

# Deterministic: the same examples on every run, and no example database.
exact_examples = settings(derandomize=True, database=None, deadline=None, max_examples=150)


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


def test_nullspace_basis_rejects_width_mismatch():
    with pytest.raises(ValueError, match="ncols"):
        nullspace_basis([[1, 2, 3]], 2)
    with pytest.raises(ValueError, match="ncols"):
        nullspace_basis([[0, 0]], 3)


def test_span_equal():
    assert span_equal([[1, 0], [0, 1]], [[1, 1], [1, -1]])
    assert not span_equal([[1, 0]], [[0, 1]])
    assert span_equal([], [[0, 0]])


def test_mat_mul():
    a = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    b = ((Fraction(1), Fraction(0)), (Fraction(3), Fraction(1)))
    assert mat_mul(a, b) == ((Fraction(7), Fraction(2)), (Fraction(3), Fraction(1)))


def test_mat_mul_rejects_bad_shapes():
    with pytest.raises(ValueError, match="ragged"):
        mat_mul(((1, 2), (3,)), ((1,), (1,)))
    with pytest.raises(ValueError, match="ragged"):
        mat_mul(((1,), (1,)), ((1, 2), (3,)))
    with pytest.raises(ValueError, match="shape"):
        mat_mul(((1, 2),), ())
    with pytest.raises(ValueError, match="shape"):
        mat_mul(((1, 2),), ((1,),))


def test_clear_denominators_examples():
    assert clear_denominators([]) == ([], 1)
    assert clear_denominators([[1, -2], [0, 3]]) == ([[1, -2], [0, 3]], 1)
    assert clear_denominators([[Fraction(1, 2), Fraction(-2, 3)], [1, 0]]) == ([[3, -4], [6, 0]], 6)
    # anything Fraction() accepts still works, as before
    assert clear_denominators([["1/2", 0.25, 3]]) == ([[2, 1, 12]], 4)
    with pytest.raises(ValueError, match="ragged"):
        clear_denominators([[1, 2], [1]])


# ---------------------------------------------------------------------------
# equivalence with the Fraction Gauss-Jordan that the integer kernels replaced


def reference_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    pivots, r = [], 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reference_nullspace(rows, ncols):
    reduced, pivots = reference_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


def reference_mat_mul(a, b):
    return tuple(
        tuple(sum((Fraction(x) * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(len(b[0])))
        for row in a
    )


def typed(obj):
    """Value and type of every entry and container, for exact comparison."""
    if isinstance(obj, (list, tuple)):
        return type(obj), [typed(x) for x in obj]
    return type(obj), obj


entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.just(0),
)


@st.composite
def matrices(draw, ncols=None, max_rows=7):
    """Mixed int/Fraction rows, with zero rows, duplicate rows and zero columns."""
    if ncols is None:
        ncols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if ncols and draw(st.booleans()):
        zero = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero] = 0
    return rows


@exact_examples
@given(matrices())
@example([])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 1, Fraction(1, 2)], [0, 2, 1], [0, -3, Fraction(5, 3)], [0, 0, 0], [0, 1, Fraction(1, 2)]])
def test_rref_rank_nullspace_match_reference(rows):
    ncols = len(rows[0]) if rows else 3
    reduced, pivots = reference_rref(rows)
    assert typed(rref(rows)) == typed((reduced, pivots))
    assert rank(rows) == len(pivots)
    assert typed(nullspace_basis(rows, ncols)) == typed(reference_nullspace(rows, ncols))


@exact_examples
@given(st.data())
def test_span_equal_matches_reference(data):
    a = data.draw(matrices())
    ncols = len(a[0]) if a else data.draw(st.integers(0, 4))
    if a and data.draw(st.booleans()):
        # combinations of a's rows: often the same span, sometimes a smaller one
        coeffs = data.draw(st.lists(st.lists(entries, min_size=len(a), max_size=len(a)), max_size=6))
        b = [[sum(Fraction(c) * row[j] for c, row in zip(cs, a)) for j in range(ncols)] for cs in coeffs]
    else:
        b = data.draw(matrices(ncols=ncols))
    for other in (b, a + b):
        assert span_equal(a, other) == (reference_rref(a) == reference_rref(other))


@exact_examples
@given(st.data())
def test_mat_mul_matches_reference(data):
    k = data.draw(st.integers(1, 4))
    a = data.draw(matrices(ncols=k, max_rows=4))
    c = data.draw(st.integers(1, 4))
    b = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=k, max_size=k))
    assert typed(mat_mul(a, b)) == typed(reference_mat_mul(a, b))


@exact_examples
@given(matrices())
def test_clear_denominators_round_trip(rows):
    ints, den = clear_denominators(rows)
    assert den == lcm(*(Fraction(x).denominator for row in rows for x in row))
    assert all(type(x) is int for row in ints for x in row)
    assert [[Fraction(x, den) for x in row] for row in ints] == [[Fraction(x) for x in row] for row in rows]
