"""Exact rational linear algebra, enough for kernels and ranks.

Results are Fractions; the work inside runs on Python ints.  A matrix is
first scaled by the lcm of its entries' denominators (`clear_denominators`),
elimination is fraction-free: it cross-multiplies integer rows and divides
each updated row by its gcd, so entries stay small, and only the final rows
become Fractions.
Deterministic throughout: pivots are chosen leftmost-first, rows are reduced
to leading coefficient 1.  Inputs are sequences of equal-length vectors whose
entries are ints or Fractions (anything `Fraction()` accepts).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

RationalVector = tuple[Fraction, ...]
RationalMatrix = tuple[RationalVector, ...]


def clear_denominators(rows: Iterable[Sequence[int | Fraction]]) -> tuple[list[list[int]], int]:
    """(int_rows, den) with rows == int_rows / den entry by entry.

    den is the positive lcm of the entries' denominators; a ragged matrix
    raises ValueError.
    """
    exact = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
    widths = {len(r) for r in exact}
    if len(widths) > 1:
        raise ValueError(f"ragged matrix: row widths {sorted(widths)}")
    # A list, not a generator: unpacking a generator grows its argument tuple
    # by resizing, and each one then parks on CPython's tuple free list (up to
    # 2000 per size), which raised the peak RSS of `verify --nodes 4` by
    # about 0.3 MB.
    den = lcm(*[x.denominator for row in exact for x in row])
    return [[x.numerator * (den // x.denominator) for x in row] for row in exact], den


def rref(rows: Iterable[Sequence[int | Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    m, _ = clear_denominators(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        lead = top[c]
        # a row that becomes zero is dropped: it can give no later pivot.
        # Rows above r keep their own pivot entries, so only rows below go.
        kept = []
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                row = [x * lead - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                if not g:
                    continue
                if g > 1:
                    row = [x // g for x in row]
            kept.append(row)
        m = kept
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[Fraction(x, m[i][c]) for x in m[i]] for i, c in enumerate(pivots)], pivots


def rank(rows: Iterable[Sequence[int | Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace_basis(rows: Iterable[Sequence[int | Fraction]], ncols: int) -> list[RationalVector]:
    """Basis of {x : r.x = 0 for every row r}, one vector per free column.

    Each basis vector carries 1 at its free column and the back-substituted
    pivot entries elsewhere; empty input yields the standard basis.
    """
    rows = list(rows)
    widths = {len(r) for r in rows} - {ncols}
    if widths:
        raise ValueError(f"row widths {sorted(widths)} differ from ncols={ncols}")
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[RationalVector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


def span_equal(
    rows_a: Iterable[Sequence[int | Fraction]],
    rows_b: Iterable[Sequence[int | Fraction]],
) -> bool:
    """Whether two families of vectors span the same subspace."""
    ra, pa = rref(rows_a)
    rb, pb = rref(rows_b)
    return ra == rb and pa == pb


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    ia, da = clear_denominators(a)
    ib, db = clear_denominators(b)
    if ia and len(ia[0]) != len(ib):
        raise ValueError(f"shape mismatch: {len(ia[0])} columns times {len(ib)} rows")
    den = da * db
    cols = list(zip(*ib))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), den) for col in cols) for row in ia)
