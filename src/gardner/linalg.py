"""Exact linear algebra over the rationals.

Row reduction, rank, null spaces, unique solves, and an integer determinant, all from
one kernel: ``_eliminate`` runs Gauss-Jordan on integer rows with positive pivots and
touches only what changes, dividing a row by its content after a pivot other than 1.
``rref`` clears each row to integers once (``integer_vector``) and divides by the pivots
at the end; ``det_bareiss`` reads the kernel's determinant. ``exact`` is the package's
one scalar rule, and every reader, ``dot`` too, keeps it, so nothing rounds: a float is
the Fraction it equals and an infinity or a NaN a ValueError.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]
_ZERO = Fraction(0)  # the one zero entry of every rref and nullspace row


def dot(u: Sequence, v: Sequence) -> int | Fraction:
    """The exact inner product sum u_k * v_k: a float or overflowing sum is redone exactly."""
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    try:
        s = sum(map(operator.mul, u, v))
    except OverflowError:  # a float met an int or Fraction too large for a float
        s = 0.0
    return sum(map(operator.mul, exact(u), exact(v))) if type(s) is float else s


def exact(xs: Sequence) -> Sequence:
    """xs with each float read as the Fraction it equals (xs itself if none); inf, NaN raise."""
    if float not in map(type, xs):
        return xs
    try:
        return [Fraction(x) if type(x) is float else x for x in xs]
    except (OverflowError, ValueError):  # Fraction(inf) overflows; Fraction(nan) is a ValueError
        raise ValueError("a float entry is not finite (an infinity or a NaN)") from None


def integer_vector(xs: Sequence) -> tuple[list[int], int]:
    """Integers n_k and D > 0 with n_k / D == xs[k]; ints, Fractions and floats read exactly."""
    if all(type(x) is int for x in xs):
        return list(xs), 1
    ratios = [x.as_integer_ratio() for x in exact(xs)]
    den = math.lcm(*(b for _, b in ratios))
    return [a * (den // b) for a, b in ratios], den


def _eliminate(m: list[list[int]]) -> tuple[list[int], int]:
    """Gauss-Jordan on integer rows, in place, touching only what changes: each pivot p
    is made positive, a row with 0 in the pivot column is left as it is, and another row
    becomes row - f * pivot_row on the pivot row's nonzero columns at p = 1, and
    (p * row - f * pivot_row) / g, g its content, at any other p. The pivot rows come
    first. Returns the pivot columns and the determinant, sign * Πpivots * Πg / Πp."""
    if len({len(row) for row in m}) > 1:
        raise ValueError("rows have different lengths")
    pivots: list[int] = []
    num = den = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            num = -num
        if m[r][c] < 0:  # swaps and negations set the determinant's sign
            m[r], num = [-b for b in m[r]], -num
        top, p = m[r], m[r][c]
        cols = [k for k, b in enumerate(top) if b]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r and p == 1:  # in place: every row is the kernel's own list
                for k in cols:
                    row[k] -= f * top[k]
            elif f and i != r:
                new = [p * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*new) or 1  # a row can become all zeros
                m[i], num, den = [x // g for x in new], num * g, den * p
        pivots.append(c)
    return pivots, num * math.prod(row[c] for row, c in zip(m, pivots)) // den


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form: the nonzero reduced rows and the pivot columns."""
    m = [integer_vector(row)[0] for row in rows]
    pivots, _ = _eliminate(m)
    reduced = [[Fraction(x, row[c]) if x else _ZERO for x in row] for row, c in zip(m, pivots)]
    return reduced, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Basis of {x : rows @ x = 0} in reduced row echelon form: the rows are
    reduced with their columns reversed, so the vector of free column f is 1
    at f and 0 at every other free column and before f."""
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length differs from ncols")
    reduced, pivots = rref([row[::-1] for row in rows])
    solved = {ncols - 1 - c: row[::-1] for row, c in zip(reduced, pivots)}
    basis: list[Vec] = []
    for free in (c for c in range(ncols) if c not in solved):
        v = [_ZERO] * ncols
        v[free] = Fraction(1)
        for p, row in solved.items():
            v[p] = -row[free] if row[free] else _ZERO
        basis.append(tuple(v))
    return basis


def solve_unique(a_rows: Sequence[Sequence], b: Sequence) -> Vec | None:
    """Solve A x = b when A has full column rank.

    Returns None when the system is inconsistent; raises ValueError when the
    solution is not unique (column-rank deficiency).
    """
    if len(a_rows) != len(b):
        raise ValueError("system shape mismatch")
    ncols = len(a_rows[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    return tuple(row[-1] for row in reduced)  # the pivots are exactly 0 .. ncols-1


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, 0 below full rank (a name kept for the API)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if not all(isinstance(x, int) for row in rows for x in row):
        raise TypeError("det_bareiss needs int entries")
    pivots, det = _eliminate([list(row) for row in rows])
    return det if len(pivots) == n else 0
