"""Exact linear algebra over the rationals.

Row reduction, rank, null spaces, unique solves, and an integer determinant.
``rref`` clears each row to integers once (``integer_vector``), cross-multiplies
and divides each new row by its gcd; ``det_bareiss`` is Bareiss's fraction-free
elimination (Math. Comp. 1968). Rows may hold anything ``Fraction`` accepts,
floats read exactly; ``dot`` takes ints and Fractions. Nothing here rounds.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]


def to_vec(xs: Sequence) -> Vec:
    return tuple(Fraction(x) for x in xs)


def dot(u: Sequence, v: Sequence) -> int | Fraction:
    """The inner product sum u_k * v_k, in the arithmetic of the entries."""
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum(map(operator.mul, u, v))


def integer_vector(xs: Sequence) -> tuple[list[int], int]:
    """Integers n_k and a denominator D > 0 with n_k / D == xs[k]."""
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    den = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs], den


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns the nonzero reduced rows and the list of pivot column indices.
    Works on rows of coprime integers and divides by the pivots at the end.
    """
    m = [integer_vector(row)[0] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top, p = m[r], m[r][c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                g = math.gcd(p, f)
                row = [(p // g) * a - (f // g) * b for a, b in zip(m[i], top)]
                h = math.gcd(*row)
                m[i] = [x // h for x in row] if h > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[Vec]:
    """Canonical basis of {x : rows @ x = 0}, free columns in ascending order."""
    reduced, pivots = rref(rows)
    basis: list[Vec] = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
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
    """Exact determinant of an integer matrix via fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    m = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
