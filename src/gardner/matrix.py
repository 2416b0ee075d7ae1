"""Constant-rook-sum boards over exact scalars.

A d-by-d nonnegative matrix A is a *G-matrix* of value N when every placement
of d nonthreatening rooks covers entries summing to N, i.e.

    A[1, s(1)] + A[2, s(2)] + ... + A[d, s(d)] = N   for every permutation s.

The secret behind such boards: they are exactly the addition tables
A[i, j] = mu_i + lambda_j of nonnegative row labels mu and column labels
lambda, and then N = sum(lambda) + sum(mu). The party trick is to pick 2d
labels summing to the requested N and write out their table. The functions
here verify the rook-sum property (over all d! placements in d*2^d steps, and
by an O(d^2) criterion), read the labels off a certified board's first row
and column in O(d), and generate boards.

Scalars are ints or ``fractions.Fraction``: the one scalar rule, ``linalg.exact``, reads
a float as the Fraction it equals and refuses inf and NaN; ``_labels`` reads labels once.
Every type is an immutable value, safe to share across threads: the integer
clear and the O(d^2) check a board keeps are deterministic, so a race only computes one twice.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Literal, Sequence, Union

from . import linalg

Scalar = Union[int, Fraction]

#: Largest side the d!-placement rook-sum check accepts by default: an input
#: limit, not a cost estimate (the check takes d*2^d steps).
FACTORIAL_GUARD = 9


class FactorialGuardError(ValueError):
    """Raised when a check over all d! placements would exceed the configured guard."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its candidate budget."""


@dataclass(frozen=True)
class SquareMatrix:
    """An immutable d-by-d matrix of exact scalars, 1-based accessors."""

    rows: tuple[tuple[Scalar, ...], ...]
    _checked = None  # is_g_matrix_fast's FastCheck once it ran; no annotation, so not a field

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        d = len(rows)
        if d == 0:
            raise ValueError("matrix must have side length >= 1")
        if any(len(r) != d for r in rows):
            raise ValueError("matrix is not square")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Scalar]]) -> "SquareMatrix":
        return cls(rows)

    @classmethod
    def zero(cls, d: int) -> "SquareMatrix":
        return cls(tuple((0,) * d for _ in range(d)))

    @classmethod
    def all_ones(cls, d: int) -> "SquareMatrix":
        """The all-ones matrix J."""
        return cls(tuple((1,) * d for _ in range(d)))

    @classmethod
    def identity(cls, d: int) -> "SquareMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def d(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry in row i, column j (1-based)."""
        if not (1 <= i <= self.d and 1 <= j <= self.d):
            raise IndexError(f"index ({i}, {j}) out of range for d={self.d}")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.rows[i - 1]

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j - 1] for r in self.rows)

    def flat(self) -> tuple[Scalar, ...]:
        """Entries in row-major order."""
        return tuple(x for r in self.rows for x in r)

    def total(self) -> Scalar:
        return sum(linalg.exact(self.flat()))

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for r in self.rows for x in r)

    @functools.cached_property
    def _cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        # int rows n and one denominator D with self = n / D; not a field, so == and hash skip it
        if all(type(x) is int for r in self.rows for x in r):
            return self.rows, 1
        nums, den = linalg.integer_vector(self.flat())
        return tuple(tuple(nums[k:k + self.d]) for k in range(0, len(nums), self.d)), den

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return SquareMatrix(tuple(tuple(a + b for a, b in zip(linalg.exact(ra), linalg.exact(rb)))
                                  for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self + other.scaled(-1)

    def scaled(self, c: Scalar) -> "SquareMatrix":
        c = linalg.exact((c,))[0]
        return SquareMatrix(tuple(tuple(x * c for x in linalg.exact(r)) for r in self.rows))

    def __str__(self) -> str:
        # min and max are entries, so w is at most the widest width. %ws pads but never cuts, so
        # w is the widest exactly when the text has d*d*(w+1) - 1 characters; else measure all.
        rows, d = self.rows, self.d
        w = max(len(str(min(map(min, rows)))), len(str(max(map(max, rows)))))
        fmt = " ".join([f"%{w}s"] * d)
        if len(text := "\n".join([fmt % r for r in rows])) == d * d * (w + 1) - 1:
            return text
        fmt = " ".join([f"%{max(len(str(x)) for r in rows for x in r)}s"] * d)
        return "\n".join([fmt % r for r in rows])


@dataclass(frozen=True)
class Witness:
    """A certificate that a matrix is not a G-matrix.

    ``quadruple`` is (i, j, k, l) with A[i,j] + A[k,l] != A[i,l] + A[k,j];
    ``sigma`` and ``sigma_prime`` are two rook placements (1-based image
    tuples, differing by one transposition) whose covered sums disagree.
    """

    quadruple: tuple[int, int, int, int]
    sigma: tuple[int, ...]
    sigma_prime: tuple[int, ...]
    sums: tuple[Scalar, Scalar]


@dataclass(frozen=True)
class FastCheck:
    """Result of the O(d^2) rook-sum check.

    Truthy iff the matrix is a G-matrix, in which case ``value`` holds the
    common rook-placement sum. On failure either ``witness`` (a violated
    2x2 exchange) or ``negative_entry`` explains why.
    """

    value: Scalar | None
    witness: Witness | None = None
    negative_entry: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class GMatrix:
    """A matrix certified to have constant rook-placement sums.

    Construction validates the certificate, so a ``GMatrix`` is always genuinely a
    G-matrix of the stated value, and ``value`` is the exact int or Fraction its check
    certified. ``compose`` and ``scale`` are certified by construction and skip the
    check: an addition table of nonnegative labels is a G-matrix of value sum(lambda) +
    sum(mu), and c > 0 times one of value N, read exactly (float boards too), is one of c*N.
    """

    matrix: SquareMatrix
    value: Scalar

    def __post_init__(self) -> None:
        check = is_g_matrix_fast(self.matrix)
        if check.negative_entry is not None:
            raise ValueError(f"negative entry at {check.negative_entry}")
        if not check:
            raise ValueError(
                f"rook sums are not constant; violated quadruple {check.witness.quadruple}")
        if check.value != self.value:
            raise ValueError(f"declared value {self.value} != actual {check.value}")
        object.__setattr__(self, "value", check.value)

    @classmethod
    def from_matrix(cls, m: SquareMatrix) -> "GMatrix":
        """Certify an arbitrary matrix; ValueError if it fails or reads an inf or NaN float."""
        return cls(m, permutation_sum(m, range(1, m.d + 1)))

    @classmethod
    def zero(cls, d: int) -> "GMatrix":
        return cls(SquareMatrix.zero(d), 0)

    @classmethod
    def _certified(cls, m: SquareMatrix, value: Scalar) -> "GMatrix":
        # For boards that are G-matrices of this value by construction only.
        g = object.__new__(cls)
        object.__setattr__(g, "matrix", m)
        object.__setattr__(g, "value", value)
        return g

    @property
    def d(self) -> int:
        return self.matrix.d


@dataclass(frozen=True)
class Labeling:
    """Column labels and row labels whose addition table is a G-matrix.

    ``canonical`` is true when the smallest row label is zero; canonical
    labelings of total N are in bijection with integer G-matrices of value N.
    """

    col_labels: tuple[Scalar, ...]
    row_labels: tuple[Scalar, ...]
    canonical: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "col_labels", tuple(linalg.exact(tuple(self.col_labels))))
        object.__setattr__(self, "row_labels", tuple(linalg.exact(tuple(self.row_labels))))
        if len(self.col_labels) != len(self.row_labels) or not self.col_labels:
            raise ValueError("need d >= 1 column labels and equally many row labels")
        if any(x < 0 for x in self.col_labels + self.row_labels):
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "canonical", min(self.row_labels) == 0)

    @property
    def d(self) -> int:
        return len(self.col_labels)

    def total(self) -> Scalar:
        return sum(self.col_labels) + sum(self.row_labels)


def _check_d_value(d: int, value: int = 0) -> None:
    # The one input rule of every function taking a side d and a value N.
    if d < 1:
        raise ValueError("d must be >= 1")
    if value < 0:
        raise ValueError("value must be >= 0")


def permutation_sum(a: SquareMatrix, sigma: Sequence[int]) -> Scalar:
    """Sum of the entries covered by the rook placement sigma (1-based images)."""
    if len(sigma) != a.d:
        raise ValueError(f"permutation length {len(sigma)} != matrix side {a.d}")
    if any(type(s) is not int for s in sigma) or sorted(sigma) != list(range(1, a.d + 1)):
        raise ValueError("not a bijection on 1..d")
    return sum(linalg.exact([a.rows[i][sigma[i] - 1] for i in range(a.d)]))


def is_g_matrix_bruteforce(a: SquareMatrix, guard: int = FACTORIAL_GUARD) -> Scalar | None:
    """Check the rook-sum property over all d! placements, in d*2^d steps.

    Row by row, keep one covered sum per set of used columns: two partial
    placements on one set share every completion, so a set that meets two
    sums proves two placements disagree. Exact, over integers with one
    common denominator. Returns the common value, or None if entries are
    negative or two placements disagree. Refuses d > guard.
    """
    d = a.d
    if d > guard:
        raise FactorialGuardError(f"d={d} exceeds the d!-sweep guard {guard}")
    rows = a.rows if all(type(x) is int for r in a.rows for x in r) else a._cleared[0]
    sums: dict[int, Scalar] = {0: 0}  # bitmask of used columns -> covered sum
    for row in rows:
        extended: dict[int, Scalar] = {}
        for used, s in sums.items():
            for j, x in enumerate(row):
                if not used & (1 << j):  # row's rook on the free column j
                    t = s + x
                    if extended.setdefault(used | (1 << j), t) != t:
                        return None
        sums = extended
    if not all(x >= 0 for row in rows for x in row):  # most boards fail the sweep first
        return None
    return permutation_sum(a, range(1, d + 1))


def _exchange_witness(a: SquareMatrix, i: int, j: int) -> Witness:
    # Two placements differing by one transposition: row 1 and row i take
    # columns {1, j} in either order, remaining rows take remaining columns
    # in ascending order. They share the d - 2 entries off rows 1 and i, so
    # one pass sums both.
    rows = a.rows
    cols = [c for c in range(2, a.d + 1) if c != j]
    cols.insert(i - 2, j)  # the columns of rows 2..d
    sigma = (1, *cols)
    sigma_prime = (j, *cols[:i - 2], 1, *cols[i - 1:])
    top, ri = rows[0], rows[i - 1]
    a11, aij, a1j, ai1, *shared = linalg.exact([top[0], ri[j - 1], top[j - 1], ri[0]] + [
        rows[r][c - 1] for r, c in enumerate(cols, 1) if r != i - 1])
    return Witness(quadruple=(1, 1, i, j), sigma=sigma, sigma_prime=sigma_prime,
                   sums=(sum(shared) + a11 + aij, sum(shared) + a1j + ai1))


def _labels(a: SquareMatrix) -> tuple[list[Scalar], list[Scalar]]:
    # lambda_j = A[1,j] - A[1,1] + m and mu_i = A[i,1] - m, m the least entry of column 1,
    # read in O(d): a board is a G-matrix exactly when it is their addition table and
    # min(lambda) >= 0; then its value is sum(lambda) + sum(mu) and min(mu) = 0.
    top, first_col = linalg.exact(a.rows[0]), linalg.exact([r[0] for r in a.rows])
    m = min(first_col)
    shift = m - top[0]
    return [x + shift for x in top], [x - m for x in first_col]


def _exchange_violations(a: SquareMatrix, lam: list, mu: list) -> Iterator[tuple[int, int]]:
    # (i, j), 1-based, of each A[i,j] != mu_i + lambda_j off row 1 and column 1
    for i, (ri, mi) in enumerate(zip(a.rows[1:], mu[1:]), 2):
        for j in range(1, len(lam)):
            if ri[j] != mi + lam[j]:
                yield i, j + 1


def is_g_matrix_fast(a: SquareMatrix) -> FastCheck:
    """O(d^2) rook-sum check on the labels lambda, mu read off row 1 and column 1.

    Verifies A[i,j] = mu_i + lambda_j for all i, j >= 2 (every 2x2 exchange
    condition follows by transitivity) and min(lambda) >= 0. On failure the
    result carries the first negative entry in row-major order if there is
    one, else a Witness with two placements whose sums differ. A float it
    reads that is infinite or NaN (row 1, column 1, the witness) raises ValueError.
    The check runs once per board: the board keeps its result for every later call.
    """
    if a._checked is not None:
        return a._checked
    lam, mu = _labels(a)
    violation = next(_exchange_violations(a, lam, mu), None)
    if violation is None and min(lam) >= 0:
        check = FastCheck(sum(lam) + sum(mu))
    else:  # with no violation the minimum is negative, so the scan finds an entry
        negative = next(((i, j) for i, row in enumerate(a.rows, 1)
                         for j, x in enumerate(row, 1) if x < 0), None)
        check = FastCheck(None, None if negative else _exchange_witness(a, *violation), negative)
    object.__setattr__(a, "_checked", check)
    return check


DecompositionOrder = Literal["columns-first", "rows-first"]


def decompose_canonical(g: GMatrix, order: DecompositionOrder = "columns-first") -> Labeling:
    """Recover the labels whose addition table is the given board, in O(d).

    Columns-first (the default) makes min(mu) = 0 and the lambda_j the column
    minima; rows-first shifts by s = min(lambda) to force min(lambda) = 0.
    """
    if order not in ("columns-first", "rows-first"):
        raise ValueError(f"unknown order {order!r}")
    lam, mu = _labels(g.matrix)
    if order == "rows-first":
        s = min(lam)
        lam, mu = [x - s for x in lam], [x + s for x in mu]
    return Labeling(lam, mu)


def compose(lab: Labeling) -> GMatrix:
    """Addition table of the labels: A[i,j] = mu_i + lambda_j."""
    rows = tuple(tuple([m + l for l in lab.col_labels]) for m in lab.row_labels)
    return GMatrix._certified(SquareMatrix(rows), lab.total())


def _composition_from_bars(bars: Sequence[int], n: int, parts: int) -> tuple[int, ...]:
    out = []
    prev = -1
    for b in bars:
        out.append(b - prev - 1)
        prev = b
    out.append(n + parts - 1 - prev - 1)
    return tuple(out)


def _random_composition(rng: random.Random, n: int, parts: int) -> tuple[int, ...]:
    # Stars and bars: a uniform (parts-1)-subset of the n+parts-1 slots, by
    # Floyd's algorithm (Bentley & Floyd, CACM 1987) so that any n works.
    bars: set[int] = set()
    for j in range(n, n + parts - 1):
        t = rng.randrange(j + 1)
        bars.add(j if t in bars else t)
    return _composition_from_bars(sorted(bars), n, parts)


def trick_generate(d: int, value: int, mode: Literal["uniform", "quick"] = "uniform",
                   seed: int = 0) -> GMatrix:
    """Generate an integer board with constant rook sum ``value``.

    Draws uniformly among all g_d(value) boards with no rejection, in
    O(d log d) arithmetic steps at any value. A board lies in half-open
    cell k when mu_k is the first zero of its canonical row labels; cell k
    holds C(value+2d-k-1, 2d-2) boards, one per composition of value-(k-1)
    into the other 2d-1 labels once 1 is taken off mu_1..mu_{k-1}. So pick
    k by cell size, draw that composition, set mu_k = 0 and add the 1s
    back. Deterministic per seed; mode="quick" is kept as an alias.
    """
    _check_d_value(d, value)
    if mode not in ("uniform", "quick"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    r = 2 * d - 2
    weights = [math.comb(value + r, r)]
    for m in range(value + r, value + d - 1, -1):
        weights.append(weights[-1] * (m - r) // m)  # C(m-1, r) from C(m, r)
    cumulative = list(itertools.accumulate(weights))
    k = bisect.bisect_right(cumulative, rng.randrange(cumulative[-1]))  # cell k + 1
    comp = _random_composition(rng, value - k, 2 * d - 1)
    mu = [x + 1 for x in comp[d:d + k]] + [0] + list(comp[d + k:])
    return compose(Labeling(comp[:d], mu))


def scale(g: GMatrix, c: Scalar) -> GMatrix:
    """Entrywise c*A, a G-matrix of value c*N; requires c > 0.

    Scaling a board of value N by 1/N yields a board of value 1.
    """
    c = Fraction(linalg.exact((c,))[0])
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return GMatrix._certified(g.matrix.scaled(c), g.value * c)
