"""Counting integer G-matrices of side d and value N.

Let g_d(N) be the number of d-by-d nonnegative integer matrices whose rook
sums all equal N; equivalently, the number of lattice points in the N-th
dilate of the value-1 polytope. Three closed forms are implemented:

    g_d(N) = sum_{k=1}^{d} (-1)^(k-1) C(d,k) C(N+2d-k-1, 2d-k-1)        (1)
           = sum_{m=1}^{2d-1} [C(2d,m) - C(d,m-d)] C(N-1, m-1)          (2)
           = C(N+2d-1, 2d-1) - C(N+d-1, 2d-1)                           (3)

(1) is inclusion-exclusion over the triangulation cells, (2) counts faces by
dimension through their open-simplex counts, (3) sums the half-open cells.
All three agree with a polynomial in N of degree 2d-2.

Two independent brute-force oracles are provided (a full matrix sweep and a
labeling enumeration), plus exact interpolation to the counting polynomial,
interior counts for the reciprocity/Gorenstein cross-checks, and a numerical
root-location report. Root finding is the only floating-point code in the
package.

Binomial convention: C(n, k) = 0 for k < 0; for negative n the polynomial
extension n(n-1)...(n-k+1)/k! applies, so e.g. C(-1, k) = (-1)^k. Formula (2)
needs this at N = 0, where it must (and does) sum to 1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .matrix import Scalar, _composition_from_bars, g_value_of_flat

#: Default ceiling on brute-force candidate counts.
DEFAULT_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would exceed its candidate budget."""


def binom(n: int, k: int) -> int:
    """C(n, k) with the polynomial extension in the upper argument."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


def _binom_count(n: int, k: int) -> int:
    # Plain counting convention: zero outside 0 <= k <= n. The simplex
    # counters must use this (a lattice-point count is never negative),
    # unlike formula (2) which needs the polynomial extension at N = 0.
    return math.comb(n, k) if 0 <= k <= n else 0


def g_formula_1(d: int, value: int) -> int:
    """Inclusion-exclusion form of g_d(N)."""
    _check_dn(d, value)
    return sum((-1) ** (k - 1) * binom(d, k) * binom(value + 2 * d - k - 1, 2 * d - k - 1)
               for k in range(1, d + 1))


def g_formula_2(d: int, value: int) -> int:
    """Face-count form of g_d(N)."""
    _check_dn(d, value)
    return sum((binom(2 * d, m) - binom(d, m - d)) * binom(value - 1, m - 1)
               for m in range(1, 2 * d))


def g_formula_3(d: int, value: int) -> int:
    """Half-open form of g_d(N): C(N+2d-1, 2d-1) - C(N+d-1, 2d-1)."""
    _check_dn(d, value)
    return binom(value + 2 * d - 1, 2 * d - 1) - binom(value + d - 1, 2 * d - 1)


def _check_dn(d: int, value: int) -> None:
    if d < 1:
        raise ValueError("d must be >= 1")
    if value < 0:
        raise ValueError("value must be >= 0")


def _resolve_budget(budget: int | None) -> int:
    return DEFAULT_BUDGET if budget is None else budget


def iter_g_matrices_flat(d: int, value: int, min_entry: int = 0,
                         budget: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every integer G-matrix of the given value, as a row-major tuple.

    Sweeps all (value+1-min_entry)^(d*d) candidate matrices and filters by
    the O(d^2) rook-sum check; min_entry=1 restricts to boards with all
    entries strictly positive (interior lattice points). Raises
    BudgetExceededError up front if the sweep is too large.
    """
    _check_dn(d, value)
    entry_range = range(min_entry, value + 1)
    candidates = len(entry_range) ** (d * d)
    limit = _resolve_budget(budget)
    if candidates > limit:
        raise BudgetExceededError(
            f"{candidates} candidates exceed the budget {limit}")
    for t in itertools.product(entry_range, repeat=d * d):
        if g_value_of_flat(t, d) == value:
            yield t


def g_bruteforce(d: int, value: int, budget: int | None = None) -> int:
    """Count integer G-matrices by exhaustive sweep (independent oracle)."""
    return sum(1 for _ in iter_g_matrices_flat(d, value, 0, budget))


def iter_compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to n."""
    for bars in itertools.combinations(range(n + parts - 1), parts - 1):
        yield _composition_from_bars(bars, n, parts)


def g_labeling_oracle(d: int, value: int) -> int:
    """Count canonical labelings of total N directly (second oracle).

    Enumerates all compositions of N into d column labels and d row labels
    and keeps those whose row labels contain a zero; the label-table
    bijection makes this equal g_d(N) without ever building a matrix.
    """
    _check_dn(d, value)
    return sum(1 for comp in iter_compositions(value, 2 * d) if min(comp[d:]) == 0)


def simplex_count(m: int, n: int) -> int:
    """Lattice points of the n-th dilate of a unimodular simplex on m
    vertices: C(n+m-1, m-1)."""
    _check_simplex_args(m, n)
    return _binom_count(n + m - 1, m - 1)


def open_simplex_count(m: int, n: int) -> int:
    """Interior lattice points of the n-th dilate: C(n-1, m-1)."""
    _check_simplex_args(m, n)
    return _binom_count(n - 1, m - 1)


def halfopen_simplex_count(m: int, u: int, n: int) -> int:
    """Lattice points of the n-th dilate of a half-open unimodular simplex
    with u facets removed: C(n-1+m-u, m-1). u=0 is the closed count, u=m the
    open one."""
    _check_simplex_args(m, n)
    if not (0 <= u <= m):
        raise ValueError("u must satisfy 0 <= u <= m")
    return _binom_count(n - 1 + m - u, m - 1)


def _check_simplex_args(m: int, n: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")


@dataclass(frozen=True)
class FStarVector:
    """Cell counts by dimension of any unimodular triangulation of the
    polytope: entry m-1 counts the (m-1)-dimensional cells, and
    g_d(N) = sum_m entries[m-1] * C(N-1, m-1)."""

    d: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != 2 * self.d - 1:
            raise ValueError("expected 2d-1 entries")
        if any(x < 0 for x in self.entries):
            raise ValueError("entries must be nonnegative")


def f_star(d: int) -> FStarVector:
    """Closed form f*_(m-1) = C(2d, m) - C(d, m-d) for m = 1..2d-1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return FStarVector(d, tuple(binom(2 * d, m) - binom(d, m - d)
                                for m in range(1, 2 * d)))


def f_star_by_enumeration(d: int) -> FStarVector:
    """Independent oracle for f_star: enumerate the vertex subsets (I, J)
    that span a cell of the triangulation (I a proper subset of the row
    indices) and group them by size."""
    if d < 1:
        raise ValueError("d must be >= 1")
    counts = [0] * (2 * d - 1)
    indices = list(range(d))
    row_subsets = [s for r in range(d + 1) for s in itertools.combinations(indices, r)]
    col_subsets = row_subsets
    full = tuple(indices)
    for rows_ in row_subsets:
        if rows_ == full:
            continue
        for cols in col_subsets:
            m = len(rows_) + len(cols)
            if m >= 1:
                counts[m - 1] += 1
    return FStarVector(d, tuple(counts))


@dataclass(frozen=True)
class CountingPolynomial:
    """Exact coefficients of g_d as a polynomial in N, constant term first.

    Degree is exactly 2d-2 with positive leading coefficient; the polynomial
    takes nonnegative integer values at every integer N >= 0.
    """

    d: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != 2 * self.d - 1:
            raise ValueError("expected degree exactly 2d-2")
        if coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, n: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    def pretty(self) -> str:
        """Human form, e.g. '1 + 2N + N^2'."""
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "N" if k == 1 else f"N^{k}"
                if mag == 1:
                    body = var
                elif mag.denominator == 1:
                    body = f"{mag.numerator}{var}"
                else:
                    body = f"({mag}){var}"
            terms.append(("- " if c < 0 else "+ ") + body)
        if not terms:
            return "0"
        first = terms[0].removeprefix("+ ")
        if first.startswith("- "):
            first = "-" + first[2:]
        return " ".join([first] + terms[1:])

    def to_json_dict(self) -> dict:
        return {"d": self.d, "coeffs": [str(c) for c in self.coefficients]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountingPolynomial":
        return cls(int(data["d"]), tuple(Fraction(c) for c in data["coeffs"]))


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def interpolate(d: int) -> CountingPolynomial:
    """Exact Lagrange interpolation of g_d through N = 0..2d-2.

    2d-1 nodes pin down the degree-(2d-2) polynomial; agreement with the
    closed form beyond the nodes is asserted by the test suite.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    nodes = list(range(2 * d - 1))
    values = [g_formula_3(d, n) for n in nodes]
    coeffs = [Fraction(0)] * len(nodes)
    for i, xi in enumerate(nodes):
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = _poly_mul(basis, [Fraction(-xj), Fraction(1)])
            denom *= xi - xj
        w = Fraction(values[i], denom)
        for k, b in enumerate(basis):
            coeffs[k] += w * b
    return CountingPolynomial(d, tuple(coeffs))


def interior_count_bruteforce(d: int, value: int, budget: int | None = None) -> int:
    """Count integer G-matrices of the given value with every entry >= 1
    (interior lattice points of the dilate)."""
    return sum(1 for _ in iter_g_matrices_flat(d, value, 1, budget))


@dataclass(frozen=True)
class RootsReport:
    """Numerically located roots of the counting polynomial with their
    classification: each should be a negative integer or lie on the vertical
    line Re = -d/2."""

    d: int
    tolerance: float
    roots: tuple[complex, ...]
    labels: tuple[str, ...]
    passed: bool


def roots_check(d: int, tol: float = 1e-8) -> RootsReport:
    """Locate the 2d-2 roots of the counting polynomial and classify each.

    Uses balanced companion-matrix eigenvalues in double precision (the one
    floating-point computation in the package). A root within tol of some
    -k (k >= 1) is 'negative-integer'; one with |Re + d/2| < tol is
    'critical-line'; the report passes iff nothing is left unclassified.
    """
    if d < 2:
        raise ValueError("root check needs d >= 2")
    poly = interpolate(d)
    highest_first = [float(c) for c in reversed(poly.coefficients)]
    try:
        roots = np.roots(np.array(highest_first, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("root finder did not converge") from exc
    labels = []
    for r in roots:
        nearest = round(r.real)
        if nearest <= -1 and abs(r - nearest) <= tol:
            labels.append("negative-integer")
        elif abs(r.real + d / 2) < tol:
            labels.append("critical-line")
        else:
            labels.append("unclassified")
    return RootsReport(d=d, tolerance=tol, roots=tuple(complex(r) for r in roots),
                       labels=tuple(labels), passed="unclassified" not in labels)
