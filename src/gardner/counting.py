"""Counting integer G-matrices of side d and value N.

Let g_d(N) be the number of d-by-d nonnegative integer matrices whose rook
sums all equal N; equivalently, the number of lattice points in the N-th
dilate of the value-1 polytope. Three closed forms are implemented:

    g_d(N) = sum_{k=1}^{d} (-1)^(k-1) C(d,k) C(N+2d-k-1, 2d-k-1)        (1)
           = sum_{m=1}^{2d-1} [C(2d,m) - C(d,m-d)] C(N-1, m-1)          (2)
           = C(N+2d-1, 2d-1) - C(N+d-1, 2d-1)                           (3)

(1) is inclusion-exclusion over the triangulation cells, (2) counts faces by
dimension through their open-simplex counts, (3) sums the half-open cells.
All three agree with a polynomial in N of degree 2d-2, which `interpolate`
expands from the product form of (3); `roots_check` certifies its roots.

Two independent brute-force oracles are provided (a sweep over the first row
and column, completed by the 2x2 exchange rule, and a labeling enumeration),
plus interior counts for the reciprocity/Gorenstein cross-checks.

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

from . import linalg
from .matrix import BudgetExceededError, Scalar, _check_d_value, _composition_from_bars

#: Default ceiling on brute-force candidate counts.
DEFAULT_BUDGET = 10 ** 8


def binom(n: int, k: int) -> int:
    """C(n, k) with the polynomial extension in the upper argument."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


def g_formula_1(d: int, value: int) -> int:
    """Inclusion-exclusion form of g_d(N).

    Each binomial comes from the one before, C(d, k+1) = C(d, k) (d-k)/(k+1)
    and C(n-1, r-1) = C(n, r) r/n, so the sum costs O(d) steps.
    """
    _check_d_value(d, value)
    n, r = value + 2 * d - 2, 2 * d - 2
    total, a, b = 0, d, math.comb(n, r)  # a = C(d, k), b = C(n, r) with r = 2d-k-1
    for k in range(1, d + 1):
        total += (-1) ** (k - 1) * a * b
        if k < d:  # n >= value + d >= 1
            a, b, n, r = a * (d - k) // (k + 1), b * r // n, n - 1, r - 1
    return total


def g_formula_2(d: int, value: int) -> int:
    """Face-count form of g_d(N).

    For N >= 1, C(N-1, m-1) = 0 once m > N, so only the first min(N, 2d-1)
    terms are summed; N = 0 sums all 2d-1, with C(-1, m-1) = (-1)^(m-1).
    Each binomial comes from the one before, so the sum costs O(d) steps.
    """
    _check_d_value(d, value)
    terms = 2 * d - 1 if value == 0 else min(value, 2 * d - 1)
    total, c = 0, 1  # c = C(N-1, m): C(N-1, m+1) = C(N-1, m) (N-1-m) / (m+1)
    for m, f in zip(range(terms), _f_star_entries(d)):
        total += f * c
        c = c * (value - 1 - m) // (m + 1)
    return total


def g_formula_3(d: int, value: int) -> int:
    """Half-open form of g_d(N): C(N+2d-1, 2d-1) - C(N+d-1, 2d-1)."""
    _check_d_value(d, value)
    return binom(value + 2 * d - 1, 2 * d - 1) - binom(value + d - 1, 2 * d - 1)


def iter_g_matrices_flat(d: int, value: int, min_entry: int = 0,
                         budget: int | None = None) -> Iterator[tuple[int, ...]]:
    """Iterate over every integer G-matrix of the given value, as row-major tuples.

    Constant rook sums force the 2x2 exchange rule a_ij = a_i1 + a_1j - a_11,
    so the first row and column fix the board. For each first row, walks only the
    first columns that give trace = value and every entry >= min_entry >= 0 (so none
    exceeds value), in row-major lexicographic order; min_entry=1 gives the interior
    lattice points. The budget counts the (value+1-min_entry)^(2d-1) first rows and
    columns, which bound the work; over it, BudgetExceededError is raised at the call.
    """
    _check_d_value(d, value)
    candidates = len(range(min_entry, value + 1)) ** (2 * d - 1)
    name, arg = ("min_entry", min_entry) if min_entry < 0 else ("budget", budget)
    if arg is not None and arg < 0:
        raise ValueError(f"{name} must be >= 0, got {arg}")
    limit = DEFAULT_BUDGET if budget is None else budget
    if candidates > limit:
        raise BudgetExceededError(f"{candidates} candidates exceed the budget {limit}")
    return _sweep(d, value, min_entry)


def _sweep(d: int, value: int, min_entry: int) -> Iterator[tuple[int, ...]]:
    for top in itertools.product(range(min_entry, value + 1), repeat=d):
        shift = min_entry - min(top)  # row i = top + a_i1 - a_11 is >= min_entry iff c_i >= 0
        # for c_i = a_i1 - a_11 - shift, and trace = sum(top) + (d-1) shift + sum(c) = value
        for col in iter_compositions(value - sum(top) - (d - 1) * shift, d - 1):
            yield top + tuple(c + shift + x for c in col for x in top)


def g_bruteforce(d: int, value: int, budget: int | None = None) -> int:
    """Count integer G-matrices by the first-row-and-column sweep (independent oracle)."""
    return sum(1 for _ in iter_g_matrices_flat(d, value, 0, budget))


def iter_compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to n, in lexicographic order."""
    if n < 0 or parts == 0:
        return iter([()] if n == parts == 0 else [])
    bars = itertools.combinations(range(n + parts - 1), parts - 1)
    return (_composition_from_bars(b, n, parts) for b in bars)


def g_labeling_oracle(d: int, value: int) -> int:
    """Count canonical labelings of total N directly (second oracle).

    Enumerates all compositions of N into d column labels and d row labels
    and keeps those whose row labels contain a zero; the label-table
    bijection makes this equal g_d(N) without ever building a matrix.
    """
    _check_d_value(d, value)
    return sum(1 for comp in iter_compositions(value, 2 * d) if min(comp[d:]) == 0)


def simplex_count(m: int, n: int) -> int:
    """Lattice points of the n-th dilate of a unimodular simplex on m
    vertices: C(n+m-1, m-1)."""
    return halfopen_simplex_count(m, 0, n)


def open_simplex_count(m: int, n: int) -> int:
    """Interior lattice points of the n-th dilate: C(n-1, m-1)."""
    return halfopen_simplex_count(m, m, n)


def halfopen_simplex_count(m: int, u: int, n: int) -> int:
    """Lattice points of the n-th dilate of a half-open unimodular simplex
    with u facets removed: C(n-1+m-u, m-1). u=0 is the closed count, u=m the
    open one."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0 <= u <= m):
        raise ValueError("u must satisfy 0 <= u <= m")
    # Zero when n < u, where C(n-1+m-u, m-1) has n-1+m-u < m-1: a count is
    # never negative, unlike formula (2), which needs binom's extension at N = 0.
    return math.comb(n - 1 + m - u, m - 1) if n >= u else 0


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
    _check_d_value(d)
    return FStarVector(d, tuple(_f_star_entries(d)))


def _f_star_entries(d: int) -> Iterator[int]:
    # f*_(m-1) = C(2d, m) - C(d, m-d) for m = 1..2d-1, each binomial from the
    # one before: C(n, k) = C(n, k-1) (n-k+1) / k, where n-k+1 = 2d-m+1 for
    # both C(2d, m) and C(d, m-d).
    top, low = 1, 0  # C(2d, m) and C(d, m-d) at m = 0
    for m in range(1, 2 * d):
        top = top * (2 * d - m + 1) // m
        if m == d:
            low = 1
        elif m > d:
            low = low * (2 * d - m + 1) // (m - d)
        yield top - low


def f_star_by_enumeration(d: int) -> FStarVector:
    """Independent oracle for f_star: enumerate the vertex subsets (I, J)
    that span a cell of the triangulation (I a proper subset of the row
    indices) and group them by size."""
    _check_d_value(d)
    counts = [0] * (2 * d - 1)
    subsets = [s for r in range(d + 1) for s in itertools.combinations(range(d), r)]
    for rows_ in subsets[:-1]:  # the last subset is all d indices
        for cols in subsets:
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
        if type(self.d) is not int:
            raise ValueError(f"d must be an int, not {self.d!r}")
        if isinstance(self.coefficients, str):  # else each character is read as a coefficient
            raise ValueError("coefficients must be a sequence of numbers, not a string")
        coeffs = tuple(map(Fraction, linalg.exact(tuple(self.coefficients))))
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != 2 * self.d - 1:
            raise ValueError("expected degree exactly 2d-2")
        if coeffs[-1] <= 0:
            raise ValueError("leading coefficient must be positive")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, n: Scalar) -> Scalar:
        acc, n = 0, linalg.exact((n,))[0]
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
            var = "" if k == 0 else "N" if k == 1 else f"N^{k}"
            if var and mag == 1:
                body = var
            elif var and mag.denominator != 1:
                body = f"({mag}){var}"
            else:
                body = f"{mag}{var}"
            terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json_dict(self) -> dict:
        return {"d": self.d, "coeffs": [str(c) for c in self.coefficients]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountingPolynomial":
        return cls(data["d"], data["coeffs"])


def _times_rising(poly: list[int], start: int, count: int) -> list[int]:
    """Multiply an integer polynomial by (N+start)...(N+start+count-1)."""
    for a in range(start, start + count):
        poly = [a * c + prev for c, prev in zip(poly + [0], [0] + poly)]
    return poly


def interpolate(d: int) -> CountingPolynomial:
    """Exact coefficients of g_d, expanded over the integers from the product
    form (2d-1)! g_d(N) = (N+1)...(N+d-1) [(N+d)...(N+2d-1) - (N-d+1)...N]."""
    _check_d_value(d)
    upper, lower = _times_rising([1], d, d), _times_rising([1], 1 - d, d)
    bracket = [a - b for a, b in zip(upper[:-1], lower[:-1])]
    scale = math.factorial(2 * d - 1)
    return CountingPolynomial(d, tuple(Fraction(c, scale)
                                       for c in _times_rising(bracket, 1, d - 1)))


def interior_count_bruteforce(d: int, value: int, budget: int | None = None) -> int:
    """Count integer G-matrices of the given value with every entry >= 1
    (interior lattice points of the dilate)."""
    return sum(1 for _ in iter_g_matrices_flat(d, value, 1, budget))


@dataclass(frozen=True)
class RootsReport:
    """Certified roots of the counting polynomial: -1..-(d-1) first, then
    those on the line Re = -d/2 by ascending imaginary part."""

    d: int
    tolerance: float
    roots: tuple[complex, ...]
    labels: tuple[str, ...]
    passed: bool


def _line_sign(d: int, t: float) -> int:
    """Exact sign of Im F(t) (even d) or Re F(t) (odd d), computed with t = p/q
    as the Gaussian-integer product of (d+2j)q + 2ip = 2q(d/2 + j + it)."""
    p, q = t.as_integer_ratio()
    re, im = 1, 0
    for j in range(d):
        a = (d + 2 * j) * q
        re, im = re * a - im * 2 * p, re * 2 * p + im * a
    value = im if d % 2 == 0 else re
    return (value > 0) - (value < 0)


def _bracket(d: int, theta: float, tol: float) -> tuple[float, tuple[float, float] | None]:
    """Float t >= 0 with arg F(t) = theta >= 0, by Newton from (d/2) tan(theta/d),
    below the root (arg F is increasing and concave on t >= 0); then doubles
    lo <= hi at most tol apart, _line_sign nonzero at one end and zero or
    opposite at the other, by widening around t and bisecting; or None."""
    a = [d / 2 + j for j in range(d)]
    t, step = d / 2 * math.tan(theta / d), math.inf
    while step > 2 * math.ulp(t):
        step = theta - math.fsum(math.atan(t / x) for x in a)  # same digits on every Python
        step /= math.fsum(x / (x * x + t * t) for x in a)
        t += step
    sign, near, far, step = _line_sign(d, t), t, None, 128 * math.ulp(t)
    if sign == 0:
        return t, (t, t)
    while far is None and step < t:
        far = next((x for x in (t + step, t - step) if _line_sign(d, x) != sign), None)
        step *= 2
    while far is not None and abs(Fraction(far) - Fraction(near)) > tol:
        mid = (near + far) / 2
        if mid in (near, far):
            return t, None
        near, far = (mid, far) if _line_sign(d, mid) == sign else (near, mid)
    return t, None if far is None else (min(near, far), max(near, far))


def roots_check(d: int, tol: float = 1e-8) -> RootsReport:
    """Locate the 2d-2 roots of the counting polynomial and certify each.

    (N+1)...(N+d-1) gives -1..-(d-1). On N = -d/2 + it the bracket of (3) is
    F(t) - (-1)^d conj F(t), F(t) = prod_{j<d} (d/2 + j + it), so it vanishes
    where arg F(t) = (k - (d-2)/2) pi, k = 0..d-2 (Hermite-Biehler). Each such
    t >= 0 gets an exact bracket no wider than tol, mirrored to -t; d-1
    disjoint brackets are all the bracket's roots. For even d, t = 0 is the
    exact double root -d/2. A root no two doubles within tol can bracket is
    'unclassified'.
    """
    if d < 2:
        raise ValueError("root check needs d >= 2")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    upper = [_bracket(d, (k - (d - 2) / 2) * math.pi, tol) for k in range((d - 1) // 2, d - 1)]
    pairs = [(-t, b and (-b[1], -b[0])) for t, b in reversed(upper[d % 2 == 0:])] + upper
    found = [b for _, b in pairs if b]
    if any(b1[1] >= b2[0] for b1, b2 in zip(found, found[1:])):
        pairs = [(t, None) for t, _ in pairs]  # overlapping brackets certify nothing
    roots = [complex(-k) for k in range(1, d)] + [
        complex(-d / 2, t if b is None else min(max(t, b[0]), b[1])) for t, b in pairs]
    labels = ["negative-integer"] * (d - 1) + [
        "unclassified" if b is None else "negative-integer" if b == (0, 0) else "critical-line"
        for _, b in pairs]
    return RootsReport(d=d, tolerance=tol, roots=tuple(roots),
                       labels=tuple(labels), passed="unclassified" not in labels)
