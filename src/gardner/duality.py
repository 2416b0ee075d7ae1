"""Birkhoff-side duality for the G-matrix polytope.

Under the trace inner product <A, B> = sum_ij A[i,j]*B[i,j], the value-1
G-matrices and the doubly stochastic matrices cut each other out of the
nonnegative orthant:

    {G-matrices of value 1}  = R>=0 orthant  ∩  {A : <A, P_s> = 1 for all s},
    {doubly stochastic}      = R>=0 orthant  ∩  {B : <B, R_i> = <B, C_j> = 1},

where P_s runs over the permutation matrices (the Birkhoff vertices) and
R_i, C_j over the row/column indicators (the G-matrix vertices). Pairs of
polytopes in this relation are called Gale-dual here.

The general mechanism is the dual of an affine subspace: for L = q + U with
q orthogonal to U and q != 0, the set of y pairing to 1 against all of L is

    L-dagger = q / |q|^2 + (U-perp ∩ q-perp),

an involution with dim L + dim L-dagger = D - 1. Whenever q > 0 entrywise,
intersecting L and L-dagger with the nonnegative orthant produces a Gale-dual
pair. Both hulls are J/d + U in closed form; J/d lies on both and is orthogonal to U, as
every integer direction sums to 0. Checks are exact, over integers: SquareMatrix clears a
board to n / D once for every predicate; HDescription.is_feasible clears its flat points.

Both polytopes are Gorenstein of index d and compressed. gorenstein_check enumerates the
Gardner side only: for d <= N <= n_max, subtracting the all-ones J maps the interior lattice
points of the N-th dilate onto those of the (N-d)-th (at N = d: J is the only interior point);
nothing checks the Birkhoff side's Gorenstein property yet. compressed_check proves the Gardner
vertices are 0/1 and tests cube ∩ hull = polytope near J/d only, through each hull's own clear.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import linalg
from .counting import iter_g_matrices_flat
from .matrix import (FACTORIAL_GUARD, FactorialGuardError, Scalar, SquareMatrix,
                     _check_d_value, _placement, is_g_matrix_bruteforce, is_g_matrix_fast,
                     scale, trick_generate)
from .polytope import all_vertices, vertex_matrix


@dataclass(frozen=True)
class Permutation:
    """A bijection on 1..d, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)  # no d < 1: the empty tuple is not a bijection on 1..0
        object.__setattr__(self, "images", _placement(images, len(images)))

    @property
    def d(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(1, d + 1)))


def permutations_of(d: int) -> Iterator[Permutation]:
    _check_d_value(d)  # at the call, not on the first iteration
    return map(Permutation, itertools.permutations(range(1, d + 1)))


def permutation_matrix(sigma: Permutation | Sequence[int]) -> SquareMatrix:
    """0/1 matrix with a single 1 per row and column, at (i, sigma(i))."""
    if not isinstance(sigma, Permutation):
        sigma = Permutation(sigma)
    # Row i is the indicator of sigma(i).
    return SquareMatrix(tuple(tuple(1 if j == s else 0 for j in range(1, sigma.d + 1))
                              for s in sigma.images))


def is_doubly_stochastic(b: SquareMatrix) -> bool:
    """Nonnegative with every row and column summing to exactly 1."""
    return _has_line_sums(b, 1)


def _has_line_sums(b: SquareMatrix, total: Scalar) -> bool:
    n, den = b._cleared  # b = n / D, n as int rows
    target = total * den
    return min(map(min, n)) >= 0 and all(sum(line) == target for line in (*n, *zip(*n)))


def pairing(a: SquareMatrix, b: SquareMatrix) -> Scalar:
    """Trace inner product sum_ij A[i,j] * B[i,j]."""
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    return linalg.dot(a.flat(), b.flat())


def _has_g_value(a: SquareMatrix, value: Scalar = 1) -> bool:
    n, den = a._cleared  # a = n / D has value N exactly when n has value N * D
    return is_g_matrix_fast(SquareMatrix(n)).value == value * den  # None on a failed check


def _bounded_ratio(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    # Seeded r / m, lo <= r <= hi, 0 < m <= a thousand: randint's own draws, one _randbelow each
    return lo + rng.randrange(hi - lo + 1), rng.randrange(1000) + 1


@dataclass(frozen=True)
class GalePairReport:
    d: int
    vertex_pairings_checked: int
    samples_checked: int
    counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def gale_pair_check(d: int, sample_count: int = 40, seed: int = 0) -> GalePairReport:
    """Verify the Gale-dual relation between the two polytopes.

    (a) every vertex-vertex pairing <R_i or C_j, P_s> equals 1 exactly, over
    all d! permutations; (b) on random rational matrices, pairing to 1
    against every P_s (the d!-placement rook-sum check at value 1) is
    equivalent to the fast value-1 G-check, and HDescription feasibility
    against every R_i and C_j to is_doubly_stochastic. Samples are true
    points, perturbed points, noise, and mixes of d+1 permutation matrices.
    """
    if sample_count < 0:  # d < 1 raises in all_vertices, before any sampling
        raise ValueError("sample_count must be >= 0")
    if d > FACTORIAL_GUARD:  # before the 2d vertex matrices, whose size grows with d^3
        raise FactorialGuardError(f"d={d} exceeds the d!-sweep guard {FACTORIAL_GUARD}")
    rng = random.Random(seed)
    g_vertices = [vertex_matrix(v) for v in all_vertices(d)]
    pairs_to_one = HDescription(d * d, tuple((v.flat(), 1) for v in g_vertices))

    for n, v in enumerate(g_vertices, 1):
        if is_g_matrix_bruteforce(v, FACTORIAL_GUARD) != 1:
            return GalePairReport(d, n * math.factorial(d), 0,
                                  f"vertex {v!r} does not pair to 1 with every P_s")
    vertex_pairings = 2 * d * math.factorial(d)

    samples = 0
    for _ in range(sample_count):
        noise = SquareMatrix(tuple(tuple(Fraction(*_bounded_ratio(rng, 0, 3)) for _ in range(d))
                                   for _ in range(d)))
        value = rng.randint(1, 20)
        board = trick_generate(d, value, "quick", seed=rng.randrange(2 ** 32))
        point = scale(board, Fraction(1, value)).matrix
        i, j = rng.randrange(d), rng.randrange(d)
        rows, r = point.rows, point.rows[i]
        bumped = SquareMatrix(rows[:i] + (r[:j] + (r[j] + 1,) + r[j + 1:],) + rows[i + 1:])
        stochastic_point = _random_convex_combination(rng, d)
        for a in (noise, point, bumped):
            samples += 1
            rook_sum = is_g_matrix_bruteforce(a, FACTORIAL_GUARD)  # the bump's sum, read below
            if (rook_sum == 1) != _has_g_value(a):
                return GalePairReport(d, vertex_pairings, samples,
                                      f"G-side equivalence fails on {a.rows}")
        if rook_sum == 1:
            return GalePairReport(d, vertex_pairings, samples,
                                  f"+1 bump left every pairing at 1: {bumped.rows}")
        for b in (noise, stochastic_point, bumped):
            samples += 1
            if pairs_to_one.is_feasible(b.flat()) != is_doubly_stochastic(b):
                return GalePairReport(d, vertex_pairings, samples,
                                      f"B-side equivalence fails on {b.rows}")
    return GalePairReport(d, vertex_pairings, samples, None)


def _random_convex_combination(rng: random.Random, d: int) -> SquareMatrix:
    weights = [rng.randint(1, 50) for _ in range(d + 1)]
    acc = [[0] * d for _ in range(d)]  # integer weight sums, divided once
    for w in weights:
        for i, s in enumerate(rng.sample(range(d), d)):  # row i holds a 1 at column s
            acc[i][s] += w
    return SquareMatrix(tuple(tuple(Fraction(x, sum(weights)) for x in row) for row in acc))


@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace q + U of R^D in normalized form.

    q is the point of the subspace closest to the origin (so q is orthogonal to U) and the
    direction basis, of exact scalars (int or Fraction), is in reduced row echelon form; equality
    of normalized subspaces is therefore plain field equality (an int equals its Fraction).
    """

    ambient: int
    q: tuple[Fraction, ...]
    basis: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def from_point_and_directions(cls, point: Sequence, directions: Sequence[Sequence],
                                  reduce: bool = False) -> "AffineSubspace":
        """Normalize a base point and spanning directions.

        Directions must be linearly independent unless ``reduce`` is set, in
        which case a basis of their span is extracted.
        """
        ambient = len(point)
        if any(len(v) != ambient for v in directions):
            raise ValueError("direction length mismatch")
        reduced, pivots = linalg.rref(directions)
        if not reduce and len(pivots) != len(directions):
            raise ValueError("directions are linearly dependent")
        basis = tuple(map(tuple, reduced))
        q = tuple(map(Fraction, linalg.exact(point)))
        if basis:  # subtract the orthogonal projection onto the span, via the Gram system
            gram = [[linalg.dot(u, v) for v in basis] for u in basis]
            coeffs = linalg.solve_unique(gram, [linalg.dot(u, q) for u in basis])
            q = tuple(x - sum(c * b[k] for c, b in zip(coeffs, basis)) for k, x in enumerate(q))
        return cls(ambient, q, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, point: Sequence) -> bool:
        diff = [x - qx for x, qx in zip(map(Fraction, linalg.exact(point)), self.q, strict=True)]
        return linalg.rank(list(self.basis) + [diff]) == len(self.basis)

    def spanning_points(self) -> list[tuple[list[int], int]]:
        """q and q + b for each basis direction b, as integers over one denominator."""
        (q, dq), *basis = self._cleared
        return [(list(q), dq)] + [([x * db + y * dq for x, y in zip(q, b)], dq * db)
                                  for b, db in basis]  # fresh lists: the clear is shared

    @functools.cached_property
    def _cleared(self) -> list[tuple[list[int], int]]:
        # q, then each direction, over its own denominator; not a field, so == and hash skip it
        return [linalg.integer_vector(v) for v in (self.q, *self.basis)]


def dual_subspace(sub: AffineSubspace) -> AffineSubspace:
    """The affine subspace of all y with <x, y> = 1 for every x in the input.

    For L = q + U (normalized) this is q/|q|^2 + (U-perp ∩ q-perp); it is empty exactly when L
    passes through the origin (q = 0), which raises, as does a q not orthogonal to U (a subspace
    built directly, not normalized). q/|q|^2 is orthogonal to the dual directions (q is one of
    their constraints), so it is already the normalized base point. Before returning, <q, q'> = 1,
    U' ⊥ q and U ⊥ U' are checked over the integers (as q' = q/|q|^2, U ⊥ q gives U ⊥ q'):
    by bilinearity, every spanning pair pairs to 1. Applied twice it returns the input subspace.
    """
    (q, dq), *basis = sub._cleared  # q/|q|^2 = dq * q / (q . q) over the integers
    if not any(q):
        raise ValueError("subspace contains the origin; its dual is empty")
    if any(linalg.dot(b, q) for b, _ in basis):
        raise ValueError("base point is not orthogonal to the directions")
    norm_sq = sum(x * x for x in q)
    q_dual = tuple(Fraction(dq * x, norm_sq) for x in q)
    directions = linalg.nullspace([b for b, _ in basis] + [q], sub.ambient)  # already RREF
    result = AffineSubspace(sub.ambient, q_dual, tuple(directions))
    (y, dy), *dual = result._cleared  # q' = y / dy, then U'
    if any(linalg.dot(c, q) for c, _ in dual):
        raise AssertionError("dual directions are not orthogonal to the base point")
    if linalg.dot(q, y) != dq * dy or any(linalg.dot(b, z) for b, _ in basis for z, _ in dual):
        raise AssertionError("dual construction failed its pairing check")
    return result


@dataclass(frozen=True)
class HDescription:
    """Nonnegative orthant cut by integer equations <row, x> = rhs, i.e. <row / rhs, x> = 1:
    the one orthant-pairing test, for the recipe's pairs and gale_pair_check's B side."""

    ambient: int
    equations: tuple[tuple[tuple[int, ...], int], ...]

    def is_feasible(self, point: Sequence) -> bool:
        x, den = linalg.integer_vector(point)  # point = x / den, so <coeffs, x> = rhs * den
        if len(x) != self.ambient:
            raise ValueError("point has wrong dimension")
        return all(v >= 0 for v in x) and \
            all(linalg.dot(coeffs, x) == rhs * den for coeffs, rhs in self.equations)


@dataclass(frozen=True)
class GaleDualPair:
    p: HDescription
    q: HDescription
    samples_checked: int


def _sample_nonneg_point(rng: random.Random, sub: AffineSubspace) -> tuple[Fraction, ...]:
    # q is strictly positive, so the longest step t <= 1 along a random
    # direction offset that stays in the orthant is positive.
    coeffs = [Fraction(*_bounded_ratio(rng, -3, 3)) for _ in sub.basis]
    offset = [sum((c * b[k] for c, b in zip(coeffs, sub.basis)), Fraction(0))
              for k in range(sub.ambient)]
    t = min([Fraction(1)] + [qx / -ox for qx, ox in zip(sub.q, offset) if ox < 0])
    return tuple(qx + t * ox for qx, ox in zip(sub.q, offset))


def gale_pair_from_recipe(sub: AffineSubspace, sample_count: int = 20,
                          seed: int = 0) -> GaleDualPair:
    """Build the Gale-dual pair cut out by a subspace with positive base point.

    Returns H-style descriptions of P = orthant ∩ L and Q = orthant ∩ L-dagger, each cut out
    by <y, x> = 1 for the y spanning the other side, after checking on sample_count sampled
    nonnegative points that cross pairings are 1; a negative sample_count raises ValueError.
    """
    if sample_count < 0:  # before the base point and the dual are read
        raise ValueError("sample_count must be >= 0")
    if not all(x > 0 for x in sub.q):
        raise ValueError("recipe needs a strictly positive base point")
    dual = dual_subspace(sub)
    p_desc = HDescription(sub.ambient, tuple((tuple(y), dy) for y, dy in dual.spanning_points()))
    q_desc = HDescription(sub.ambient, tuple((tuple(y), dy) for y, dy in sub.spanning_points()))
    rng = random.Random(seed)
    for _ in range(sample_count):
        x = _sample_nonneg_point(rng, sub)
        y = _sample_nonneg_point(rng, dual)
        if linalg.dot(x, y) != 1:
            raise AssertionError("recipe sampling check failed")
        if not (p_desc.is_feasible(x) and q_desc.is_feasible(y)):
            raise AssertionError("sampled point infeasible for its own side")
    return GaleDualPair(p_desc, q_desc, sample_count)  # every failure raised


def gardner_hull(d: int) -> AffineSubspace:
    """Affine hull of the value-1 G-matrices. Its 2d-2 directions (none at d = 1) are value-0
    addition tables in RREF: C_1 - R_2 - ... - R_(d-1) + (d-3) R_d, C_j - R_d and R_i - R_d
    (1 < j <= d, 1 < i < d): each 1 at its pivot (1,1), (1,j), (i,1), 0 at the rest and before."""
    _check_d_value(d)
    e = [[int(k == i) for k in range(d)] for i in range(d)]  # tables are (lambda, mu) pairs
    tables = [(e[0], [0] + [-1] * (d - 2) + [d - 3])] * (d > 1)
    tables += [(e[j], [-x for x in e[-1]]) for j in range(1, d)]
    tables += [([0] * d, [a - b for a, b in zip(e[i], e[-1])]) for i in range(1, d - 1)]
    return AffineSubspace(d * d, (Fraction(1, d),) * (d * d),
                          tuple(tuple(m + x for m in mu for x in lam) for lam, mu in tables))


def birkhoff_hull(d: int) -> AffineSubspace:
    """Affine hull of the doubly stochastic matrices. Its (d-1)^2 directions E_ij - E_id - E_dj
    + E_dd = (e_i - e_d)(e_j - e_d)^T (i, j < d; Brualdi & Gibson 1977) are their own RREF:
    cell (i, j) is the first nonzero of direction (i, j) and zero in every other direction."""
    _check_d_value(d)
    diffs = [[int(k == i) - int(k == d - 1) for k in range(d)] for i in range(d - 1)]
    return AffineSubspace(d * d, (Fraction(1, d),) * (d * d),
                          tuple(tuple(a * b for a in u for b in v) for u in diffs for v in diffs))


@dataclass(frozen=True)
class GorensteinReport:
    d: int
    unique_interior_point_is_j: bool
    translation_bijections: tuple[tuple[int, bool], ...]  # (N, ok)

    @property
    def passed(self) -> bool:
        return self.unique_interior_point_is_j and \
            all(ok for _, ok in self.translation_bijections)


def gorenstein_check(d: int, n_max: int, budget: int | None = None) -> GorensteinReport:
    """Verify the index-d Gorenstein property by enumeration.

    For d <= N <= n_max, subtracting J must map the interior lattice points of
    the N-th dilate onto the lattice points of the (N-d)-th, in sweep order; at
    N = d that says J is the only interior point (checked for any n_max).
    Raises BudgetExceededError at the call when the largest sweep, the
    interior of dilate max(d, n_max), is over the budget.
    """
    iter_g_matrices_flat(d, max(d, n_max), 1, budget)  # raises at the call; sweeps nothing

    def bijects(value: int) -> bool:
        # Both sweeps are row-major and subtracting J keeps that order.
        interior = iter_g_matrices_flat(d, value, 1, budget)
        shifted = [tuple(x - 1 for x in t) for t in interior]
        return shifted == list(iter_g_matrices_flat(d, value - d, 0, budget))

    unique_j = bijects(d)  # interior(d) - J = {0} exactly when interior(d) = {J}
    results = tuple((value, unique_j if value == d else bijects(value))
                    for value in range(d, n_max + 1))
    return GorensteinReport(d, unique_j, results)


@dataclass(frozen=True)
class CompressedReport:
    d: int
    samples: int
    inside_cube: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def compressed_check(d: int, sample_count: int = 200, seed: int = 0) -> CompressedReport:
    """Sample the affine hulls inside the unit cube and verify membership.

    Every rational point of the G-matrix hull with entries in [0, 1] must be a value-1
    G-matrix, and every such point of the Birkhoff hull must be doubly stochastic (cube ∩ hull
    = polytope: both are compressed). sample_count points per hull; a negative one raises.
    Points outside the cube would be discarded, but on the real hulls the jitter keeps
    every sample near J/d. Only the 2d Gardner vertices are checked to be 0/1 points.
    """
    if sample_count < 0:  # d < 1 raises in all_vertices, before any sampling
        raise ValueError("sample_count must be >= 0")
    rng = random.Random(seed)
    violations: list[str] = []
    inside = 0

    for v in all_vertices(d):
        if not all(x in (0, 1) for x in vertex_matrix(v).flat()):
            violations.append(f"vertex {v} is not a 0/1 point")

    for hull, predicate, name in (
            (gardner_hull(d), _has_g_value, "value-1 G-check"),
            (birkhoff_hull(d), _has_line_sums, "doubly stochastic check")):
        (q, dq), *cleared = hull._cleared  # each direction b / db: its nonzero ints b, and db
        basis = [([(k, x) for k, x in enumerate(b) if x], db) for b, db in cleared]
        for _ in range(sample_count):
            draws = [_bounded_ratio(rng, -1, 1) for _ in basis]  # jitter r / m / (4d)
            terms = [(r, 4 * d * m * db, b) for (r, m), (b, db) in zip(draws, basis) if r]
            den = math.lcm(dq, *(dc for _, dc, _ in terms))
            point = [x * (den // dq) for x in q]
            for r, dc, b in terms:
                for k, x in b:
                    point[k] += r * (den // dc) * x
            if min(point) < 0 or max(point) > den:  # outside the unit cube, over the integers
                continue
            inside += 1
            board = SquareMatrix(tuple(point[i:i + d] for i in range(0, d * d, d)))
            if not predicate(board, den):
                rows = tuple(tuple(Fraction(x, den) for x in row) for row in board.rows)
                violations.append(f"{name} fails on hull point {rows}")
    return CompressedReport(d, 2 * sample_count, inside, tuple(violations))
