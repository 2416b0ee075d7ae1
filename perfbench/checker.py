"""Independent checks of gardner's answers.

Nothing here imports gardner: every answer is checked against the paper's
statements with this module's own arithmetic, so a defect in the package
cannot vouch for itself. The checks test properties only (a board is an
addition table of labels summing to N, a count equals formula (3), ...),
never boards pinned to seeds, so any correct sampler passes them.

Each check returns None when the answer is right and a one-line reason
when it is wrong.
"""
from __future__ import annotations

import math
from fractions import Fraction


def g_count(d: int, n: int) -> int:
    """g_d(N) by formula (3): C(N+2d-1, 2d-1) - C(N+d-1, 2d-1); 0 for N < 0."""
    if n < 0:
        return 0
    return math.comb(n + 2 * d - 1, 2 * d - 1) - math.comb(n + d - 1, 2 * d - 1)


def halfopen_count(d: int, k: int, n: int) -> int:
    """Boards of value n in half-open cell k (1-based): the k-th term of
    formula (3), C(n-1+m-u, m-1) with m = 2d-1 vertices and u = k-1 facets
    removed; zero outside the counting range."""
    m, u = 2 * d - 1, k - 1
    top = n - 1 + m - u
    return math.comb(top, m - 1) if 0 <= m - 1 <= top else 0


def check_board(rows, d: int, value) -> str | None:
    """A d x d board of nonnegative integers whose every rook placement sums
    to value: the 2x2 exchange rule against the first row and column, and
    the diagonal sum."""
    if len(rows) != d or any(len(r) != d for r in rows):
        return f"board is not {d}x{d}"
    for r in rows:
        for x in r:
            if type(x) is not int or x < 0:
                return f"entry {x!r} is not a nonnegative integer"
    top, a11 = rows[0], rows[0][0]
    for i in range(1, d):
        ri = rows[i]
        base = ri[0] - a11
        for j in range(1, d):
            if ri[j] - top[j] != base:
                return f"2x2 exchange fails at row {i + 1}, column {j + 1}"
    diagonal = sum(rows[i][i] for i in range(d))
    if diagonal != value:
        return f"diagonal sum {diagonal} != {value}"
    return None


def own_labels(rows) -> tuple[list[int], list[int]]:
    """Columns-first labels of an addition table: lambda_j is the column
    minimum, mu_i the row residue (so min mu = 0)."""
    d = len(rows)
    lam = [min(rows[i][j] for i in range(d)) for j in range(d)]
    mu = [rows[i][0] - lam[0] for i in range(d)]
    return lam, mu


def own_cell(rows) -> int:
    """Half-open cell of a board: the first k with mu_k = 0."""
    _, mu = own_labels(rows)
    return mu.index(0) + 1


def check_labels(rows, lam, mu, value) -> str | None:
    """Labels compose to the entries, are nonnegative, sum to value and have
    min mu = 0."""
    d = len(rows)
    if len(lam) != d or len(mu) != d:
        return "wrong number of labels"
    if any(type(x) is not int or x < 0 for x in list(lam) + list(mu)):
        return "labels must be nonnegative integers"
    if min(mu) != 0:
        return f"min row label is {min(mu)}, not 0"
    if sum(lam) + sum(mu) != value:
        return f"labels sum to {sum(lam) + sum(mu)}, not {value}"
    for i in range(d):
        row, m = rows[i], mu[i]
        for j in range(d):
            if row[j] != m + lam[j]:
                return f"labels do not compose to entry ({i + 1}, {j + 1})"
    return None


def _is_permutation(sigma, d: int) -> bool:
    return sorted(sigma) == list(range(1, d + 1))


def placement_sum(rows, sigma) -> int:
    return sum(rows[i][s - 1] for i, s in enumerate(sigma))


def check_witness(rows, sigma, sigma_prime, sums) -> str | None:
    """Two rook placements whose covered sums differ, as reported."""
    d = len(rows)
    if not (_is_permutation(sigma, d) and _is_permutation(sigma_prime, d)):
        return "witness placements are not permutations"
    own = (placement_sum(rows, sigma), placement_sum(rows, sigma_prime))
    if own[0] == own[1]:
        return "witness placements cover equal sums"
    if tuple(int(s) for s in sums) != own:
        return f"witness sums {tuple(sums)} != {own}"
    return None


def check_poly(d: int, coeffs) -> str | None:
    """Coefficients (constant first) of g_d agree with formula (3) beyond the
    2d-1 interpolation nodes 0..2d-2."""
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != 2 * d - 1:
        return f"{len(coeffs)} coefficients, expected {2 * d - 1}"
    for n in (2 * d - 1, 2 * d, 3 * d + 1, 10 ** 3 + d):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * n + c
        if acc != g_count(d, n):
            return f"polynomial gives {acc} at N={n}, formula (3) {g_count(d, n)}"
    return None


def check_roots(d: int, roots, labels, tol: float) -> str | None:
    """2d-2 roots, every one classified, and each label true: a
    'negative-integer' root lies within tol of one of -1..-(d-1) and a
    'critical-line' root within tol of Re = -d/2. The theorem is true, so an
    unclassified root is a wrong answer."""
    if len(roots) != 2 * d - 2 or len(labels) != len(roots):
        return f"{len(roots)} roots, expected {2 * d - 2}"
    for (re, im), label in zip(roots, labels):
        if label == "negative-integer":
            k = round(re)
            if not (-(d - 1) <= k <= -1 and abs(complex(re - k, im)) <= tol):
                return f"root {re}{im:+}i is not a negative integer"
        elif label == "critical-line":
            if abs(re + d / 2) >= tol:
                return f"root {re}{im:+}i is off the critical line"
        else:
            return f"root {re}{im:+}i left {label}"
    return None


def _reduce(echelon, v: list[Fraction]) -> list[Fraction]:
    """v minus its components along the echelon rows' pivots."""
    for pivot, row in echelon:
        f = v[pivot]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _echelon(vectors) -> list[tuple[int, list[Fraction]]]:
    """Echelon rows (pivot column, row scaled to 1 at the pivot) spanning the
    vectors; its length is their rank."""
    echelon = []
    for v in vectors:
        v = _reduce(echelon, [Fraction(x) for x in v])
        pivot = next((col for col, x in enumerate(v) if x), None)
        if pivot is not None:
            echelon.append((pivot, [x / v[pivot] for x in v]))
    return echelon


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def _spanning_points(q, basis):
    return [tuple(q)] + [tuple(a + b for a, b in zip(q, v)) for v in basis]


def check_dual(ambient: int, q, basis, dq, dbasis) -> str | None:
    """R = q' + span(B') is the dual of L = q + span(B): every spanning point
    of L pairs to 1 with every spanning point of R, B' is independent, and
    dim L + dim R = D - 1. Pairing is symmetric, so the same facts make L
    the dual of R: the construction is an involution."""
    if len(_echelon(basis)) != len(basis) or len(_echelon(dbasis)) != len(dbasis):
        return "directions are dependent"
    if len(basis) + len(dbasis) != ambient - 1:
        return f"dims {len(basis)} + {len(dbasis)} != {ambient - 1}"
    for x in _spanning_points(q, basis):
        for y in _spanning_points(dq, dbasis):
            if _dot(x, y) != 1:
                return "a spanning point pair does not pair to 1"
    return None


def check_contains(q, basis, points) -> str | None:
    """Each point lies on the affine subspace q + span(basis)."""
    echelon = _echelon(basis)
    for p in points:
        if any(_reduce(echelon, [Fraction(a) - b for a, b in zip(p, q)])):
            return f"point {p} is off the subspace"
    return None


def vertex_flat(kind: str, index: int, d: int) -> tuple[int, ...]:
    """Row indicator R_index or column indicator C_index, row-major."""
    if kind == "R":
        return tuple(1 if i == index - 1 else 0 for i in range(d) for _ in range(d))
    return tuple(1 if j == index - 1 else 0 for _ in range(d) for j in range(d))


def check_barycentric(rows, value, vertices, coeffs) -> str | None:
    """Convex coefficients whose combination of the cell vertices is A/N.
    ``vertices`` are (kind, index) pairs."""
    d = len(rows)
    if len(coeffs) != len(vertices):
        return "one coefficient per vertex expected"
    if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
        return "coefficients are not convex"
    point = [Fraction(0)] * (d * d)
    for (kind, index), c in zip(vertices, coeffs):
        for p, x in enumerate(vertex_flat(kind, index, d)):
            if x:
                point[p] += c
    target = [Fraction(x, value) for r in rows for x in r]
    if point != target:
        return "coefficients do not reproduce A/N"
    return None
