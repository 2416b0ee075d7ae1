"""The polytope of value-1 G-matrices as a combinatorial object.

For side length d, the G-matrices of value 1 form a (2d-2)-dimensional
lattice polytope whose 2d vertices are the row indicators R_1..R_d (all ones
in one row) and column indicators C_1..C_d. The full vertex set is a circuit:
R_1 + ... + R_d = J = C_1 + ... + C_d is its unique affine dependence, so
dropping any single vertex leaves an affinely independent set.

This module provides those vertices, the triangulation into the d simplices
obtained by omitting one row vertex at a time, the matching half-open
decomposition, exact barycentric coordinates, and the linear projection onto
R^(2d-2) under which each triangulation cell becomes the standard simplex.
The cells are unimodular because every coefficient of the circuit is +-1:
each cell omits one vertex of it.

Vertex order is C_1..C_d then R_1..R_d everywhere: C_j sits at slot j - 1
and R_i at slot d + i - 1 of all_vertices(d), and every cell is that tuple
with its omitted slots cut out, so the half-open bookkeeping is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from . import linalg
from .matrix import GMatrix, Scalar, SquareMatrix, _check_d_value, _exchange_violations, _labels

VertexKind = Literal["R", "C"]


@dataclass(frozen=True)
class Vertex:
    """A row indicator R_i (kind "R") or column indicator C_j (kind "C")."""

    kind: VertexKind
    index: int
    d: int

    def __post_init__(self) -> None:
        if self.kind not in ("R", "C"):
            raise ValueError(f"kind must be 'R' or 'C', got {self.kind!r}")
        if not (1 <= self.index <= self.d):
            raise ValueError(f"index {self.index} out of range for d={self.d}")

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


def row_vertex(i: int, d: int) -> Vertex:
    return Vertex("R", i, d)


def col_vertex(j: int, d: int) -> Vertex:
    return Vertex("C", j, d)


def all_vertices(d: int) -> tuple[Vertex, ...]:
    """C_1..C_d then R_1..R_d."""
    _check_d_value(d)
    return tuple(Vertex(kind, i, d) for kind in "CR" for i in range(1, d + 1))


def vertex_matrix(v: Vertex) -> SquareMatrix:
    """The 0/1 matrix of a vertex; always a G-matrix of value 1."""
    # C_j is d copies of the indicator row e_j; R_i is its transpose.
    e = tuple(1 if k == v.index else 0 for k in range(1, v.d + 1))
    return SquareMatrix(tuple((x,) * v.d for x in e) if v.kind == "R" else (e,) * v.d)


@dataclass(frozen=True)
class LatticeSimplex:
    """An ordered set of distinct vertices, affinely independent by the
    circuit property. The full 2d-vertex set is rejected: it is the circuit
    itself, not a simplex."""

    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("simplex needs at least one vertex")
        d = verts[0].d
        if any(v.d != d for v in verts):
            raise ValueError("mixed side lengths")
        if len({(v.kind, v.index) for v in verts}) != len(verts):  # one d, so no Vertex hashed
            raise ValueError("repeated vertex")
        if len(verts) == 2 * d:
            raise ValueError("the full vertex set is the circuit, not a simplex")

    @property
    def d(self) -> int:
        return self.vertices[0].d

    @property
    def m(self) -> int:
        """Number of vertices; the simplex has dimension m - 1."""
        return len(self.vertices)


@dataclass(frozen=True)
class HalfOpenSimplex:
    """A simplex with the facets opposite the vertices in ``excluded``
    removed: points must give those vertices strictly positive weight."""

    simplex: LatticeSimplex
    excluded: frozenset[Vertex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        if not self.excluded <= set(self.simplex.vertices):
            raise ValueError("excluded vertices must belong to the simplex")


def circuit_check(d: int) -> bool:
    """True iff the row indicators and the column indicators both sum to J."""
    flats = [vertex_matrix(v).flat() for v in all_vertices(d)]  # C_1..C_d, then R_1..R_d
    cols, rows = (tuple(map(sum, zip(*half))) for half in (flats[:d], flats[d:]))
    return rows == (1,) * (d * d) == cols


def affine_hull_residual(a: SquareMatrix,
                         dilation: Scalar = 1) -> tuple[Scalar, list[tuple[int, int, int, int]]]:
    """Distance of a matrix from the hull equations at a given dilation.

    Returns |sum of entries - d*dilation| together with every violated 2x2
    exchange equation A[i,j] + A[k,l] = A[i,l] + A[k,j], reported through the
    first-row/first-column reduction as quadruples (1, 1, i, j). Both parts
    are zero/empty exactly when A lies in the affine hull of the dilated
    polytope. Exact: a float entry or dilation is read as the Fraction it equals.
    """
    sum_residual = abs(a.total() - a.d * linalg.exact((dilation,))[0])
    return sum_residual, [(1, 1, i, j) for i, j in _exchange_violations(a, *_labels(a))]


def triangulation_cells(d: int, omitted_kind: VertexKind = "R") -> list[LatticeSimplex]:
    """The d cells obtained by omitting one vertex of the given kind at a time.

    Omitting row vertices (the default) and omitting column vertices are the
    only two triangulations using no new vertices; cell k omits R_k (resp.
    C_k) and has 2d - 1 vertices.
    """
    if omitted_kind not in ("R", "C"):  # d < 1 raises in all_vertices
        raise ValueError(f"omitted_kind must be 'R' or 'C', got {omitted_kind!r}")
    verts, start = all_vertices(d), d if omitted_kind == "R" else 0
    return [LatticeSimplex(verts[:s] + verts[s + 1:]) for s in range(start, start + d)]


def cell_intersection(i: int, j: int, d: int) -> LatticeSimplex:
    """Common face of the i-th and j-th triangulation cells: all column
    vertices plus the row vertices away from i and j (2d - 2 vertices)."""
    if i == j:
        raise ValueError("cell indices must differ")
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError("cell index out of range")
    return LatticeSimplex(tuple(v for s, v in enumerate(all_vertices(d))
                                if s + 1 - d not in (i, j)))  # R_i is slot d + i - 1


def halfopen_cells(d: int) -> list[HalfOpenSimplex]:
    """Half-open decomposition: cell k excludes {R_1, ..., R_(k-1)}.

    The cells then partition the polytope, so lattice points can be counted
    cell by cell with no inclusion-exclusion.
    """
    return [HalfOpenSimplex(cell, frozenset(cell.vertices[d:d + k]))  # cell k + 1's R_1..R_k
            for k, cell in enumerate(triangulation_cells(d))]


def locate(g: GMatrix, omitted_kind: VertexKind = "R") -> int:
    """Index k of the half-open cell containing the board.

    For the row-omitting decomposition this is the smallest k with row label
    mu_k = 0 in the canonical (columns-first) labeling, which is the first
    row where column 1 takes its minimum; the column-omitting variant uses
    the rows-first column labels, so the first column where row 1 does.
    """
    if omitted_kind not in ("R", "C"):
        raise ValueError(f"omitted_kind must be 'R' or 'C', got {omitted_kind!r}")
    line = g.matrix.col(1) if omitted_kind == "R" else g.matrix.row(1)
    return line.index(min(line)) + 1


def barycentric(g: GMatrix, cell: LatticeSimplex) -> tuple[Fraction, ...] | None:
    """Convex coefficients of A / value(A) with respect to the cell vertices.

    Returns the unique nonnegative affine representation, or None when the
    normalized board lies outside the cell (negative coefficients or not in
    the cell's affine span). Read off the canonical labels: A is the sum of
    lambda_j C_j and mu_i R_i, so by the circuit relation the representations
    of A put weight lambda_j - t on C_j and t + mu_i on R_i, and every vertex
    the cell omits must get 0: t = -mu_k for R_k, lambda_k for C_k. These
    weights are N times the coefficients, integers on an integer board, so
    the test is a sign test on them; only the returned tuple is divided by N.
    """
    weights = _weights(g, cell)
    return None if weights is None else tuple(Fraction(w, g.value) for w in weights)


def halfopen_contains(g: GMatrix, cell: HalfOpenSimplex) -> bool:
    """Membership in a half-open cell: a sign test on barycentric's weights
    N * coefficient (integers on an integer board), >= 0 on every vertex and
    > 0 on every excluded one; no coefficient is divided out."""
    return _weights(g, cell.simplex, cell.excluded) is not None


def _weights(g: GMatrix, cell: LatticeSimplex,
             excluded: frozenset[Vertex] = frozenset()) -> list[Scalar] | None:
    # N times the coefficients of A / N on the cell's vertices, or None outside;
    # vertices are slots 0..2d-1 in all_vertices order, so no Vertex is hashed
    if g.d != cell.d:
        raise ValueError("dimension mismatch")
    if g.value == 0:
        raise ValueError("the zero board has no normalized point")
    (lam, mu), d = _labels(g.matrix), g.d
    s = [*lam, *(-x for x in mu)]  # weight +-(s - t), + on C_j
    at = [v.index - 1 + d * (v.kind == "R") for v in cell.vertices]
    omitted = {s[k] for k in set(range(2 * d)).difference(at)}
    if len(omitted) != 1:
        return None
    t = omitted.pop()
    weights = [s[k] - t if k < d else t - s[k] for k in at]
    strict = {v.index - 1 + d * (v.kind == "R") for v in excluded}
    return weights if all(w > 0 or w == 0 and k not in strict
                          for k, w in zip(at, weights)) else None


def project_pi(a: SquareMatrix) -> tuple[Scalar, ...]:
    """Linear projection to R^(2d-2): first row (tail) and first column
    (tail, shifted by the corner), each read through ``linalg.exact``.

    pi(A) = (A[1,2], ..., A[1,d], A[2,1] - A[1,1], ..., A[d,1] - A[1,1]);
    it sends C_j to e_(j-1) (with e_0 = 0) and R_(i+1) to e_(d-1+i), so each
    triangulation cell maps onto the standard simplex.
    """
    if a.d < 2:
        raise ValueError("projection needs d >= 2")
    top, first_col = linalg.exact(a.rows[0]), linalg.exact(a.col(1))
    return tuple(top[1:]) + tuple(x - top[0] for x in first_col[1:])


def unimodularity_check(cell: LatticeSimplex) -> bool:
    """True iff pi sends the vertices to 2d - 1 distinct points of the circuit 0, e_1..e_(2d-2),
    w = (1, ..., 1, -1, ..., -1) (d - 1 of each sign). Its coefficients are +-1, so any 2d - 1 of
    them span a simplex of determinant +-1. Requires a full-dimensional cell (2d - 1 vertices);
    anything smaller is rejected as degenerate."""
    d = cell.d
    if cell.m != 2 * d - 1:
        raise ValueError("degenerate cell: expected 2d-1 vertices")
    if d == 1:
        return True
    zero_and_units = {tuple(int(i == k) for i in range(2 * d - 2)) for k in range(-1, 2 * d - 2)}
    images = {project_pi(vertex_matrix(v)) for v in cell.vertices}
    return len(images) == cell.m and images <= zero_and_units | {(1,) * (d - 1) + (-1,) * (d - 1)}
