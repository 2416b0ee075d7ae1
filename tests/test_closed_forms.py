"""The closed forms of the polytope and duality modules against general linear
algebra: barycentric coordinates against an exact linear solve, and the two
hulls and their duals against normalization from vertex spanning sets."""
import itertools
import random
from fractions import Fraction

import pytest

from gardner import linalg
from gardner.counting import iter_g_matrices_flat
from gardner.duality import (AffineSubspace, birkhoff_hull, dual_subspace,
                             gardner_hull, permutation_matrix, permutations_of)
from gardner.matrix import GMatrix, SquareMatrix, scale, trick_generate
from gardner.polytope import (LatticeSimplex, all_vertices, barycentric,
                              cell_intersection, halfopen_cells,
                              halfopen_contains, triangulation_cells,
                              vertex_matrix)


def _solved_barycentric(g: GMatrix, cell: LatticeSimplex):
    # the affine representation of A / N by one exact solve of the
    # (d^2 + 1)-equation system for N times the weights: the entries of A,
    # then the weights summing to N
    verts = [vertex_matrix(v).flat() for v in cell.vertices]
    rows = [[v[c] for v in verts] for c in range(g.d * g.d)] + [[1] * len(verts)]
    scaled = linalg.solve_unique(rows, list(g.matrix.flat()) + [g.value])
    if scaled is None or any(x < 0 for x in scaled):
        return None
    return tuple(x / g.value for x in scaled)


def _simplices(d: int) -> list[LatticeSimplex]:
    cells = triangulation_cells(d, "R") + triangulation_cells(d, "C")
    faces = [cell_intersection(i, j, d)
             for i, j in itertools.permutations(range(1, d + 1), 2)]
    small = [LatticeSimplex(vs) for m in (1, 2, 3)
             for vs in itertools.combinations(all_vertices(d), m) if m < 2 * d]
    return cells + faces + small


def _boards(d: int) -> list[GMatrix]:
    # every board of value 1 or 2 (most lie on faces, where weights are 0)
    # and seeded boards of larger value, each also scaled to Fraction entries
    flats = [(flat, n) for n in (1, 2) for flat in iter_g_matrices_flat(d, n)]
    boards = [GMatrix(SquareMatrix(tuple(flat[i * d:(i + 1) * d] for i in range(d))), n)
              for flat, n in flats[::max(1, len(flats) // 5)]]
    boards += [trick_generate(d, n, seed=7 * n) for n in (5, 20)]
    return boards + [scale(b, Fraction(2, 3 * b.value)) for b in boards]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_barycentric_matches_the_linear_solve(d):
    simplices = _simplices(d)
    inside = 0
    for board in _boards(d):
        for cell in simplices:
            coeffs = barycentric(board, cell)
            assert coeffs == _solved_barycentric(board, cell), (board, cell)
            inside += coeffs is not None
    assert inside > 0


@pytest.mark.parametrize("d", [2, 4, 6, 7])
def test_halfopen_contains_matches_the_linear_solve(d):
    rng = random.Random(d)
    for _ in range(3):
        board = trick_generate(d, rng.randint(1, 30), seed=rng.randrange(2 ** 32))
        for cell in halfopen_cells(d):
            coeffs = _solved_barycentric(board, cell.simplex)
            want = coeffs is not None and all(
                c > 0 for v, c in zip(cell.simplex.vertices, coeffs) if v in cell.excluded)
            assert halfopen_contains(board, cell) == want


def _hull_through(points: list[tuple[int, ...]]) -> AffineSubspace:
    # normalize from the first point and every difference, by the Gram solve
    base = points[0]
    return AffineSubspace.from_point_and_directions(
        base, [[a - b for a, b in zip(p, base)] for p in points[1:]], reduce=True)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_hulls_match_normalization_from_vertices(d):
    g_points = [vertex_matrix(v).flat() for v in all_vertices(d)]
    b_points = [permutation_matrix(s).flat() for s in permutations_of(d)]
    assert gardner_hull(d) == _hull_through(g_points)
    assert birkhoff_hull(d) == _hull_through(b_points)
    assert gardner_hull(d).q == (Fraction(1, d),) * (d * d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_hull_duals_are_involutions(d):
    for hull in (gardner_hull(d), birkhoff_hull(d)):
        assert dual_subspace(dual_subspace(hull)) == hull


def test_hulls_equal_the_rref_of_their_spanning_directions():
    # The eliminations the closed forms replaced, kept as the oracle: the vertex
    # differences against C_1, and the (d-1)^2 outer products of e_i - e_d and e_j - e_d.
    for d in range(1, 17):
        c1, *others = (vertex_matrix(v).flat() for v in all_vertices(d))
        reduced, _ = linalg.rref([[a - b for a, b in zip(v, c1)] for v in others])
        assert gardner_hull(d).basis == tuple(map(tuple, reduced))
        diffs = [[int(k == i) - int(k == d - 1) for k in range(d)] for i in range(d - 1)]
        reduced, _ = linalg.rref([[a * b for a in u for b in v] for u in diffs for v in diffs])
        assert birkhoff_hull(d).basis == tuple(map(tuple, reduced))


def _rref_pivots(basis) -> list[int]:
    # each row's first nonzero is a 1, in a column where every other row is 0
    pivots = [next(k for k, x in enumerate(row) if x) for row in basis]
    assert all(row[p] == 1 for row, p in zip(basis, pivots))
    assert all(sum(1 for row in basis if row[p]) == 1 for p in pivots)
    assert pivots == sorted(set(pivots))
    return pivots


def test_hull_duality_holds_past_the_dense_route():
    # dual_subspace(birkhoff_hull(d)) is J/d (|J/d|^2 = 1) plus the directions orthogonal
    # to J and to every Birkhoff direction E_ij - E_id - E_dj + E_dd, a space of dimension
    # d^2 - (d-1)^2 - 1 = 2d - 2. Every Gardner direction lies in it (entries summing to 0,
    # and a zero pairing A[i,j] - A[i,d] - A[d,j] + A[d,d] with direction (i, j)), and 2d - 2
    # of them in RREF with distinct pivots span it; RREF is unique, so the subspaces are equal.
    for d in range(1, 21):
        hull_g, hull_b = gardner_hull(d), birkhoff_hull(d)
        assert hull_g.q == hull_b.q == (Fraction(1, d),) * (d * d)
        assert len(_rref_pivots(hull_g.basis)) == 2 * d - 2
        assert len(_rref_pivots(hull_b.basis)) == (d - 1) ** 2
        assert (2 * d - 2) + (d - 1) ** 2 + 1 == d * d
        for (i, j), flat in zip(itertools.product(range(d - 1), repeat=2), hull_b.basis):
            cells = {i * d + j: 1, i * d + d - 1: -1, (d - 1) * d + j: -1, d * d - 1: 1}
            assert {k: x for k, x in enumerate(flat) if x} == cells  # direction (i, j)
        for flat in hull_g.basis:
            a = [flat[k:k + d] for k in range(0, d * d, d)]
            assert sum(flat) == 0
            assert not any(a[i][j] - a[i][-1] - a[-1][j] + a[-1][-1]
                           for i in range(d - 1) for j in range(d - 1))
