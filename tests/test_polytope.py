import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_VALUE
from gardner import linalg
from gardner.matrix import (GMatrix, Labeling, SquareMatrix, compose,
                            decompose_canonical, scale)
from gardner.polytope import (HalfOpenSimplex, LatticeSimplex, all_vertices,
                              affine_hull_residual, barycentric,
                              cell_intersection, circuit_check, col_vertex,
                              halfopen_cells, halfopen_contains, locate,
                              project_pi, row_vertex, triangulation_cells,
                              unimodularity_check, vertex_matrix)


def names(cell: LatticeSimplex) -> list[str]:
    return [str(v) for v in cell.vertices]


# ------------------------------------------------------------------ vertices

def test_vertex_matrices():
    assert vertex_matrix(row_vertex(1, 2)).rows == ((1, 1), (0, 0))
    assert vertex_matrix(col_vertex(2, 2)).rows == ((0, 1), (0, 1))


def test_vertex_matrices_have_value_one():
    for d in range(1, 6):
        for v in all_vertices(d):
            assert GMatrix.from_matrix(vertex_matrix(v)).value == 1


def test_vertex_validation():
    with pytest.raises(ValueError):
        row_vertex(0, 3)
    with pytest.raises(ValueError):
        col_vertex(4, 3)


def test_circuit_check():
    for d in (1, 2, 5, 6):
        assert circuit_check(d)


def test_vertex_minimality():
    # No vertex is a convex combination of the other 2d-1 vertices.
    for d in (2, 3, 4):
        for v in all_vertices(d):
            others = LatticeSimplex(tuple(w for w in all_vertices(d) if w != v))
            point = GMatrix.from_matrix(vertex_matrix(v))
            assert barycentric(point, others) is None


# ---------------------------------------------------------------- simplices

def test_full_vertex_set_is_rejected():
    for d in (1, 2, 3):
        with pytest.raises(ValueError):
            LatticeSimplex(all_vertices(d))


def test_simplex_validation():
    with pytest.raises(ValueError):
        LatticeSimplex((row_vertex(1, 2), row_vertex(1, 2)))
    with pytest.raises(ValueError):
        LatticeSimplex((row_vertex(1, 2), row_vertex(1, 3)))
    with pytest.raises(ValueError):
        LatticeSimplex(())


def test_cells_are_affinely_independent():
    for d in (1, 2, 3, 4):
        for cell in triangulation_cells(d) + triangulation_cells(d, "C"):
            flats = [vertex_matrix(v).flat() for v in cell.vertices]
            diffs = [[a - b for a, b in zip(f, flats[0])] for f in flats[1:]]
            assert linalg.rank(diffs) == cell.m - 1


def test_triangulation_cells():
    assert [names(c) for c in triangulation_cells(2)] == \
        [["C1", "C2", "R2"], ["C1", "C2", "R1"]]
    assert [names(c) for c in triangulation_cells(1)] == [["C1"]]
    cells = triangulation_cells(3)
    assert len(cells) == 3 and all(c.m == 5 for c in cells)
    # column-omitting variant
    assert [names(c) for c in triangulation_cells(2, "C")] == \
        [["C2", "R1", "R2"], ["C1", "R1", "R2"]]


def test_cell_intersection():
    assert names(cell_intersection(1, 2, 2)) == ["C1", "C2"]
    assert names(cell_intersection(1, 2, 3)) == ["C1", "C2", "C3", "R3"]
    for d in (2, 3, 5):
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                assert cell_intersection(i, j, d).m == 2 * d - 2
    with pytest.raises(ValueError):
        cell_intersection(2, 2, 3)


def test_halfopen_cells():
    cells = halfopen_cells(2)
    assert [sorted(map(str, c.excluded)) for c in cells] == [[], ["R1"]]
    assert halfopen_cells(1)[0].excluded == frozenset()
    for d in (1, 2, 3, 6):
        for k, c in enumerate(halfopen_cells(d), start=1):
            assert len(c.excluded) == k - 1
            assert c.excluded == {row_vertex(i, d) for i in range(1, k)}


def test_halfopen_excluded_must_be_vertices():
    cell = triangulation_cells(2)[0]  # omits R1
    with pytest.raises(ValueError):
        HalfOpenSimplex(cell, frozenset({row_vertex(1, 2)}))


# ------------------------------------------------------------------- locate

def test_locate_example(example_board):
    assert locate(example_board) == 2


def test_locate_easy_cases():
    assert locate(GMatrix.from_matrix(SquareMatrix.all_ones(4))) == 1
    for d in (1, 2, 3):
        for j in range(1, d + 1):
            assert locate(GMatrix.from_matrix(vertex_matrix(col_vertex(j, d)))) == 1
    # row labels (3, 0) put the board in the second half-open cell
    assert locate(compose(Labeling((1, 0), (3, 0)))) == 2


def test_locate_column_variant():
    g = compose(Labeling((2, 3), (0, 1)))  # rows-first labels are (0, 1)
    assert locate(g, "C") == 1
    g = compose(Labeling((5, 0), (1, 0)))
    assert locate(g, "C") == 2


def test_locate_partitions_small_dilates():
    # every integer point lands in exactly one half-open cell
    for d, n in ((2, 3), (3, 2)):
        cells = halfopen_cells(d)
        for lam in itertools.product(range(n + 1), repeat=d):
            for mu in itertools.product(range(n + 1), repeat=d):
                if sum(lam) + sum(mu) != n or min(mu) != 0:
                    continue
                g = compose(Labeling(lam, mu))
                k = locate(g)
                member = [halfopen_contains(g, c) for c in cells]
                assert member == [i == k - 1 for i in range(d)]


# -------------------------------------------------------------- barycentric

def test_barycentric_example(example_board):
    cell = triangulation_cells(5)[1]  # omits R2
    coeffs = barycentric(example_board, cell)
    expected = tuple(Fraction(x, EXAMPLE_VALUE)
                     for x in (12, 1, 4, 18, 0, 7, 4, 9, 2))
    assert coeffs == expected
    assert sum(coeffs) == 1


def test_barycentric_barycenter_in_first_cell():
    for d in (2, 3, 4):
        j = GMatrix.from_matrix(SquareMatrix.all_ones(d))
        coeffs = barycentric(j, triangulation_cells(d)[0])
        assert coeffs == tuple([Fraction(1, d)] * d + [Fraction(0)] * (d - 1))


def test_barycentric_outside():
    r1 = GMatrix.from_matrix(vertex_matrix(row_vertex(1, 3)))
    p1 = triangulation_cells(3)[0]  # omits R1
    assert barycentric(r1, p1) is None


def test_barycentric_zero_value_raises():
    with pytest.raises(ValueError):
        barycentric(GMatrix.zero(2), triangulation_cells(2)[0])


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(0, 20), min_size=d, max_size=d),
        st.lists(st.integers(0, 20), min_size=d, max_size=d))))
def test_barycentric_recovers_the_labels(lists):
    # In its located cell, a board's convex coefficients are exactly its
    # canonical labels divided by the value (the cell skips one row vertex,
    # whose label is zero).
    lam, mu = (tuple(lists[0]), tuple(lists[1]))
    g = compose(Labeling(lam, mu))
    if g.value == 0:
        return
    k = locate(g)
    can = decompose_canonical(g)
    assert can.row_labels[k - 1] == 0
    coeffs = barycentric(g, triangulation_cells(g.d)[k - 1])
    expected = [Fraction(x, g.value) for x in can.col_labels]
    expected += [Fraction(x, g.value) for i, x in enumerate(can.row_labels, start=1)
                 if i != k]
    assert coeffs == tuple(expected)


def test_barycentric_on_scaled_board(example_board):
    # barycentric works on the normalized point, so scaling changes nothing
    cell = triangulation_cells(5)[1]
    unit = scale(example_board, Fraction(1, EXAMPLE_VALUE))
    assert barycentric(unit, cell) == barycentric(example_board, cell)


def test_hulls_of_rows_and_columns_meet_at_the_center():
    # conv(R_1..R_d) and conv(C_1..C_d) intersect exactly in J/d: solving
    # sum a_i R_i = sum b_j C_j with sum a = sum b = 1 has the unique
    # solution a_i = b_j = 1/d.
    for d in (2, 3, 4):
        rows = []
        rhs = []
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (2 * d)
                row[i] = Fraction(1)        # alpha_i from R_i at entry (i, j)
                row[d + j] = Fraction(-1)   # beta_j from C_j at entry (i, j)
                rows.append(row)
                rhs.append(Fraction(0))
        rows.append([Fraction(1)] * d + [Fraction(0)] * d)
        rhs.append(Fraction(1))
        rows.append([Fraction(0)] * d + [Fraction(1)] * d)
        rhs.append(Fraction(1))
        solution = linalg.solve_unique(rows, rhs)
        assert solution == tuple([Fraction(1, d)] * (2 * d))
        j_over_d = GMatrix.from_matrix(SquareMatrix.all_ones(d))
        r_hull = LatticeSimplex(tuple(row_vertex(i, d) for i in range(1, d + 1)))
        c_hull = LatticeSimplex(tuple(col_vertex(i, d) for i in range(1, d + 1)))
        assert barycentric(j_over_d, r_hull) == tuple([Fraction(1, d)] * d)
        assert barycentric(j_over_d, c_hull) == tuple([Fraction(1, d)] * d)


# ----------------------------------------------------------- affine residual

def test_affine_hull_residual_on_dilated_example(example_board):
    fifth = scale(example_board, Fraction(5, EXAMPLE_VALUE))
    sum_res, violations = affine_hull_residual(fifth.matrix, dilation=5)
    assert sum_res == 0 and violations == []


def test_affine_hull_residual_barycenter():
    for d in (2, 3):
        center = SquareMatrix.all_ones(d).scaled(Fraction(1, d))
        assert affine_hull_residual(center) == (0, [])


@pytest.mark.parametrize("dilation, residual", [
    (Fraction(1, 10), 0), (1, Fraction(9, 5)), (0.1, Fraction(1, 90071992547409920))])
def test_affine_hull_residual_reads_the_dilation_exactly(dilation, residual):
    # 0.1 is 3602879701896397/2^55, so the total 1/5 misses 2 * 0.1 by 1/(5 * 2^54)
    board = SquareMatrix(((Fraction(1, 10), 0), (0, Fraction(1, 10))))
    sum_res, _ = affine_hull_residual(board, dilation)
    assert sum_res == residual and type(sum_res) is Fraction


def test_affine_hull_residual_identity():
    sum_res, violations = affine_hull_residual(SquareMatrix.identity(2))
    assert sum_res == 0  # trace is 2 = d, but the exchange equation fails
    assert violations == [(1, 1, 2, 2)]


# --------------------------------------------------------------- projection

def test_project_pi_examples():
    assert project_pi(vertex_matrix(col_vertex(1, 3))) == (0, 0, 0, 0)
    assert project_pi(vertex_matrix(row_vertex(2, 3))) == (0, 0, 1, 0)
    assert project_pi(SquareMatrix.zero(3)) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        project_pi(SquareMatrix.zero(1))


def test_project_pi_sends_cell_vertices_to_unit_vectors():
    for d in (2, 3, 5):
        dim = 2 * d - 2
        for j in range(1, d + 1):
            image = project_pi(vertex_matrix(col_vertex(j, d)))
            expected = tuple(1 if c == j - 2 else 0 for c in range(dim))
            assert image == expected
        for i in range(2, d + 1):
            image = project_pi(vertex_matrix(row_vertex(i, d)))
            expected = tuple(1 if c == d + i - 3 else 0 for c in range(dim))
            assert image == expected


# ------------------------------------------------------------- unimodularity

def test_unimodularity_of_all_cells():
    for d in range(1, 7):
        for cell in triangulation_cells(d):
            assert unimodularity_check(cell)
        for cell in triangulation_cells(d, "C"):
            assert unimodularity_check(cell)


def test_unimodularity_rejects_degenerate():
    with pytest.raises(ValueError):
        unimodularity_check(cell_intersection(1, 2, 2))


# ------------------------------- the integer weights against a Fraction solve

def barycentric_by_solving(g: GMatrix, cell: LatticeSimplex):
    # Independent reference: solve sum_v c_v M_v = A / N, sum_v c_v = 1 in Fractions.
    columns = [vertex_matrix(v).flat() for v in cell.vertices]
    target = [Fraction(x) / g.value for x in g.matrix.flat()] + [Fraction(1)]
    system = [list(entries) for entries in zip(*columns)] + [[1] * len(columns)]
    coeffs = linalg.solve_unique(system, target)
    return None if coeffs is None or min(coeffs) < 0 else coeffs


def contains_by_solving(g: GMatrix, cell: HalfOpenSimplex) -> bool:
    coeffs = barycentric_by_solving(g, cell.simplex)
    return coeffs is not None and all(c > 0 for v, c in zip(cell.simplex.vertices, coeffs)
                                      if v in cell.excluded)


def seeded_cells(rng: random.Random, d: int) -> list[LatticeSimplex]:
    # Both triangulations, the faces shared by two row-omitting cells, and a
    # proper subset of the vertices, which omits vertices of both kinds.
    cells = triangulation_cells(d, "R") + triangulation_cells(d, "C")
    if d >= 2:
        cells += [cell_intersection(*rng.sample(range(1, d + 1), 2), d) for _ in range(3)]
    vertices = list(all_vertices(d))
    cells.append(LatticeSimplex(tuple(rng.sample(vertices, rng.randint(1, 2 * d - 1)))))
    return cells


@pytest.mark.parametrize("seed", range(8))
def test_integer_weights_match_a_fraction_solve(seed):
    # Small labels put many boards on the cells' boundaries, where a weight
    # is exactly 0; each board is also tried as a Fraction board from scale.
    rng = random.Random(f"weights-{seed}")
    for _ in range(12):
        d = rng.randint(1, 4)
        lab = Labeling(tuple(rng.choice([0, 0, 1, 2, 5]) for _ in range(d)),
                       tuple(rng.choice([0, 0, 1, 3]) for _ in range(d)))
        if lab.total() == 0:
            continue
        board = compose(lab)
        scaled = scale(board, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        for cell in seeded_cells(rng, d):
            excluded = frozenset(v for v in cell.vertices if rng.random() < 0.5)
            half_open = HalfOpenSimplex(cell, excluded)
            want = barycentric_by_solving(board, cell)
            want_in = contains_by_solving(board, half_open)
            for g in (board, scaled):
                assert barycentric(g, cell) == want, (g.matrix.rows, names(cell))
                assert halfopen_contains(g, half_open) == want_in, (g.matrix.rows, names(cell))


# -------------------------------------------------------------------- facets

def test_facet_vertex_sets_and_rank():
    # The vertices lying on the facet entry(i, j) = 0 are everything except
    # R_i and C_j, and they affinely span a (2d-3)-dimensional set.
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                on_facet = [v for v in all_vertices(d)
                            if vertex_matrix(v).entry(i, j) == 0]
                expected = [v for v in all_vertices(d)
                            if not (v.kind == "R" and v.index == i)
                            and not (v.kind == "C" and v.index == j)]
                assert on_facet == expected
                assert len(on_facet) == 2 * d - 2
                if d >= 2:
                    flats = [project_pi(vertex_matrix(v)) for v in on_facet]
                    diffs = [[a - b for a, b in zip(f, flats[0])]
                             for f in flats[1:]]
                    assert linalg.rank(diffs) == 2 * d - 3
