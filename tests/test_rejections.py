"""Input-rejection branches: each bad input raises its exception type with
the message pinned here, and the edge cases next to them keep their values."""
import os
import re
from fractions import Fraction

import pytest

from gardner import linalg
from gardner.boards import BoardDocument, BoardParseError
from gardner.counting import CountingPolynomial, FStarVector
from gardner.duality import (AffineSubspace, HDescription, birkhoff_hull, gale_pair_from_recipe,
                             is_doubly_stochastic, pairing)
from gardner.matrix import (GMatrix, Labeling, SquareMatrix, compose, is_g_matrix_bruteforce,
                            is_g_matrix_fast, scale)
from gardner.polytope import (Vertex, affine_hull_residual, barycentric, cell_intersection,
                              locate, project_pi, triangulation_cells)


def raises(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


# ------------------------------------------------------------------ linalg

def test_dot_rejects_vectors_of_different_lengths():
    with raises(ValueError, "vector length mismatch"):
        linalg.dot([1, 2], [1, 2, 3])


def test_solve_unique_rejects_a_shape_mismatch():
    with raises(ValueError, "system shape mismatch"):
        linalg.solve_unique([[1, 0], [0, 1]], [1])


def test_det_bareiss_rejects_a_non_square_matrix():
    with raises(ValueError, "matrix is not square"):
        linalg.det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_det_bareiss_without_a_pivot_is_zero():
    assert linalg.det_bareiss([[0, 1], [0, 2]]) == 0


@pytest.mark.parametrize("rows", [[[1], [3, 4]], [[1, 2], [3]]], ids=["short-first", "short-last"])
def test_row_reduction_rejects_rows_of_different_lengths(rows):
    for reduce in (linalg.rref, linalg.rank):
        with raises(ValueError, "rows have different lengths"):
            reduce(rows)
    with raises(ValueError, "rows have different lengths"):
        linalg.solve_unique(rows, [1, 2])


def test_nullspace_rejects_rows_whose_length_is_not_ncols():
    with raises(ValueError, "row length differs from ncols"):
        linalg.nullspace([[1, 2, 3]], 2)


@pytest.mark.parametrize("rows", [[[Fraction(1, 2)]], [[0.5, 0], [0, 2]]], ids=["fraction", "float"])
def test_det_bareiss_rejects_entries_that_are_not_int(rows):
    with raises(TypeError, "det_bareiss needs int entries"):
        linalg.det_bareiss(rows)


# ------------------------------------------------------------------ matrix

def test_square_matrix_sum_rejects_a_dimension_mismatch():
    with raises(ValueError, "dimension mismatch"):
        SquareMatrix.all_ones(2) + SquareMatrix.all_ones(3)


@pytest.mark.parametrize("cols, rows", [((1, 2), (0,)), ((), ())], ids=["unequal", "empty"])
def test_labeling_rejects_unequal_or_empty_labels(cols, rows):
    with raises(ValueError, "need d >= 1 column labels and equally many row labels"):
        Labeling(cols, rows)


def test_labeling_d_is_the_number_of_column_labels():
    assert Labeling((1, 2, 3), (0, 4, 5)).d == 3


# ---------------------------------------------------------------- counting

def test_f_star_vector_rejects_the_wrong_length():
    with raises(ValueError, "expected 2d-1 entries"):
        FStarVector(2, (1, 2))


def test_f_star_vector_rejects_a_negative_entry():
    with raises(ValueError, "entries must be nonnegative"):
        FStarVector(2, (1, -1, 0))


# ---------------------------------------------------------------- polytope

def test_vertex_rejects_a_bad_kind():
    with raises(ValueError, "kind must be 'R' or 'C', got 'X'"):
        Vertex("X", 1, 2)


def test_triangulation_cells_and_locate_reject_a_bad_omitted_kind():
    with raises(ValueError, "omitted_kind must be 'R' or 'C', got 'X'"):
        triangulation_cells(3, "X")
    with raises(ValueError, "omitted_kind must be 'R' or 'C', got 'X'"):
        locate(compose(Labeling((1, 2), (0, 3))), "X")


@pytest.mark.parametrize("i, j", [(0, 2), (1, 4)])
def test_cell_intersection_rejects_an_index_out_of_range(i, j):
    with raises(ValueError, "cell index out of range"):
        cell_intersection(i, j, 3)


def test_barycentric_rejects_a_cell_of_another_d():
    with raises(ValueError, "dimension mismatch"):
        barycentric(compose(Labeling((1, 2), (0, 3))), triangulation_cells(3)[0])


# ---------------------------------------------------------------- duality

def test_subspace_rejects_a_direction_of_the_wrong_length():
    with raises(ValueError, "direction length mismatch"):
        AffineSubspace.from_point_and_directions([1, 2], [[1, 0, 0]])


def test_feasibility_rejects_a_point_of_the_wrong_dimension():
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    with raises(ValueError, "point has wrong dimension"):
        gale_pair_from_recipe(line, sample_count=1).p.is_feasible([1, 1, 0])


# ------------------------------------------------------- the one scalar rule

NOT_FINITE = "a float entry is not finite (an infinity or a NaN)"

# Each reader of a scalar, fed one non-finite float x at a place the call reads.
SCALAR_READERS = {
    "GMatrix.from_matrix": lambda x: GMatrix.from_matrix(SquareMatrix(((x, 1), (1, 1)))),
    "is_g_matrix_fast": lambda x: is_g_matrix_fast(SquareMatrix(((1, x), (1, 1)))),
    "is_g_matrix_bruteforce": lambda x: is_g_matrix_bruteforce(SquareMatrix(((x, 1), (1, 1)))),
    "is_doubly_stochastic": lambda x: is_doubly_stochastic(SquareMatrix(((x, 0), (0, 1)))),
    "HDescription.is_feasible": lambda x: HDescription(2, (((1, 1), 1),)).is_feasible([x, 0]),
    "Labeling": lambda x: Labeling((x, 1), (0, 0)),
    "SquareMatrix.total": lambda x: SquareMatrix(((1, 2), (3, x))).total(),
    "scale": lambda x: scale(GMatrix.zero(2), x),
    "AffineSubspace.from_point_and_directions": lambda x: (
        AffineSubspace.from_point_and_directions([x, 0], [])),
    "AffineSubspace.from_point_and_directions(directions)": lambda x: (
        AffineSubspace.from_point_and_directions([1, 0], [[x, 1]])),
    "AffineSubspace.contains": lambda x: birkhoff_hull(2).contains([x, 0, 0, 1]),
    "linalg.rref": lambda x: linalg.rref([[1, x], [0, 1]]),
    "CountingPolynomial": lambda x: CountingPolynomial(2, (0, x, 1)),
    "affine_hull_residual": lambda x: affine_hull_residual(SquareMatrix.identity(2), x),
    "linalg.dot": lambda x: linalg.dot([x, 1], [1, 1]),
    "pairing": lambda x: pairing(SquareMatrix(((x, 1), (1, 1))), SquareMatrix.identity(2)),
    "CountingPolynomial.evaluate": lambda x: CountingPolynomial(2, (1, 2, 1)).evaluate(x),
    "project_pi": lambda x: project_pi(SquareMatrix(((1, 2), (x, 1)))),
    "SquareMatrix.scaled": lambda x: SquareMatrix.identity(2).scaled(x),
    "SquareMatrix.__add__": lambda x: SquareMatrix(((x, 1), (1, 1))) + SquareMatrix.identity(2),
}


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")], ids=str)
@pytest.mark.parametrize("reader", SCALAR_READERS.values(), ids=SCALAR_READERS)
def test_every_scalar_reader_rejects_a_float_that_is_not_finite(reader, x):
    with raises(ValueError, NOT_FINITE):
        reader(x)


# ------------------------------------------------------------------ boards

def test_json_board_with_d_zero_is_rejected():
    with raises(BoardParseError, "d must be >= 1"):
        BoardDocument.from_json('{"d": 0, "entries": []}')


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_rejects_a_named_pipe_without_reading_it(tmp_path):
    fifo = tmp_path / "board.fifo"
    os.mkfifo(fifo)
    with raises(BoardParseError, f"not a regular file: {str(fifo)!r}"):
        BoardDocument.load(str(fifo))
