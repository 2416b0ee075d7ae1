import random
from fractions import Fraction

import pytest

from gardner import linalg
from gardner.duality import birkhoff_hull, dual_subspace, gardner_hull
from gardner.linalg import rref


def test_rref_identity_like():
    rows, pivots = linalg.rref([[2, 0], [0, 3]])
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows, pivots = linalg.rref([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1]]


def test_rank():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[0, 0]]) == 0


def test_nullspace_orthogonal_to_rows():
    rows = [[1, 2, 3], [0, 1, 1]]
    basis = linalg.nullspace(rows, 3)
    assert len(basis) == 1
    for row in rows:
        assert linalg.dot(row, basis[0]) == 0


def test_nullspace_of_nothing_is_everything():
    basis = linalg.nullspace([], 3)
    assert len(basis) == 3
    assert linalg.rank(basis) == 3


def test_solve_unique():
    x = linalg.solve_unique([[2, 0], [1, 1]], [4, 5])
    assert x == (Fraction(2), Fraction(3))


def test_solve_inconsistent_returns_none():
    assert linalg.solve_unique([[1, 0], [1, 0]], [1, 2]) is None


def test_solve_underdetermined_raises():
    with pytest.raises(ValueError):
        linalg.solve_unique([[1, 1]], [1])


def test_det_bareiss():
    assert linalg.det_bareiss([[1, 2], [3, 4]]) == -2
    assert linalg.det_bareiss([[0, 1], [1, 0]]) == -1
    assert linalg.det_bareiss([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert linalg.det_bareiss([[1, 2], [2, 4]]) == 0
    assert linalg.det_bareiss([]) == 1


def test_det_bareiss_needs_pivot_swap():
    assert linalg.det_bareiss([[0, 2, 1], [1, 0, 0], [0, 0, 1]]) == -2


def _fraction_rref(rows):
    # reference: Gauss-Jordan over Fraction, dividing by each pivot at once
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _random_entry(rng, kind):
    if rng.random() < 0.3:
        return 0
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return rng.choice([0.5, -1.25, 0.1, 3.0, -2.0, 1e-3, 2.5e10])


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_rref_matches_the_fraction_reference(kind):
    rng = random.Random(kind)
    for _ in range(300):
        ncols = rng.randint(1, 7)
        rows = [[_random_entry(rng, kind) for _ in range(ncols)]
                for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
        if rows and rng.random() < 0.3:
            rows.append([3 * x for x in rows[0]])
        reduced, pivots = linalg.rref(rows)
        assert (reduced, pivots) == _fraction_rref(rows)
        assert all(type(x) is Fraction for row in reduced for x in row)
    for _ in range(100):  # rank-deficient rectangular products, with Fraction entries
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(1, min(nrows, ncols))
        a = [[Fraction(_random_entry(rng, kind)) for _ in range(inner)] for _ in range(nrows)]
        b = [[Fraction(_random_entry(rng, kind)) for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(ncols)] for row in a]
        reduced, pivots = linalg.rref(rows)
        assert (reduced, pivots) == _fraction_rref(rows)
        assert len(pivots) <= inner


def test_rref_of_zero_rows_is_empty():
    assert linalg.rref([[0, 0], [0, 0]]) == ([], [])
    assert linalg.rref([[0.0, Fraction(0)]]) == ([], [])


def test_integer_vector():
    assert linalg.integer_vector([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
    assert linalg.integer_vector([0.25, 1]) == ([1, 4], 4)
    assert linalg.integer_vector([]) == ([], 1)


def test_exact_reads_floats_as_their_fractions_and_passes_the_rest_through():
    plain = (1, Fraction(1, 3), -2)
    assert linalg.exact(plain) is plain  # no float: the input itself, uncopied
    read = linalg.exact((0.1, 2, Fraction(1, 3), -0.5))
    assert read == [Fraction(3602879701896397, 2 ** 55), 2, Fraction(1, 3), Fraction(-1, 2)]
    assert [type(x) for x in read] == [Fraction, int, Fraction, Fraction]


def test_dot_keeps_the_arithmetic_of_its_entries():
    assert linalg.dot([1, 2], [3, 4]) == 11 and type(linalg.dot([1, 2], [3, 4])) is int
    assert linalg.dot([Fraction(1, 2), 1], [3, Fraction(1, 3)]) == Fraction(11, 6)
    assert linalg.dot([], []) == 0


def test_nullspace_is_its_own_reduced_row_echelon_form():
    rng = random.Random(2)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(ncols)]
                for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.4:  # a dependent row
            rows.append([x - 2 * y for x, y in zip(rows[0], rows[-1])])
        basis = linalg.nullspace(rows, ncols)
        assert [list(v) for v in basis] == linalg.rref(basis)[0]
        assert len(basis) == ncols - linalg.rank(rows)
        assert all(linalg.dot(row, v) == 0 for row in rows for v in basis)


def _fraction_det(rows):
    # reference: Gaussian elimination over Fraction, the product of the pivots
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot_row = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_det_bareiss_matches_a_fraction_determinant():
    rng = random.Random(3)
    swaps = singular = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # singular: one row a combination of two others
            rows[-1] = [x - 3 * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
        if rng.random() < 0.5:  # the first pivot needs a row swap
            rows[0][0] = 0
        det = linalg.det_bareiss(rows)
        assert type(det) is int and det == _fraction_det(rows)
        swaps += rows[0][0] == 0 and det != 0
        singular += det == 0
    assert swaps > 40 and singular > 40


def test_dual_subspace_row_reduces_once(monkeypatch):
    hull, dual = gardner_hull(4), birkhoff_hull(4)
    calls = []

    def counting_rref(rows):
        calls.append(rows)
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    assert dual_subspace(hull) == dual
    assert len(calls) == 1
