import random
from fractions import Fraction

import pytest

from gardner import linalg
from gardner.counting import interpolate
from gardner.duality import birkhoff_hull, dual_subspace, gardner_hull, pairing
from gardner.linalg import rref
from gardner.matrix import SquareMatrix
from gardner.polytope import project_pi


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


FLOATS = SquareMatrix(((0.1, 0.2), (0.2, 0.1)))
TENTH, FIFTH = Fraction(0.1), Fraction(0.2)  # the rationals the floats 0.1 and 0.2 are

# Each operation fed floats, and the exact Fraction (or Fractions) it must return.
FLOAT_READS = {
    "linalg.dot": (lambda: linalg.dot([0.1, 0.2], [0.1, 0.2]), TENTH ** 2 + FIFTH ** 2),
    "linalg.dot, too large for a float": (lambda: linalg.dot([10 ** 400], [0.5]),
                                          Fraction(10 ** 400, 2)),
    "pairing": (lambda: pairing(FLOATS, FLOATS), 2 * TENTH ** 2 + 2 * FIFTH ** 2),
    "evaluate": (lambda: interpolate(2).evaluate(0.1), (TENTH + 1) ** 2),  # g_2(N) = (N+1)^2
    "project_pi": (lambda: project_pi(SquareMatrix(((0.1, 0.2), (1e17, 0.4)))),
                   (FIFTH, Fraction(1e17) - TENTH)),
    "SquareMatrix.scaled": (lambda: SquareMatrix(((1, 2), (3, 4))).scaled(0.1).flat(),
                            (TENTH, 2 * TENTH, 3 * TENTH, 4 * TENTH)),
    "SquareMatrix.__add__": (lambda: (FLOATS + FLOATS).flat(),
                             (2 * TENTH, 2 * FIFTH, 2 * FIFTH, 2 * TENTH)),
    "SquareMatrix.__sub__": (lambda: (FLOATS - FLOATS).flat(), (0,) * 4),
}


@pytest.mark.parametrize("call, want", FLOAT_READS.values(), ids=FLOAT_READS)
def test_every_operation_reads_floats_exactly(call, want):
    got = call()
    assert got == want
    assert {type(x) for x in (got if isinstance(got, tuple) else (got,))} == {Fraction}


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


def _unit_matrices(rng):
    # 0/+-1 inputs, where unit pivots and negated pivots occur: hull-shaped outer products,
    # addition tables, negative leading entries, zero rows and repeated rows
    n = rng.randint(2, 4)
    us = [[rng.choice([-1, 0, 0, 1]) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    yield [[a * b for a in u for b in v] for u in us for v in us]
    lam, mu = ([rng.choice([-1, 0, 1]) for _ in range(n)] for _ in range(2))
    yield [[x + y for x in lam] for y in mu]
    ncols = n + rng.randint(-1, 2)
    rows = [[rng.choice([-1, -1, 0, 1]) for _ in range(ncols)] for _ in range(n)]
    rows[0][0] = -1
    rows.insert(rng.randrange(n + 1), [0] * ncols)
    yield rows + [rows[rng.randrange(n)]]
    yield [[rng.choice([-1, 0, 1]) for _ in range(n)] for _ in range(n)]


def test_every_kernel_reader_is_exact_on_unit_entry_matrices():
    rng = random.Random(37)
    squares = nonsingular = 0
    for _ in range(100):
        for rows in _unit_matrices(rng):
            ncols = len(rows[0])
            reduced, pivots = linalg.rref(rows)
            assert (reduced, pivots) == _fraction_rref(rows)
            assert all(type(x) is Fraction for row in reduced for x in row)
            assert linalg.rank(rows) == len(pivots)
            basis = linalg.nullspace(rows, ncols)  # the unique RREF basis of the kernel
            assert len(basis) == ncols - len(pivots)
            assert _fraction_rref(basis)[0] == [list(v) for v in basis]
            assert all(sum(Fraction(a) * x for a, x in zip(row, v)) == 0
                       for row in rows for v in basis)
            if len(rows) == ncols:
                det = linalg.det_bareiss(rows)
                assert type(det) is int and det == _fraction_det(rows)
                squares += 1
                nonsingular += det != 0
    assert squares > 200 and nonsingular > 60


def test_no_reader_mutates_the_caller_rows():
    int_rows = [[1, 2, -1], [3, 4, 0], [-1, 1, 1]]
    shared = [1, 1, 0]
    inputs = [int_rows, [shared, shared, [0, 1, 1]], [(2, -1, 1), (-1, 1, 0), (0, 1, 1)],
              [[Fraction(1, 2), 1, 0], [1, Fraction(-1, 3), 2], [0, 1, 1]]]
    for rows in inputs:
        before = [list(row) for row in rows]
        ids = [id(row) for row in rows]
        linalg.rref(rows)
        linalg.rank(rows)
        linalg.nullspace(rows, 3)
        linalg.solve_unique(rows, [1, 2, 3])
        if all(type(x) is int for row in rows for x in row):
            linalg.det_bareiss(rows)
        assert [list(row) for row in rows] == before and [id(row) for row in rows] == ids


def test_elimination_touches_only_the_rows_that_change(monkeypatch):
    diagonal = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    m = list(diagonal)
    assert linalg._eliminate(m) == ([0, 1, 2], 30)
    assert all(a is b for a, b in zip(m, diagonal))
    assert diagonal == [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    # dual_subspace's system for birkhoff_hull(10), columns reversed as nullspace reduces it:
    # every direction shares the first pivot column, yet only a row update at a pivot other
    # than 1 is dense, and each such update takes one content (math.gcd)
    hull = birkhoff_hull(10)
    rows = [linalg.integer_vector(v)[0][::-1] for v in (*hull.basis, hull.q)]
    dense = []
    gcd = linalg.math.gcd
    monkeypatch.setattr(linalg.math, "gcd", lambda *xs: dense.append(xs) or gcd(*xs))
    pivots, _ = linalg._eliminate(rows)
    assert len(pivots) == 82 and len(dense) <= 9
