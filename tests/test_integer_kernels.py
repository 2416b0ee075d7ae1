"""The duality checks over integers with one common denominator.

Rook sums, pairings and sample points are computed as integer numerators over
one denominator. These tests pin that the results are those of exact rational
arithmetic, with the same seeded draws, and that the integer checks still
catch a wrong construction.
"""
import dataclasses
import gc
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from gardner import duality, linalg
from gardner.duality import (AffineSubspace, GalePairReport, birkhoff_hull,
                             compressed_check, dual_subspace, gale_pair_check,
                             gardner_hull, is_doubly_stochastic, permutation_matrix)
from gardner.matrix import (Labeling, SquareMatrix, compose, is_g_matrix_bruteforce,
                            is_g_matrix_fast)
from test_matrix import rook_sum_by_definition


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_bruteforce_matches_the_definition_with_large_denominators(kind):
    # Labels with denominators up to 1000, as gale_pair_check's scaled boards
    # have, and bumps of 1/997: one common denominator must keep every sum exact.
    rng = random.Random(f"common-denominator-{kind}")

    def label():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(0, 9)
        return Fraction(rng.randint(0, 5000), rng.randint(1, 1000))

    outcomes = Counter()
    for _ in range(200):
        d = rng.randint(1, 5)
        lab = Labeling(tuple(label() for _ in range(d)), tuple(label() for _ in range(d)))
        board = compose(lab)
        rows = [list(r) for r in board.matrix.rows]
        shape = rng.choice(["board", "bumped", "negative"])
        i, j = rng.randrange(d), rng.randrange(d)
        if shape == "bumped":
            rows[i][j] += 1 if kind == "int" else Fraction(1, 997)
        elif shape == "negative":
            rows[i][j] = -rows[i][j] - 1
        m = SquareMatrix(tuple(map(tuple, rows)))
        got, want = is_g_matrix_bruteforce(m), rook_sum_by_definition(m)
        assert (got, type(got)) == (want, type(want)), m.rows
        outcomes[shape, got is None] += 1
    assert outcomes["board", False] > 50 and outcomes["negative", True] > 50
    assert outcomes["bumped", True] > 25  # d = 1 boards stay G-matrices when bumped


def test_bruteforce_reads_float_entries_exactly():
    # 0.1 + 3/10 and 0.2 + 0.2 are both 0.4 in floats but differ exactly; a
    # float entry is read as the rational it is, as on the Birkhoff side.
    m = SquareMatrix(((0.1, 0.2), (0.2, Fraction(3, 10))))
    assert rook_sum_by_definition(m) == 0.4
    assert is_g_matrix_bruteforce(m) is None


def convex_combination_by_fractions(rng: random.Random, d: int) -> SquareMatrix:
    # The Fraction form, kept only as the reference for _random_convex_combination.
    weights = [rng.randint(1, 50) for _ in range(d + 1)]
    acc = SquareMatrix.zero(d)
    for w in weights:
        p = permutation_matrix(rng.sample(range(1, d + 1), d))
        acc = acc + p.scaled(Fraction(w, sum(weights)))
    return acc


def test_convex_combination_matches_the_fraction_sum():
    for seed in range(60):
        d = 1 + seed % 7
        ours, reference = random.Random(seed), random.Random(seed)
        got = duality._random_convex_combination(ours, d)
        want = convex_combination_by_fractions(reference, d)
        assert got == want and {type(x) for x in got.flat()} == {Fraction}
        assert ours.getstate() == reference.getstate()  # the same draws, in order


# Reports of the Fraction implementation, recorded on its last commit.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gale_pair_check_reports_are_unchanged(d, seed):
    expected = GalePairReport(d, 2 * d * math.factorial(d), 120, None)
    assert gale_pair_check(d, 20, seed) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_compressed_check_counts_are_unchanged(d, seed):
    report = compressed_check(d, 50, seed)
    assert (report.samples, report.inside_cube, report.violations) == (100, 100, ())


def test_compressed_check_keeps_the_points_inside_the_cube(monkeypatch):
    # The hulls' own jitter never leaves the cube. Directions stretched
    # 300-fold span the same hulls and do, so the kept points are counted
    # against the same draws in Fraction arithmetic.
    d, count, seed = 3, 80, 4
    stretched = {}
    for name in ("gardner_hull", "birkhoff_hull"):
        hull = getattr(duality, name)(d)
        stretched[name] = AffineSubspace(hull.ambient, hull.q,
                                         tuple(tuple(300 * x for x in b) for b in hull.basis))
        monkeypatch.setattr(duality, name, lambda _, hull=stretched[name]: hull)
    report = compressed_check(d, count, seed)
    rng, inside = random.Random(seed), 0
    for hull in stretched.values():
        for _ in range(count):
            jitter = [Fraction(rng.randint(-1, 1), rng.randint(1, 1000)) / (4 * d)
                      for _ in hull.basis]
            point = [qk + sum(c * b[k] for c, b in zip(jitter, hull.basis))
                     for k, qk in enumerate(hull.q)]
            inside += all(0 <= x <= 1 for x in point)
    assert report.samples == 2 * count
    assert 0 < report.inside_cube == inside < report.samples
    assert report.passed


def test_compressed_check_samples_a_fraction_basis_through_its_clear(monkeypatch):
    # Directions over a denominator 7 span the same hulls: each is sampled as its integer
    # clear b / 7, so the kept points are counted against the same draws in Fraction arithmetic.
    d, count, seed = 3, 80, 4
    hulls = []
    for name in ("gardner_hull", "birkhoff_hull"):
        hull = getattr(duality, name)(d)
        hulls.append(AffineSubspace(hull.ambient, hull.q, tuple(
            tuple(Fraction(300, 7) * x for x in b) for b in hull.basis)))
        monkeypatch.setattr(duality, name, lambda _, hull=hulls[-1]: hull)
    assert all(den == 7 for hull in hulls for _, den in hull._cleared[1:])
    report = compressed_check(d, count, seed)
    rng, inside = random.Random(seed), 0
    for hull in hulls:
        for _ in range(count):
            jitter = [Fraction(rng.randint(-1, 1), rng.randint(1, 1000)) / (4 * d)
                      for _ in hull.basis]
            point = [qk + sum(c * b[k] for c, b in zip(jitter, hull.basis))
                     for k, qk in enumerate(hull.q)]
            inside += all(0 <= x <= 1 for x in point)
    assert report.samples == 2 * count
    assert 0 < report.inside_cube == inside < report.samples
    assert report.passed


def test_compressed_check_names_the_hull_point_it_rejects(monkeypatch):
    seen = []

    def refuse(board, value=1):
        seen.append((board, value))
        return False

    monkeypatch.setattr(duality, "_has_g_value", refuse)
    report = compressed_check(3, 4, seed=1)
    assert len(report.violations) == len(seen) == 4
    hull = gardner_hull(3)
    for message, (board, den) in zip(report.violations, seen):
        rows = tuple(tuple(Fraction(x, den) for x in row) for row in board.rows)
        assert message == f"value-1 G-check fails on hull point {rows}"
        assert hull.contains([x for row in rows for x in row])


def test_dual_subspace_catches_a_direction_off_the_base_point(monkeypatch):
    hull = birkhoff_hull(3)
    corner = (Fraction(1),) + (Fraction(0),) * 8  # pairs to 1/3 with q = J/3
    monkeypatch.setattr(duality.linalg, "nullspace", lambda rows, ncols: [corner])
    with pytest.raises(AssertionError, match="not orthogonal to the base point"):
        dual_subspace(hull)


def test_dual_subspace_catches_a_direction_off_the_dual(monkeypatch):
    hull = birkhoff_hull(3)
    # E_11 - E_12 is orthogonal to q = J/3, but pairs to 1 with E_11 - E_13 - E_31 + E_33
    wrong = (Fraction(1), Fraction(-1)) + (Fraction(0),) * 7
    monkeypatch.setattr(duality.linalg, "nullspace", lambda rows, ncols: [wrong])
    with pytest.raises(AssertionError, match="failed its pairing check"):
        dual_subspace(hull)


@pytest.mark.parametrize("d", [7, 8])
def test_hull_duals_are_involutions_up_to_8(d):
    for hull in (gardner_hull(d), birkhoff_hull(d)):
        assert dual_subspace(dual_subspace(hull)) == hull
    assert dual_subspace(gardner_hull(d)) == birkhoff_hull(d)


@pytest.mark.parametrize("call, args", [(birkhoff_hull, (-2,)), (birkhoff_hull, (0,)),
                                        (gardner_hull, (0,)), (compressed_check, (0, 5))],
                         ids=["birkhoff_hull(-2)", "birkhoff_hull(0)", "gardner_hull(0)",
                              "compressed_check(0, 5)"])
def test_hulls_reject_d_below_one(call, args):
    with pytest.raises(ValueError, match="d must be >= 1"):
        call(*args)


# --------------------------------- board predicates over one denominator

def g_value_by_fractions(a: SquareMatrix, value=1) -> bool:
    # The Fraction form of _has_g_value, kept only as its reference.
    return is_g_matrix_fast(a).value == value


def line_sums_by_fractions(b: SquareMatrix, total) -> bool:
    # The Fraction form of _has_line_sums, kept only as its reference.
    return b.is_nonnegative() and all(sum(line) == total for line in (*b.rows, *zip(*b.rows)))


def test_board_predicates_match_the_fraction_forms():
    # Scaled boards, bumped boards, convex combinations and signed points, with
    # the true value, a wrong one and a Fraction one.
    rng = random.Random("board-predicates")
    outcomes = Counter()
    for _ in range(300):
        d = rng.randint(1, 5)
        lab = Labeling(tuple(rng.randint(0, 9) for _ in range(d)),
                       tuple(rng.randint(0, 9) for _ in range(d)))
        board = compose(lab).matrix.scaled(Fraction(1, rng.randint(1, 40)))
        rows = [list(r) for r in board.rows]
        shape = rng.choice(["board", "bumped", "signed", "stochastic"])
        i, j = rng.randrange(d), rng.randrange(d)
        if shape == "bumped":
            rows[i][j] += Fraction(1, rng.randint(1, 997))
        elif shape == "signed":
            rows[i][j] = -rows[i][j] - Fraction(1, 3)
        elif shape == "stochastic":
            rows = [list(r) for r in duality._random_convex_combination(rng, d).rows]
        m = SquareMatrix(tuple(map(tuple, rows)))
        value = sum(m.rows[k][k] for k in range(d))
        for v in (value, value + 1, Fraction(1, 7), 1):
            got = (duality._has_g_value(m, v), duality._has_line_sums(m, v))
            assert got == (g_value_by_fractions(m, v), line_sums_by_fractions(m, v)), m.rows
            outcomes[shape, got] += 1
    assert outcomes["board", (True, False)] > 20 and outcomes["stochastic", (False, True)] > 20
    assert outcomes["bumped", (False, False)] > 20 and outcomes["signed", (False, False)] > 20


def test_doubly_stochastic_reads_float_entries_exactly():
    # 0.1 + 0.9 rounds to 1.0 in floats, but the two floats sum to more than 1.
    assert is_doubly_stochastic(SquareMatrix(((0.5, 0.5), (0.5, 0.5))))
    assert not is_doubly_stochastic(SquareMatrix(((0.1, 0.9), (0.9, 0.1))))


# ---------------------------------------- one integer clear per subspace

@pytest.mark.parametrize("hull", [gardner_hull, birkhoff_hull])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_dual_subspace_is_the_same_twice_on_one_instance(hull, d):
    sub = hull(d)
    first = dual_subspace(sub)
    assert dual_subspace(sub) == first == dual_subspace(hull(d))
    assert dual_subspace(first) == sub


def test_subspace_equality_and_hash_ignore_the_cached_clear():
    used, fresh = birkhoff_hull(3), birkhoff_hull(3)
    points = used.spanning_points()
    assert used._cleared is used._cleared  # computed once
    assert "_cleared" in vars(used) and "_cleared" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert fresh.spanning_points() == points
    points[0][0][0] += 1  # the returned lists are the caller's own
    assert used.spanning_points() == fresh.spanning_points() != points


# ------------------------------------------- one integer clear per board

def test_board_clear_is_cached_and_invisible_to_the_value():
    rows = ((Fraction(1, 2), 3), (Fraction(-2, 3), Fraction(5, 4)))
    used, fresh = SquareMatrix(rows), SquareMatrix(rows)
    n, den = used._cleared
    assert used._cleared is used._cleared  # computed once
    assert "_cleared" in vars(used) and "_cleared" not in vars(fresh)
    assert den == 12 and n == ((6, 36), (-8, 15))
    assert SquareMatrix(n).scaled(Fraction(1, den)) == used
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert [f.name for f in dataclasses.fields(used)] == ["rows"]
    copy = dataclasses.replace(used)
    assert copy == used and "_cleared" not in vars(copy)


def test_bruteforce_reads_an_integer_board_through_its_clear():
    board = compose(Labeling((0, 2, 5), (1, 0, 4))).matrix
    assert "_cleared" not in vars(board)
    assert is_g_matrix_bruteforce(board) == 12
    assert vars(board)["_cleared"][0] is board.rows


def test_an_integer_board_is_its_own_clear(monkeypatch):
    monkeypatch.setattr(linalg, "integer_vector", lambda xs: pytest.fail("cleared an int board"))
    board = compose(Labeling((0, 2, 5), (1, 0, 4))).matrix
    n, den = board._cleared
    assert n is board.rows and den == 1
    assert duality._has_g_value(board, 12) and not duality._has_line_sums(board, 12)
    # The cache holds the rows, not the board, so the board dies with its last reference.
    ref = weakref.ref(board)
    gc.disable()
    try:
        del board
        assert ref() is None
    finally:
        gc.enable()


def test_gale_pair_check_clears_each_sample_board_once(monkeypatch):
    # Each sample's noise, point, bumped and stochastic boards are cleared once
    # and shared by the rook-sum sweep and the two board predicates; the B side's
    # HDescription.is_feasible clears its flat points itself (3 a sample).
    calls, clear = [], linalg.integer_vector
    monkeypatch.setattr(linalg, "integer_vector", lambda xs: calls.append(xs) or clear(xs))
    report = gale_pair_check(5, 10, 3)
    assert report == GalePairReport(5, 2 * 5 * math.factorial(5), 60, None)
    assert len(calls) <= 70  # 120 when each predicate cleared the board itself
