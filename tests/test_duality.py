import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gardner import counting, duality, linalg
from gardner.duality import (AffineSubspace, Permutation, birkhoff_hull,
                             compressed_check, dual_subspace, gale_pair_check,
                             gale_pair_from_recipe, gardner_hull,
                             gorenstein_check, is_doubly_stochastic, pairing,
                             permutation_matrix, permutations_of)
from gardner.matrix import (BudgetExceededError, FactorialGuardError, Labeling, SquareMatrix,
                            compose, scale)
from gardner.polytope import all_vertices, row_vertex, vertex_matrix


def flat(m: SquareMatrix):
    return [Fraction(x) for x in m.flat()]


# ------------------------------------------------------------- permutations

def test_permutation_matrix_examples():
    assert permutation_matrix(Permutation.identity(3)) == SquareMatrix.identity(3)
    assert permutation_matrix((2, 1)).rows == ((0, 1), (1, 0))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((1.0, 2.0))
    with pytest.raises(ValueError):
        Permutation((True, 2))
    with pytest.raises(ValueError):
        Permutation((1, "2"))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_permutation_matrices_are_doubly_stochastic():
    for d in range(1, 5):
        for sigma in permutations_of(d):
            assert is_doubly_stochastic(permutation_matrix(sigma))


def test_doubly_stochastic():
    third = SquareMatrix.all_ones(3).scaled(Fraction(1, 3))
    assert is_doubly_stochastic(third)
    assert not is_doubly_stochastic(vertex_matrix(row_vertex(1, 2)))
    assert not is_doubly_stochastic(SquareMatrix.all_ones(2))
    half = SquareMatrix(((Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(1, 2), Fraction(1, 2))))
    assert is_doubly_stochastic(half)


# ------------------------------------------------------------------ pairing

def test_pairing_vertices_against_permutations():
    for d in range(1, 5):
        perms = [permutation_matrix(s) for s in permutations_of(d)]
        for v in all_vertices(d):
            vm = vertex_matrix(v)
            assert all(pairing(vm, p) == 1 for p in perms)


def test_pairing_examples():
    j3 = SquareMatrix.all_ones(3)
    assert pairing(j3, j3) == 9
    with pytest.raises(ValueError):
        pairing(j3, SquareMatrix.all_ones(2))


def test_pairing_recovers_the_value():
    rng = random.Random(4)
    for d in range(1, 6):
        perms = [permutation_matrix(s) for s in permutations_of(d)]
        for _ in range(5):
            lab = Labeling(tuple(rng.randint(0, 8) for _ in range(d)),
                           tuple(rng.randint(0, 8) for _ in range(d)))
            g = compose(lab)
            assert all(pairing(g.matrix, p) == g.value for p in perms)


# ---------------------------------------------------------- gale pair check

def test_gale_pair_check_small():
    for d in (1, 2, 3):
        report = gale_pair_check(d, sample_count=8, seed=d)
        assert report.passed
        import math
        assert report.vertex_pairings_checked == 2 * d * math.factorial(d)


def test_gale_pair_check_guard():
    with pytest.raises(FactorialGuardError):
        gale_pair_check(10)


def test_gale_pair_check_guard_fires_before_building_vertices(monkeypatch):
    # Without the guard first, d = 10**6 would try to build 2d matrices of d^2 entries.
    import gardner.duality

    def refuse(d):
        raise AssertionError(f"all_vertices({d}) built before the guard")

    monkeypatch.setattr(gardner.duality, "all_vertices", refuse)
    with pytest.raises(FactorialGuardError, match="exceeds the d!-sweep guard 9"):
        gale_pair_check(10 ** 6)


@pytest.mark.parametrize("d", [7, 8, 9])
def test_gale_pair_check_up_to_the_guard(d):
    report = gale_pair_check(d, 10)
    assert report.passed
    assert report.vertex_pairings_checked == 2 * d * math.factorial(d)
    assert report.samples_checked == 60


@pytest.mark.parametrize("d", [0, -1])
def test_gale_pair_check_rejects_d_below_one(d):
    with pytest.raises(ValueError, match="d must be >= 1"):
        gale_pair_check(d, 0)


def test_bump_breaks_a_pairing():
    g = scale(compose(Labeling((2, 0, 1), (0, 3, 1))), Fraction(1, 7))
    bumped_rows = [list(r) for r in g.matrix.rows]
    bumped_rows[1][2] += 1
    bumped = SquareMatrix(tuple(tuple(r) for r in bumped_rows))
    broken = [s for s in permutations_of(3)
              if pairing(bumped, permutation_matrix(s)) != 1]
    assert broken  # and exactly those placements using entry (2, 3)
    assert all(s.images[1] == 3 for s in broken)


# ----------------------------------------------------------- affine subspaces

def test_dual_of_vertical_line():
    line = AffineSubspace.from_point_and_directions([1, 0], [[0, 1]])
    dual = dual_subspace(line)
    assert dual.q == (Fraction(1), Fraction(0)) and dual.basis == ()


def test_dual_of_diagonal_segment_hull():
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    dual = dual_subspace(line)
    assert dual.q == (Fraction(1, 2), Fraction(1, 2)) and dual.basis == ()
    for point in ([2, 0], [0, 2], [1, 1]):
        assert line.contains(point)
        assert sum(Fraction(x) * q for x, q in zip(point, dual.q)) == 1


def test_dual_empty_when_through_origin():
    through_zero = AffineSubspace.from_point_and_directions([2, 0], [[1, 0]])
    assert through_zero.q == (0, 0)
    with pytest.raises(ValueError):
        dual_subspace(through_zero)


def test_subspace_normalization_and_equality():
    a = AffineSubspace.from_point_and_directions([3, 1], [[0, 2]])
    b = AffineSubspace.from_point_and_directions([3, 5], [[0, -7]])
    assert a == b
    assert a.q == (Fraction(3), Fraction(0))


def test_dependent_directions_rejected():
    with pytest.raises(ValueError):
        AffineSubspace.from_point_and_directions([1, 0, 0], [[0, 1, 0], [0, 2, 0]])
    reduced = AffineSubspace.from_point_and_directions(
        [1, 0, 0], [[0, 1, 0], [0, 2, 0]], reduce=True)
    assert reduced.dim == 1


def _random_subspace(rng: random.Random) -> AffineSubspace | None:
    ambient = rng.randint(1, 8)
    n_dirs = rng.randint(0, ambient - 1)
    point = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(ambient)]
    dirs = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(n_dirs)]
    sub = AffineSubspace.from_point_and_directions(point, dirs, reduce=True)
    if all(x == 0 for x in sub.q):
        return None
    return sub


def test_dual_is_an_involution_on_random_subspaces():
    rng = random.Random(99)
    done = 0
    while done < 40:
        sub = _random_subspace(rng)
        if sub is None:
            continue
        dual = dual_subspace(sub)
        assert dual_subspace(dual) == sub
        assert sub.dim + dual.dim == sub.ambient - 1
        done += 1


def test_hull_dimensions_and_duality():
    for d in (2, 3, 4):
        hull_b = birkhoff_hull(d)
        hull_g = gardner_hull(d)
        assert hull_b.dim == (d - 1) ** 2
        assert hull_g.dim == 2 * d - 2
        assert hull_b.dim + hull_g.dim == d * d - 1
        assert dual_subspace(hull_b) == hull_g
        assert dual_subspace(hull_g) == hull_b


def test_hulls_contain_their_polytopes_points():
    for d in (2, 3):
        hull_g = gardner_hull(d)
        for v in all_vertices(d):
            assert hull_g.contains(flat(vertex_matrix(v)))
        hull_b = birkhoff_hull(d)
        for sigma in permutations_of(d):
            assert hull_b.contains(flat(permutation_matrix(sigma)))
        center = [Fraction(1, d)] * (d * d)
        assert hull_g.contains(center) and hull_b.contains(center)


@pytest.mark.parametrize("hull", [gardner_hull, birkhoff_hull])
def test_contains_rejects_a_point_of_the_wrong_length(hull):
    # A longer point must not be cut to the ambient dimension, nor a shorter
    # one fail as "rows have different lengths".
    sub, half = hull(2), [Fraction(1, 2)] * 4
    assert sub.contains(half)
    for point in (half + [7], half + [0], half[:3]):
        with pytest.raises(ValueError, match="zip"):
            sub.contains(point)


# -------------------------------------------------------------------- recipe

def test_recipe_segment_and_point():
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    pair = gale_pair_from_recipe(line, sample_count=10, seed=0)
    assert pair.p.is_feasible([2, 0]) and pair.p.is_feasible([0, 2])
    assert pair.p.is_feasible([Fraction(1), Fraction(1)])
    assert not pair.p.is_feasible([1, 2])
    assert pair.q.is_feasible([Fraction(1, 2), Fraction(1, 2)])
    assert not pair.q.is_feasible([Fraction(1, 2), Fraction(1, 4)])
    assert pair.samples_checked == 10


def test_recipe_one_dimensional():
    point = AffineSubspace.from_point_and_directions([Fraction(4)], [])
    pair = gale_pair_from_recipe(point, sample_count=3, seed=1)
    assert pair.p.is_feasible([4]) and not pair.p.is_feasible([3])
    assert pair.q.is_feasible([Fraction(1, 4)])


def test_recipe_requires_positive_base_point():
    line = AffineSubspace.from_point_and_directions([1, 0], [[0, 1]])
    with pytest.raises(ValueError):
        gale_pair_from_recipe(line)


def test_recipe_reproduces_the_matrix_instance():
    # Cutting the orthant with the doubly stochastic hull and its dual gives
    # back the two matrix polytopes: the permutation matrices satisfy the
    # first description, the vertex indicators the second.
    for d in (2, 3):
        pair = gale_pair_from_recipe(birkhoff_hull(d), sample_count=5, seed=3)
        for sigma in permutations_of(d):
            assert pair.p.is_feasible(flat(permutation_matrix(sigma)))
        for v in all_vertices(d):
            assert pair.q.is_feasible(flat(vertex_matrix(v)))
        assert not pair.p.is_feasible(flat(SquareMatrix.all_ones(d)))


# ------------------------------------------------------ gorenstein/compressed

def test_gorenstein_small():
    report = gorenstein_check(2, 5)
    assert report.passed
    assert report.unique_interior_point_is_j
    assert report.translation_bijections == ((2, True), (3, True), (4, True), (5, True))


def test_gorenstein_d3_unique_interior_point():
    report = gorenstein_check(3, 3)
    assert report.passed and report.unique_interior_point_is_j


def test_gorenstein_d4():
    assert gorenstein_check(4, 5).passed


@pytest.mark.parametrize("n_max, budget, candidates",
                         [(100, None, 100 ** 5), (30, 10 ** 5, 30 ** 5)])
def test_gorenstein_budget_is_checked_before_any_sweep(monkeypatch, n_max, budget, candidates):
    # The largest sweep, the interior of dilate n_max, is over the budget:
    # the call raises at once and never starts a sweep.
    def refuse(*args):
        raise AssertionError("a sweep was started")
        yield

    monkeypatch.setattr(counting, "_sweep", refuse)
    with pytest.raises(BudgetExceededError, match=f"^{candidates} candidates"):
        gorenstein_check(3, n_max, budget)


def test_compressed_check():
    for d in (2, 3):
        report = compressed_check(d, sample_count=120, seed=d)
        assert report.passed
        assert report.inside_cube > 0


def test_sample_counts_are_the_requested_counts():
    assert compressed_check(2, sample_count=30, seed=1).samples == 60
    assert compressed_check(2, sample_count=-3).samples == 0
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    assert gale_pair_from_recipe(line, sample_count=-1).samples_checked == 0


def test_hull_point_outside_cube_is_not_a_board():
    # (3/2) C1 - (1/2) C2 lies on the value-1 hull but has entries -1/2,
    # so it is outside the unit cube and fails the nonnegativity check.
    from gardner.matrix import is_g_matrix_fast
    from gardner.polytope import col_vertex
    d = 3
    point = vertex_matrix(col_vertex(1, d)).scaled(Fraction(3, 2)) - \
        vertex_matrix(col_vertex(2, d)).scaled(Fraction(1, 2))
    assert gardner_hull(d).contains(flat(point))
    assert min(point.flat()) == Fraction(-1, 2)
    assert not all(0 <= x <= 1 for x in point.flat())
    assert not is_g_matrix_fast(point)


# ------------------------------------------- the duality checks' own rules

def _line_sums_only(b: SquareMatrix) -> bool:
    # is_doubly_stochastic without its nonnegativity clause
    return all(sum(line) == 1 for line in (*b.rows, *zip(*b.rows)))


def test_b_side_tells_a_signed_point_from_a_doubly_stochastic_one(monkeypatch):
    # Line sums 1 with negative entries: it pairs to 1 with every R_i and C_j,
    # so only the nonnegativity clause keeps it off the Birkhoff side.
    signed = SquareMatrix(((2, -1), (-1, 2)))
    monkeypatch.setattr(duality, "_random_convex_combination", lambda rng, d: signed)
    assert gale_pair_check(2, 3).passed
    monkeypatch.setattr(duality, "is_doubly_stochastic", _line_sums_only)
    report = gale_pair_check(2, 3)
    assert report.counterexample == f"B-side equivalence fails on {signed.rows}"


def test_feasibility_needs_nonnegative_entries():
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    pair = gale_pair_from_recipe(line, sample_count=3)
    assert all(linalg.dot(row, [3, -1]) == rhs for row, rhs in pair.p.equations)
    assert not pair.p.is_feasible([3, -1])
    assert pair.p.is_feasible([Fraction(3, 2), Fraction(1, 2)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_h_descriptions_have_one_equation_per_codimension(d):
    for hull in (gardner_hull(d), birkhoff_hull(d)):
        pair = gale_pair_from_recipe(hull, sample_count=1)
        assert len(pair.p.equations) == d * d - hull.dim
        assert len(pair.q.equations) == d * d - dual_subspace(hull).dim


@pytest.mark.parametrize("d, n", [(1, 4), (2, 0), (3, 5), (5, 10)])
def test_gale_pair_check_sweeps_each_board_once(monkeypatch, d, n):
    calls, sweep = [], duality.is_g_matrix_bruteforce

    def counted(a, guard):
        calls.append(a)
        return sweep(a, guard)

    monkeypatch.setattr(duality, "is_g_matrix_bruteforce", counted)
    assert gale_pair_check(d, n).passed
    assert len(calls) == 2 * d + 3 * n


def test_a_bump_that_keeps_every_pairing_at_one_is_reported(monkeypatch):
    # A sweep and a fast check that agree that every board pairs to 1: the
    # G side passes, and the bumped board is caught by its own sweep result.
    monkeypatch.setattr(duality, "is_g_matrix_bruteforce", lambda a, guard: 1)
    monkeypatch.setattr(duality, "_has_g_value", lambda a: True)
    report = gale_pair_check(2, 3)
    assert report.samples_checked == 3
    assert report.counterexample.startswith("+1 bump left every pairing at 1: ")


# ------------------------------------------------ failure branches, reached

def test_gale_pair_check_reports_a_vertex_that_misses_a_pairing(monkeypatch):
    monkeypatch.setattr(duality, "is_g_matrix_bruteforce", lambda a, guard: 2)
    report = gale_pair_check(3, 5)
    first = vertex_matrix(all_vertices(3)[0])
    assert report.vertex_pairings_checked == math.factorial(3)
    assert report.samples_checked == 0
    assert report.counterexample == f"vertex {first!r} does not pair to 1 with every P_s"


def test_gale_pair_check_reports_a_g_side_disagreement(monkeypatch):
    # The noise board fails both checks; the scaled trick board, the second
    # sample, pairs to 1 with every P_s while the patched fast check says no.
    monkeypatch.setattr(duality, "_has_g_value", lambda a: False)
    report = gale_pair_check(3, 5)
    assert report.samples_checked == 2
    assert report.counterexample.startswith("G-side equivalence fails on ")


def test_recipe_reports_samples_that_do_not_pair_to_one(monkeypatch):
    monkeypatch.setattr(duality, "_sample_nonneg_point",
                        lambda rng, sub: tuple(2 * x for x in sub.q))
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    with pytest.raises(AssertionError, match="^recipe sampling check failed$"):
        gale_pair_from_recipe(line, sample_count=1)


def test_recipe_reports_a_sample_outside_its_own_side(monkeypatch):
    # (3, -1) lies on the line x + y = 2 and pairs to 1 with its dual point
    # (1/2, 1/2), so only the nonnegativity of P's description rejects it.
    signed = (Fraction(3), Fraction(-1))
    monkeypatch.setattr(duality, "_sample_nonneg_point",
                        lambda rng, sub: signed if sub.dim else sub.q)
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    with pytest.raises(AssertionError, match="^sampled point infeasible for its own side$"):
        gale_pair_from_recipe(line, sample_count=1)


def test_compressed_check_reports_a_vertex_off_the_cube(monkeypatch):
    # Doubled vertices span the same hull directions, so only the 0/1 test fails.
    monkeypatch.setattr(duality, "vertex_matrix", lambda v: vertex_matrix(v).scaled(2))
    report = compressed_check(2, sample_count=10, seed=1)
    assert report.violations == tuple(f"vertex {v} is not a 0/1 point" for v in all_vertices(2))
    assert not report.passed


# ------------------------------------------------ one rule per predicate

@pytest.mark.parametrize("d, n", [(1, 0), (1, 4), (2, 1), (2, 2), (2, 6), (3, 2), (3, 5)])
def test_gorenstein_sweeps_each_dilate_once(monkeypatch, d, n):
    calls, sweep = [], counting._sweep

    def counted(*args):  # a generator: records a sweep only once it starts
        calls.append(args)
        yield from sweep(*args)

    monkeypatch.setattr(counting, "_sweep", counted)
    assert gorenstein_check(d, n).passed
    assert len(calls) == (2 * (n - d + 1) if n >= d else 2)


@pytest.mark.parametrize("edit", [lambda b: b + b[:1], lambda b: b[1:]],
                         ids=["repeated", "dropped"])
def test_gorenstein_catches_an_edited_interior(monkeypatch, edit):
    # The interior sweep at N = d + 1 goes through edit; every other sweep is as is.
    d, sweep = 2, duality.iter_g_matrices_flat

    def patched(d_, value, min_entry=0, budget=None):
        boards = sweep(d_, value, min_entry, budget)
        return edit(list(boards)) if (value, min_entry) == (d + 1, 1) else boards

    monkeypatch.setattr(duality, "iter_g_matrices_flat", patched)
    report = gorenstein_check(d, d + 2)
    assert report.translation_bijections == ((d, True), (d + 1, False), (d + 2, True))
    assert report.unique_interior_point_is_j and not report.passed


def test_sampler_steps_exactly_to_the_orthant():
    # The sample is q + t * offset for the largest t <= 1 that stays >= 0:
    # the full offset when it stays in the orthant, else a boundary point.
    shrunk = 0
    for sub in (birkhoff_hull(3), gardner_hull(4)):
        for seed in range(200):
            x = duality._sample_nonneg_point(random.Random(seed), sub)
            rng = random.Random(seed)
            coeffs = [duality._bounded_fraction(rng, -3, 3) for _ in sub.basis]
            full = [qx + sum(c * b[k] for c, b in zip(coeffs, sub.basis))
                    for k, qx in enumerate(sub.q)]
            assert min(x) >= 0 and sub.contains(x)
            if min(full) < 0:
                shrunk += 1
                assert min(x) == 0
            else:
                assert list(x) == full
    assert shrunk > 0


def _feasible_by_fractions(h, point):
    # Fraction arithmetic, kept only as the reference for HDescription.is_feasible.
    x = [Fraction(v) for v in point]
    return all(v >= 0 for v in x) and \
        all(sum(c * v for c, v in zip(coeffs, x)) == rhs for coeffs, rhs in h.equations)


def test_feasibility_matches_fraction_arithmetic():
    rng = random.Random(16)
    kinds = Counter()
    for d in (2, 3):
        for hull in (gardner_hull(d), birkhoff_hull(d)):
            pair = gale_pair_from_recipe(hull, sample_count=1)
            points = [[1] * (d * d), [Fraction(1, d)] * (d * d), [1 / d] * (d * d)]
            points += [flat(vertex_matrix(v)) for v in all_vertices(d)]
            points += [flat(permutation_matrix(s)) for s in permutations_of(d)]
            points += [[rng.choice([0, 1, -1, Fraction(1, d), 0.5, 0.25, 0.1])
                        for _ in range(d * d)] for _ in range(40)]
            for point in points:
                for h in (pair.p, pair.q):
                    got = h.is_feasible(point)
                    assert got == _feasible_by_fractions(h, point), point
                    kinds[got] += 1
            with pytest.raises(ValueError, match="wrong dimension"):
                pair.p.is_feasible([1] * (d * d + 1))
    assert kinds[True] > 20 and kinds[False] > 100
