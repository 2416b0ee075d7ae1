import functools
import hashlib
import itertools
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
                            compose, permutation_sum, scale)
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
    for side_below_one in (lambda: Permutation(()), lambda: Permutation.identity(0),
                           lambda: Permutation.identity(-2), lambda: permutations_of(0),
                           lambda: permutations_of(-3)):
        with pytest.raises(ValueError):
            side_below_one()  # permutations_of raises at the call, before any iteration


def _refusal(build, t):
    try:
        build(t)
    except ValueError as e:
        return str(e)
    return None


def test_permutation_and_permutation_sum_refuse_the_same_placements():
    # Every permutation up to d = 3, then the identity up to d = 5 with one image replaced by
    # a repeat, 0, d + 1, 1.0, True or "2" (or left as it is).
    grid = [t for d in range(1, 4) for t in itertools.permutations(range(1, d + 1))]
    for d in range(1, 6):
        ident = tuple(range(1, d + 1))
        grid += [ident[:k] + (x,) + ident[k + 1:] for k in range(d)
                 for x in (1, 2, 0, d + 1, 1.0, True, "2")]
    refused = 0
    for t in grid:
        d = len(t)
        message = _refusal(Permutation, t)
        assert message == _refusal(lambda s: permutation_sum(SquareMatrix.zero(d), s), t)
        ints = all(type(x) is int for x in t)  # True == 1 and 1.0 == 1 would pass the lookup
        is_one = ints and t in set(itertools.permutations(range(1, d + 1)))
        assert message == (None if is_one else f"not a bijection on 1..{d}")
        refused += message is not None
    assert 0 < refused < len(grid)


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


def _pairs_on_all_spanning_points(sub: AffineSubspace, dual: AffineSubspace) -> bool:
    """The all-pairs oracle: q and every q + b of one side pair to 1 with q' and every q' + c
    of the other, over the integers."""
    pairs = itertools.product(sub.spanning_points(), dual.spanning_points())
    return all(linalg.dot(x, y) == dx * dy for (x, dx), (y, dy) in pairs)


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
        assert _pairs_on_all_spanning_points(sub, dual)
        done += 1


@pytest.mark.parametrize("hull", [gardner_hull, birkhoff_hull])
def test_hull_duals_pass_the_all_pairs_oracle(hull):
    for d in range(1, 13):
        sub = hull(d)
        assert _pairs_on_all_spanning_points(sub, dual_subspace(sub))


_NOT_ORTHOGONAL = "dual directions are not orthogonal to the base point"
_NO_PAIRING = "dual construction failed its pairing check"
_OFF_THE_DIRECTIONS_PERP = "base point is not orthogonal to the directions"


def _subspace_with_zeros_in_q(rng: random.Random) -> AffineSubspace:
    # q has zero entries where the directions need not be zero, so a dual direction changed
    # at a zero of q can stay orthogonal to q and still fail to be orthogonal to U.
    ambient = rng.randint(3, 7)
    q = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(ambient)]
    q[rng.randrange(ambient)] = rng.randint(1, 3)
    norm_sq, dirs = linalg.dot(q, q), []
    for _ in range(rng.randint(1, ambient - 2)):  # random vectors projected into q-perp
        v = [rng.randint(-2, 2) for _ in range(ambient)]
        dirs.append([norm_sq * x - linalg.dot(v, q) * y for x, y in zip(v, q)])
    return AffineSubspace.from_point_and_directions(q, dirs, reduce=True)


def _corrupt(rng: random.Random, directions, q):
    dirs = [list(c) for c in directions]
    k, kind = rng.randrange(len(dirs)), rng.choice(("entry", "multiple of q", "dropped"))
    if kind == "entry":  # half the time at a zero of q, where one exists
        zeros = [i for i, x in enumerate(q) if x == 0]
        i = rng.choice(zeros) if zeros and rng.random() < 0.5 else rng.randrange(len(q))
        dirs[k][i] += rng.choice((-2, -1, Fraction(1, 2), 1, 3))
    elif kind == "multiple of q":
        f = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 4))
        dirs[k] = [x + f * y for x, y in zip(dirs[k], q)]
    else:
        del dirs[k]
    return kind, [tuple(c) for c in dirs]


def test_dual_check_raises_exactly_when_the_all_pairs_oracle_fails(monkeypatch):
    # nullspace returns a corruption of the true dual directions; dual_subspace must raise
    # exactly when the oracle fails, U' ⊥ q's message first, then the pairing check's.
    rng = random.Random(42)
    subs = [hull(d) for hull in (gardner_hull, birkhoff_hull) for d in (2, 3, 4)]
    subs += [_subspace_with_zeros_in_q(rng) for _ in range(12)]
    nullspace, outcomes = linalg.nullspace, Counter()
    for sub in subs:
        directions = nullspace([*sub.basis, sub.q], sub.ambient)
        q_dual = tuple(x / linalg.dot(sub.q, sub.q) for x in sub.q)
        for _ in range(6 if directions else 0):
            kind, corrupted = _corrupt(rng, directions, sub.q)
            monkeypatch.setattr(duality.linalg, "nullspace", lambda rows, n: list(corrupted))
            result = AffineSubspace(sub.ambient, q_dual, tuple(corrupted))
            if _pairs_on_all_spanning_points(sub, result):
                want = None
                assert dual_subspace(sub) == result
            else:
                orthogonal = not any(linalg.dot(c, sub.q) for c in corrupted)
                want = _NO_PAIRING if orthogonal else _NOT_ORTHOGONAL
                with pytest.raises(AssertionError, match=want):
                    dual_subspace(sub)
            outcomes[kind, want] += 1
    assert {kind for kind, _ in outcomes} == {"entry", "multiple of q", "dropped"}
    assert {want for _, want in outcomes} == {None, _NOT_ORTHOGONAL, _NO_PAIRING}


def test_dual_check_catches_a_base_point_off_the_directions_perp():
    # Built directly, so not normalized: q = (1, 0) is not orthogonal to U = span (1, 1).
    # U' is {0}, so only U ⊥ q' fails; as q' = q/|q|^2, the U ⊥ q test refuses it first.
    sub = AffineSubspace(2, (Fraction(1), Fraction(0)), ((1, 1),))
    assert not _pairs_on_all_spanning_points(sub, AffineSubspace(2, sub.q, ()))
    with pytest.raises(ValueError, match=_OFF_THE_DIRECTIONS_PERP):
        dual_subspace(sub)


def test_dual_rejects_a_base_point_off_the_directions_perp_with_a_nonzero_dual(monkeypatch):
    # In 3-D the formula's U' = span e_3 is not empty, but q = e_1 pairs with (1, 1, 0), so
    # q/|q|^2 + U' fails the oracle; the caller is told why, before any elimination.
    sub = AffineSubspace(3, (Fraction(1), Fraction(0), Fraction(0)), ((1, 1, 0),))
    assert not _pairs_on_all_spanning_points(sub, AffineSubspace(3, sub.q, ((0, 0, 1),)))
    monkeypatch.setattr(duality.linalg, "nullspace", lambda rows, n: pytest.fail("eliminated"))
    with pytest.raises(ValueError, match=_OFF_THE_DIRECTIONS_PERP):
        dual_subspace(sub)


def test_dual_check_catches_a_base_point_that_does_not_pair_to_one(monkeypatch):
    # The result's q' is doubled, so <q, q'> = 2 while U' ⊥ q, U ⊥ q' and U ⊥ U' still hold.
    subs = [gardner_hull(3), birkhoff_hull(3),
            AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])]
    real = duality.AffineSubspace
    monkeypatch.setattr(duality, "AffineSubspace",
                        lambda ambient, q, basis: real(ambient, tuple(2 * x for x in q), basis))
    for sub in subs:
        with pytest.raises(AssertionError, match=_NO_PAIRING):
            dual_subspace(sub)


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


# The Birkhoff side, counted: H_d(N) semi-magic squares, the lattice points of dilate N.

def _rows_within(caps, total, low):
    """Every tuple r with low <= r_j <= caps[j] and sum(r) = total."""
    if len(caps) == 1:
        return [(total,)] if low <= total <= caps[0] else []
    return [(x,) + rest for x in range(low, min(caps[0], total) + 1)
            for rest in _rows_within(caps[1:], total - x, low)]


def _semi_magic(d, n, low=0):
    """d x d integer matrices with every row and column sum n and every entry >= low:
    H_d(n) at low = 0, the interior of dilate n at low = 1. Fills row by row within the
    remaining column sums (kept sorted, as the count does not depend on their order);
    the last row is forced, and counts if no entry of it is below low."""
    @functools.cache
    def fill(cols, rows_left):
        if rows_left == 1:
            return int(min(cols) >= low)
        return sum(fill(tuple(sorted(c - x for c, x in zip(cols, row))), rows_left - 1)
                   for row in _rows_within(cols, n, low))

    return fill((n,) * d, d)


def test_semi_magic_counts_match_known_values():
    for n in range(8):
        assert _semi_magic(1, n) == 1
        assert _semi_magic(2, n) == n + 1
        assert _semi_magic(3, n) == math.comb(n + 4, 4) + math.comb(n + 3, 4) + math.comb(n + 2, 4)
    assert [_semi_magic(4, n) for n in range(5)] == [1, 24, 282, 2008, 10147]  # OEIS A001496


@pytest.mark.parametrize("d, n_max", [(3, 11), (4, 9)])
def test_birkhoff_dilates_are_gorenstein_of_index_d(d, n_max):
    # The interior of dilate N is H_d(N - d), and no dilate below N = d has an
    # interior point, so the index is exactly d.
    for n in range(n_max + 1):
        assert _semi_magic(d, n, low=1) == (_semi_magic(d, n - d) if n >= d else 0)


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
    with pytest.raises(ValueError, match="sample_count must be >= 0"):
        compressed_check(2, sample_count=-3)
    line = AffineSubspace.from_point_and_directions([2, 0], [[1, -1]])
    with pytest.raises(ValueError, match="sample_count must be >= 0"):
        gale_pair_from_recipe(line, sample_count=-1)


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


def test_gale_pair_check_counts_the_pairings_up_to_the_failing_vertex(monkeypatch):
    # The first two vertices pair to 1 and the third does not: 3 sweeps of d! placements each.
    d, sweeps = 4, iter([1, 1, 2])
    monkeypatch.setattr(duality, "is_g_matrix_bruteforce", lambda a, guard: next(sweeps))
    report = gale_pair_check(d, 5)
    third = vertex_matrix(all_vertices(d)[2])
    assert report.vertex_pairings_checked == 3 * math.factorial(d)
    assert report.samples_checked == 0
    assert report.counterexample == f"vertex {third!r} does not pair to 1 with every P_s"


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
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 1000)) for _ in sub.basis]
            full = [qx + sum(c * b[k] for c, b in zip(coeffs, sub.basis))
                    for k, qx in enumerate(sub.q)]
            assert min(x) >= 0 and sub.contains(x)
            if min(full) < 0:
                shrunk += 1
                assert min(x) == 0
            else:
                assert list(x) == full
    assert shrunk > 0


def test_seeded_duality_streams_are_pinned(monkeypatch):
    # Every board gale_pair_check and compressed_check hand their predicates, three recipe
    # sampler points per hull and every report. The digest was computed by this same loop on
    # the samplers that drew each r / m as Fraction(randint(lo, hi), randint(1, 1000)), and
    # compressed_check's jitter by an inline randrange copy of that draw: no stream moved.
    h = hashlib.sha256()
    for name in ("_has_g_value", "_has_line_sums", "is_doubly_stochastic"):
        def record(board, *args, name=name, predicate=getattr(duality, name)):
            h.update(repr((name, board.rows, args)).encode())
            return predicate(board, *args)
        monkeypatch.setattr(duality, name, record)
    for seed in range(3):
        for d in range(1, 6):
            h.update(repr(gale_pair_check(d, 10, seed)).encode())
        for d in range(1, 5):
            h.update(repr(compressed_check(d, 20, seed)).encode())
        for d in range(2, 5):
            for hull in (gardner_hull(d), birkhoff_hull(d)):
                rng = random.Random(seed)
                points = [duality._sample_nonneg_point(rng, hull) for _ in range(3)]
                h.update(repr(points).encode())
    assert h.hexdigest() == "033ac0f8b9b6f6cf0cf38ffb10e66af662c0afd176d9a0f1ed592c8675c9e0a8"


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
