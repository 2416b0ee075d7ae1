import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gardner.matrix
from conftest import EXAMPLE_COL_LABELS, EXAMPLE_ROW_LABELS, EXAMPLE_ROWS, EXAMPLE_VALUE
from gardner.counting import g_formula_3, halfopen_simplex_count, iter_g_matrices_flat
from gardner.matrix import (FactorialGuardError, FastCheck, GMatrix, Labeling,
                            SquareMatrix, Witness, compose, decompose_canonical,
                            is_g_matrix_bruteforce, is_g_matrix_fast,
                            permutation_sum, scale, trick_generate)
from gardner.boards import BoardDocument, board_json_payload
from gardner.polytope import (affine_hull_residual, barycentric, halfopen_cells,
                              halfopen_contains, locate, triangulation_cells)


def mat(rows) -> SquareMatrix:
    return SquareMatrix.from_rows(rows)


# ---------------------------------------------------------------- rook sums

def test_permutation_sum_identity_on_example(example_matrix):
    assert permutation_sum(example_matrix, (1, 2, 3, 4, 5)) == EXAMPLE_VALUE
    assert 19 + 1 + 8 + 27 + 2 == EXAMPLE_VALUE


def test_permutation_sum_every_placement_on_example(example_matrix):
    for sigma in itertools.permutations(range(1, 6)):
        assert permutation_sum(example_matrix, sigma) == EXAMPLE_VALUE


def test_permutation_sum_zero_and_all_ones():
    for d in (1, 2, 4):
        for sigma in itertools.permutations(range(1, d + 1)):
            assert permutation_sum(SquareMatrix.zero(d), sigma) == 0
            assert permutation_sum(SquareMatrix.all_ones(d), sigma) == d


def test_permutation_sum_validates():
    m = SquareMatrix.zero(3)
    with pytest.raises(ValueError):
        permutation_sum(m, (1, 2))
    with pytest.raises(ValueError):
        permutation_sum(m, (1, 1, 2))
    with pytest.raises(ValueError, match=r"not a bijection on 1\.\.3$"):
        permutation_sum(m, (1, 2, 3, 4))  # a wrong length is not a bijection on 1..d either
    with pytest.raises(ValueError, match="not a bijection"):
        permutation_sum(SquareMatrix(((1, 2), (3, 4))), (1.0, 2.0))
    with pytest.raises(ValueError, match="not a bijection"):
        permutation_sum(SquareMatrix(((1, 2), (3, 4))), (True, 2))
    with pytest.raises(ValueError, match="not a bijection"):
        permutation_sum(SquareMatrix(((1, 2), (3, 4))), (1, "2"))


# ------------------------------------------------------------- brute force

def test_bruteforce_on_example(example_matrix):
    assert is_g_matrix_bruteforce(example_matrix) == EXAMPLE_VALUE


def test_bruteforce_rejects_disagreeing_sums():
    # The two 2x2 placements cover 1 and 0.
    assert is_g_matrix_bruteforce(mat([[1, 0], [0, 0]])) is None


def test_bruteforce_accepts_label_table():
    # Table of columns (3, 0), rows (0, 2): placements cover 3+2 and 0+5.
    assert is_g_matrix_bruteforce(mat([[3, 0], [5, 2]])) == 5


def test_bruteforce_rejects_negative_entries():
    assert is_g_matrix_bruteforce(mat([[-1]])) is None
    assert is_g_matrix_bruteforce(mat([[1, 2], [0, 1]])) == 2
    assert is_g_matrix_bruteforce(mat([[1, 2], [-1, 0]])) is None


def test_bruteforce_guard():
    with pytest.raises(FactorialGuardError):
        is_g_matrix_bruteforce(SquareMatrix.zero(10))
    # A larger configured guard admits the sweep.
    assert is_g_matrix_bruteforce(SquareMatrix.zero(10), guard=10) == 0


def rook_sum_by_definition(a: SquareMatrix):
    # The d! definition, kept only as the reference for is_g_matrix_bruteforce.
    if not a.is_nonnegative():
        return None
    first, *rest = (sum(a.rows[i][p[i]] for i in range(a.d))
                    for p in itertools.permutations(range(a.d)))
    return first if all(s == first for s in rest) else None


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_bruteforce_matches_the_definition(kind):
    rng = random.Random(f"rook-sum-{kind}")

    def scalar():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(0, 6)
        return Fraction(rng.randint(0, 12), rng.randint(1, 4))

    outcomes = Counter()
    for _ in range(300):
        d = rng.randint(1, 6)
        rows = [list(r) for r in compose(Labeling(tuple(scalar() for _ in range(d)),
                                                  tuple(scalar() for _ in range(d)))).matrix.rows]
        shape = rng.choice(["board", "tampered", "noise"])
        if shape == "tampered":
            i, j = rng.randrange(d), rng.randrange(d)
            rows[i][j] += rng.choice([1, -1, Fraction(1, 3)])
        elif shape == "noise":
            rows = [[scalar() for _ in range(d)] for _ in range(d)]
        m = SquareMatrix(tuple(map(tuple, rows)))
        got, want = is_g_matrix_bruteforce(m), rook_sum_by_definition(m)
        assert (got, type(got)) == (want, type(want)), m.rows
        outcomes[shape, got is None] += 1
    assert outcomes["board", False] > 50 and outcomes["tampered", True] > 50


# --------------------------------------------------------------- fast check

def test_fast_on_example(example_matrix):
    check = is_g_matrix_fast(example_matrix)
    assert check and check.value == EXAMPLE_VALUE and check.witness is None


def test_fast_zero_matrix():
    check = is_g_matrix_fast(SquareMatrix.zero(4))
    assert check and check.value == 0


def test_fast_identity_witness():
    check = is_g_matrix_fast(SquareMatrix.identity(2))
    assert not check
    w = check.witness
    assert w.quadruple == (1, 1, 2, 2)
    assert {w.sigma, w.sigma_prime} == {(1, 2), (2, 1)}
    assert set(w.sums) == {2, 0}


def test_fast_negative_entry():
    check = is_g_matrix_fast(mat([[1, 2], [0, -1]]))
    assert not check
    assert check.negative_entry == (2, 2)
    assert check.witness is None


def test_fast_matches_bruteforce_exhaustive_small():
    # Every matrix with entries in {0..3}, d in {2, 3}.
    for d in (2, 3):
        for flat in itertools.product(range(4), repeat=d * d):
            m = SquareMatrix(tuple(flat[i * d:(i + 1) * d] for i in range(d)))
            assert is_g_matrix_fast(m).value == is_g_matrix_bruteforce(m)


def test_fast_matches_bruteforce_random_d4_d5():
    rng = random.Random(20816)
    checked = 0
    for d in (4, 5):
        for _ in range(5200):
            m = SquareMatrix(tuple(
                tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(d)))
            assert is_g_matrix_fast(m).value == is_g_matrix_bruteforce(m)
            checked += 1
        for _ in range(300):
            lab = Labeling(tuple(rng.randint(0, 9) for _ in range(d)),
                           tuple(rng.randint(0, 9) for _ in range(d)))
            m = compose(lab).matrix
            assert is_g_matrix_fast(m).value == is_g_matrix_bruteforce(m) == lab.total()
            checked += 1
    assert checked >= 10 ** 4


def test_witness_placements_disagree():
    rng = random.Random(7)
    seen = 0
    while seen < 200:
        d = rng.randint(2, 5)
        m = SquareMatrix(tuple(
            tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(d)))
        check = is_g_matrix_fast(m)
        if check or check.witness is None:
            continue
        seen += 1
        w = check.witness
        assert permutation_sum(m, w.sigma) != permutation_sum(m, w.sigma_prime)
        assert (permutation_sum(m, w.sigma), permutation_sum(m, w.sigma_prime)) == w.sums
        i, j, k, l = w.quadruple
        assert m.entry(i, j) + m.entry(k, l) != m.entry(i, l) + m.entry(k, j)


def exchange_violations(a: SquareMatrix) -> list[tuple[int, int]]:
    return [(i, j) for i, j in itertools.product(range(2, a.d + 1), repeat=2)
            if a.entry(i, j) - a.entry(1, j) != a.entry(i, 1) - a.entry(1, 1)]


def fast_check_reference(a: SquareMatrix) -> FastCheck:
    # The row-major negative scan, then the exchange loop, with the witness
    # sums from the validating permutation_sum: kept only as the reference.
    for i, row in enumerate(a.rows):
        for j, x in enumerate(row):
            if x < 0:
                return FastCheck(None, negative_entry=(i + 1, j + 1))
    d, violations = a.d, exchange_violations(a)
    if violations:
        i, j = violations[0]
        images = dict(zip([r for r in range(2, d + 1) if r != i],
                          [c for c in range(2, d + 1) if c != j]))
        images[1], images[i] = 1, j
        sigma = tuple(images[r] for r in range(1, d + 1))
        images[1], images[i] = j, 1
        sigma_prime = tuple(images[r] for r in range(1, d + 1))
        sums = (permutation_sum(a, sigma), permutation_sum(a, sigma_prime))
        return FastCheck(None, witness=Witness((1, 1, i, j), sigma, sigma_prime, sums))
    return FastCheck(permutation_sum(a, range(1, d + 1)))


def _large_tables(kind: str, rng: random.Random) -> list:
    # int: boards at the sides trick-large-n tampers; fraction: one Fraction table; mixed:
    # one float table, dyadic so that the reference's float differences are exact.
    if kind == "int":
        boards = [trick_generate(d, rng.randint(d * d, 10 ** 6), seed=d) for d in (16, 64, 128)]
        return [[list(r) for r in g.matrix.rows] for g in boards]
    if kind == "fraction":
        lam, mu = ([Fraction(rng.randint(0, 99), rng.randint(1, 9)) for _ in range(24)]
                   for _ in range(2))
    else:
        lam, mu = ([rng.randint(0, 99) / 8 for _ in range(24)] for _ in range(2))
    return [[[m + l for l in lam] for m in mu]]


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_fast_check_matches_the_reference(kind):
    # Boards, boards shifted below zero, and tampered boards: negative_entry
    # wins over a witness and names the first negative entry in row-major order.
    # Then larger tables, each as it is and with one entry raised.
    rng = random.Random(f"fast-check-{kind}")

    def scalar():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(0, 6)
        return Fraction(rng.randint(0, 12), rng.randint(1, 4))

    def check(rows):
        m = SquareMatrix(tuple(map(tuple, rows)))
        got, want = is_g_matrix_fast(m), fast_check_reference(m)
        assert got == want, m.rows
        assert type(got.value) is type(want.value)
        if got.witness is not None:
            assert list(map(type, got.witness.sums)) == list(map(type, want.witness.sums))
        return m, got

    outcomes = Counter()
    for _ in range(1500):
        d = rng.randint(1, 7)
        rows = [list(r) for r in compose(Labeling(tuple(scalar() for _ in range(d)),
                                                  tuple(scalar() for _ in range(d)))).matrix.rows]
        if rng.random() < 0.5:
            shift = rng.choice([1, 3, Fraction(5, 2)])
            rows = [[x - shift for x in r] for r in rows]
        for _ in range(rng.choice([0, 1, 1, 2])):
            i, j = rng.randrange(d), rng.randrange(d)
            rows[i][j] += rng.choice([1, -1, -7, Fraction(1, 3)])
        m, got = check(rows)
        outcomes[bool(got), got.negative_entry is not None, got.witness is not None] += 1
        outcomes["negative and violated"] += bool(got.negative_entry and exchange_violations(m))
    assert len(outcomes) == 4 and min(outcomes.values()) > 100, outcomes
    for rows in _large_tables(kind, rng):
        assert check(rows)[1]
        rows[rng.randrange(1, len(rows))][rng.randrange(1, len(rows))] += 1
        assert check(rows)[1].witness is not None


def test_negative_entry_wins_over_a_violated_exchange():
    # (1, 3) is the first negative entry; the board also violates (2, 2).
    m = mat([[0, 5, -1], [1, 0, 2], [-4, 3, 1]])
    assert (2, 2) in exchange_violations(m)
    assert is_g_matrix_fast(m) == fast_check_reference(m) == FastCheck(None, negative_entry=(1, 3))


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_compose_and_scale_are_certified_by_construction(kind):
    # compose and scale build their GMatrix with no check; the check agrees.
    rng = random.Random(f"certified-{kind}")

    def label():
        n = rng.randint(0, 10 ** rng.randint(1, 6))
        return n if kind == "int" else Fraction(n, rng.randint(1, 9))

    for _ in range(400):
        d = rng.randint(1, 9)
        g = compose(Labeling(tuple(label() for _ in range(d)), tuple(label() for _ in range(d))))
        check = is_g_matrix_fast(g.matrix)
        assert check and check.value == g.value
        c = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        s = scale(g, c)
        check = is_g_matrix_fast(s.matrix)
        assert check and check.value == s.value == c * g.value
        assert GMatrix(s.matrix, s.value) == s and GMatrix.from_matrix(g.matrix).value == g.value


def test_value_zero_forces_zero_matrix():
    for d in (2, 3):
        for flat in itertools.product(range(3), repeat=d * d):
            m = SquareMatrix(tuple(flat[i * d:(i + 1) * d] for i in range(d)))
            check = is_g_matrix_fast(m)
            if check and check.value == 0:
                assert m == SquareMatrix.zero(d)


# ------------------------------------------------------------ float entries

def test_from_matrix_reads_float_entries_exactly():
    # 0.3 + 1.0 == 0.2 + 1.1 in floats, but not exactly: the board is no G-matrix.
    m = mat([[0.3, 0.2], [1.1, 1.0]])
    assert 0.3 + 1.0 == 0.2 + 1.1 and is_g_matrix_bruteforce(m) is None
    assert not is_g_matrix_fast(m)
    with pytest.raises(ValueError, match=r"violated quadruple \(1, 1, 2, 2\)"):
        GMatrix.from_matrix(m)
    assert affine_hull_residual(m)[1] == [(1, 1, 2, 2)]


def test_witness_sums_float_entries_exactly():
    # Both placements sum to 0.4 in floats; read exactly, the sums differ.
    m = mat([[0.1, 0.2], [0.2, 0.30000000000000004]])
    w = is_g_matrix_fast(m).witness
    assert 0.1 + 0.30000000000000004 == 0.2 + 0.2
    assert w.sums[0] != w.sums[1]
    assert w.sums == (permutation_sum(m, w.sigma), permutation_sum(m, w.sigma_prime))
    assert w.sums == (Fraction(0.1) + Fraction(0.30000000000000004), 2 * Fraction(0.2))


def test_float_boards_have_exact_values():
    # A board of 0.5s has the value 1 as a Fraction, as do its labels and total.
    m = mat([[0.5, 0.5], [0.5, 0.5]])
    for value in (is_g_matrix_fast(m).value, is_g_matrix_bruteforce(m),
                  GMatrix.from_matrix(m).value, m.total() / 2, permutation_sum(m, (2, 1))):
        assert (value, type(value)) == (1, Fraction)
    lab = decompose_canonical(GMatrix.from_matrix(m))
    assert (lab.col_labels, lab.row_labels) == ((Fraction(1, 2),) * 2, (0, 0))


def test_fast_matches_bruteforce_on_seeded_float_boards():
    entries = (0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1, 1.1, 2)
    rng = random.Random("float-boards")
    accepted = 0
    for _ in range(20_000):
        d = rng.choice((2, 3))
        flat = rng.choices(entries, k=d * d)
        m = SquareMatrix(tuple(flat[i:i + d] for i in range(0, d * d, d)))
        value = is_g_matrix_fast(m).value
        assert value == is_g_matrix_bruteforce(m), m.rows
        accepted += value is not None
    assert accepted > 100


def test_float_labels_compose_exact_boards():
    # compose skips the check; Labeling reads each float label as the Fraction it equals.
    rng = random.Random("float-labels")
    assert Labeling((0.1,), (0.2,)) == Labeling((Fraction(0.1),), (Fraction(0.2),))
    for _ in range(2000):
        d = rng.randint(2, 4)
        digits = rng.randint(1, 3)
        lam, mu = ([round(rng.uniform(0, 5), digits) for _ in range(d)] for _ in range(2))
        g = compose(Labeling(lam, mu))
        assert is_g_matrix_bruteforce(g.matrix) == g.value == sum(map(Fraction, lam + mu))


mixed_scalars = st.one_of(st.integers(0, 6), st.fractions(0, 6, max_denominator=6),
                          st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 1.1, 2.5]))
mixed_boards = st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.lists(mixed_scalars, min_size=d, max_size=d),
    st.lists(mixed_scalars, min_size=d, max_size=d),
    st.none() | st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                          st.sampled_from([1, -1, Fraction(1, 3), 0.5, -0.1]))))


@settings(deadline=None)
@given(mixed_boards)
def test_fast_matches_bruteforce_on_mixed_label_tables(board):
    # Tables of int, Fraction and float labels added in the labels' own
    # arithmetic (so a float sum may round), sometimes with one entry tampered.
    lam, mu, tamper = board
    rows = [[m + l for l in lam] for m in mu]
    if tamper is not None:
        i, j, delta = tamper
        rows[i][j] += delta
    m = SquareMatrix(tuple(map(tuple, rows)))
    value = is_g_matrix_fast(m).value
    assert value == is_g_matrix_bruteforce(m)
    if value is not None:
        assert compose(decompose_canonical(GMatrix.from_matrix(m))).matrix == m


# ------------------------------------------------------------ decomposition

def test_decompose_example(example_board):
    lab = decompose_canonical(example_board)
    assert lab.col_labels == EXAMPLE_COL_LABELS
    assert lab.row_labels == EXAMPLE_ROW_LABELS
    assert lab.canonical


def test_decompose_zero_and_ones():
    lab = decompose_canonical(GMatrix.zero(3))
    assert lab.col_labels == (0, 0, 0) and lab.row_labels == (0, 0, 0)
    lab = decompose_canonical(GMatrix(SquareMatrix.all_ones(4), 4))
    assert lab.col_labels == (1, 1, 1, 1) and lab.row_labels == (0, 0, 0, 0)


def test_decompose_rows_first_variant():
    g = compose(Labeling((2, 3), (0, 1)))
    assert g.matrix == mat([[2, 3], [3, 4]])
    cols_first = decompose_canonical(g)
    assert (cols_first.col_labels, cols_first.row_labels) == ((2, 3), (0, 1))
    assert cols_first.canonical
    rows_first = decompose_canonical(g, "rows-first")
    assert (rows_first.col_labels, rows_first.row_labels) == ((0, 1), (2, 3))
    assert not rows_first.canonical
    assert compose(rows_first) == g


def test_decompose_rejects_unknown_order(example_board):
    with pytest.raises(ValueError):
        decompose_canonical(example_board, "diagonal-first")


def decompose_by_minima(rows, order):
    # The min-sweep decomposition over the whole board, kept only as the
    # reference for decompose_canonical: column minima, then row minima of
    # the residue (columns-first), or the mirror image (rows-first).
    d = len(rows)
    if order == "columns-first":
        lam = [min(rows[i][j] for i in range(d)) for j in range(d)]
        mu = [min(rows[i][j] - lam[j] for j in range(d)) for i in range(d)]
    else:
        mu = [min(row) for row in rows]
        lam = [min(rows[i][j] - mu[i] for i in range(d)) for j in range(d)]
    assert all(rows[i][j] == mu[i] + lam[j] for i in range(d) for j in range(d))
    return tuple(lam), tuple(mu)


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_decompose_matches_the_minima(kind):
    rng = random.Random(f"labels-{kind}")

    def scalar():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(0, 6)
        return Fraction(rng.randint(0, 12), rng.randint(1, 4))

    boards = [GMatrix.zero(1), GMatrix.zero(4), GMatrix.from_matrix(mat([[scalar()]]))]
    for _ in range(400):
        d = rng.randint(1, 7)
        boards.append(compose(Labeling(tuple(scalar() for _ in range(d)),
                                       tuple(scalar() for _ in range(d)))))
    for g in boards:
        for order in ("columns-first", "rows-first"):
            lab = decompose_canonical(g, order)
            want = decompose_by_minima(g.matrix.rows, order)
            assert (lab.col_labels, lab.row_labels) == want, (g.matrix.rows, order)
            if kind != "mixed":
                assert [type(x) for x in lab.col_labels + lab.row_labels] == \
                    [type(x) for x in want[0] + want[1]], (g.matrix.rows, order)
        cols_first = decompose_by_minima(g.matrix.rows, "columns-first")
        rows_first = decompose_by_minima(g.matrix.rows, "rows-first")
        assert locate(g, "R") == cols_first[1].index(0) + 1
        assert locate(g, "C") == rows_first[0].index(0) + 1


def test_compose_example(example_board):
    lab = Labeling(EXAMPLE_COL_LABELS, EXAMPLE_ROW_LABELS)
    assert compose(lab) == example_board
    assert compose(lab).value == EXAMPLE_VALUE


def test_compose_small():
    assert compose(Labeling((0, 0), (0, 0))) == GMatrix.zero(2)
    g = compose(Labeling((1, 0), (0, 2)))
    assert g.matrix == mat([[1, 0], [3, 2]]) and g.value == 3
    assert is_g_matrix_bruteforce(g.matrix) == 3


def test_negative_labels_rejected():
    with pytest.raises(ValueError):
        Labeling((1, -1), (0, 0))


label_lists = st.integers(1, 5).flatmap(
    lambda d: st.tuples(
        st.lists(st.integers(0, 30), min_size=d, max_size=d),
        st.lists(st.integers(0, 30), min_size=d, max_size=d)))


@settings(deadline=None)
@given(label_lists)
def test_roundtrip_and_canonical_shift(lists):
    lam, mu = (tuple(lists[0]), tuple(lists[1]))
    g = compose(Labeling(lam, mu))
    lab = decompose_canonical(g)
    assert compose(lab) == g
    shift = min(mu)
    assert lab.col_labels == tuple(x + shift for x in lam)
    assert lab.row_labels == tuple(x - shift for x in mu)
    assert lab.canonical
    if shift == 0:
        assert lab == Labeling(lam, mu)


@settings(deadline=None)
@given(label_lists, st.integers(1, 20), st.integers(1, 20))
def test_scaling_preserves_the_property(lists, num, den):
    g = compose(Labeling(tuple(lists[0]), tuple(lists[1])))
    c = Fraction(num, den)
    scaled = scale(g, c)
    assert is_g_matrix_fast(scaled.matrix).value == c * g.value


# ---------------------------------------------------------------- generator

def test_trick_d1_is_forced():
    for mode in ("uniform", "quick"):
        assert trick_generate(1, 7, mode, seed=5).matrix == mat([[7]])


def test_trick_value_zero_is_zero_board():
    assert trick_generate(2, 0, seed=11) == GMatrix.zero(2)


def test_trick_seeded_board_verifies():
    g = trick_generate(5, 57, seed=1)
    assert is_g_matrix_fast(g.matrix).value == 57
    assert trick_generate(5, 57, seed=1) == g
    assert trick_generate(5, 57, "quick", seed=1) == trick_generate(5, 57, "quick", seed=1)


def test_trick_uniform_reaches_every_board():
    boards = {trick_generate(2, 1, seed=s).matrix.rows for s in range(300)}
    assert len(boards) == 4  # g_2(1) = 4 boards in total


def test_trick_canonicalizes_quick_mode():
    for s in range(50):
        g = trick_generate(3, 11, "quick", seed=s)
        assert g.value == 11
        assert is_g_matrix_fast(g.matrix).value == 11


def _chi2_within_bound(observed, expected):
    # Pearson's statistic against its own mean + 6 standard deviations
    # (chi2 with k dof has mean k and variance 2k). The draws are seeded, so
    # the test is deterministic; the wide margin only keeps a change of seed
    # from failing it, while a biased sampler lands far beyond it.
    stat = sum((observed.get(key, 0) - e) ** 2 / e for key, e in expected.items())
    dof = len(expected) - 1
    return stat <= dof + 6 * (2 * dof) ** 0.5


@pytest.mark.parametrize("d,value", [(1, 5), (2, 0), (2, 3), (3, 2), (4, 1)])
def test_trick_samples_each_halfopen_cell_by_its_size(d, value):
    boards = [SquareMatrix(tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d)))
              for flat in iter_g_matrices_flat(d, value)]
    cell_sizes = {k: halfopen_simplex_count(2 * d - 1, k - 1, value) for k in range(1, d + 1)}
    exhaustive = Counter(locate(GMatrix.from_matrix(m)) for m in boards)
    assert {k: exhaustive.get(k, 0) for k in cell_sizes} == cell_sizes
    draws = [trick_generate(d, value, seed=s) for s in range(200 * len(boards))]
    assert {g.matrix for g in draws} == set(boards)
    per_cell = Counter(locate(g) for g in draws)
    expected = {k: len(draws) * n / len(boards) for k, n in cell_sizes.items() if n}
    assert set(per_cell) == set(expected)
    assert _chi2_within_bound(per_cell, expected)


def test_trick_uniform_chi_squared():
    d, value = 2, 3  # g_2(3) = 16 boards
    draws = Counter(trick_generate(d, value, seed=s).matrix for s in range(16_000))
    assert len(draws) == g_formula_3(d, value)
    assert _chi2_within_bound(draws, {m: 1000 for m in draws})


@pytest.mark.parametrize("d,value,mode", [(2, 10 ** 12, "uniform"), (5, 10 ** 30, "uniform"),
                                          (2, 10 ** 20, "quick")])
def test_trick_big_values(d, value, mode):
    g = trick_generate(d, value, mode, seed=7)
    assert g.d == d and is_g_matrix_fast(g.matrix).value == value


class _Branch(Exception):
    """Raised by a stand-in RNG at the first draw it has no result for; args[0] is its bound."""


class _Replay:
    """Stands in for trick_generate's random.Random: the k-th randrange call returns
    prefix[k], or ``last`` past the prefix (a _Branch when ``last`` is None)."""

    def __init__(self, prefix, last=None):
        self.prefix, self.last, self.bounds = prefix, last, []

    def randrange(self, n):
        self.bounds.append(n)
        if len(self.bounds) <= len(self.prefix):
            return self.prefix[len(self.bounds) - 1]
        if self.last is None:
            raise _Branch(n)
        return self.last


def _replay_sampler(monkeypatch):
    # trick_generate builds its RNG as random.Random(seed); each call now gets rngs[-1]
    rngs = []
    monkeypatch.setattr(gardner.matrix, "random", SimpleNamespace(Random=lambda seed: rngs[-1]))
    return rngs


@pytest.mark.parametrize("d,value", [(2, 3), (2, 5), (3, 2)])
def test_trick_law_is_exactly_uniform_on_every_rng_path(monkeypatch, d, value):
    # Walk the tree of randrange results: a path ending in a board has probability
    # prod 1/bound over its draws, and a board's probability sums its paths.
    rngs = _replay_sampler(monkeypatch)
    law, stack = {}, [((), Fraction(1))]
    while stack:
        prefix, p = stack.pop()
        rngs.append(_Replay(prefix))
        try:
            board = trick_generate(d, value).matrix
        except _Branch as branch:
            stack += [(prefix + (x,), p / branch.args[0]) for x in range(branch.args[0])]
        else:
            law[board] = law.get(board, 0) + p
    boards = {SquareMatrix(tuple(flat[i:i + d] for i in range(0, d * d, d)))
              for flat in iter_g_matrices_flat(d, value)}
    assert len(boards) == g_formula_3(d, value) and set(law) == boards
    assert set(law.values()) == {Fraction(1, len(boards))}


# (8, 3) leaves cells 5-8 empty, so the walk must stop by cell 4; (1, 5) has one cell;
# (3, 10**20) draws below a total of about 330 bits.
@pytest.mark.parametrize("d,value", [(8, 10 ** 6), (8, 3), (1, 5), (3, 10 ** 20)])
def test_trick_cells_have_their_sizes_by_bisection(monkeypatch, d, value):
    # Force the first draw x, let every later draw be 0, and read the cell back through
    # locate: cell k must take exactly C(N + 2d - k - 1, 2d - 2) of the first draws.
    rngs = _replay_sampler(monkeypatch)

    def cell_of(x):
        rngs.append(_Replay((x,), last=0))
        return locate(trick_generate(d, value))

    assert cell_of(0) == 1 and rngs[-1].bounds[0] == g_formula_3(d, value)
    total, starts = rngs[-1].bounds[0], [0]
    for k in range(2, d + 1):  # the first draw of cell k; cell_of is nondecreasing in x
        lo, hi = starts[-1], total
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if cell_of(mid) >= k else (mid + 1, hi)
        starts.append(lo)
    sizes = [b - a for a, b in zip(starts, starts[1:] + [total])]
    assert sizes == [math.comb(value + 2 * d - k - 1, 2 * d - 2) for k in range(1, d + 1)]


def test_trick_draws_below_formula_3(monkeypatch):
    rngs = _replay_sampler(monkeypatch)
    for d in range(1, 13):
        for value in (0, 1, d - 1, d, d * d, 10 ** 12):
            rngs.append(_Replay((), last=0))
            trick_generate(d, value)
            assert rngs[-1].bounds[0] == g_formula_3(d, value)


def test_trick_seeded_boards_are_pinned():
    # The digest was computed by this same loop on the sampler that bisected a cumulative
    # table of the d cell sizes, before it walked the cells: every seeded board is unchanged.
    h = hashlib.sha256()
    for d in (1, 2, 3, 8, 30, 128):
        for value in (0, 1, 7, d * d, 10 ** 6, 10 ** 20):
            for seed in (0, 1, 2):
                for mode in ("uniform", "quick"):
                    h.update(repr(trick_generate(d, value, mode, seed).matrix.rows).encode())
    assert h.hexdigest() == "63a2d54b7efcaa0ed01b42d41cc31fa8ad3898ee67e08d8447ba2885b9f8baec"


def test_trick_validates_arguments():
    with pytest.raises(ValueError):
        trick_generate(0, 3)
    with pytest.raises(ValueError):
        trick_generate(2, -1)
    with pytest.raises(ValueError):
        trick_generate(2, 3, "slow")


# ------------------------------------------------------------------ scaling

def test_scale_example_to_value_one(example_board):
    unit = scale(example_board, Fraction(1, 57))
    assert unit.value == 1
    assert unit.matrix.entry(1, 1) == Fraction(19, 57)


def test_scale_zero_and_barycenter():
    assert scale(GMatrix.zero(3), Fraction(5, 3)).matrix == SquareMatrix.zero(3)
    j = GMatrix(SquareMatrix.all_ones(4), 4)
    center = scale(j, Fraction(1, 4))
    assert center.value == 1
    assert center.matrix.entry(2, 3) == Fraction(1, 4)


def test_scale_rejects_nonpositive(example_board):
    with pytest.raises(ValueError):
        scale(example_board, 0)
    with pytest.raises(ValueError):
        scale(example_board, Fraction(-1, 2))


# ------------------------------------------------------------ constructors

def test_gmatrix_constructor_validates():
    with pytest.raises(ValueError):
        GMatrix(SquareMatrix.identity(2), 1)
    with pytest.raises(ValueError):
        GMatrix(SquareMatrix.all_ones(3), 5)  # actual value is 3
    assert GMatrix.from_matrix(SquareMatrix.all_ones(3)).value == 3


def test_from_matrix_certifies_once(monkeypatch, example_matrix):
    # from_matrix's value is its board's check, which __post_init__ reads back without a scan
    calls = _count_exchange_scans(monkeypatch)
    assert GMatrix.from_matrix(example_matrix).value == EXAMPLE_VALUE
    assert len(calls) == 1 and calls[0] is example_matrix
    with pytest.raises(ValueError, match=r"violated quadruple \(1, 1, 2, 2\)"):
        GMatrix.from_matrix(SquareMatrix.identity(2))
    with pytest.raises(ValueError, match=r"negative entry at \(2, 1\)"):
        GMatrix.from_matrix(mat([[1, 2], [-1, 0]]))


_ONES = ((1.0, 1.0, 1.0),) * 3


def _with(rows, i, j, x):
    # rows with entry (i, j), 1-based, set to x
    return tuple(tuple(x if (a, b) == (i, j) else y for b, y in enumerate(r, 1))
                 for a, r in enumerate(rows, 1))


@pytest.mark.parametrize("rows, value", [
    (EXAMPLE_ROWS, EXAMPLE_VALUE), (((0, 1, 0), (1, 0, 0), (0, 0, 1)), 1), (((1, 2), (-1, 0)), 2),
    *[(_with(_ONES, i, j, x), 3) for x in (math.inf, -math.inf, math.nan)
      for i, j in ((2, 2), (2, 3))]],
    ids=["passing", "witness", "negative",
         *[f"{x}-at-{i}{j}" for x in ("inf", "-inf", "nan") for i, j in ("22", "23")]])
def test_from_matrix_agrees_with_the_stated_value_constructor(rows, value):
    # The same value, or the same ValueError: negative entry first, then the witness's sums.
    def outcome(build):
        try:
            return "value", build(SquareMatrix(rows)).value
        except ValueError as exc:
            return "error", str(exc)

    assert outcome(GMatrix.from_matrix) == outcome(lambda m: GMatrix(m, value))


def test_square_matrix_validates():
    with pytest.raises(ValueError):
        SquareMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        SquareMatrix(())
    m = mat([[1, 2], [3, 4]])
    assert m.entry(1, 2) == 2 and m.row(2) == (3, 4) and m.col(1) == (1, 3)
    assert m.flat() == (1, 2, 3, 4) and m.total() == 10
    with pytest.raises(IndexError):
        m.entry(0, 1)


def test_scale_keeps_float_boards_g_matrices_of_their_value():
    # float addition tables of dyadic labels, scaled by 1/k: every entry is read exactly
    rng = random.Random(7)
    labels = (0, 0.25, 0.5, 0.75, 1.5, 2, 3)
    for _ in range(2000):
        d = rng.randint(2, 4)
        lam, mu = ([rng.choice(labels) for _ in range(d)] for _ in range(2))
        board = SquareMatrix(tuple(tuple(float(m + x) for x in lam) for m in mu))
        s = scale(GMatrix.from_matrix(board), Fraction(1, rng.randint(2, 40)))
        assert is_g_matrix_bruteforce(s.matrix) == s.value, board
    # a float stated value is read exactly too
    s = scale(GMatrix(SquareMatrix(((1, 1), (1, 1))), 2.0), Fraction(1, 3))
    assert s.value == is_g_matrix_bruteforce(s.matrix) == Fraction(2, 3)
    assert type(s.value) is Fraction


def test_gmatrix_keeps_the_value_its_check_certified():
    # Whatever type the stated value has, the board holds the exact int its check found.
    ones = SquareMatrix(((1, 1), (1, 1)))
    reference = GMatrix(ones, 2)
    for stated in (2, Fraction(2), 2.0):
        g = GMatrix(ones, stated)
        assert g.value == 2 and type(g.value) is int, stated
        for cell in triangulation_cells(2):
            assert barycentric(g, cell) == barycentric(reference, cell)
        for cell in halfopen_cells(2):
            assert halfopen_contains(g, cell) == halfopen_contains(reference, cell)
        assert scale(g, Fraction(1, 3)).value == Fraction(2, 3)
        text = json.dumps(board_json_payload(g, decompose_canonical(g)))
        assert BoardDocument.from_json(text).value == 2


# ------------------------------------------------------- one check per board

def _count_exchange_scans(monkeypatch):
    calls, scan = [], gardner.matrix._exchange_violations
    monkeypatch.setattr(gardner.matrix, "_exchange_violations",
                        lambda a, lam, mu: calls.append(a) or scan(a, lam, mu))
    return calls


def test_a_board_is_checked_once(monkeypatch):
    calls = _count_exchange_scans(monkeypatch)
    m = SquareMatrix(EXAMPLE_ROWS)
    check = is_g_matrix_fast(m)
    assert check.value == EXAMPLE_VALUE and is_g_matrix_fast(m) is check
    assert GMatrix(m, EXAMPLE_VALUE).value == GMatrix.from_matrix(m).value == EXAMPLE_VALUE
    assert len(calls) == 1 and calls[0] is m
    is_g_matrix_fast(SquareMatrix(EXAMPLE_ROWS))  # an equal board is a new board
    assert len(calls) == 2


def test_a_failing_board_keeps_its_witness_or_negative_entry(monkeypatch):
    calls = _count_exchange_scans(monkeypatch)
    swapped, negative = SquareMatrix.identity(3), mat([[1, 2], [-1, 0]])
    for board in (swapped, negative):
        check = is_g_matrix_fast(board)
        assert not check and is_g_matrix_fast(board) is check
        with pytest.raises(ValueError):
            GMatrix.from_matrix(board)
        assert is_g_matrix_fast(board) is check
    assert is_g_matrix_fast(swapped).witness.quadruple == (1, 1, 2, 2)
    assert is_g_matrix_fast(negative).negative_entry == (2, 1)
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_check_that_raises_keeps_nothing(bad):
    # in row 1 the label read raises; off row 1 and column 1 the witness's sums do
    boards = [((bad, 1.0), (1.0, 1.0))]
    if bad != -math.inf:  # off row 1 and column 1, -inf is reported as a negative entry
        boards.append(((1.0, 1.0), (1.0, bad)))
    for rows in boards:
        board = SquareMatrix(rows)
        for _ in range(2):
            with pytest.raises(ValueError, match="not finite"):
                is_g_matrix_fast(board)
            assert board._checked is None and "_checked" not in vars(board)


def test_the_kept_check_is_invisible_to_the_value():
    used, fresh = SquareMatrix(EXAMPLE_ROWS), SquareMatrix(EXAMPLE_ROWS)
    check = is_g_matrix_fast(used)
    assert used._checked is check and fresh._checked is None
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert [f.name for f in dataclasses.fields(used)] == ["rows"]
    copy = dataclasses.replace(used)
    assert copy == used and copy._checked is None and "_checked" not in vars(copy)


def test_a_checked_board_dies_with_its_last_reference():
    # The kept FastCheck holds no reference to its board.
    passing, failing = SquareMatrix(EXAMPLE_ROWS), SquareMatrix.identity(3)
    assert is_g_matrix_fast(passing) and not is_g_matrix_fast(failing)
    refs = [weakref.ref(passing), weakref.ref(failing)]
    gc.disable()
    try:
        del passing, failing
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_compose_and_scale_boards_start_unchecked():
    # compose and scale certify by construction: their boards carry no check until one runs.
    checked = GMatrix.from_matrix(SquareMatrix(EXAMPLE_ROWS))
    assert checked.matrix._checked is not None
    g = compose(Labeling(EXAMPLE_COL_LABELS, EXAMPLE_ROW_LABELS))
    boards = [g.matrix, scale(g, Fraction(1, 57)).matrix, scale(checked, 3).matrix,
              trick_generate(4, 100, seed=3).matrix]
    assert all(board._checked is None for board in boards)
