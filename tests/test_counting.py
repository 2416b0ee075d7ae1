import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from gardner import counting
from gardner.counting import (BudgetExceededError, CountingPolynomial, binom,
                              f_star, f_star_by_enumeration, g_bruteforce,
                              g_formula_1, g_formula_2, g_formula_3,
                              g_labeling_oracle, halfopen_simplex_count,
                              interior_count_bruteforce, interpolate,
                              iter_compositions, iter_g_matrices_flat,
                              open_simplex_count, roots_check, simplex_count)
from gardner import linalg
from gardner.matrix import SquareMatrix, is_g_matrix_bruteforce


# ------------------------------------------------- independent point oracles

def _simplex_points(m, n):
    """Lattice points of the n-th dilate of the standard simplex on m
    vertices: x in Z^(m-1), x >= 0, sum(x) <= n."""
    if m == 1:
        return 1
    return sum(1 for x in itertools.product(range(n + 1), repeat=m - 1)
               if sum(x) <= n)


def _halfopen_points(m, u, n):
    """Same dilate, but the first u vertex weights must be positive. The
    weights of a point x are (n - sum(x), x_1, ..., x_(m-1))."""
    if m == 1:
        return 1 if u == 0 or n > 0 else 0
    count = 0
    for x in itertools.product(range(n + 1), repeat=m - 1):
        if sum(x) > n:
            continue
        weights = (n - sum(x),) + x
        if all(weights[i] > 0 for i in range(u)):
            count += 1
    return count


def test_simplex_counts_match_enumeration():
    for m in range(1, 5):
        for n in range(0, 6):
            assert simplex_count(m, n) == _simplex_points(m, n)
            assert open_simplex_count(m, n) == _halfopen_points(m, m, n)
            for u in range(m + 1):
                assert halfopen_simplex_count(m, u, n) == _halfopen_points(m, u, n)


def test_simplex_count_examples():
    assert simplex_count(3, 2) == 6
    assert open_simplex_count(3, 3) == 1  # the barycenter
    for m in range(1, 6):
        for n in range(0, 8):
            assert halfopen_simplex_count(m, 0, n) == simplex_count(m, n)
            assert halfopen_simplex_count(m, m, n) == open_simplex_count(m, n)


def test_simplex_count_validation():
    with pytest.raises(ValueError):
        simplex_count(0, 1)
    with pytest.raises(ValueError):
        simplex_count(2, -1)
    with pytest.raises(ValueError):
        halfopen_simplex_count(2, 3, 1)


# ------------------------------------------------------------------ binomial

def test_binom_conventions():
    assert binom(5, -1) == 0
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1
    for k in range(6):
        assert binom(-1, k) == (-1) ** k
    assert binom(-2, 2) == 3  # (-2)(-3)/2


def test_binomial_row_extends_binom():
    # Formula (1) reads the row at negative n, where binom's extension applies.
    for n in range(-12, 13):
        row = itertools.islice(counting._binomial_row(n), 26)
        assert list(row) == [binom(n, k) for k in range(26)]


# ------------------------------------------------------------- closed forms

def test_formula_values():
    assert g_formula_1(1, 10) == 1
    assert g_formula_1(2, 1) == 4
    assert g_formula_1(2, 2) == 9
    assert g_formula_2(2, 1) == 4
    assert g_formula_2(3, 0) == 1
    assert g_formula_2(2, 3) == 16
    assert g_formula_3(2, 2) == 9
    assert g_formula_3(1, 5) == 1
    for n in range(7):
        assert g_formula_3(2, n) == (n + 1) ** 2


def test_three_way_agreement():
    for d in range(1, 7):
        for n in [*range(0, 21), 10 ** 12]:
            a = g_formula_1(d, n)
            assert a == g_formula_2(d, n) == g_formula_3(d, n)


@pytest.mark.parametrize("d", [1, 2, 3, 50, 6000])
def test_formula_2_sums_only_the_nonzero_terms(d):
    # N = 0 keeps all 2d-1 terms; from N = 1 on, only min(N, 2d-1) count.
    for n in (0, 1, 2, 10):
        assert g_formula_2(d, n) == g_formula_3(d, n)


def test_formula_2_draws_only_the_terms_it_sums(monkeypatch):
    # The min(N, 2d-1) cutoff bounds the work: at d = 10^5 and N = 5 no binomial row
    # gives more than 6 entries, C(2d, 0) to C(2d, 5) for the row of 2d.
    drawn, row = [], counting._binomial_row

    def counted(n):  # the rows are drawn interleaved, so each keeps its own slot
        i = len(drawn)
        drawn.append(0)
        for c in row(n):
            drawn[i] += 1
            yield c

    monkeypatch.setattr(counting, "_binomial_row", counted)
    assert g_formula_2(10 ** 5, 5) == g_formula_3(10 ** 5, 5)
    assert drawn and max(drawn) <= 6


@pytest.mark.parametrize("d", [7, 11, 400, 3000])
def test_formula_1_matches_formula_3_at_large_d(d):
    # Formula (1) reads C(-N-1, .) off one binomial row, at N = 0 the row
    # of -1, the alternating ones.
    for n in (0, 1, 2, 10, 10 ** 6, 10 ** 12):
        assert g_formula_1(d, n) == g_formula_3(d, n)


def test_formula_validation():
    for f in (g_formula_1, g_formula_2, g_formula_3):
        with pytest.raises(ValueError):
            f(0, 1)
        with pytest.raises(ValueError):
            f(2, -1)


# ------------------------------------------------------------------- oracles

def test_bruteforce_small_values():
    assert g_bruteforce(2, 0) == 1
    assert g_bruteforce(2, 1) == 4
    assert g_bruteforce(3, 1) == 6  # exactly the six vertices
    for n in range(5):
        assert g_bruteforce(2, n) == g_formula_3(2, n)


def test_bruteforce_budget():
    with pytest.raises(BudgetExceededError):
        g_bruteforce(3, 100)
    with pytest.raises(BudgetExceededError):
        g_bruteforce(2, 3, budget=10)
    assert g_bruteforce(2, 1, budget=16) == 4


def test_bruteforce_budget_rejects_negative():
    with pytest.raises(ValueError, match="budget"):
        g_bruteforce(2, 1, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        interior_count_bruteforce(2, 1, budget=-1)


def test_bruteforce_budget_counts_first_row_and_column():
    # the budget counts the (N+1-min_entry)^(2d-1) grid of first rows and columns, which
    # bounds the composition walk from above; the budget is inclusive
    assert g_bruteforce(3, 4, budget=5 ** 5) == g_formula_3(3, 4)
    with pytest.raises(BudgetExceededError, match=str(5 ** 5)):
        g_bruteforce(3, 4, budget=5 ** 5 - 1)
    assert interior_count_bruteforce(3, 4, budget=4 ** 5) == g_formula_3(3, 1)
    with pytest.raises(BudgetExceededError, match=str(4 ** 5)):
        interior_count_bruteforce(3, 4, budget=4 ** 5 - 1)


def _full_sweep(d, n, min_entry):
    """Every d-by-d board with entries in min_entry..n and rook sum n, by the
    d! definition, in row-major lexicographic order."""
    boards = []
    for t in itertools.product(range(min_entry, n + 1), repeat=d * d):
        rows = [list(t[i * d:(i + 1) * d]) for i in range(d)]
        if is_g_matrix_bruteforce(SquareMatrix(rows)) == n:
            boards.append(t)
    return boards


@pytest.mark.parametrize("d,n_max", [(1, 6), (2, 6), (3, 2)])
@pytest.mark.parametrize("min_entry", [0, 1])
def test_sweep_matches_full_sweep(d, n_max, min_entry):
    for n in range(n_max + 1):
        assert list(iter_g_matrices_flat(d, n, min_entry)) == _full_sweep(d, n, min_entry)


def _grid_sweep(d, n, min_entry):
    # The grid-and-filter loop, kept only as the reference for the composition walk:
    # every first row and first column in min_entry..n, kept when the completed
    # board has trace n and every entry >= min_entry.
    entries = range(min_entry, n + 1)
    for top in itertools.product(entries, repeat=d):
        for col in itertools.product(entries, repeat=d - 1):
            board = top + tuple(c - top[0] + x for c in col for x in top)
            if sum(board[::d + 1]) == n and min(board) >= min_entry:
                yield board


def _grid_cases():
    rng = random.Random(7)
    cases = [(d, n, m) for d in (1, 2) for n in range(10) for m in range(n + 2)]
    cases += [(3, n, m) for n in range(7) for m in range(n + 2)]
    cases += [(4, n, m) for n in range(4) for m in range(n + 2)]
    cases += [(5, n, m) for n in range(3) for m in range(n + 2)]
    for _ in range(20):
        d = rng.randint(1, 5)
        n = rng.randint(0, (9, 9, 7, 4, 2)[d - 1])
        cases.append((d, n, rng.randint(0, n + 1)))
    return cases


def test_sweep_matches_grid_sweep():
    for d, n, min_entry in _grid_cases():
        assert list(iter_g_matrices_flat(d, n, min_entry)) == list(_grid_sweep(d, n, min_entry))


def test_bruteforce_walks_only_kept_boards():
    # 21^5 = 4.1e6 grid candidates for 26,796 boards: filtering the grid again
    # would make this test about ten times slower
    assert g_bruteforce(3, 20) == g_formula_3(3, 20)


def test_bruteforce_matches_formula_beyond_d3():
    for n in range(4):
        assert g_bruteforce(4, n) == g_formula_3(4, n)
    for n in range(3):
        assert g_bruteforce(5, n) == g_formula_3(5, n)
    for n in (4, 5):
        assert interior_count_bruteforce(4, n) == g_formula_3(4, n - 4)


def test_labeling_oracle():
    assert g_labeling_oracle(2, 2) == 9
    assert g_labeling_oracle(3, 1) == 6
    for k in range(6):
        assert g_labeling_oracle(1, k) == 1
    for d in range(1, 5):
        for n in range(0, 9):
            assert g_labeling_oracle(d, n) == g_formula_3(d, n)


def test_compositions():
    assert sorted(iter_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(iter_compositions(3, 1)) == [(3,)]
    for n, parts in ((4, 3), (5, 2), (0, 4)):
        comps = list(iter_compositions(n, parts))
        assert len(comps) == len(set(comps)) == binom(n + parts - 1, parts - 1)
        assert all(sum(c) == n and min(c) >= 0 for c in comps)
        assert comps == sorted(comps)  # lexicographic, as the sweep relies on
    assert list(iter_compositions(-1, 1)) == list(iter_compositions(-3, 4)) == []
    assert list(iter_compositions(0, 0)) == [()]
    assert list(iter_compositions(1, 0)) == list(iter_compositions(-1, 0)) == []


# ---------------------------------------------------------------- f* vector

def test_f_star_examples():
    assert f_star(2).entries == (4, 5, 2)
    assert f_star(1).entries == (1,)


def test_f_star_matches_enumeration():
    for d in range(1, 6):
        assert f_star(d) == f_star_by_enumeration(d)


def test_f_star_reproduces_counts():
    for d in range(1, 5):
        entries = f_star(d).entries
        for n in range(0, 11):
            total = sum(entries[m - 1] * binom(n - 1, m - 1)
                        for m in range(1, 2 * d))
            assert total == g_formula_3(d, n)


# ---------------------------------------------------------------- identities

def test_inclusion_exclusion_identity():
    # alternating sum of closed-cell counts over nonempty subsets of cells
    for d in range(1, 6):
        for n in (0, 1, 2, 5, 9):
            total = 0
            for size in range(1, d + 1):
                for _ in itertools.combinations(range(d), size):
                    total += (-1) ** (size - 1) * simplex_count(2 * d - size, n)
            assert total == g_formula_1(d, n)


def test_cell_sum_identity():
    for d in range(1, 7):
        for n in range(0, 21):
            total = sum(halfopen_simplex_count(2 * d - 1, k - 1, n)
                        for k in range(1, d + 1))
            assert total == g_formula_3(d, n)


# ------------------------------------------------------------- interpolation

def test_interpolate_small():
    assert interpolate(1).coefficients == (Fraction(1),)
    assert interpolate(2).coefficients == (Fraction(1), Fraction(2), Fraction(1))
    assert interpolate(2).pretty() == "1 + 2N + N^2"


@pytest.mark.parametrize("coeffs, want", [
    ((-1, 0, 1), "-1 + N^2"),
    ((Fraction(1, 2), 1, Fraction(3, 2)), "1/2 + N + (3/2)N^2"),
    ((0, -1, 1), "-N + N^2"),
    ((0, 0, 1), "N^2"),
    ((3, -1, Fraction(1, 6)), "3 - N + (1/6)N^2"),
    ((Fraction(-1, 2), -2, Fraction(2, 3)), "-1/2 - 2N + (2/3)N^2"),
    ((Fraction(-7, 3), 5, 0, Fraction(-1, 4), Fraction(9, 2)), "-7/3 + 5N - (1/4)N^3 + (9/2)N^4"),
])
def test_pretty_signs_units_fractions_and_zeros(coeffs, want):
    assert CountingPolynomial(len(coeffs) // 2 + 1, coeffs).pretty() == want


# SHA-256 of each interpolate(d).pretty(), so that the printed form cannot
# drift; d = 3 is also given in full.
PRETTY_SHA256 = {
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "fd123fac1944efdd169b9d486ea846304352e657d9e202399460d68199bb5116",
    3: "2d7bbc704842673581a3b3ea03c6587361cf5f2bc7f43ba25a4c298e3e3c9eeb",
    4: "fb99e7500f11900a5d5c3cddd254962b829561f54ed46b01a3cb848722febcbf",
    5: "b85b74634cc2dc221a5369a379e225b78e21f72ee4022baab98ff73eb664602c",
    6: "2cc74284134cf9d97e4af8eb962c7d638734cbc9fafe6a9a746d8565a425be2d",
    7: "6760b017f198ca285d1493f4b214ad10307107aacc44e92731dd5a2d147b5e96",
    8: "dbf565ead7613372943819b1985dba6faf9c3674702e359c8d97649affea14a8",
    9: "04d36e3df33741f21bb9a9b304ab8f3e33853270cfc9c1ac98432ced389c6173",
    10: "bfe3223eb6311d24b04fff219aec061a1a255dec7490edf486e6d89a1f134cf7",
    11: "035cfcd4ea28e2cce0a080003c8f16982611602f9f5c5c3a0ba189c55cb7fcf1",
    12: "89319c88848db15166ca28798acbdc8969d9c4c5a7cb0ea156ce57314c8785b0",
}


def test_pretty_of_interpolate_is_unchanged():
    assert interpolate(3).pretty() == "1 + (9/4)N + (15/8)N^2 + (3/4)N^3 + (1/8)N^4"
    for d, digest in PRETTY_SHA256.items():
        assert hashlib.sha256(interpolate(d).pretty().encode()).hexdigest() == digest


def test_interpolate_degree_and_leading_coefficient():
    import math
    for d in range(1, 7):
        poly = interpolate(d)
        assert poly.degree == 2 * d - 2
        assert poly.coefficients[-1] == Fraction(d, math.factorial(2 * d - 2))


def test_interpolate_extends_beyond_nodes():
    for d in range(1, 7):
        poly = interpolate(d)
        for n in range(2 * d - 1, 4 * d + 1):
            assert poly.evaluate(n) == g_formula_3(d, n)


def test_interpolate_integrality_and_positivity():
    for d in range(1, 7):
        poly = interpolate(d)
        for n in range(0, 41):
            value = poly.evaluate(n)
            assert value == int(value) and value >= 0


def test_counting_polynomial_serialization():
    poly = interpolate(3)
    data = json.loads(json.dumps(poly.to_json_dict()))
    assert CountingPolynomial.from_json_dict(data) == poly
    assert data["coeffs"][0] == "1"


def test_counting_polynomial_validation():
    with pytest.raises(ValueError):
        CountingPolynomial(2, (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        CountingPolynomial(1, (Fraction(-1),))


def test_counting_polynomial_rejects_a_string_of_coefficients():
    # "123" would otherwise be read one character at a time, as 1 + 2N + 3N^2.
    with pytest.raises(ValueError, match="not a string"):
        CountingPolynomial.from_json_dict({"d": 2, "coeffs": "123"})
    with pytest.raises(ValueError, match="not a string"):
        CountingPolynomial(2, "123")


@pytest.mark.parametrize("d", [2.7, 2.0, True])
def test_counting_polynomial_requires_an_int_d(d):
    # int() would truncate 2.7 to 2; 2.0 and True are kept only as ints.
    with pytest.raises(ValueError, match="d must be an int"):
        CountingPolynomial.from_json_dict({"d": d, "coeffs": ["1", "2", "1"]})
    with pytest.raises(ValueError, match="d must be an int"):
        CountingPolynomial(d, (1, 2, 1))


# ------------------------------------------------------------ interior counts

def test_interior_counts():
    assert interior_count_bruteforce(2, 1) == 0
    assert interior_count_bruteforce(2, 2) == 1
    assert interior_count_bruteforce(2, 3) == 4
    assert list(iter_g_matrices_flat(2, 2, min_entry=1)) == [(1, 1, 1, 1)]


def test_reciprocity_small():
    poly = interpolate(2)
    for n in range(2, 7):
        interior = interior_count_bruteforce(2, n)
        assert poly.evaluate(-n) == interior
        assert interior == g_formula_3(2, n - 2)


# -------------------------------------------------------------------- roots

def test_roots_d2_double_root():
    report = roots_check(2)
    assert report.passed
    assert len(report.roots) == 2
    for r in report.roots:
        assert abs(r - (-1)) < 1e-6
    assert all(label == "negative-integer" for label in report.labels)


def test_roots_d3():
    report = roots_check(3)
    assert report.passed and len(report.roots) == 4
    assert sorted(report.labels) == ["critical-line", "critical-line",
                                     "negative-integer", "negative-integer"]


def test_roots_requires_d_at_least_2():
    with pytest.raises(ValueError):
        roots_check(1)


def test_roots_impossible_tolerance_fails():
    report = roots_check(3, tol=1e-300)
    assert not report.passed
    assert "unclassified" in report.labels


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_roots_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        roots_check(5, tol=tol)


def test_roots_overlapping_brackets_certify_nothing(monkeypatch):
    # Two roots given the same bracket: no root is certified, so every
    # bracket root is unclassified and the check fails.
    from gardner import counting
    monkeypatch.setattr(counting, "_bracket", lambda d, theta, tol: (1.5, (1.0, 2.0)))
    report = roots_check(4)
    assert report.labels == ("negative-integer",) * 3 + ("unclassified",) * 3
    assert report.roots[3:] == (complex(-2, -1.5), complex(-2, 1.5), complex(-2, 1.5))
    assert not report.passed


def test_roots_pass_for_every_d_up_to_100():
    failing = [d for d in range(2, 101) if not roots_check(d).passed]
    assert failing == []


def test_roots_order_and_arg_equation():
    # The d-1 bracket roots follow -1..-(d-1) by ascending imaginary part;
    # the k-th solves sum_j atan(t / (d/2 + j)) = (k - (d-2)/2) pi. The
    # monotone float sum straddles the target over [t - tol, t + tol].
    tol = 1e-8
    for d in list(range(2, 21)) + [40, 90]:
        report = roots_check(d, tol)
        assert report.roots[:d - 1] == tuple(complex(-k) for k in range(1, d))
        for k, (root, label) in enumerate(zip(report.roots[d - 1:], report.labels[d - 1:])):
            assert root.real == -d / 2
            target = (k - (d - 2) / 2) * math.pi
            if label == "negative-integer":
                assert d % 2 == 0 and root.imag == 0 and target == 0
                continue
            assert label == "critical-line"
            arg = [sum(math.atan(t / (d / 2 + j)) for j in range(d))
                   for t in (root.imag - tol, root.imag + tol)]
            assert arg[0] < target < arg[1]


def test_roots_match_known_values():
    # Imaginary parts agree with a double-precision eigenvalue solver at the
    # d where it still works; d = 4 has the closed form -2 +- i sqrt(11).
    assert abs(roots_check(4).roots[-1] - complex(-2, math.sqrt(11))) < 1e-12
    assert abs(roots_check(9).roots[-1].imag - 23.1007) < 1e-4
    assert abs(roots_check(40).roots[-1].imag - 501.6312) < 1e-4


def test_roots_digits_do_not_depend_on_the_interpreter():
    # The Newton sums are correctly rounded (math.fsum), so the sum no longer
    # depends on the Python version (a plain sum() rounds differently before
    # 3.12). The terms still come from libm's atan and tan, which are not
    # correctly rounded: these digits are pinned for CPython on glibc, the
    # platform of the CI matrix.
    upper = [1.3542471158720966, 4.551683191586121, 9.736867187020389, 23.10068423780798]
    assert [r.imag for r in roots_check(9).roots[8:]] == [-t for t in upper[::-1]] + upper


def _line_sign_reference(d, t):
    # The sign of Im F(t) (even d) or Re F(t) (odd d), F(t) = prod_{j<d} (d/2 + j + it),
    # multiplied out in Fractions.
    re, im, t = Fraction(1), Fraction(0), Fraction(t)
    for j in range(d):
        a = Fraction(d, 2) + j
        re, im = re * a - im * t, re * t + im * a
    value = im if d % 2 == 0 else re
    return (value > 0) - (value < 0)


def test_line_sign_matches_the_fraction_product():
    # t = 0 (Im F(0) = 0 for even d), then dyadic t of either sign from 2^-60 to 2^60.
    rng = random.Random(7)
    for d in range(1, 41):
        ts = [0.0] + [math.ldexp(rng.randrange(2 ** 19, 2 ** 20), rng.randint(-79, 40))
                      for _ in range(6)]
        for t in ts + [-t for t in ts[1:]]:
            assert counting._line_sign(d, t) == _line_sign_reference(d, t), (d, t)


# ------------------------------------------ Lagrange interpolation as oracle

def _lagrange(d):
    """Exact Lagrange interpolation of g_d through N = 0..2d-2, kept as an
    independent oracle for the product-form coefficients."""
    nodes = list(range(2 * d - 1))
    coeffs = [Fraction(0)] * len(nodes)
    for i, xi in enumerate(nodes):
        basis, denom = [Fraction(1)], 1
        for xj in nodes:
            if xj == xi:
                continue
            basis = [a - xj * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
            denom *= xi - xj
        w = Fraction(g_formula_3(d, xi), denom)
        for k, b in enumerate(basis):
            coeffs[k] += w * b
    return tuple(coeffs)


def test_interpolate_matches_lagrange_oracle():
    for d in range(1, 11):
        assert interpolate(d).coefficients == _lagrange(d)


@pytest.mark.parametrize("d", [1, 20, 40, 80])
def test_interpolate_matches_formula_3_at_large_d(d):
    poly = interpolate(d)
    assert poly.degree == 2 * d - 2
    assert all(poly.evaluate(n) == g_formula_3(d, n) for n in range(4 * d))


def _taylor_shift(coeffs, s):
    """Coefficients of p(x + s) from those of p(x), constant term first, over the integers."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] += s * c[k + 1]
    return c


def _symmetric_about_minus_half_d(coeffs, d):
    # p(-x) == p(x - d), coefficient by coefficient
    return [-c if k % 2 else c for k, c in enumerate(coeffs)] == _taylor_shift(coeffs, -d)


@pytest.mark.parametrize("d", [*range(1, 13), 50, 100, 200])
def test_counting_polynomial_is_symmetric_about_minus_half_d(d):
    # Index-d Gorenstein at every N: the N-th dilate has P(-N) interior lattice points
    # (Ehrhart-Macdonald reciprocity, the degree 2d - 2 being even), the (N - d)-th has
    # P(N - d) lattice points, so the two counts agree exactly when P(-x) = P(x - d).
    poly = interpolate(d)
    ints, den = linalg.integer_vector(poly.coefficients)
    assert _symmetric_about_minus_half_d(ints, d)
    shifted = _taylor_shift(ints, -d)
    assert all(sum(c * x ** k for k, c in enumerate(shifted)) == den * poly.evaluate(x - d)
               for x in range(-2, 3))
    if d >= 2:  # a bumped linear coefficient adds 2x - d to P(x - d) - P(-x)
        assert not _symmetric_about_minus_half_d([ints[0], ints[1] + 1, *ints[2:]], d)
    # a bumped constant term adds 1 to both sides, so the identity cannot see it
    assert _symmetric_about_minus_half_d([ints[0] + 1, *ints[1:]], d)


@pytest.mark.parametrize("d, value, budget", [(0, 3, None), (3, -1, None), (3, 100, -5)])
def test_sweep_rejects_bad_arguments_at_the_call(d, value, budget):
    # the iterator is never advanced: the checks run when it is made
    with pytest.raises(ValueError):
        iter_g_matrices_flat(d, value, budget=budget)


@pytest.mark.parametrize("d, value, min_entry", [(3, 4, -1), (1, 0, -5)])
def test_sweep_rejects_negative_min_entry_at_the_call(d, value, min_entry):
    with pytest.raises(ValueError, match="min_entry"):
        iter_g_matrices_flat(d, value, min_entry)


def test_sweep_budget_is_enforced_at_the_call():
    with pytest.raises(BudgetExceededError):
        iter_g_matrices_flat(3, 100)  # 101^5 candidates > 10^8
    with pytest.raises(BudgetExceededError):
        iter_g_matrices_flat(2, 3, budget=4 ** 3 - 1)
