#!/usr/bin/env bash
# The src/ size rule (ROADMAP aim 2) and the grep rules that keep each rule in one home.
# Run from the repository root: bash tools/size_rule.sh. It exits 1 at the first rule broken.
# `set -e` ignores a `!` command's status, so every `! grep` rule exits itself.
set -e

# No change may leave src/ above 2,055 lines. Each module's count comes first, so a log
# shows where the lines went.
wc -l src/gardner/*.py
lines=$(cat src/gardner/*.py | wc -l)
echo "src/gardner: $lines lines (limit 2055)"
test "$lines" -le 2055
# No src/ line is over 99 characters, so that a line is not saved by a join.
! grep -nE '^.{100,}' src/gardner/*.py || exit 1
# compose and scale are the only unchecked ways to build a GMatrix, so only matrix.py
# may name GMatrix._certified.
! grep -n --exclude=matrix.py '_certified' src/gardner/*.py || exit 1
# A board's kept O(d^2) check is set and read by is_g_matrix_fast alone, so only
# matrix.py may name SquareMatrix._checked.
! grep -nw --exclude=matrix.py '_checked' src/gardner/*.py || exit 1
# cli.main certifies each board file once and hands the handlers the result, so
# cli.py calls is_g_matrix_fast on one line and never names from_matrix or _as_g_matrix.
test "$(grep -c 'is_g_matrix_fast(' src/gardner/cli.py)" -eq 1
! grep -nE 'from_matrix|_as_g_matrix' src/gardner/cli.py || exit 1
# Board text reads its width off row 1 and column 1 in O(d), so matrix.py has no
# whole-board map(min, ...) or map(max, ...).
! grep -nE 'map\((min|max), ' src/gardner/matrix.py || exit 1
# permutation_sum is matrix.py's one rook-placement sum: the d!-sweep's value and the
# witness's two placements read theirs through it, so it is named at least 4 times.
test "$(grep -o 'permutation_sum(' src/gardner/matrix.py | wc -l)" -ge 4
# from_matrix's value is its board's one O(d^2) check, so from_matrix, from its def to the
# blank line after it, names no permutation_sum.
! sed -n '/def from_matrix/,/^$/p' src/gardner/matrix.py | grep -n 'permutation_sum' || exit 1
# Each hull is cleared to integers once, in AffineSubspace._cleared, which dual_subspace,
# spanning_points and compressed_check read; the other clear is HDescription.is_feasible's of
# its point, so duality.py names linalg.integer_vector( exactly twice.
test "$(grep -c 'linalg.integer_vector(' src/gardner/duality.py)" -eq 2
# Both hulls are written in closed form, in RREF, so duality.py row reduces only in
# AffineSubspace.from_point_and_directions and names linalg.rref( exactly once.
test "$(grep -c 'linalg.rref(' src/gardner/duality.py)" -eq 1
# linalg has one elimination kernel, which leaves a row with 0 in the pivot column as it
# is: no Bareiss whole-row rescale (prev), and only its def, rref and det_bareiss name
# _eliminate(, so the determinant takes no second elimination.
! grep -nw 'prev' src/gardner/linalg.py || exit 1
test "$(grep -o '_eliminate(' src/gardner/linalg.py | wc -l)" -eq 3
# counting reads every binomial of formulas (1) and (2) and f* off one recurrence, so
# _binomial_row's is counting.py's only multiply-then-floor-divide update.
test "$(grep -cE '\* [^,]*// ' src/gardner/counting.py)" -eq 1
# Every polytope certificate is a closed form (unimodularity is read off the unit circuit),
# so polytope.py names no elimination or determinant routine of linalg.
! grep -nwE 'det_bareiss|rref|nullspace|rank|solve_unique' src/gardner/polytope.py || exit 1
# dual_subspace checks the duality by bilinearity on its two integer clears, not over all
# spanning pairs, so duality.py never names itertools.product.
! grep -n 'itertools.product' src/gardner/duality.py || exit 1
# Half-open cells exclude a slice of their own vertices, so polytope.py names
# row_vertex( only in its def.
test "$(grep -c 'row_vertex(' src/gardner/polytope.py)" -eq 1
# The rook-placement rule (int images forming a bijection on 1..d) lives in
# matrix._placement, which Permutation reads, so duality.py names no sorted(.
! grep -n 'sorted(' src/gardner/duality.py || exit 1
# An all-int board is its own clear in SquareMatrix._cleared alone, which the d!-sweep reads,
# so matrix.py names `type(x) is int` exactly once.
test "$(grep -c 'type(x) is int' src/gardner/matrix.py)" -eq 1
# The sampler draws against formula (3)'s total and walks the half-open cells in order,
# so matrix.py keeps no cumulative table: it names neither bisect nor accumulate.
! grep -nE 'bisect|accumulate' src/gardner/matrix.py || exit 1
# Every seeded r / m of duality's samplers (gale_pair_check's noise, _sample_nonneg_point,
# compressed_check's jitter) comes from _bounded_ratio, so duality.py names 1000 on one line.
test "$(grep -c '1000' src/gardner/duality.py)" -eq 1
# The float rule lives in linalg (exact and dot) alone, so "is float" may appear only there.
! grep -n --exclude=linalg.py 'is float' src/gardner/*.py || exit 1
# Every duality sampler refuses a negative sample_count rather than reading it as 0, and
# gale_pair_check sweeps up to FACTORIAL_GUARD with no option to move it, so duality.py
# names neither max(sample_count nor guard:.
! grep -nE 'max\(sample_count|guard:' src/gardner/duality.py || exit 1
