import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_COL_LABELS, EXAMPLE_ROW_LABELS, EXAMPLE_ROWS
from gardner.boards import (BoardDocument, BoardParseError,
                            board_json_payload, format_addition_table,
                            format_board_text)
from gardner.matrix import (GMatrix, Labeling, SquareMatrix, compose,
                            decompose_canonical, trick_generate)


def test_parse_plain_text():
    doc = BoardDocument.from_text("1 2\n3 4\n")
    assert doc.d == 2 and doc.entries == ((1, 2), (3, 4))


def test_parse_with_header():
    doc = BoardDocument.from_text("2\n1 2\n3 4\n")
    assert doc.entries == ((1, 2), (3, 4))


def test_parse_one_by_one():
    assert BoardDocument.from_text("7\n").entries == ((7,),)
    assert BoardDocument.from_text("1\n5\n").entries == ((5,),)


def test_parse_ignores_trailer_after_blank_line():
    doc = BoardDocument.from_text("1 2\n3 4\n\n+ | stuff that is not a board\n")
    assert doc.entries == ((1, 2), (3, 4))


def test_parse_leading_blank_lines():
    doc = BoardDocument.from_text("\n\n1 2\n3 4\n")
    assert doc.entries == ((1, 2), (3, 4))


@pytest.mark.parametrize("text", [
    "",
    "1 2\n3\n",
    "2\n1 2\n",
    "a b\nc d\n",
    "1 -2\n3 4\n",
    "2 2\n",
    "1_0 2\n3 4\n",
    "\u0661 2\n3 4\n",
    "+1 2\n3 4\n",
    "1.0 2\n3 4\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(BoardParseError):
        BoardDocument.from_text(text)


def test_parse_json():
    doc = BoardDocument.from_text('{"d": 2, "entries": [[1, 2], [3, 4]]}')
    assert doc.entries == ((1, 2), (3, 4))
    doc = BoardDocument.from_text(
        '{"d": 2, "entries": [["1", "2"], ["3", "4"]], "value": "5"}')
    assert doc.entries == ((1, 2), (3, 4)) and doc.value == 5


@pytest.mark.parametrize("text", [
    "{not json}",
    '{"d": 3, "entries": [[1, 2], [3, 4]]}',
    '{"entries": [[1, 2], [3, -4]]}',
    '{"d": 2}',
    '{"entries": [[1.9, 2], [3, 4.2]]}',
    '{"entries": [[1.0, 2], [3, 4]]}',
    '{"entries": [[true, true], [true, true]]}',
    '{"entries": [["1_0", "2"], ["3", "4"]]}',
    '{"entries": [["\u0661", "2"], ["3", "4"]]}',
    '{"entries": [[" 1", "2"], ["3", "4"]]}',
    '{"d": 2.0, "entries": [[1, 2], [3, 4]]}',
    '{"d": true, "entries": [[1]]}',
])
def test_parse_rejects_malformed_json(text):
    with pytest.raises(BoardParseError):
        BoardDocument.from_text(text)


def test_text_round_trip():
    m = SquareMatrix(EXAMPLE_ROWS)
    for header in (False, True):
        text = format_board_text(m, header=header)
        assert BoardDocument.from_text(text).to_matrix() == m


def test_json_payload_round_trip(example_board):
    lab = decompose_canonical(example_board)
    payload = board_json_payload(example_board, lab)
    assert payload["value"] == "57"
    assert payload["lambda"] == [str(x) for x in EXAMPLE_COL_LABELS]
    assert payload["mu"] == [str(x) for x in EXAMPLE_ROW_LABELS]
    doc = BoardDocument.from_text(json.dumps(payload))
    assert doc.to_matrix() == example_board.matrix
    assert doc.value == 57
    assert doc.col_labels == EXAMPLE_COL_LABELS
    assert doc.row_labels == EXAMPLE_ROW_LABELS


def test_addition_table_contains_all_numbers(example_board):
    lab = decompose_canonical(example_board)
    table = format_addition_table(example_board, lab)
    lines = [line for line in table.splitlines() if "|" in line]
    header = lines[0]
    assert [int(t) for t in header.split("|")[1].split()] == list(EXAMPLE_COL_LABELS)
    for mu, row, line in zip(EXAMPLE_ROW_LABELS, EXAMPLE_ROWS, lines[1:]):
        left, right = line.split("|")
        assert int(left) == mu
        assert [int(t) for t in right.split()] == list(row)


def test_addition_table_exact_layout():
    # Column 1's label is wider than its entries, column 2's entries are wider
    # than its label, and a row label is the widest cell of the table.
    lab = Labeling((Fraction(1, 7), 0, 1), (Fraction(6, 7), Fraction(13, 7), Fraction(104, 7)))
    assert format_addition_table(compose(lab), lab) == (
        "    + | 1/7     0     1\n"
        "------+----------------\n"
        "  6/7 |   1   6/7  13/7\n"
        " 13/7 |   2  13/7  20/7\n"
        "104/7 |  15 104/7 111/7")


def test_load_from_file(tmp_path, example_board):
    path = tmp_path / "board.txt"
    path.write_text(format_board_text(example_board.matrix) + "\n")
    doc = BoardDocument.load(str(path))
    assert GMatrix.from_matrix(doc.to_matrix()).value == 57


# Each row is checked once as a whole; a row that fails falls back to the
# per-token check, which words the error for the first bad token.
@pytest.mark.parametrize("token", ["²", "١", "1_0", "+1", "-1", "x"])
def test_text_error_names_the_first_bad_token(token):
    for text in (f"{token} 2\n3 4\n", f"1 2\n3 {token}\n", f"2\n1 2\n{token} 4\n"):
        with pytest.raises(BoardParseError) as info:
            BoardDocument.from_text(text)
        assert str(info.value) == f"entry {token!r} is not a nonnegative decimal integer"


def test_text_error_in_a_row_keeps_token_order():
    with pytest.raises(BoardParseError) as info:
        BoardDocument.from_text("1 2 3\n4 +5 -6\n7 8 9\n")
    assert str(info.value) == "entry '+5' is not a nonnegative decimal integer"


@pytest.mark.parametrize("token, shown", [
    ("1.5", "1.5"), ("true", "True"), ('""', "''"), ('"\\u00b2"', "'²'"),
    ('"\\u0661"', "'١'"), ('"1_0"', "'1_0'"), ('"+1"', "'+1'"), ('"-1"', "'-1'"),
    ("-1", "-1"), ("null", "None"),
])
def test_json_error_names_the_first_bad_token(token, shown):
    for entries in (f'[[{token}, "2"], ["3", "4"]]', f'[["1", "2"], ["3", {token}]]',
                    f'[[1, 2], [3, {token}]]'):
        with pytest.raises(BoardParseError) as info:
            BoardDocument.from_text(f'{{"d": 2, "entries": {entries}}}')
        assert str(info.value) == f"entry {shown} is not a nonnegative decimal integer"


def test_a_long_bad_token_is_shown_up_to_40_characters():
    for token, shown in (("x" * 38, repr("x" * 38)), ("x" * 39, "'" + "x" * 39 + "...")):
        with pytest.raises(BoardParseError) as info:
            BoardDocument.from_text(f"1 2\n3 {token}\n")
        assert str(info.value) == f"entry {shown} is not a nonnegative decimal integer"


def test_json_rows_of_strings_and_ints_parse_alike():
    want = ((1, 20), (300, 0))
    for entries in ('[["1", "20"], ["300", "0"]]', '[[1, 20], [300, 0]]',
                    '[["1", 20], [300, "0"]]'):
        doc = BoardDocument.from_text(f'{{"d": 2, "entries": {entries}}}')
        assert doc.entries == want and all(type(x) is int for r in doc.entries for x in r)


def test_fraction_board_text_is_unchanged():
    m = SquareMatrix(((Fraction(1, 2), 3), (10, Fraction(-7, 3))))
    assert str(m) == " 1/2    3\n  10 -7/3"
    assert format_board_text(m, header=True) == "2\n 1/2    3\n  10 -7/3"


@pytest.mark.parametrize("text", [
    '{"entries": ["12", "34"]}', '{"entries": {"12": 1, "34": 2}}',
    '{"entries": [[1, 2], "34"]}', '{"d": 2, "entries": [[1, 2], [3, 4]], "lambda": "12"}',
    '{"d": 2, "entries": [[1, 2], [3, 4]], "mu": "02"}',
], ids=["string-rows", "object-rows", "mixed-rows", "string-lambda", "string-mu"])
def test_json_rows_and_labels_must_be_arrays(text):
    # A string row would otherwise be read one digit at a time.
    with pytest.raises(BoardParseError) as info:
        BoardDocument.from_text(text)
    assert str(info.value) == "expected a list of entries, got str"


def test_json_labels_parse_like_rows():
    doc = BoardDocument.from_text('{"d": 2, "entries": [[1, 2], [3, 4]], '
                                  '"lambda": ["1", 2], "mu": [0, "2"]}')
    assert doc.col_labels == (1, 2) and doc.row_labels == (0, 2)


def _rjust_text(m):
    # Reference formatter, one string per cell right-justified to the widest;
    # str() of a board must match it byte for byte.
    cells = [list(map(str, r)) for r in m.rows]
    w = max(max(map(len, r)) for r in cells)
    return "\n".join(" ".join([s.rjust(w) for s in r]) for r in cells)


def test_board_text_matches_rjust_on_generated_boards():
    rng = random.Random(11)
    for d in range(1, 41):
        for value in (0, 1, d, d * d, 10 ** 3, 10 ** 6, rng.randrange(10 ** 12), 10 ** 12):
            m = trick_generate(d, value, mode=rng.choice(["uniform", "quick"]),
                               seed=rng.randrange(2 ** 32)).matrix
            assert str(m) == _rjust_text(m)


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_board_text_matches_rjust_on_int_boards(rows):
    m = SquareMatrix(rows)
    assert str(m) == _rjust_text(m)


@pytest.mark.parametrize("rows", [
    ((Fraction(22, 7), 3), (4, 5)),
    ((2.5, 0), (10, 1.25)),
    ((-1, 0), (7, Fraction(-1, 3))),
    ((0, 0.75), (Fraction(1, 12), 9)),
    ((1, 2, 3), (4, 5.5, 6), (7, 8, Fraction(19, 10))),
    ((-5, 1.0), (Fraction(1, 1000), 3)),
], ids=["fraction", "float", "negative-fraction", "mixed", "mixed-3", "small-fraction"])
def test_board_text_matches_rjust_when_the_widest_entry_is_not_an_extreme(rows):
    m = SquareMatrix(rows)
    w = max(len(str(min(map(min, m.rows)))), len(str(max(map(max, m.rows)))))
    assert max(len(str(x)) for r in m.rows for x in r) > w  # the measured fallback runs
    assert str(m) == _rjust_text(m)


@pytest.mark.parametrize("x", [0, 7, -3, 10 ** 40, Fraction(-22, 7), 0.25])
def test_board_text_of_a_one_by_one_board(x):
    m = SquareMatrix(((x,),))
    assert str(m) == _rjust_text(m) == str(x)
    assert format_board_text(m, header=True) == f"1\n{x}"


@pytest.mark.parametrize("value", [5, 10 ** 6])
def test_board_text_peak_memory_stays_near_the_text(value):
    # Row strings and the joined text, not one string per cell: at d = 1000 a per-cell
    # formatter peaks at 63 MB (N = 5) and 71 MB (N = 10**6) for 2.0 and 5.0 MB of text.
    m = trick_generate(1000, value, seed=1).matrix
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = str(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text) + 2 ** 20


@pytest.mark.parametrize("text", [
    "  \n\t\n \n1 2\n3 4\n", "\r\n \r\n1 2\r\n3 4\r\n", "   1 2\n3 4",
    "2\r\n1 2\r\n3 4\r\n", "\n \n2\n1 2\n3 4\n", "1 2\n3 4\n \t\n  + | 0 1\n0 | 1 2\n",
    "1 2\r\n3 4\r\n\r\n1 2 3\r\n", "2\n1 2\n3 4\n\n2\n9 9\n9 9\n",
], ids=["whitespace-lines", "crlf-blank-lines", "indented", "crlf-header",
        "blank-then-header", "label-table", "crlf-trailer", "second-board"])
def test_text_parse_skips_leading_blank_lines_and_stops_at_the_next(text):
    assert BoardDocument.from_text(text).entries == ((1, 2), (3, 4))


def test_text_parse_ignores_an_appended_addition_table(example_board):
    table = format_addition_table(example_board, decompose_canonical(example_board))
    text = f"{format_board_text(example_board.matrix)}\n\n{table}"
    assert BoardDocument.from_text(text).to_matrix() == example_board.matrix


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n", "\r\n\r\n", " \x0c\x0b  "])
def test_a_whitespace_only_board_is_empty(text):
    with pytest.raises(BoardParseError) as info:
        BoardDocument.from_text(text)
    assert str(info.value) == "empty board"


def _guessed_entries(m):
    # The two entries SquareMatrix.__str__ reads its width off: at column 1's and row 1's
    # argmin, and at their argmax.
    col, top = m.col(1), m.row(1)
    return [m.rows[col.index(f(col))][top.index(f(top))] for f in (min, max)]


def _widest(m):
    return max(len(str(x)) for r in m.rows for x in r)


def test_board_text_guess_is_the_widest_on_generated_boards():
    # The same grid as test_board_text_matches_rjust_on_generated_boards: an int addition
    # table of nonnegative labels never takes the measured fallback.
    rng = random.Random(11)
    for d in range(1, 41):
        for value in (0, 1, d, d * d, 10 ** 3, 10 ** 6, rng.randrange(10 ** 12), 10 ** 12):
            m = trick_generate(d, value, mode=rng.choice(["uniform", "quick"]),
                               seed=rng.randrange(2 ** 32)).matrix
            assert max(len(str(x)) for x in _guessed_entries(m)) == _widest(m)


def _addition_rows(mu, lam):
    return tuple(tuple(m + a for a in lam) for m in mu)


@pytest.mark.parametrize("rows, fallback", [
    (((1, 1000), (3, 4)), True),
    (((5, 0, 7), (1, 2, 3), (4, -60, 8)), True),
    (_addition_rows((-100, 0, 5), (0, 3, -7)), False),
    (_addition_rows((0, Fraction(1, 3)), (Fraction(1, 7), 2)), True),
    (_addition_rows((0.5, 10), (0.25, 1)), True),
    (_addition_rows((0, 0.75), (0, 0.25)), True),
], ids=["int-not-a-table", "int-negative-inside", "int-table-negative-min",
        "fraction-table", "float-table", "float-table-int-min"])
def test_board_text_matches_rjust_when_the_guess_is_too_narrow(rows, fallback):
    m = SquareMatrix(rows)
    assert (max(len(str(x)) for x in _guessed_entries(m)) < _widest(m)) == fallback
    assert str(m) == _rjust_text(m)


def _rjust_table(g, lab):
    # Reference label table, one string per cell right-justified to its column's widest cell.
    cells = [("+", *map(str, lab.col_labels))]
    cells += [(str(mu), *map(str, row)) for mu, row in zip(lab.row_labels, g.matrix.rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = [" ".join([c[0].rjust(widths[0]) + " |", *map(str.rjust, c[1:], widths[1:])])
             for c in cells]
    rule = "-" * widths[0] + "-+-" + "-".join("-" * w for w in widths[1:])
    return "\n".join([lines[0], rule, *lines[1:]]), widths


def _guessed_table_widths(g, lab):
    # The widths format_addition_table tries first: the labels and the row of max mu.
    mu = lab.row_labels
    top = g.matrix.rows[mu.index(max(mu))]
    return [len(str(max(mu))),
            *(max(len(str(a)), len(str(b))) for a, b in zip(lab.col_labels, top))]


def test_addition_table_matches_rjust_on_int_boards():
    rng = random.Random(12)
    for d in range(1, 41):
        for value in (0, 1, d, d * d, 10 ** 3, 10 ** 6, rng.randrange(10 ** 12), 10 ** 12):
            g = trick_generate(d, value, seed=rng.randrange(2 ** 32))
            labels = [rng.randrange(10 ** rng.randrange(1, 8)) for _ in range(2 * d)]
            other = Labeling(labels[:d], labels[d:])
            for g, lab in ((g, decompose_canonical(g)), (compose(other), other)):
                want, widths = _rjust_table(g, lab)
                assert _guessed_table_widths(g, lab) == widths  # no fallback on an int table
                assert format_addition_table(g, lab) == want


@pytest.mark.parametrize("lab, board", [
    (Labeling((0, Fraction(1, 7)), (Fraction(1, 3), 5)), None),
    (Labeling((Fraction(1, 2), 9, Fraction(1, 9)), (Fraction(7, 11), 8, 0)), None),
    (Labeling((0.1, 2), (0.5, 3)), None),
    (Labeling((0, 1), (0, 1)), Labeling((0, 9000), (500, 0))),
], ids=["fraction", "fraction-3", "float-labels", "labels-not-of-the-board"])
def test_addition_table_matches_rjust_when_the_guess_is_too_narrow(lab, board):
    g = compose(board or lab)
    want, widths = _rjust_table(g, lab)
    assert _guessed_table_widths(g, lab) != widths  # the measured fallback runs
    assert format_addition_table(g, lab) == want


@pytest.mark.parametrize("token", ["１", "²", "١"])
def test_a_non_ascii_digit_among_ascii_digits_is_named(token):
    # str.isdigit takes these three; the row's one check must not, in text or JSON.
    for bad in (token, f"2{token}0"):
        message = f"entry {bad!r} is not a nonnegative decimal integer"
        texts = [f"10 {bad}\n3 4\n", f"2\n10 7\n3 {bad}\n"]
        texts += [json.dumps({"d": 2, "entries": e}) for e in (
            [["10", bad], ["3", "4"]], [[10, 7], ["3", bad]], [[bad, "7"], [3, 4]])]
        for text in texts:
            with pytest.raises(BoardParseError) as info:
                BoardDocument.from_text(text)
            assert str(info.value) == message


def test_an_empty_json_string_among_digits_is_named():
    for entries in ([["10", ""], ["3", "4"]], [["", "10"], ["3", "4"]], [[1, 2], ["3", ""]]):
        with pytest.raises(BoardParseError) as info:
            BoardDocument.from_text(json.dumps({"d": 2, "entries": entries}))
        assert str(info.value) == "entry '' is not a nonnegative decimal integer"


class _Counted(int):
    # An int that counts how often it is written out.
    calls = 0

    def __str__(self):
        _Counted.calls += 1
        return int.__str__(self)


@pytest.mark.parametrize("d", [8, 40, 128])
def test_board_and_label_text_write_each_cell_once(d):
    # On an int addition table the O(d) guess is right, so no cell is written a second time:
    # board text writes d*d cells after its 2 guessed ones, and the label table writes its
    # (d+1)^2 - 1 cells after max mu, the d labels and the d cells of the row of max mu.
    g = trick_generate(d, 10 ** 6, seed=d)
    lab = decompose_canonical(g)
    counted = Labeling(list(map(_Counted, lab.col_labels)), list(map(_Counted, lab.row_labels)))
    m = SquareMatrix([[_Counted(x) for x in r] for r in g.matrix.rows])
    board = GMatrix(m, g.value)
    _Counted.calls = 0
    assert str(m) == str(g.matrix) and _Counted.calls == d * d + 2
    _Counted.calls = 0
    assert format_addition_table(board, counted) == format_addition_table(g, lab)
    assert _Counted.calls == (d + 1) ** 2 - 1 + 2 * d + 1
