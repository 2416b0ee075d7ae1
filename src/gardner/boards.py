"""Reading and writing boards.

Text format: an optional header line holding the single integer d, then d lines of d
whitespace-separated nonnegative decimal integers, each right-aligned to the widest on output.
Leading blank lines are skipped; the next blank line ends the board, and what follows is ignored.

JSON format: an object {"d": int, "entries": [[int, ...], ...]}, each row an
array; entries may also be strings of ASCII decimal digits, and the metadata
keys "value", "lambda" and "mu" (arrays) are accepted. Floats, booleans, signs
and underscores are rejected. On output, integers are always decimal strings.
"""
from __future__ import annotations

import itertools
import json
import os
import stat
import sys
from dataclasses import dataclass

from .matrix import GMatrix, Labeling, SquareMatrix


class BoardParseError(ValueError):
    """Raised for malformed board input."""


@dataclass(frozen=True)
class BoardDocument:
    """A parsed board: d*d nonnegative integers plus optional metadata."""

    entries: tuple[tuple[int, ...], ...]
    value: int | None = None
    col_labels: tuple[int, ...] | None = None
    row_labels: tuple[int, ...] | None = None

    @property
    def d(self) -> int:
        return len(self.entries)

    def to_matrix(self) -> SquareMatrix:
        return SquareMatrix(self.entries)

    @classmethod
    def from_text(cls, text: str) -> "BoardDocument":
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json(text)
        lines = list(itertools.takewhile(bool, map(str.split, stripped.splitlines())))
        if not lines:
            raise BoardParseError("empty board")
        try:
            rows = [_parse_row(line) for line in lines]
        except ValueError as exc:
            raise BoardParseError(str(exc)) from None
        if all(len(r) == len(rows) for r in rows):
            return cls(tuple(rows))
        body = rows[1:]  # under a header line that holds d, the number of body rows
        if rows[0] == (len(body),) and all(len(r) == len(body) for r in body):
            return cls(tuple(body))
        raise BoardParseError("board is not square (and no valid header found)")

    @classmethod
    def from_json(cls, text: str) -> "BoardDocument":
        try:
            data = json.loads(text, parse_int=_parse_int)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise BoardParseError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict) or "entries" not in data:
            raise BoardParseError("JSON board needs an 'entries' key")
        try:
            rows = [_parse_row(row) for row in data["entries"]]
            d = _parse_entry(data["d"]) if "d" in data else len(rows)
            value = _parse_entry(data["value"]) if "value" in data else None
            lam = _parse_row(data["lambda"]) if "lambda" in data else None
            mu = _parse_row(data["mu"]) if "mu" in data else None
        except (TypeError, ValueError) as exc:
            raise BoardParseError(str(exc)) from None
        if len(rows) != d or any(len(r) != d for r in rows):
            raise BoardParseError(f"expected {d}x{d} entries")
        if d < 1:
            raise BoardParseError("d must be >= 1")
        return cls(tuple(rows), value=value, col_labels=lam, row_labels=mu)

    @classmethod
    def load(cls, path: str) -> "BoardDocument":
        # A named pipe or a device could block or never end: read regular files only.
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise BoardParseError(f"not a regular file: {path!r}")
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def _parse_row(tokens) -> tuple[int, ...]:
    # Lists only, else "12" reads as (1, 2). One ASCII-digit check and one map(int) per
    # row of nonempty strings; failing that, _parse_entry per token words the error.
    if not isinstance(tokens, list):
        raise ValueError(f"expected a list of entries, got {type(tokens).__name__}")
    try:
        digits = "".join(tokens)
        if digits.isascii() and digits.isdigit() and all(tokens):
            return tuple(map(int, tokens))
    except (TypeError, ValueError):
        pass
    return tuple(_parse_entry(tok) for tok in tokens)


def _parse_entry(token) -> int:
    # A JSON int (not a bool) or ASCII digits only; int() alone takes 1.9 and "1_0".
    if isinstance(token, str) and token.isascii() and token.isdigit():
        return _parse_int(token)
    if type(token) is int and token >= 0:
        return token
    shown = repr(token)  # one token can be megabytes long: show at most 40 characters
    shown = shown if len(shown) <= 40 else shown[:40] + "..."
    raise ValueError(f"entry {shown} is not a nonnegative decimal integer")


def _parse_int(literal: str) -> int:
    # int() under the digit limit, worded by the entry's digit count; also the
    # parse_int of json.loads, so that number literals get the same message.
    try:
        return int(literal)
    except ValueError:
        raise BoardParseError(f"entry has {len(literal.lstrip('-'))} digits, over the "
                              f"limit of {sys.get_int_max_str_digits()} digits") from None


def format_board_text(m: SquareMatrix, header: bool = False) -> str:
    return f"{m.d}\n{m}" if header else str(m)


def board_json_payload(g: GMatrix, lab: Labeling) -> dict:
    """The board JSON schema: d, value, entries, lambda, mu (decimal strings)."""
    return {
        "d": g.d,
        "value": str(g.value),
        "entries": [[str(x) for x in row] for row in g.matrix.rows],
        "lambda": [str(x) for x in lab.col_labels],
        "mu": [str(x) for x in lab.row_labels],
    }


def format_addition_table(g: GMatrix, lab: Labeling) -> str:
    """Label table: column labels across the top, row labels down the side,
    the board as the body of the table."""
    table = [("+", *map(str, lab.col_labels))]
    table += [(str(mu), *map(str, row)) for mu, row in zip(lab.row_labels, g.matrix.rows)]
    left_w, *col_w = (max(map(len, column)) for column in zip(*table))
    fmt = f"%{left_w}s | " + " ".join([f"%{w}s" for w in col_w])  # %ws right-aligns to w
    rule = "-" * left_w + "-+-" + "-".join("-" * w for w in col_w)
    return "\n".join([fmt % table[0], rule, *[fmt % row for row in table[1:]]])
