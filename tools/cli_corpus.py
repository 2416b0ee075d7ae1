"""Run a fixed corpus of `gardner` commands and print what each one did.

Usage: python3 tools/cli_corpus.py [SRC_DIR] > corpus.txt
       python3 tools/cli_corpus.py --check [SRC_DIR]
       python3 tools/cli_corpus.py --write [SRC_DIR]

SRC_DIR is the directory that holds the `gardner` package (a checkout's
`src`; by default the one next to this file). Each command runs as a fresh
`python -m gardner.cli` process in one temporary directory that holds the
board files below, so two checkouts can be compared with `diff` on their
outputs: the record of each command is its arguments, its exit code, its
stdout and its stderr.

`--check` compares each record with its digest in `cli_corpus.sha256` and
names every command whose record differs, with its first differing line; it
exits 1 if any does. `--write` rewrites that file from SRC_DIR, for an output
changed on purpose. Each line of the file is one command, in corpus order:
the sha256 of its record, the first 8 hex digits of the sha256 of each line
of the record (joined by "."), then the command.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

BOARDS = {
    "example.txt": "19 8 11 25 7\n12 1 4 18 0\n16 5 8 22 4\n"
                   "21 10 13 27 9\n14 3 6 20 2\n",
    "header.txt": "2\n1 2\n3 4\n",
    "labelled.txt": "1 2\n3 4\n\n  + | 0 1\n",
    "identity.txt": "1 0\n0 1\n",
    "negative.txt": "1 -1\n0 -2\n",
    "junk.txt": "x y\n",
    "empty.txt": "",
    "ragged.txt": "1 2\n3\n",
    "good.json": '{"d": 2, "entries": [["1", "2"], [3, 4]], "value": "5"}',
    "bad.json": '{"d": 2, "entries": [[1, 0], [0, 1]]}',
    "float.json": '{"d": 2, "entries": [[1.9, 2], [3, 4.2]]}',
    "bool.json": '{"d": 2, "entries": [[true, true], [true, true]]}',
    "broken.json": '{"d": 2, "entries": [[1, 2], [3, 4]',
    "zero-d.json": '{"d": 0, "entries": []}',
    "nested.json": '{"entries": ' + "[" * 200_000 + "]" * 200_000 + "}",
    "big-token.txt": "9" * 5000 + "\n",
    "wide.txt": "100 1\n100 1\n",
    "big-value.txt": ("9" * 4300 + " " + "9" * 4300 + "\n") * 2,
    "long-junk.txt": "x" * 100_000 + "\n",
    "big-literal.json": '{"d": 2, "entries": [[' + "7" * 5000 + ', 1], [2, 3]]}',
    "string-rows.json": '{"entries": ["12", "34"]}',
    "object-rows.json": '{"entries": {"12": 1, "34": 2}}',
    "mixed-rows.json": '{"entries": [[1, 2], "34"]}',
    "string-lambda.json": '{"d": 2, "entries": [[1, 2], [3, 4]], "lambda": "12"}',
    "padded.txt": "\n   \n\t\n 1 2\n3 4\n \n    + | 1 2\n------+----\n    0 | 1 2\n    2 | 3 4\n",
    "crlf.txt": "2\r\n1 2\r\n3 4\r\n\r\n",
}

COMMANDS: list[tuple[dict, list[str]]] = [({}, []), ({}, ["--help"]), ({}, ["frobnicate"])]
for name in ("trick", "verify", "count", "poly", "roots", "decompose", "locate", "duality"):
    COMMANDS += [({}, [name, "--help"]), ({}, [name])]
for extra in ([], ["--labels"], ["--json"], ["--labels", "--json"]):
    for mode in ("uniform", "quick"):
        COMMANDS.append(({}, ["trick", "4", "20", "--seed", "5", "--mode", mode, *extra]))
COMMANDS += [({}, args) for args in (
    ["trick", "1", "7", "--seed", "0"], ["trick", "2", "0", "--seed", "3", "--labels"],
    ["trick", "2", str(10 ** 12), "--seed", "9"],
    ["trick", "2", str(10 ** 20), "--mode", "quick", "--seed", "9", "--labels"],
    ["trick", "0", "3", "--seed", "1"], ["trick", "3", "-1", "--seed", "1"], ["trick", "3", "x"],
    ["trick", "3", "4", "--mode", "slow"], ["trick", "30", "1000", "--seed", "1", "--json"],
    ["trick", "200", str(10 ** 6), "--seed", "1"])]
for cmd in ("verify", "decompose", "locate"):
    for board in list(BOARDS) + ["missing.txt", "."]:
        COMMANDS.append(({}, [cmd, board]))
    for board in ("example.txt", "identity.txt", "negative.txt", "good.json", "missing.txt"):
        COMMANDS.append(({}, [cmd, board, "--json"]))
COMMANDS += [({}, args) for args in (
    ["count", "3", "5"], ["count", "3", "5", "--json"], ["count", "1", "0"],
    ["count", "4", "0", "--formula", "2"], ["count", "2", "4", "--formula", "3", "--oracle"],
    ["count", "3", "2", "--oracle", "--json"], ["count", "2", "9", "--formula", "1"],
    ["count", "0", "5"], ["count", "3", "-1"], ["count", "3", "5", "--formula", "4"],
    ["count", "3000", "10"], ["count", "3", str(10 ** 1100)], ["count", "100000", "5"])]
COMMANDS += [(env, ["count", "3", "3", "--oracle"]) for env in (
    {"GARDNER_BUDGET": "10"}, {"GARDNER_BUDGET": "1000000"}, {"GARDNER_BUDGET": "abc"},
    {"GARDNER_BUDGET": "-1"}, {"GARDNER_BUDGET": ""})]
COMMANDS += [({}, args) for args in (
    ["poly", "1"], ["poly", "2"], ["poly", "4"], ["poly", "5", "--json"], ["poly", "0"],
    ["poly", "800"], ["roots", "1"], ["roots", "2"], ["roots", "5"], ["roots", "9", "--json"],
    ["roots", "12", "--tol", "1e-3"], ["roots", "5", "--tol", "0"],
    ["roots", "5", "--tol", "nan"], ["roots", "5", "--tol", "-1"], ["roots", "5", "--tol", "x"],
    ["duality", "2"], ["duality", "3", "--samples", "5", "--seed", "1"],
    ["duality", "2", "--samples", "4", "--json"], ["duality", "0"],
    ["duality", "--samples", "0", "--", "-1"], ["duality", "100000"],
    ["duality", "10", "--json"], ["duality", "3", "--samples", "-1"], ["duality", "9"],
    ["duality", "5", "--samples", "200", "--seed", "3"])]


DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_corpus.sha256")


def records(src: str):
    """(command, record) for each command, run against the package in src."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in BOARDS.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for env, args in COMMANDS:
            try:
                result = subprocess.run(
                    [sys.executable, "-m", "gardner.cli", *args], capture_output=True,
                    text=True, cwd=work, timeout=30,
                    env={**os.environ, "PYTHONPATH": src, **env})
                code, out, err = result.returncode, result.stdout, result.stderr
            except subprocess.TimeoutExpired:
                code, out, err = "timeout", "", ""
            command = f"{env} {args}"
            yield command, f"=== {command}\n--- exit {code}\n--- stdout\n{out}--- stderr\n{err}\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def line_digests(record: str) -> list[str]:
    return [sha256(line)[:8] for line in record.split("\n")]


def check(src: str) -> int:
    """Print each command whose record differs from its digest; 1 if any does."""
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = {command: (full, lines.split("."))
                    for full, lines, command in (row.rstrip("\n").split(" ", 2) for row in fh)}
    failures = 0
    for command, record in records(src):
        full, lines = expected.pop(command, (None, []))
        if full == sha256(record):
            continue
        failures += 1
        got = record.split("\n")
        k = next((k for k, (a, b) in enumerate(zip(line_digests(record), lines)) if a != b),
                 min(len(got), len(lines)))
        if full is None:
            where = "no digest"
        elif k < len(got):
            where = f"line {k + 1}: {got[k][:200]!r}"
        else:
            where = f"ends after line {k}"
        print(f"DIFFERS {command}: {where}")
    for command in expected:
        failures += 1
        print(f"MISSING {command}: has a digest but is not in the corpus")
    print(f"{failures} command records differ from their digests" if failures else
          f"all {len(COMMANDS)} command records match their digests")
    return 1 if failures else 0


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 and sys.argv[1] in ("--check", "--write") else None
    paths = sys.argv[2:] if mode else sys.argv[1:]
    default = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if len(paths) > 1:
        sys.exit(__doc__)
    src = os.path.abspath(paths[0] if paths else default)
    if mode == "--check":
        return check(src)
    if mode == "--write":
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            for command, record in records(src):
                fh.write(f"{sha256(record)} {'.'.join(line_digests(record))} {command}\n")
        return 0
    for _, record in records(src):
        sys.stdout.write(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
