import contextlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import EXAMPLE_ROWS
import gardner
from gardner.boards import format_addition_table, format_board_text
from gardner.cli import _print_board, main
from gardner.counting import g_formula_3
from gardner.matrix import SquareMatrix, decompose_canonical, trick_generate


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "board.txt"
    path.write_text(format_board_text(SquareMatrix(EXAMPLE_ROWS)) + "\n")
    return str(path)


def test_verify_example(capsys, example_file):
    code, out, _ = run(capsys, "verify", example_file)
    assert code == 0 and out.strip() == "value 57"


def test_verify_failure_shows_witness(capsys, tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text("1 0\n0 1\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "(1, 2)" in out and "(2, 1)" in out


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("x y\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("text", [
    '{"d": 2, "entries": [[1.9, 2], [3, 4.2]]}',
    '{"d": 2, "entries": [[true, true], [true, true]]}',
    '{"d": 2, "entries": [["1_0", "2"], ["3", "4"]]}',
    '{"d": 2, "entries": [["\u0661", "2"], ["3", "4"]]}',
    '{"d": 2.0, "entries": [[1, 2], [3, 4]]}',
    "1_0 2\n3 4\n",
    "\u0661 2\n3 4\n",
])
def test_verify_rejects_non_integer_entries(capsys, tmp_path, text):
    path = tmp_path / "board.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and "error" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/board.txt")
    assert code == 2


# A PermissionError takes the same OSError path; it is not tested here
# because a process running as root may read any file.
@pytest.mark.parametrize("command", ["verify", "decompose", "locate"])
@pytest.mark.parametrize("case", ["symlink-loop", "name-too-long"])
def test_unreadable_board_file_exits_2(capsys, tmp_path, command, case):
    if case == "symlink-loop":
        path = tmp_path / "loop"
        path.symlink_to(path)
    else:
        path = tmp_path / ("b" * 5000)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == "" and err.startswith("error: ")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def _verify_process(path):
    # A board file that blocks or never ends must fail fast, not hang the
    # suite or read /dev/zero into all of memory.
    src = Path(gardner.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "gardner.cli", "verify", str(path)],
                          capture_output=True, text=True, cwd=src, timeout=10,
                          preexec_fn=_cap_memory)


def test_verify_named_pipe_exits_2(tmp_path):
    fifo = tmp_path / "board.fifo"
    os.mkfifo(fifo)
    result = _verify_process(fifo)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: not a regular file: {str(fifo)!r}\n"


def test_verify_device_exits_2():
    result = _verify_process("/dev/zero")
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: not a regular file: '/dev/zero'\n"


def test_verify_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"entries": ' + "[" * 200_000 + "]" * 200_000 + "}")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and err.startswith("error: invalid JSON: ")


def test_board_token_over_the_digit_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("9" * 5000 + "\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and "digits" in err
    assert sys.get_int_max_str_digits() == limit


def test_verify_prints_a_value_over_the_digit_limit(capsys, tmp_path):
    # Entries of 4,300 digits are read under the limit; their 4,301-digit sum prints.
    nines = "9" * 4300
    path = tmp_path / "big-value.txt"
    path.write_text(f"{nines} {nines}\n{nines} {nines}\n")
    value = "1" + "9" * 4299 + "8"
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (0, f"value {value}\n", "")
    code, out, err = run(capsys, "verify", str(path), "--json")
    assert code == 0 and err == "" and json.loads(out) == {"value": value}
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("name, text", [
    ("digits.txt", "9" * 5000 + "\n"),
    ("string.json", '{"entries": [["' + "9" * 5000 + '", "1"], ["2", "3"]]}'),
    ("literal.json", '{"entries": [[' + "9" * 5000 + ', 1], [2, 3]]}'),
    ("negative.json", '{"entries": [[-' + "9" * 5000 + ', 1], [2, 3]]}'),
], ids=["text", "json-string", "json-literal", "json-negative-literal"])
def test_entry_over_the_digit_limit_names_its_length(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == f"error: entry has 5000 digits, over the limit of {limit} digits\n"


@pytest.mark.parametrize("text", [
    "x" * 1_000_000 + "\n",
    '{"entries": ' + "[" * 500 + "]" * 500 + "}",
], ids=["long-token", "deep-json"])
def test_a_huge_bad_token_gives_a_short_message(capsys, tmp_path, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and len(err.encode()) < 200
    assert "... is not a nonnegative decimal integer" in err


def test_trick_one_by_one(capsys):
    code, out, _ = run(capsys, "trick", "1", "7")
    assert code == 0 and out.strip() == "7"


def test_trick_zero_board(capsys):
    code, out, _ = run(capsys, "trick", "2", "0", "--seed", "3")
    assert code == 0 and out.split() == ["0", "0", "0", "0"]


def test_trick_prints_seed(capsys):
    _, _, err = run(capsys, "trick", "3", "10", "--seed", "42")
    assert "seed: 42" in err
    _, _, err = run(capsys, "trick", "3", "10")
    assert "seed:" in err  # a fresh seed is always reported


def test_trick_verify_round_trip(capsys, tmp_path):
    for seed in range(20):
        code, out, _ = run(capsys, "trick", "4", "33", "--seed", str(seed))
        assert code == 0
        path = tmp_path / f"b{seed}.txt"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and out.strip() == "value 33"


def test_trick_labels_output_still_verifies(capsys, tmp_path):
    code, out, _ = run(capsys, "trick", "3", "12", "--seed", "7", "--labels")
    assert code == 0 and "|" in out
    path = tmp_path / "labeled.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.strip() == "value 12"


def test_board_and_label_table_are_printed_unjoined():
    # print(*parts, sep=...) writes each part as it is: no joined copy of both parts.
    g = trick_generate(1000, 5, seed=1)
    size = len(format_board_text(g.matrix)) + len(format_addition_table(g, decompose_canonical(g)))
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            _print_board(g, False, board=True, table=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * size


def test_trick_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "trick", "4", "20", "--seed", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"d", "value", "entries", "lambda", "mu"}
    assert payload["value"] == "20"
    path = tmp_path / "board.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.strip() == "value 20"


def test_trick_json_and_text_agree(capsys):
    code, text_out, _ = run(capsys, "trick", "3", "9", "--seed", "2")
    code, json_out, _ = run(capsys, "trick", "3", "9", "--seed", "2", "--json")
    text_numbers = [int(t) for t in text_out.split()]
    payload = json.loads(json_out)
    json_numbers = [int(x) for row in payload["entries"] for x in row]
    assert text_numbers == json_numbers


@pytest.mark.parametrize("args", [("2", str(10 ** 12)),
                                  ("2", str(10 ** 20), "--mode", "quick")])
def test_trick_big_values(capsys, tmp_path, args):
    code, out, err = run(capsys, "trick", *args, "--seed", "9")
    assert code == 0 and "Traceback" not in err
    path = tmp_path / "board.txt"
    path.write_text(out)
    assert run(capsys, "verify", str(path))[:2] == (0, f"value {args[1]}\n")


def test_trick_usage_error(capsys):
    assert run(capsys, "trick", "3")[0] == 2
    assert run(capsys, "trick")[0] == 2


def test_count_all_formulas(capsys):
    code, out, _ = run(capsys, "count", "2", "2")
    assert code == 0 and out.strip() == "9, 9, 9"


def test_count_single_formula_with_oracle(capsys):
    code, out, _ = run(capsys, "count", "2", "4", "--formula", "3", "--oracle")
    assert code == 0
    assert out.splitlines() == ["25", "oracle: 25"]


def test_count_json_matches_text(capsys):
    _, text_out, _ = run(capsys, "count", "3", "2", "--oracle")
    code, json_out, _ = run(capsys, "count", "3", "2", "--oracle", "--json")
    assert code == 0
    payload = json.loads(json_out)
    text_numbers = [t.strip() for t in text_out.splitlines()[0].split(",")]
    assert list(payload["formulas"].values()) == text_numbers
    assert payload["oracle"] == text_numbers[0]


def test_count_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("GARDNER_BUDGET", "10")
    code, _, err = run(capsys, "count", "3", "3", "--oracle")
    assert code == 3 and "budget" in err.lower()
    monkeypatch.setenv("GARDNER_BUDGET", "1000000")
    code, out, _ = run(capsys, "count", "3", "3", "--oracle")
    assert code == 0 and out.splitlines()[1] == "oracle: 55"


@pytest.mark.parametrize("raw", ["-1", "1e6", "abc", "10.5"])
def test_count_bad_budget_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("GARDNER_BUDGET", raw)
    code, out, err = run(capsys, "count", "2", "3", "--oracle")
    assert code == 2 and out == "" and "budget" in err.lower()
    if raw != "-1":
        assert "GARDNER_BUDGET" in err


def test_count_prints_exact_values_of_any_size(capsys):
    value = 10 ** 1100
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "3", str(value))
    assert sys.get_int_max_str_digits() == limit  # main restores the limit
    sys.set_int_max_str_digits(0)
    try:
        text = str(g_formula_3(3, value))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(text) > limit
    assert code == 0 and err == "" and out == f"{text}, {text}, {text}\n"


def test_main_restores_the_digit_limit_after_an_error(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "count", "0", "5")[0] == 2
    assert sys.get_int_max_str_digits() == limit


def test_poly_text_and_json(capsys):
    code, out, _ = run(capsys, "poly", "2")
    assert code == 0 and out.strip() == "1 + 2N + N^2"
    code, out, _ = run(capsys, "poly", "2", "--json")
    assert json.loads(out) == {"d": 2, "coeffs": ["1", "2", "1"]}


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "2")
    assert code == 0 and "negative-integer" in out
    code, out, _ = run(capsys, "roots", "5", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] and len(payload["roots"]) == 8


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_roots_bad_tolerance_is_usage_error(capsys, tol):
    code, out, err = run(capsys, "roots", "5", "--tol", tol)
    assert code == 2 and out == "" and "tol" in err


def test_roots_large_d(capsys):
    code, out, err = run(capsys, "roots", "90")
    assert code == 0 and "Traceback" not in err
    assert out.splitlines()[-1] == "all roots classified"
    assert len(out.splitlines()) == 2 * 90 - 2 + 1


def test_decompose_command(capsys, example_file):
    code, out, _ = run(capsys, "decompose", example_file)
    assert code == 0
    header = out.splitlines()[0]
    assert [int(t) for t in header.split("|")[1].split()] == [12, 1, 4, 18, 0]
    code, json_out, _ = run(capsys, "decompose", example_file, "--json")
    payload = json.loads(json_out)
    assert payload["lambda"] == ["12", "1", "4", "18", "0"]
    assert payload["mu"] == ["7", "0", "4", "9", "2"]


def test_decompose_rejects_non_board(capsys, tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text("1 0\n0 1\n")
    assert run(capsys, "decompose", str(path))[0] == 1


def test_locate_command(capsys, example_file):
    code, out, _ = run(capsys, "locate", example_file)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "locate", example_file, "--json")
    assert json.loads(out) == {"cell": 2}


@pytest.mark.parametrize("command", ["decompose", "locate"])
def test_board_commands_reject_bad_files(capsys, tmp_path, command):
    path = tmp_path / "junk.txt"
    path.write_text("x y\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == "" and "error" in err
    code, out, err = run(capsys, command, str(tmp_path / "missing.txt"))
    assert code == 2 and out == "" and "error" in err


def test_locate_rejects_non_board(capsys, tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text("1 0\n0 1\n")
    code, out, err = run(capsys, "locate", str(path))
    assert code == 1 and out == "" and "not a constant-rook-sum board" in err


def test_decompose_certifies_the_board_once(capsys, monkeypatch, example_file):
    import gardner.matrix
    calls = []
    check = gardner.matrix.is_g_matrix_fast

    def counted(a):
        calls.append(a)
        return check(a)

    monkeypatch.setattr(gardner.matrix, "is_g_matrix_fast", counted)
    assert run(capsys, "decompose", example_file)[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["verify", "decompose", "locate"])
def test_board_file_commands_scan_the_board_once(capsys, monkeypatch, tmp_path, example_file,
                                                 command):
    import gardner.matrix
    scans = []
    scan = gardner.matrix._exchange_violations

    def counted(a, lam, mu):
        scans.append(a)
        return scan(a, lam, mu)

    monkeypatch.setattr(gardner.matrix, "_exchange_violations", counted)
    identity = tmp_path / "identity.txt"
    identity.write_text("1 0\n0 1\n")
    for path, code in [(example_file, 0), (str(identity), 1)]:
        scans.clear()
        assert run(capsys, command, path)[0] == code
        assert len(scans) == 1


def test_duality_command(capsys):
    code, out, _ = run(capsys, "duality", "3", "--samples", "5")
    assert code == 0 and "passed" in out
    code, out, _ = run(capsys, "duality", "2", "--samples", "4", "--json")
    assert code == 0 and json.loads(out)["passed"]


def test_duality_negative_samples_is_usage_error(capsys):
    code, _, err = run(capsys, "duality", "3", "--samples", "-1")
    assert code == 2 and "sample" in err


def test_duality_beyond_the_guard_exits_3(capsys, monkeypatch):
    import gardner.duality

    def refuse(d):
        raise AssertionError(f"all_vertices({d}) built before the guard")

    monkeypatch.setattr(gardner.duality, "all_vertices", refuse)
    code, out, err = run(capsys, "duality", "100000")
    assert code == 3 and "passed" not in out and "guard" in err


@pytest.mark.parametrize("args", [("0", "--samples", "0"), ("--samples", "0", "--", "-1")])
def test_duality_d_below_one_is_usage_error(capsys, args):
    code, out, err = run(capsys, "duality", *args)
    assert code == 2 and "passed" not in out and "d must be >= 1" in err


STARTUP = {"gardner", "gardner.boards", "gardner.cli", "gardner.linalg", "gardner.matrix"}


@pytest.mark.parametrize("argv, loaded", [
    (["trick", "3", "10", "--seed", "1"], STARTUP),
    (["verify", "{board}"], STARTUP),
    (["locate", "{board}"], STARTUP | {"gardner.polytope"}),
    (["count", "2", "3"], STARTUP | {"gardner.counting"}),
    (["duality", "2", "--samples", "2"],
     STARTUP | {"gardner.counting", "gardner.duality", "gardner.polytope"}),
    (["poly", "3"], STARTUP | {"gardner.counting"}),
    (["roots", "4"], STARTUP | {"gardner.counting"}),
    (["count", "2", "3", "--oracle"], STARTUP | {"gardner.counting"}),
    (["decompose", "{board}"], STARTUP),
], ids=["trick", "verify", "locate", "count", "duality", "poly", "roots", "count-oracle",
        "decompose"])
def test_subcommand_loads_only_the_modules_it_runs(example_file, argv, loaded):
    # A fresh process: sys.modules then holds what this one subcommand imported.
    src = Path(gardner.__file__).resolve().parents[1]
    probe = ("import sys; from gardner.cli import main; main(sys.argv[1:]); print(sorted("
             "m for m in sys.modules if m.partition('.')[0] in ('gardner', 'numpy')))")
    argv = [arg.format(board=example_file) for arg in argv]
    result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                            text=True, cwd=src, timeout=60, check=True)
    assert result.stdout.splitlines()[-1] == str(sorted(loaded))


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("text", [
    '{"entries": ["12", "34"]}', '{"entries": {"12": 1, "34": 2}}',
    '{"entries": [[1, 2], "34"]}',
], ids=["string-rows", "object-rows", "mixed-rows"])
def test_verify_json_rows_that_are_not_arrays_exit_2(capsys, tmp_path, text):
    path = tmp_path / "rows.json"
    path.write_text(text)
    for cmd in ("verify", "decompose", "locate"):
        code, out, err = run(capsys, cmd, str(path))
        assert (code, out, err) == (2, "", "error: expected a list of entries, got str\n")
