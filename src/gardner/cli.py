"""Command-line front end: subcommand x is handled by cmd_x, found by name.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage or parse error, 3 an enumeration
budget exceeded or a d over the d!-sweep guard (duality 10). The GARDNER_BUDGET variable
overrides the default ceiling on the grid of (N+1)^(2d-1) first rows and columns,
which bounds the brute-force sweep's work: it walks only the first columns of trace N.
A budget that is not a nonnegative integer exits 2. main reads and certifies a board file
once, under the int digit limit, then lifts the limit, so values of any size print exactly.
boards, matrix and linalg load at import; the rest by gardner's lazy names.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys

import gardner
from .boards import (BoardDocument, board_json_payload, format_addition_table,
                     format_board_text)
from .matrix import (BudgetExceededError, FactorialGuardError, GMatrix, decompose_canonical,
                     is_g_matrix_fast, trick_generate)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    # Joins a bad choice's choices by repr on every CPython (3.13.x uses str); private argparse API
    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            args = value, ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, "invalid choice: %r (choose from %s)" % args)


def _budget_from_env() -> int | None:
    raw = os.environ.get("GARDNER_BUDGET")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise ValueError(f"GARDNER_BUDGET must be an integer, got {raw!r}") from None


def _emit(data: dict, as_json: bool, text: str) -> None:
    print(json.dumps(data) if as_json else text)


def _print_board(g: GMatrix, as_json: bool, board: bool, table: bool) -> None:
    # Board text has d^2 entries, so only the requested format is built.
    if as_json:
        print(json.dumps(board_json_payload(g, decompose_canonical(g))))
    else:
        parts = [format_board_text(g.matrix)] if board else []
        parts += [format_addition_table(g, decompose_canonical(g))] if table else []
        print(*parts, sep="\n\n")


def cmd_trick(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2 ** 63)
    print(f"seed: {seed}", file=sys.stderr)
    _print_board(trick_generate(args.d, args.value, args.mode, seed), args.json,
                 board=True, table=args.labels)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.check:
        _emit({"value": str(args.check.value)}, args.json, f"value {args.check.value}")
        return EXIT_OK
    w = args.check.witness
    _emit({"witness": {"quadruple": list(w.quadruple),
                       "sigma": list(w.sigma), "sigma_prime": list(w.sigma_prime),
                       "sums": [str(s) for s in w.sums]}}, args.json,
          f"not a constant-rook-sum board:\n  placement {w.sigma} covers {w.sums[0]}\n"
          f"  placement {w.sigma_prime} covers {w.sums[1]}")
    return EXIT_CHECK_FAILED


def cmd_count(args: argparse.Namespace) -> int:
    which = ["1", "2", "3"] if args.formula == "all" else [args.formula]
    values = {k: getattr(gardner, f"g_formula_{k}")(args.d, args.value) for k in which}
    text = ", ".join(str(values[k]) for k in which)
    payload = {"d": args.d, "N": args.value,
               "formulas": {k: str(values[k]) for k in which}}
    if args.oracle:
        values["oracle"] = gardner.g_bruteforce(args.d, args.value, _budget_from_env())
        text += f"\noracle: {values['oracle']}"
        payload["oracle"] = str(values["oracle"])
    _emit(payload, args.json, text)
    return EXIT_OK if len(set(values.values())) == 1 else EXIT_CHECK_FAILED


def cmd_poly(args: argparse.Namespace) -> int:
    poly = gardner.interpolate(args.d)
    _emit(poly.to_json_dict(), args.json, poly.pretty())
    return EXIT_OK


def cmd_roots(args: argparse.Namespace) -> int:
    report = gardner.roots_check(args.d, args.tol)
    lines = [f"{r.real:+.9f} {r.imag:+.9f}i  {label}"
             for r, label in zip(report.roots, report.labels)]
    lines.append("all roots classified" if report.passed else "UNCLASSIFIED ROOTS")
    _emit({"d": report.d, "tolerance": report.tolerance,
           "roots": [[r.real, r.imag] for r in report.roots],
           "labels": list(report.labels), "passed": report.passed},
          args.json, "\n".join(lines))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_decompose(args: argparse.Namespace) -> int:
    _print_board(args.board, args.json, board=False, table=True)
    return EXIT_OK


def cmd_locate(args: argparse.Namespace) -> int:
    k = gardner.locate(args.board)
    _emit({"cell": k}, args.json, str(k))
    return EXIT_OK


def cmd_duality(args: argparse.Namespace) -> int:
    print(f"seed: {args.seed}", file=sys.stderr)
    report = gardner.gale_pair_check(args.d, args.samples, args.seed)
    _emit({"d": report.d,
           "vertex_pairings": report.vertex_pairings_checked,
           "samples": report.samples_checked,
           "passed": report.passed,
           "counterexample": report.counterexample}, args.json,
          f"vertex pairings checked: {report.vertex_pairings_checked}\n"
          f"sample equivalences checked: {report.samples_checked}\n"
          + ("passed" if report.passed else f"FAILED: {report.counterexample}"))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gardner",
        description="Constant-rook-sum boards: generate, verify, count, and "
                    "inspect their polytope structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trick", help="generate a board with a given rook sum")
    p.add_argument("d", type=int)
    p.add_argument("value", type=int, metavar="N")
    p.add_argument("--mode", choices=["uniform", "quick"], default="uniform")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--labels", action="store_true",
                   help="also print the label table")

    p = sub.add_parser("verify", help="check a board file")
    p.add_argument("file")

    p = sub.add_parser("count", help="count boards of side d and value N")
    p.add_argument("d", type=int)
    p.add_argument("value", type=int, metavar="N")
    p.add_argument("--formula", choices=["1", "2", "3", "all"], default="all")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force sweep")

    p = sub.add_parser("poly", help="exact counting polynomial for side d")
    p.add_argument("d", type=int)

    p = sub.add_parser("roots", help="locate and classify the polynomial roots")
    p.add_argument("d", type=int)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("decompose", help="print a board's label table")
    p.add_argument("file")

    p = sub.add_parser("locate", help="half-open triangulation cell of a board")
    p.add_argument("file")

    p = sub.add_parser("duality", help="run the Gale-duality checks")
    p.add_argument("d", type=int)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)

    for name, p in sub.choices.items():  # last, so every usage line ends in [--json]
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Board files are read under the digit limit; then exact results of any size print.
    limit = sys.get_int_max_str_digits()
    try:
        if getattr(args, "file", None) is not None:
            args.check = is_g_matrix_fast(board := BoardDocument.load(args.file).to_matrix())
            if args.check:  # a failed board reaches verify alone, which reads args.check
                args.board = GMatrix(board, args.check.value)
            elif args.command != "verify":  # verify prints its own witness
                print("not a constant-rook-sum board", file=sys.stderr)
                return EXIT_CHECK_FAILED
        sys.set_int_max_str_digits(0)
        return args.func(args)
    except (BudgetExceededError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        budget = isinstance(exc, (BudgetExceededError, FactorialGuardError))
        return EXIT_BUDGET if budget else EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
