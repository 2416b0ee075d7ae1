"""The three workloads: what each request does, and how it is checked.

A workload is planned in rounds. Every round of a workload has the same
make-up (the same number of requests of each kind, the same known-defect
requests, the same fixed heavy jobs); the seed picks the parameters inside
each kind and the order. A run is a whole number of cycles of ``cycle``
rounds, so every run measures the same mix and seeds differ only where the
mix allows them to.

Each request is ``plan`` (untimed), ``prepare`` (untimed), ``execute``
(timed: the calls into gardner and nothing else of weight) and ``verify``
(untimed, through ``checker`` only).
"""
from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checker
from spans import Untraced


@dataclass
class Op:
    kind: str
    label: str
    params: dict = field(default_factory=dict)


class Workload:
    """Defaults: one-round cycles, no known defects, nothing to prepare or
    clean up, peak RSS taken from this process, timings scaled to reference
    speed (see worker.REFERENCE_S). ``nominal_cycle_s`` is the busy time of
    one cycle at the commit that defined the benchmark (2-vCPU Intel Xeon,
    CPython 3.11); it sizes runs and is never measured."""

    cycle = 1
    scaled = True
    nominal_cycle_s: float
    known_defects: frozenset[str] = frozenset()
    rusage = resource.RUSAGE_SELF

    def prepare(self, op: Op) -> None:
        pass

    def close(self) -> None:
        pass


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _log_uniform_int(lo: float, hi: float, u: float) -> int:
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _labels_board(rng: random.Random, d: int, top: int = 30):
    """A board built from the harness's own labels (min mu = 0, N >= 1)."""
    lam = [rng.randint(0, top) for _ in range(d)]
    lam[0] = max(lam[0], 1)
    mu = [rng.randint(0, top) for _ in range(d)]
    mu[rng.randrange(d)] = 0
    rows = tuple(tuple(m + l for l in lam) for m in mu)
    return rows, sum(lam) + sum(mu)


# ---------------------------------------------------------------- trick-large-n

def n_bucket(n: int) -> str:
    if n < 10 ** 3:
        return "n_lt_1e3"
    if n < 10 ** 4:
        return "n_1e3-1e4"
    if n < 10 ** 5:
        return "n_1e4-1e5"
    return "n_ge_1e5"


class TrickLargeN(Workload):
    """The trick pipeline in process: generate, serialise, parse, check,
    decompose, compose, locate.

    Every round has the same 32 slots. Slot i has d = 2 * 64^(i/31), so d
    runs log-uniformly from 2 to 128; slots with i = 2 mod 4 use mode quick,
    the rest uniform. N is log-uniform in d^2..10^6, stratified: over a
    cycle of 16 rounds slot i visits each sixteenth of that range once,
    round k taking the ((13 i + k) mod 16)-th, so that the slots of one
    round spread over the range too.

    N inside its stratum and the sampler seed depend only on the round's
    place in the cycle, not on the workload seed. The rejection sampler's
    cost is a geometric draw with mean near N/(d(2d-1)) draws, so a single
    d = 2 request can cost a second; with the draws shared, every run
    measures the same generation work. The workload seed chooses which
    quarter of the requests is tampered (and where), text or JSON for each,
    and the order."""

    name = "trick-large-n"
    slots = 32
    cycle = 16
    nominal_cycle_s = 7.0

    def __init__(self, root: Path, seed: int) -> None:
        import gardner
        self.g = gardner
        from gardner import boards
        self.boards = boards
        self.seed = seed

    def plan(self, r: int) -> list[Op]:
        n = self.slots
        shared = random.Random(f"{self.name}:round:{r % self.cycle}")
        rng = _rng(self.name, self.seed, r)
        tampered = set(rng.sample(range(n), n // 4))
        fmts = ["text", "json"] * (n // 2)
        rng.shuffle(fmts)
        ops = []
        for i in range(n):
            d = round(2 * 64 ** (i / (n - 1)))
            stratum = (13 * i + r) % self.cycle
            value = _log_uniform_int(d * d, 10 ** 6, (stratum + shared.random()) / self.cycle)
            mode = "quick" if i % 4 == 2 else "uniform"
            params = {"d": d, "N": value, "mode": mode, "fmt": fmts[i],
                      "seed": shared.randrange(2 ** 32),
                      "tamper": (rng.randrange(d), rng.randrange(d)) if i in tampered else None}
            ops.append(Op("trick-pipeline", f"trick {d} {value} {mode} {fmts[i]}", params))
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op, spans):
        g, b, p = self.g, self.boards, op.params
        d, value, mode, fmt, tamper = p["d"], p["N"], p["mode"], p["fmt"], p["tamper"]
        board = spans.call(f"matrix.trick_generate.{mode}", g.trick_generate,
                           d, value, mode, p["seed"],
                           detail=n_bucket(value) if mode == "uniform" else None)
        if fmt == "text":
            text = spans.call("boards.format_board_text", b.format_board_text, board.matrix)
            if tamper:
                text = _tamper_text(text, *tamper)
        else:
            lab = spans.call("matrix.decompose_canonical", g.decompose_canonical, board)
            payload = spans.call("boards.board_json_payload", b.board_json_payload, board, lab)
            if tamper:
                i, j = tamper
                payload["entries"][i][j] = str(int(payload["entries"][i][j]) + 1)
            text = json.dumps(payload)
        doc = spans.call(f"boards.from_text.{fmt}", g.BoardDocument.from_text, text)
        matrix = doc.to_matrix()
        check = spans.call("matrix.is_g_matrix_fast", g.is_g_matrix_fast, matrix,
                           tag=lambda c: "valid" if c else "invalid")
        out = {"board": board, "doc": doc, "check": check}
        if not check:
            return out
        gm = g.GMatrix(matrix, check.value)
        out["labels"] = spans.call("matrix.decompose_canonical", g.decompose_canonical, gm)
        out["composed"] = spans.call("matrix.compose", g.compose, out["labels"])
        out["cell"] = spans.call("polytope.locate", g.locate, gm)
        return out

    def verify(self, op: Op, out) -> str | None:
        p = op.params
        d, value, tamper = p["d"], p["N"], p["tamper"]
        rows = out["board"].matrix.rows
        err = checker.check_board(rows, d, value)
        if err:
            return f"trick_generate: {err}"
        expected = rows
        if tamper:
            i, j = tamper
            bumped = [list(r) for r in rows]
            bumped[i][j] += 1
            expected = tuple(tuple(r) for r in bumped)
        if out["doc"].entries != expected:
            return "serialise/parse changed the board"
        check = out["check"]
        if tamper:
            if check or check.witness is None:
                return "tampered board accepted without a witness"
            w = check.witness
            return checker.check_witness(expected, w.sigma, w.sigma_prime, w.sums)
        if not check or check.value != value:
            return "is_g_matrix_fast rejected a valid board"
        lab = out["labels"]
        err = checker.check_labels(rows, lab.col_labels, lab.row_labels, value)
        if err:
            return f"decompose_canonical: {err}"
        if out["composed"].matrix.rows != rows or out["composed"].value != value:
            return "compose did not rebuild the board"
        if out["cell"] != checker.own_cell(rows):
            return f"locate gave {out['cell']}, expected {checker.own_cell(rows)}"
        return None

    def warm_up(self) -> None:
        for fmt in ("text", "json"):
            op = Op("trick-pipeline", "warm-up", {"d": 3, "N": 20, "mode": "uniform",
                                                  "fmt": fmt, "seed": 0, "tamper": None})
            self.execute(op, Untraced())


def _tamper_text(text: str, i: int, j: int) -> str:
    lines = text.split("\n")
    tokens = lines[i].split()
    tokens[j] = str(int(tokens[j]) + 1)
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


# ---------------------------------------------------------------- certify

ROOTS_TOL = 1e-8  # the CLI default


class Certify(Workload):
    """Theorem-check jobs, 37 per round.

    The seed picks parameters only inside ranges that keep each job on one
    side of the round's median job, roots_check at d = 8 (about 16 ms on
    the reference machine, with 18 jobs below it and 18 above): the cheap
    jobs stay under about 6 ms, the dear ones over about 30 ms, and every
    job between is fixed. Otherwise a seed that drew a few more cheap jobs
    moved op_p50_ms by a third. The heavy jobs run once per round with fixed parameters: g_bruteforce(3, 3)
    and (3, 4), interior_count_bruteforce(3, 4), interpolate(20) and (30),
    the (3, 3) half-open partition, the d = 6 hull duals,
    gale_pair_check(5), gorenstein_check(3, 4)."""

    name = "certify"
    nominal_cycle_s = 5.5
    known_defects = frozenset(f"roots_check {d}" for d in range(9, 13))

    def __init__(self, root: Path, seed: int) -> None:
        import gardner
        self.g = gardner
        from gardner import counting
        self.counting = counting
        self.seed = seed

    def plan(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        ops: list[Op] = []

        def add(kind, **params):
            args = " ".join(str(v) for v in params.values() if not isinstance(v, tuple))
            ops.append(Op(kind, f"{kind} {args}".strip(), params))

        # cheap: under about 6 ms whatever the seed draws
        for _ in range(2):
            add("g_bruteforce", d=2, N=rng.randint(0, 6))
        add("g_bruteforce", d=3, N=rng.randint(0, 1))
        add("g_labeling_oracle", d=rng.randint(1, 3), N=rng.randint(0, 12))
        add("g_labeling_oracle", d=4, N=rng.randint(0, 8))
        add("interior_count_bruteforce", d=2, N=rng.randint(2, 6))
        add("interpolate", d=rng.randint(2, 6))
        add("halfopen_partition", d=2, N=rng.randint(1, 2))
        d = rng.randint(4, 6)
        add("barycentric", d=d, cell=rng.randint(1, d), board=_labels_board(rng, d))
        add("unimodularity_check", d=rng.randint(2, 8))
        add("gorenstein_check", d=2, n_max=rng.randint(2, 6))
        add("dual_subspace", hull="birkhoff_hull", d=rng.randint(2, 3))
        # fixed
        for d in range(2, 13):
            add("roots_check", d=d)
        add("g_bruteforce", d=3, N=3)
        add("g_bruteforce", d=3, N=4)
        add("interior_count_bruteforce", d=3, N=4)
        add("interpolate", d=20)
        add("interpolate", d=30)
        add("halfopen_partition", d=3, N=3)
        add("barycentric", d=10, cell=rng.randint(1, 10), board=_labels_board(rng, 10))
        add("dual_subspace", hull="birkhoff_hull", d=6)
        add("dual_subspace", hull="gardner_hull", d=6)
        add("gale_pair_check", d=5, samples=10, seed=rng.randrange(2 ** 32))
        add("gorenstein_check", d=3, n_max=4)
        # dear: over about 30 ms whatever the seed draws
        d = rng.randint(6, 7)
        add("halfopen_contains", d=d, board=_labels_board(rng, d))
        add("dual_subspace", hull="gardner_hull", d=rng.randint(4, 5))
        add("compressed_check", d=rng.randint(3, 4), samples=50, seed=rng.randrange(2 ** 32))
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op, spans):
        g, c, p, kind = self.g, self.counting, op.params, op.kind
        if kind in ("g_bruteforce", "g_labeling_oracle", "interior_count_bruteforce"):
            return spans.call(f"counting.{kind}", getattr(g, kind), p["d"], p["N"])
        if kind == "interpolate":
            return spans.call("counting.interpolate", g.interpolate, p["d"])
        if kind == "roots_check":
            return spans.call("counting.roots_check", g.roots_check, p["d"], ROOTS_TOL)
        if kind == "halfopen_partition":
            d, n = p["d"], p["N"]
            cells = g.halfopen_cells(d)
            found = []
            for flat in c.iter_g_matrices_flat(d, n):
                rows = tuple(flat[i * d:(i + 1) * d] for i in range(d))
                board = g.GMatrix(g.SquareMatrix(rows), n)
                k = spans.call("polytope.locate", g.locate, board)
                member = [spans.call("polytope.halfopen_contains", g.halfopen_contains, board, cell)
                          for cell in cells]
                found.append((rows, k, member))
            return found
        if kind == "barycentric":
            rows, value = p["board"]
            board = g.GMatrix(g.SquareMatrix(rows), value)
            cell = g.triangulation_cells(p["d"])[p["cell"] - 1]
            return cell, spans.call("polytope.barycentric", g.barycentric, board, cell)
        if kind == "halfopen_contains":
            rows, value = p["board"]
            board = g.GMatrix(g.SquareMatrix(rows), value)
            return [spans.call("polytope.halfopen_contains", g.halfopen_contains, board, cell)
                    for cell in g.halfopen_cells(p["d"])]
        if kind == "unimodularity_check":
            return [spans.call("polytope.unimodularity_check", g.unimodularity_check, cell)
                    for cell in g.triangulation_cells(p["d"])]
        if kind == "dual_subspace":
            sub = getattr(g, p["hull"])(p["d"])
            return sub, spans.call("duality.dual_subspace", g.dual_subspace, sub)
        if kind == "gale_pair_check":
            return spans.call("duality.gale_pair_check", g.gale_pair_check,
                              p["d"], p["samples"], p["seed"])
        if kind == "gorenstein_check":
            return spans.call("duality.gorenstein_check", g.gorenstein_check, p["d"], p["n_max"])
        if kind == "compressed_check":
            return spans.call("duality.compressed_check", g.compressed_check,
                              p["d"], p["samples"], p["seed"])
        raise ValueError(f"unknown job {kind}")

    def verify(self, op: Op, out) -> str | None:
        p, kind = op.params, op.kind
        d = p.get("d")
        if kind in ("g_bruteforce", "g_labeling_oracle"):
            want = checker.g_count(d, p["N"])
            return None if out == want else f"{out} != g_{d}({p['N']}) = {want}"
        if kind == "interior_count_bruteforce":
            want = checker.g_count(d, p["N"] - d)
            return None if out == want else f"{out} interior points, expected {want}"
        if kind == "interpolate":
            return checker.check_poly(d, out.coefficients)
        if kind == "roots_check":
            if not out.passed:
                return "a root was left unclassified"
            return checker.check_roots(d, [(r.real, r.imag) for r in out.roots],
                                       out.labels, ROOTS_TOL)
        if kind == "halfopen_partition":
            return _verify_partition(d, p["N"], out)
        if kind == "barycentric":
            rows, value = p["board"]
            cell, coeffs = out
            _, mu = checker.own_labels(rows)
            if mu[p["cell"] - 1] != 0:
                return None if coeffs is None else "point outside the cell got coefficients"
            if coeffs is None:
                return "point inside the cell got no coefficients"
            return checker.check_barycentric(
                rows, value, [(v.kind, v.index) for v in cell.vertices], coeffs)
        if kind == "halfopen_contains":
            k = checker.own_cell(p["board"][0])
            want = [i == k for i in range(1, d + 1)]
            return None if out == want else f"membership {out}, expected {want}"
        if kind == "unimodularity_check":
            return None if len(out) == d and all(out) else "a cell is not unimodular"
        if kind == "dual_subspace":
            return _verify_dual(p["hull"], d, *out)
        if kind == "gale_pair_check":
            want = (2 * d * math.factorial(d), 6 * p["samples"])
            got = (out.vertex_pairings_checked, out.samples_checked)
            if not out.passed:
                return f"gale_pair_check failed: {out.counterexample}"
            return None if got == want else f"checked {got}, expected {want}"
        if kind == "gorenstein_check":
            values = [n for n, _ in out.translation_bijections]
            if not out.passed:
                return "Gorenstein property reported false"
            return None if values == list(range(d, p["n_max"] + 1)) else "wrong range of N"
        if kind == "compressed_check":
            if not out.passed:
                return f"compressed_check failed: {out.violations[:1]}"
            return None if out.samples == 2 * p["samples"] else "wrong sample count"
        raise ValueError(f"unknown job {kind}")

    def warm_up(self) -> None:
        g = self.g
        g.g_bruteforce(2, 2)
        g.interpolate(3)
        g.roots_check(3)
        g.dual_subspace(g.birkhoff_hull(2))
        g.gale_pair_check(2, 2)
        g.compressed_check(2, 2)
        g.barycentric(g.trick_generate(3, 5), g.triangulation_cells(3)[0])


def _verify_partition(d: int, n: int, found) -> str | None:
    if len(found) != checker.g_count(d, n):
        return f"{len(found)} boards, formula (3) gives {checker.g_count(d, n)}"
    if len({rows for rows, _, _ in found}) != len(found):
        return "a board was enumerated twice"
    per_cell = [0] * d
    for rows, k, member in found:
        err = checker.check_board(rows, d, n)
        if err:
            return err
        if k != checker.own_cell(rows):
            return f"locate gave {k}, expected {checker.own_cell(rows)}"
        if member != [i == k for i in range(1, d + 1)]:
            return f"half-open membership {member} for cell {k}"
        per_cell[k - 1] += 1
    want = [checker.halfopen_count(d, k, n) for k in range(1, d + 1)]
    return None if per_cell == want else f"cell counts {per_cell}, expected {want}"


def _permutation_points(d: int) -> list[tuple[int, ...]]:
    """The identity and the cyclic shift, as flat permutation matrices."""
    return [tuple(1 if j == (i + s) % d else 0 for i in range(d) for j in range(d))
            for s in (0, 1)]


def _vertex_points(d: int) -> list[tuple[int, ...]]:
    return [checker.vertex_flat(kind, i, d) for kind in "RC" for i in range(1, d + 1)]


def _verify_dual(hull: str, d: int, sub, dual) -> str | None:
    err = checker.check_dual(sub.ambient, sub.q, sub.basis, dual.q, dual.basis)
    if err:
        return err
    if hull == "birkhoff_hull":
        dims, own, other = ((d - 1) ** 2, 2 * d - 2), _permutation_points(d), _vertex_points(d)
    else:
        dims, own, other = (2 * d - 2, (d - 1) ** 2), _vertex_points(d), _permutation_points(d)
    if (len(sub.basis), len(dual.basis)) != dims:
        return f"dims {(len(sub.basis), len(dual.basis))}, expected {dims}"
    return (checker.check_contains(sub.q, sub.basis, own)
            or checker.check_contains(dual.q, dual.basis, other))


# ---------------------------------------------------------------- cli-session

DEADLINE_S = 2.0
JSON_FLOAT_BOARD = '{"d": 2, "entries": [[1.9, 2], [3, 4.2]]}'
JSON_BOOL_BOARD = '{"d": 2, "entries": [[true, true], [true, true]]}'


class CliSession(Workload):
    """One fresh ``python -m gardner.cli`` process per request, one at a
    time. A round is six trick tasks (each followed by verify, decompose or
    locate on its output, some tampered), three counts, two polys, two
    roots, one duality, and the four known-defect requests."""

    name = "cli-session"
    nominal_cycle_s = 6.9
    scaled = False
    rusage = resource.RUSAGE_CHILDREN
    known_defects = frozenset(["roots 9", "roots 10", "roots 11", "roots 12",
                               "trick 2 1e12", "trick 2 1e20 --mode quick",
                               "verify json-float", "verify json-bool"])

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        scratch = root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=scratch))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.outputs: dict[str, str] = {}
        (self.dir / "float.json").write_text(JSON_FLOAT_BOARD)
        (self.dir / "bool.json").write_text(JSON_BOOL_BOARD)

    def plan(self, r: int) -> list[Op]:
        rng = _rng(self.name, self.seed, r)
        tasks: list[list[Op]] = []
        consumers = [("verify", True), ("verify", False), ("verify", False),
                     ("decompose", True), ("decompose", False),
                     ("locate", True), ("locate", False)]
        rng.shuffle(consumers)
        for k, mode in enumerate(["uniform"] * 4 + ["quick"] * 2):
            d, value = rng.randint(2, 8), _log_uniform_int(1, 10 ** 4, rng.random())
            flag = rng.choice(["--labels", "--json"])
            src = f"{r}-{k}"
            task = [Op("trick", f"trick {d} {value}", {
                "argv": ["trick", str(d), str(value), "--mode", mode, "--seed",
                         str(rng.randrange(2 ** 32)), flag],
                "d": d, "N": value, "src": src})]
            # one consumer per trick; the seventh goes to the last trick
            mine = consumers[k:k + 1] + (consumers[6:] if k == 5 else [])
            for cmd, tampered in mine:
                out_flag = rng.choice([[], ["--json"]])
                task.append(Op(cmd, f"{cmd} {'tampered' if tampered else 'board'}", {
                    "argv": [cmd, f"board-{src}", *out_flag], "d": d, "N": value, "src": src,
                    "tamper": (rng.randrange(d), rng.randrange(d)) if tampered else None}))
            tasks.append(task)
        for k in range(3):
            if k == 0:
                d, value, extra = 2, rng.randint(0, 8), ["--oracle"]
            else:
                d, value = rng.randint(1, 8), _log_uniform_int(1, 10 ** 4, rng.random())
                extra = ["--formula", rng.choice(["1", "2", "3", "all"])]
            argv = ["count", str(d), str(value), *extra, *rng.choice([[], ["--json"]])]
            tasks.append([Op("count", f"count {d} {value}", {"argv": argv, "d": d, "N": value})])
        for _ in range(2):
            d = rng.randint(1, 12)
            argv = ["poly", str(d), *rng.choice([[], ["--json"]])]
            tasks.append([Op("poly", f"poly {d}", {"argv": argv, "d": d})])
        for d in (rng.randint(2, 8), rng.randint(2, 8), rng.randint(9, 12)):
            argv = ["roots", str(d), *rng.choice([[], ["--json"]])]
            tasks.append([Op("roots", f"roots {d}", {"argv": argv, "d": d})])
        d = rng.randint(1, 4)
        argv = ["duality", str(d), "--seed", str(rng.randrange(2 ** 32)),
                *rng.choice([[], ["--json"]])]
        tasks.append([Op("duality", f"duality {d}", {"argv": argv, "d": d, "samples": 40})])
        tasks.append([Op("trick", "trick 2 1e12", {
            "argv": ["trick", "2", str(10 ** 12), "--seed", str(rng.randrange(2 ** 32))],
            "d": 2, "N": 10 ** 12})])
        tasks.append([Op("trick", "trick 2 1e20 --mode quick", {
            "argv": ["trick", "2", str(10 ** 20), "--mode", "quick",
                     "--seed", str(rng.randrange(2 ** 32))],
            "d": 2, "N": 10 ** 20})])
        kind = rng.choice(["float", "bool"])
        tasks.append([Op("verify-malformed", f"verify json-{kind}",
                         {"argv": ["verify", f"{kind}.json"]})])
        rng.shuffle(tasks)
        return [op for task in tasks for op in task]

    def prepare(self, op: Op) -> None:
        """Write the board file a consumer reads: its trick's output, with
        one entry bumped when the request is a tampered one."""
        if op.kind not in ("verify", "decompose", "locate"):
            return
        path = self.dir / op.params["argv"][1]
        text = self.outputs.get(op.params["src"], "")
        tamper = op.params["tamper"]
        if tamper and text.lstrip().startswith("{"):
            data = json.loads(text)
            i, j = tamper
            data["entries"][i][j] = str(int(data["entries"][i][j]) + 1)
            text = json.dumps(data)
        elif tamper:
            rows = _parse_board_text(text)
            if rows:
                i, j = tamper
                rows[i][j] += 1
                text = "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        path.write_text(text)

    def execute(self, op: Op, spans):
        proc = subprocess.Popen([sys.executable, "-m", "gardner.cli", *op.params["argv"]],
                                cwd=self.dir, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=DEADLINE_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        except BaseException:  # the worker is being stopped: take the child along
            proc.kill()
            proc.wait()
            raise
        return {"code": proc.returncode, "out": out, "err": err, "timed_out": timed_out}

    def verify(self, op: Op, res) -> str | None:
        if res["timed_out"]:
            return f"missed the {DEADLINE_S} s deadline"
        if "Traceback (most recent call last)" in res["err"]:
            return "traceback: " + res["err"].strip().splitlines()[-1]
        check = getattr(self, f"_verify_{op.kind.replace('-', '_')}")
        err = check(op.params, res["code"], res["out"])
        if op.kind == "trick" and err is None and "src" in op.params:
            self.outputs[op.params["src"]] = res["out"]
        return err

    def _verify_trick(self, p, code, out):
        if code != 0:
            return f"exit {code}"
        d, value = p["d"], p["N"]
        if out.lstrip().startswith("{"):
            data = json.loads(out)
            rows = [[int(x) for x in r] for r in data["entries"]]
            err = checker.check_board(rows, d, value)
            if err or int(data["value"]) != value:
                return err or "wrong value field"
            return checker.check_labels(rows, [int(x) for x in data["lambda"]],
                                        [int(x) for x in data["mu"]], value)
        rows = _parse_board_text(out)
        err = checker.check_board(rows, d, value)
        if err or "--labels" not in p["argv"]:
            return err
        lam, mu, body = _parse_table(out.split("\n\n", 1)[1])
        if body != rows:
            return "label table body differs from the board"
        return checker.check_labels(rows, lam, mu, value)

    def _board_rows(self, p):
        text = (self.dir / p["argv"][1]).read_text()
        if text.lstrip().startswith("{"):
            return [[int(x) for x in r] for r in json.loads(text)["entries"]]
        return _parse_board_text(text)

    def _verify_verify(self, p, code, out):
        rows = self._board_rows(p)
        as_json = out.lstrip().startswith("{")
        if p["tamper"]:
            if code != 1:
                return f"tampered board: exit {code}, expected 1"
            if as_json:
                w = json.loads(out)["witness"]
                return checker.check_witness(rows, w["sigma"], w["sigma_prime"], w["sums"])
            found = re.findall(r"placement \(([\d, ]+)\) covers (\d+)", out)
            if len(found) != 2:
                return "no witness placements printed"
            sigmas = [tuple(int(x) for x in s.split(",")) for s, _ in found]
            return checker.check_witness(rows, sigmas[0], sigmas[1], [s for _, s in found])
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)["value"] if as_json else out.strip().removeprefix("value ")
        return None if int(got) == p["N"] else f"value {got}, expected {p['N']}"

    def _verify_decompose(self, p, code, out):
        if p["tamper"]:
            return None if code == 1 else f"tampered board: exit {code}, expected 1"
        if code != 0:
            return f"exit {code}"
        rows = self._board_rows(p)
        if out.lstrip().startswith("{"):
            data = json.loads(out)
            lam, mu = [int(x) for x in data["lambda"]], [int(x) for x in data["mu"]]
        else:
            lam, mu, body = _parse_table(out)
            if body != rows:
                return "label table body differs from the board"
        return checker.check_labels(rows, lam, mu, p["N"])

    def _verify_locate(self, p, code, out):
        if p["tamper"]:
            return None if code == 1 else f"tampered board: exit {code}, expected 1"
        if code != 0:
            return f"exit {code}"
        got = json.loads(out)["cell"] if out.lstrip().startswith("{") else int(out)
        want = checker.own_cell(self._board_rows(p))
        return None if got == want else f"cell {got}, expected {want}"

    def _verify_count(self, p, code, out):
        if code != 0:
            return f"exit {code}"
        want = checker.g_count(p["d"], p["N"])
        if out.lstrip().startswith("{"):
            data = json.loads(out)
            got = [int(v) for v in data["formulas"].values()]
            if "oracle" in data:
                got.append(int(data["oracle"]))
        else:
            got = [int(v) for v in re.findall(r"\d+", out)]
        return None if got and all(v == want for v in got) else f"counts {got}, expected {want}"

    def _verify_poly(self, p, code, out):
        if code != 0:
            return f"exit {code}"
        if out.lstrip().startswith("{"):
            return checker.check_poly(p["d"], json.loads(out)["coeffs"])
        return checker.check_poly(p["d"], _parse_pretty(out.strip(), p["d"]))

    def _verify_roots(self, p, code, out):
        if code != 0:
            return f"exit {code}"
        if out.lstrip().startswith("{"):
            data = json.loads(out)
            return checker.check_roots(p["d"], data["roots"], data["labels"], data["tolerance"])
        lines = out.strip().splitlines()
        if lines[-1] != "all roots classified":
            return lines[-1]
        roots, labels = [], []
        for line in lines[:-1]:
            re_, im, label = line.split()
            roots.append((float(re_), float(im.rstrip("i"))))
            labels.append(label)
        # the text form rounds to 9 decimals
        return checker.check_roots(p["d"], roots, labels, 1e-8 + 1e-9)

    def _verify_duality(self, p, code, out):
        if code != 0:
            return f"exit {code}"
        d = p["d"]
        if out.lstrip().startswith("{"):
            data = json.loads(out)
            got = (data["vertex_pairings"], data["samples"], data["passed"])
        else:
            nums = [int(x) for x in re.findall(r"checked: (\d+)", out)]
            got = (*nums, out.strip().endswith("passed"))
        want = (2 * d * math.factorial(d), 6 * p["samples"], True)
        return None if got == want else f"duality report {got}, expected {want}"

    def _verify_verify_malformed(self, p, code, out):
        return None if code == 2 else f"exit {code} on a non-integer JSON board, expected 2"

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-m", "gardner.cli", "poly", "2"], cwd=self.dir,
                       env=self.env, capture_output=True, timeout=60, check=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _parse_board_text(text: str) -> list[list[int]]:
    rows = []
    for line in text.splitlines():
        if not line.strip():
            if rows:
                break
            continue
        rows.append([int(t) for t in line.split()])
    return rows


def _parse_table(text: str):
    """Column labels, row labels and body of a printed addition table."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    lam = [int(t) for t in lines[0].split("|")[1].split()]
    mu, body = [], []
    for line in lines[2:]:
        left, right = line.split("|")
        mu.append(int(left))
        body.append([int(t) for t in right.split()])
    return lam, mu, body


def _parse_pretty(text: str, d: int) -> list[Fraction]:
    """Coefficients of a polynomial printed as '1 + (9/4)N + N^2 - ...'."""
    coeffs = [Fraction(0)] * (2 * d - 1)
    for term in text.replace("+ ", "+").replace("- ", "-").split():
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        power = 0
        if "N" in body:
            body, _, exp = body.partition("N")
            power = int(exp[1:]) if exp else 1
            body = body.strip("()") or "1"
        coeffs[power] += sign * Fraction(body)
    return coeffs


WORKLOADS = {w.name: w for w in (CliSession, TrickLargeN, Certify)}
