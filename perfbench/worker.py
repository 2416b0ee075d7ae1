"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py as a fresh interpreter. It prints ``ready`` once set-up
(import, input generation, warm-up) is done, so the parent can time set-up
from process start, then runs a fixed number of whole cycles sized to keep
the program busy for about --seconds, and prints one JSON line with the
results.

  python3 perfbench/worker.py --workload certify --seed 1 --seconds 10 --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import Spans, Untraced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# gardner.cli.main argv per subcommand for the in-process cli.main probe;
# BOARD stands for a valid board file written for the probe.
BOARD = "{board}"
CLI_MAIN_ARGV = {
    "trick": ["trick", "5", "57", "--seed", "1"],
    "verify": ["verify", BOARD],
    "count": ["count", "3", "20"],
    "poly": ["poly", "6"],
    "roots": ["roots", "6"],
    "decompose": ["decompose", BOARD],
    "locate": ["locate", BOARD],
    "duality": ["duality", "3"],
}

# op_tail_ms is the highest of these percentiles (nearest rank) that has at
# least ten samples beyond it. A fixed ladder keeps the percentile the same
# from run to run while the sample count moves a little.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)


def cycles_for(wl, seconds: float) -> int:
    """Whole cycles that keep the program busy for about ``seconds``.

    The count comes from the workload's nominal cycle time, not from a
    clock, so every run of a given length does the same work: the same
    requests, the same sample count and so the same tail percentile, on a
    fast machine or a slow one, before a change and after it."""
    return max(1, round(seconds / wl.nominal_cycle_s))


# The machine this benchmark was defined on runs the same Python code up to
# a third faster or slower for tens of seconds at a time, which moved every
# timing of identical runs by as much. So each round is timed against a
# fixed loop of pure Python run just before and just after it, and the
# end-to-end timings are reported at the speed where that loop takes
# REFERENCE_S: a request's latency is scaled by REFERENCE_S over the mean of
# the two loop times around its round. The unscaled figures are in the meta
# line as "measured". Workloads whose requests run in child processes
# (cli-session) are not scaled: process start-up did not follow the loop,
# and scaling widened their spread instead of narrowing it.
REFERENCE_S = 0.0025


def reference_s() -> float:
    """Median of five timings of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        times.append(perf_counter() - t0)
    return median(times)


def run_pass(wl, spans, rounds: int) -> dict:
    """Run rounds 0..rounds-1. Busy time is the sum of request latencies."""
    records = []
    busy = 0.0
    speeds = []
    start = perf_counter()
    before = reference_s() if wl.scaled else REFERENCE_S
    for r in range(rounds):
        timed = []
        for op in wl.plan(r):
            wl.prepare(op)
            spans.request = len(records) + len(timed)
            t0 = perf_counter()
            try:
                out = wl.execute(op, spans)
            except Exception as exc:  # a crash in the program is a failed request
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            else:
                error = None
            latency = perf_counter() - t0
            busy += latency
            if error is None:
                try:
                    error = wl.verify(op, out)
                except Exception as exc:  # unreadable output is a wrong answer
                    error = f"output unreadable: {type(exc).__name__}: {exc}"
            timed.append((op.label, latency, error))
        after = reference_s() if wl.scaled else REFERENCE_S
        speeds.append(2 * REFERENCE_S / (before + after))
        before = after
        records += [(label, latency, latency * speeds[-1], error)
                    for label, latency, error in timed]
    return {"records": records, "rounds": rounds, "busy_s": busy,
            "wall_s": perf_counter() - start, "speed": median(speeds)}


def timing_metrics(latencies: list[float]) -> tuple[dict[str, float], dict]:
    latencies = sorted(latencies)
    n = len(latencies)
    tail_p = max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), default=50)
    rank = math.ceil(n * tail_p / 100)
    return ({"ops_per_s": n / sum(latencies), "op_p50_ms": median(latencies) * 1e3,
             "op_tail_ms": latencies[rank - 1] * 1e3},
            {"percentile": tail_p, "samples": n, "beyond": n - rank})


def end_to_end(result: dict, known_defects: frozenset[str], rusage: int) -> dict:
    records = result["records"]
    n = len(records)
    metrics, tail = timing_metrics([scaled for _, _, scaled, _ in records])
    measured, _ = timing_metrics([latency for _, latency, _, _ in records])
    wrong = [(label, err) for label, _, _, err in records if err is not None]
    unexpected = [(label, err) for label, err in wrong if label not in known_defects]
    defects = Counter(label for label, _ in wrong if label in known_defects)
    metrics["ok_ratio"] = (n - len(wrong)) / n
    metrics["peak_rss_mb"] = resource.getrusage(rusage).ru_maxrss / 1024
    return {
        "metrics": metrics,
        "measured": measured,
        "speed": result["speed"],
        "attempted": n,
        "failed": len(unexpected),
        "op_tail": tail,
        "known_defects_failed": defects,
        "unexpected_failures": unexpected[:20],
        "rounds": result["rounds"],
        "busy_s": result["busy_s"],
        "wall_s": result["wall_s"],
    }


def cli_main_probe(tmp: Path, repeats: int = 5) -> dict[str, float]:
    """Median ms of gardner.cli.main(argv) in process, per subcommand."""
    from gardner.cli import main
    tmp.mkdir(exist_ok=True)
    board = tmp / f"probe-board-{os.getpid()}.txt"
    board.write_text("19 8 11 25 7\n12 1 4 18 0\n16 5 8 22 4\n"
                     "21 10 13 27 9\n14 3 6 20 2\n")
    out = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for cmd, template in CLI_MAIN_ARGV.items():
            argv = [str(board) if a == BOARD else a for a in template]
            times = []
            for _ in range(repeats):
                t0 = perf_counter()
                code = main(argv)
                times.append(perf_counter() - t0)
                if code != 0:
                    raise RuntimeError(f"cli.main {argv} exited {code}")
            out[f"cli.main.{cmd}.p50_ms"] = median(times) * 1e3
    board.unlink()
    return out


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cls = WORKLOADS[args.workload]
    wl = cls(ROOT, args.seed)
    try:
        wl.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            rounds = cycles_for(wl, args.seconds) * wl.cycle
            result = end_to_end(run_pass(wl, Untraced(), rounds), cls.known_defects, cls.rusage)
        else:
            # The same rounds twice, untraced then traced, in the time of
            # one untraced run: the wall-time difference is the tracing
            # overhead.
            rounds = cycles_for(wl, args.seconds / 2) * wl.cycle
            plain = run_pass(wl, Untraced(), rounds)
            spans = Spans()
            traced = run_pass(wl, spans, rounds)
            result = end_to_end(traced, cls.known_defects, cls.rusage)
            layers = spans.summary(traced["wall_s"])
            layers.update(cli_main_probe(ROOT / ".perfbench_tmp"))
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            layers["trace.untraced_wall_s"] = plain["wall_s"]
            result["layers"] = layers
        print(json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
