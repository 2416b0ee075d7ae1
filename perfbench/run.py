"""Benchmark entry point: one workload, one seed, one line of metrics.

  python3 perfbench/run.py --workload trick-large-n --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (gardner is imported from ./src, it need not
be installed). The last line of standard output is

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. The line before it, {"meta": ...}, records the run: Python
version, CPU, seed, the tail percentile and its sample count, the set-up
samples, and which known-defect requests failed. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli-session", "trick-large-n", "certify")

# Fresh set-up-only workers per run; the measured worker adds one more
# set-up sample, and setup_s is the median.
SETUP_PROBES = 10
PROCESS_PROBES = 5
RUN_LIMIT_S = 170

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_KEYS = (
    "matrix.trick_generate.uniform", "matrix.trick_generate.quick",
    "matrix.is_g_matrix_fast.valid", "matrix.is_g_matrix_fast.invalid",
    "matrix.decompose_canonical", "matrix.compose",
    "boards.from_text.text", "boards.from_text.json",
    "boards.format_board_text", "boards.board_json_payload",
    "polytope.locate", "polytope.barycentric", "polytope.halfopen_contains",
    "polytope.unimodularity_check",
    "counting.g_bruteforce", "counting.g_labeling_oracle",
    "counting.interior_count_bruteforce", "counting.interpolate", "counting.roots_check",
    "duality.dual_subspace", "duality.gale_pair_check", "duality.gorenstein_check",
    "duality.compressed_check",
)
LAYER_STATS = {"calls": "count", "busy_s": "s", "share": "ratio", "p50_ms": "ms"}
CLI_COMMANDS = ("trick", "verify", "count", "poly", "roots", "decompose", "locate", "duality")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{key}.{stat}": unit for key in LAYER_KEYS for stat, unit in LAYER_STATS.items()}
    for bucket in ("n_lt_1e3", "n_1e3-1e4", "n_1e4-1e5", "n_ge_1e5"):
        units[f"matrix.trick_generate.uniform.p50_ms.{bucket}"] = "ms"
    units["cli.python_start_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for cmd in CLI_COMMANDS:
        units[f"cli.main.{cmd}.p50_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    return units


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def warm_up() -> None:
    """Compile bytecode for src/ and the harness once, untimed: a user of an
    installed package does not pay that on each run."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, capture_output=True, timeout=120)
    subprocess.run([sys.executable, "-c", "import gardner.cli"], env=child_env(),
                   check=True, capture_output=True, timeout=120)


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a fresh worker and wait for its ``ready``; return it with the
    seconds from process start to ready (its set-up time)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker failed during set-up ({line.strip()!r})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("worker missed the run limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def stop(proc: subprocess.Popen) -> None:
    """End a worker that is still running: SIGTERM first, so that it can
    kill a CLI child of its own, then SIGKILL."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def process_ms(code: str, env: dict[str, str] | None = None) -> float:
    """Median wall ms of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(PROCESS_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return median(times) * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gardner" / "__init__.py").is_file():
        print(f"error: no gardner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = perf_counter()
    proc = None
    try:
        warm_up()
        setups = []
        for _ in range(SETUP_PROBES):
            proc, setup = start_worker(args, setup_only=True)
            finish_worker(proc, timeout=60)
            setups.append(setup)
        proc, setup = start_worker(args, setup_only=False)
        setups.append(setup)
        result = json.loads(finish_worker(proc, RUN_LIMIT_S - (perf_counter() - started))
                            .strip().splitlines()[-1])
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            stop(proc)

    if args.trace:
        layers = result["layers"]
        layers["cli.python_start_ms"] = process_ms("pass")
        layers["cli.import_ms"] = (process_ms("import gardner", child_env())
                                   - layers["cli.python_start_ms"])
        units = per_layer_units()
        values = {name: layers.get(name, 0) for name in units}  # layers never called read 0
    else:
        values = dict(result["metrics"], setup_s=median(setups))
        units = END_TO_END

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "op_tail": result["op_tail"], "rounds": result["rounds"],
        "measured": result["measured"], "speed": result["speed"],
        "busy_s": result["busy_s"], "wall_s": result["wall_s"],
        "setup_samples_s": setups,
        "known_defects_failed": result["known_defects_failed"],
        "unexpected_failures": result["unexpected_failures"],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
