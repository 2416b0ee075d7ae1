"""Smoke tests of the benchmark harness: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
from spans import Untraced  # noqa: E402
from workloads import WORKLOADS, CliSession, Certify, Op, TrickLargeN  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_at_its_smallest_size(workload):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    meta = json.loads(done.stdout.splitlines()[-2])["meta"]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, meta["unexpected_failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(meta["known_defects_failed"]) <= WORKLOADS[workload].known_defects


def test_traced_run_reports_every_layer_metric():
    done = bench("--workload", "certify", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.per_layer_units()
    assert metrics["counting.roots_check.calls"]["value"] == 11
    assert metrics["cli.import_ms"]["value"] > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# The checker must count a deliberately wrong answer as a failure.

def test_wrong_count_is_a_failure():
    wl = Certify(ROOT, 0)
    op = Op("g_bruteforce", "g_bruteforce 2 3", {"d": 2, "N": 3})
    assert wl.verify(op, 16) is None
    assert wl.verify(op, 15) is not None


def test_non_g_board_is_a_failure():
    from gardner import FastCheck
    assert checker.check_board(((1, 0), (0, 1)), 2, 2) is not None
    wl = TrickLargeN(ROOT, 0)
    op = Op("trick-pipeline", "t", {"d": 3, "N": 12, "mode": "uniform", "fmt": "text",
                                     "seed": 5, "tamper": (0, 1)})
    out = wl.execute(op, Untraced())
    assert wl.verify(op, out) is None
    out["check"] = FastCheck(12)  # as if the tampered board had been accepted
    assert wl.verify(op, out) is not None


def test_wrong_exit_code_is_a_failure(tmp_path):
    wl = CliSession(tmp_path, 0)
    try:
        malformed = Op("verify-malformed", "verify json-float", {"argv": ["verify", "float.json"]})
        assert wl.verify(malformed, {"code": 2, "out": "", "err": "", "timed_out": False}) is None
        assert wl.verify(malformed, {"code": 0, "out": "value 5\n", "err": "",
                                     "timed_out": False}) is not None
        count = Op("count", "count 2 3", {"argv": ["count", "2", "3"], "d": 2, "N": 3})
        assert wl.verify(count, {"code": 0, "out": "16, 16, 16\n", "err": "",
                                 "timed_out": False}) is None
        assert wl.verify(count, {"code": 1, "out": "16, 16, 16\n", "err": "",
                                 "timed_out": False}) is not None
    finally:
        wl.close()

