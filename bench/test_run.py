"""Smoke test of the benchmark harness.

Every workload runs at --tiny size, untraced and traced, and must report
exactly the metrics BENCHMARK.json names with no failed operation. Run from
the repository root:

    python -m pytest bench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_harness(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_harness(ROOT, "--workload", workload, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        # trace.overhead_s is a difference of two timings and may dip below 0
        # when the tiny tune takes milliseconds
        assert metric["value"] >= 0 or name == "trace.overhead_s", name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        # fresh interpreters tick under bench/meter.py and report their ticks
        samples = json.loads(proc.stdout.splitlines()[-2])["details"]["samples"]
        for kind in ("setup", "cold_eval", "cold_tune"):
            assert all(op[-1] > 0 for op in samples[kind]["ops"]), kind


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, the harness exits non-zero
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_harness(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                       "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
