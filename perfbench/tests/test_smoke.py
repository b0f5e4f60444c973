"""Tiny-size runs of every workload through the real engines."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, stats
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

RUN_CHECKS = {
    "all_steps_ran",
    "close",
    "no_worker_failures",
    "replicas_identical",
}
INVOCATION_CHECKS = {"digest_equal", "wire_bytes_constant"}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], steps_per_run=4)


def _failed(result) -> list:
    return [check for check in result["checks"] if not check[1]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name):
    workload = tiny(name)
    result = bench.measure(workload, seed=3, seconds=0, trace=True)
    names = [check for check, _, _ in result["checks"]]
    expected = set(RUN_CHECKS)
    if workload.engine == "process":
        expected.add("no_leaked_segment")
    for check in expected:
        assert names.count(check) == result["runs"], check
    assert INVOCATION_CHECKS <= set(names)
    assert result["failed"] == 0, _failed(result)
    assert result["runs"] == bench.MIN_RUNS
    assert {m["name"] for m in SPEC["per_layer"]} <= set(result["metrics"])


def test_untraced_run_sets_up_between_runs(monkeypatch):
    # four steps a run leave too few for a p95 at the real rule
    monkeypatch.setattr(stats, "MIN_TAIL_SAMPLES", 0.1)
    result = bench.measure(tiny("proc-qsgd4-nccl-k2"), 3, 0, False)
    assert result["failed"] == 0, _failed(result)
    assert result["setups"] == result["runs"] * (1 + bench.SETUP_PROBES)
    names = [check for check, _, _ in result["checks"]]
    assert names.count("no_leaked_segment") == result["setups"]
    assert names.count("tail_samples") == 1
    metrics = result["metrics"]
    assert all(
        math.isfinite(metrics[m["name"]]) for m in SPEC["end_to_end"]
    ), metrics


def test_a_run_cut_short_of_its_tail_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(bench, "MAX_SECONDS", 0.0)
    result = bench.measure(tiny("seq-qsgd4-mpi-k4"), 3, 0, False)
    assert result["runs"] == 1
    assert {check for check, *_ in _failed(result)} == {"tail_samples"}
    assert math.isfinite(result["metrics"]["step_ms_p95"])


def test_a_failed_check_is_counted(monkeypatch):
    monkeypatch.setattr(
        bench, "_replicas_identical", lambda engine: (False, "injected")
    )
    result = bench.measure(tiny("seq-qsgd4-mpi-k4"), 3, 0, True)
    assert result["failed"] == result["runs"]
    assert {check for check, *_ in _failed(result)} == {"replicas_identical"}


def test_an_exception_from_close_is_a_failed_operation(monkeypatch):
    from repro import ParallelTrainer

    def close(self):
        raise BufferError("cannot close exported pointers exist")

    monkeypatch.setattr(ParallelTrainer, "close", close)
    result = bench.measure(tiny("seq-qsgd4-mpi-k4"), 3, 0, True)
    failed = _failed(result)
    assert len(failed) == result["runs"]
    assert all(check == "close" and "BufferError" in detail
               for check, _, detail in failed)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq-qsgd4-mpi-k4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
