"""Every named metric is printed with its unit, on tiny workloads."""

import json
import shutil
import subprocess
import sys

import pytest

import metrics
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(metrics.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[2] == m["unit"] for line in lines[:-1])
    printed = {line.split()[0] for line in lines[:-1]
               if not line.startswith("#")}
    assert {"ops_attempted", "ops_failed"} <= printed
    if not trace:
        assert {"delta_mean", "delta_converged", "connected_frac",
                "op_ms_p90"} <= printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "cma_served", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
