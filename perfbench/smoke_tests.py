"""The benchmark's own tests: a seconds-long smoke run of every workload,
untraced and traced, plus the refusal to run without the program.

    python3 -m pytest perfbench/smoke_tests.py

The file name keeps these subprocess runs out of the repository's default
test collection.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    result, _ = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
    if trace:
        calls = result["metrics"]["mesh.contact_calls"]["value"]
        assert (calls == 0) == (not WORKLOADS[workload]["use_contact"])
        with open(os.path.join(HERE, "census.json")) as f:
            census = json.load(f)[workload]
        for scope, (records, _) in census.items():
            assert result["metrics"][f"model.records.{scope}"]["value"] == records
    else:
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, name


def test_fingerprint_repeats_across_runs():
    _, first = smoke("impact-8", 0, seed=5)
    _, second = smoke("impact-8", 0, seed=5)
    line = [ln for ln in second.splitlines() if ln.startswith("fingerprint ")]
    assert line and line[0].endswith("(matches)")
    assert line[0].split()[1] in first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "impact-8", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
