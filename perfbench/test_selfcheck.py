"""Self-check of the benchmark, on one-round input lists.

    python3 -m pytest perfbench/test_selfcheck.py -q

Every workload must print every metric BENCHMARK.json declares, with its
unit, in both modes, and an end-to-end run must also record its speed
factor and wall-clock values; a corrupted oracle must show up as failed ops;
and the benchmark must refuse to run where the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def result_line(cp: subprocess.CompletedProcess) -> dict:
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed(workload, trace):
    cp = run_bench(ROOT, workload, trace)
    result = result_line(cp)
    if not trace:
        # The wall-clock values behind the speed-scaled timings are kept beside them.
        context = json.loads(cp.stdout.strip().splitlines()[-2])["context"]
        assert context["speed"]["factor"] > 0
        assert set(context["wall_metrics"]) == set(result["metrics"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_oracle_fails_ops(workload):
    result = result_line(run_bench(ROOT, workload, 0, "--corrupt-oracle"))
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_refuses_to_run_without_package_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        cp = run_bench(bare, WORKLOADS[0], 0)
        assert cp.returncode != 0
        assert cp.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
