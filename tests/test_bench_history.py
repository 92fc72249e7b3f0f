"""The committed perf history: every BENCH_*.json at the repository root.

Each file holds the runs of one commit (see the "Perf history" standing rule
in ROADMAP.md): the revision, the command, and for every workload one run
without tracing and one with, each with the launcher's context line and its
result line.  Every BENCH_N.json has a BENCH_N_parent.json taken with the
same command, and every OPT_N.json (tools/optimizer_suite.py) an
OPT_N_parent.json over the same states that passes the suite's optimizer gates
against it.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HISTORY = sorted(ROOT.glob("BENCH_*.json"))
OPT_HISTORY = sorted(ROOT.glob("OPT_*.json"))
WORKLOADS = ("family-optimize", "generic-discord", "twirl-pipeline", "cli-cold")


def test_history_is_committed():
    assert HISTORY


@pytest.mark.parametrize("path", HISTORY, ids=lambda path: path.name)
def test_bench_file(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc["revision"], str) and doc["revision"]
    assert doc["command"].startswith("python3 perfbench/run.py ")
    runs = doc["runs"]
    assert sorted((run["workload"], run["trace"]) for run in runs) == sorted(
        (workload, trace) for workload in WORKLOADS for trace in (0, 1))
    for run in runs:
        assert run["result"]["correct"] is True, (run["workload"], run["trace"])
        assert run["context"]["git_sha"].startswith(doc["revision"]), (run["workload"],
                                                                       run["trace"])


@pytest.mark.parametrize("path", [path for path in HISTORY if not path.stem.endswith("_parent")],
                         ids=lambda path: path.name)
def test_head_file_has_a_parent_file(path):
    # A perf PR commits its parent's runs and its own, taken the same way.
    parent = path.with_name(f"{path.stem}_parent.json")
    assert parent.exists()
    assert json.loads(parent.read_text())["command"] == json.loads(path.read_text())["command"]


@pytest.mark.parametrize("path", [path for path in OPT_HISTORY
                                  if not path.stem.endswith("_parent")],
                         ids=lambda path: path.name)
def test_suite_file_passes_the_gates_against_its_parent(path, suite):
    # Reading a missing parent file raises, and so does ``_pairs`` on other states.
    parent = json.loads(path.with_name(f"{path.stem}_parent.json").read_text())
    assert suite.failures(parent, json.loads(path.read_text())) == []
