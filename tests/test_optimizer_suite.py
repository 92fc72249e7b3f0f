"""A smoke run of tools/optimizer_suite.py: the first two states of every class,
and the gates of its ``compare`` command."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "optimizer_suite.py"
_SPEC = importlib.util.spec_from_file_location("optimizer_suite", TOOL)
suite = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(suite)


@pytest.fixture(scope="module")
def doc():
    q, helpers = suite.load(ROOT / "src")
    return suite.run(q, helpers, per_class=2)


def test_two_states_per_class(doc):
    q, helpers = suite.load(ROOT / "src")
    assert set(doc) == {"revision", "states", "summary"}
    assert list(doc["summary"]) == list(suite.classes(q, helpers))
    for row in doc["states"]:
        assert set(row) == {"class", "index", "d", "value", "batches", "starts", "converged"}
        assert row["converged"], row
    for name, summary in doc["summary"].items():
        assert set(summary) == {"states", "batches_median", "batches_max"}
        assert 1 <= summary["states"] <= 2, name
    report = suite.compare(doc, doc)
    assert "worst drop: 0 bits" in report and "largest gain: 0 bits" in report
    assert "FAIL:" not in report


def compare_exit(tmp_path, old, new):
    paths = []
    for name, content in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(content))
    return suite.main(["compare", *map(str, paths)])


def test_self_compare_exits_0(tmp_path, doc, capsys):
    assert compare_exit(tmp_path, doc, doc) == 0
    assert "FAIL:" not in capsys.readouterr().out


def dropped(doc):
    doc["states"][0]["value"] -= 2e-12


def unconverged(doc):
    doc["states"][0]["converged"] = False


def slower(doc):
    rows = [row for row in doc["states"] if row["class"] == "random"]
    for row in rows:
        row["batches"] += 2
    doc["summary"] = suite.summarize(doc["states"])


@pytest.mark.parametrize("doctor, message", [
    (dropped, "random #0 (d = 3): value dropped by 2e-12 bits"),
    (unconverged, "random #0 (d = 3): converged before, not now"),
    (slower, "random: median batches rose from"),
], ids=["drop", "convergence", "median"])
def test_each_gate_fails_the_compare(tmp_path, doc, capsys, doctor, message):
    new = copy.deepcopy(doc)
    doctor(new)
    assert compare_exit(tmp_path, doc, new) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1 and message in fails[0], fails


def test_compare_into_a_closed_pipe(tmp_path, doc):
    # As when piped into ``head``: the reader is gone before the report is
    # written.  The gates still set the exit status, and nothing is raised.
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    read, write = os.pipe()
    os.close(read)
    try:
        cp = subprocess.run([sys.executable, str(TOOL), "compare", str(path), str(path)],
                            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert cp.returncode == 0
    assert cp.stderr == ""
