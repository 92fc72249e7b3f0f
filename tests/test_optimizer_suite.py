"""tools/optimizer_suite.py on this tree: the whole suite, once, against the newest
committed head run, and the gates of its ``compare`` command."""

import copy
import json
import os
import subprocess
import sys

import pytest


@pytest.fixture(scope="module")
def doc(suite):
    return suite.run(*suite.load(suite.ROOT / "src"))


def test_every_state_of_every_class(doc, suite):
    classes = suite.classes(*suite.load(suite.ROOT / "src"))
    assert set(doc) == {"revision", "states", "summary"}
    assert list(doc["summary"]) == list(classes)
    for row in doc["states"]:
        assert set(row) == {"class", "index", "d", "value", "batches", "starts", "converged"}
        assert row["converged"], row
    for name, summary in doc["summary"].items():
        assert set(summary) == {"states", "batches_median", "batches_max"}
        assert summary["states"] == classes[name][2], name
    report = suite.compare(doc, doc)
    assert "worst drop: 0 bits" in report and "largest gain: 0 bits" in report
    assert "FAIL:" not in report


def test_passes_the_gates_against_the_newest_committed_run(doc, suite):
    # An optimizer change must commit its OPT_N pair; without it, this tree's
    # run fails the gates against the head run of the highest N.
    heads = [path for path in suite.ROOT.glob("OPT_*.json") if not path.stem.endswith("_parent")]
    newest = max(heads, key=lambda path: int(path.stem.removeprefix("OPT_")))
    assert suite.failures(json.loads(newest.read_text()), doc) == []


def compare_exit(suite, tmp_path, old, new):
    paths = []
    for name, content in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(content))
    return suite.main(["compare", *map(str, paths)])


def test_self_compare_exits_0(tmp_path, doc, suite, capsys):
    assert compare_exit(suite, tmp_path, doc, doc) == 0
    assert "FAIL:" not in capsys.readouterr().out


def dropped(doc):
    doc["states"][0]["value"] -= 2e-12


def unconverged(doc):
    doc["states"][0]["converged"] = False


def slower(doc):
    rows = [row for row in doc["states"] if row["class"] == "random"]
    for row in rows:
        row["batches"] += 2


@pytest.mark.parametrize("doctor, message", [
    (dropped, "random #0 (d = 3): value dropped by 2e-12 bits"),
    (unconverged, "random #0 (d = 3): converged before, not now"),
    (slower, "random: median batches rose from"),
], ids=["drop", "convergence", "median"])
def test_each_gate_fails_the_compare(tmp_path, doc, suite, capsys, doctor, message):
    new = copy.deepcopy(doc)
    doctor(new)
    new["summary"] = suite.summarize(new["states"])
    assert compare_exit(suite, tmp_path, doc, new) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1 and message in fails[0], fails


def test_compare_into_a_closed_pipe(tmp_path, doc, suite):
    # As when piped into ``head``: the reader is gone before the report is
    # written.  The gates still set the exit status, and nothing is raised.
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    read, write = os.pipe()
    os.close(read)
    try:
        cp = subprocess.run([sys.executable, suite.__file__, "compare", str(path), str(path)],
                            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert cp.returncode == 0
    assert cp.stderr == ""
