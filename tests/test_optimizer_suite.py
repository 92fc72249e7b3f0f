"""tools/optimizer_suite.py on this tree: the whole suite, once, against the newest
committed head run, and the gates of its ``compare`` command."""

import ast
import copy
import json
import math
import os
import shutil
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
    assert suite.failures(doc, doc) == []


def test_passes_the_gates_against_the_newest_committed_run(doc, suite):
    # An optimizer change must commit its OPT_N pair; without it, this tree's
    # run fails the gates against the head run of the highest N.
    heads = [path for path in suite.ROOT.glob("OPT_*.json") if not path.stem.endswith("_parent")]
    newest = max(heads, key=lambda path: int(path.stem.removeprefix("OPT_")))
    assert suite.failures(json.loads(newest.read_text()), doc) == []


def test_a_nan_value_fails_the_drop_gate(doc, suite):
    new = copy.deepcopy(doc)
    new["states"][0]["value"] = float("nan")
    fails = suite.failures(doc, new)
    assert len(fails) == 1 and fails[0].startswith("FAIL: random #0 (d = 3): value dropped"), fails


def compare_exit(suite, tmp_path, old, new):
    paths = []
    for name, content in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(content))
    return suite.main(["compare", *map(str, paths)])


def test_self_compare_exits_0(tmp_path, doc, suite, capsys):
    assert compare_exit(suite, tmp_path, doc, doc) == 0
    assert "FAIL:" not in capsys.readouterr().out


@pytest.mark.parametrize("cell, moved", [
    ("value", lambda value: math.nextafter(value, math.inf)),
    ("batches", lambda batches: batches + 1),
    ("starts", lambda starts: starts + 1),
    ("converged", lambda converged: not converged),
])
def test_compare_counts_the_identical_states(tmp_path, doc, suite, capsys, cell, moved):
    # A report line, not a gate: the files are read from JSON, so a value is
    # identical only if it round-trips to the same float.hex.
    m = len(doc["states"])
    line = "identical: {} of %d states (value by float.hex, batches, starts, converged)" % m
    compare_exit(suite, tmp_path, doc, doc)
    assert line.format(m) in capsys.readouterr().out.splitlines()
    new = copy.deepcopy(doc)
    new["states"][5][cell] = moved(new["states"][5][cell])
    compare_exit(suite, tmp_path, doc, new)
    assert line.format(m - 1) in capsys.readouterr().out.splitlines()


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
    assert compare_exit(suite, tmp_path, doc, new) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1 and message in fails[0], fails


def fewer_states(tmp_path, doc):
    path = tmp_path / "fewer.json"
    path.write_text(json.dumps(dict(doc, states=doc["states"][:-1])))
    return path


def not_json(tmp_path, doc):
    path = tmp_path / "broken.json"
    path.write_text('{"states": [')
    return path


def missing(tmp_path, doc):
    return tmp_path / "missing.json"


def other_json(content):
    """A JSON file that is not a suite document."""
    def write(tmp_path, doc):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(content))
        return path
    return write


def first_row(**cells):
    """The suite's own document with ``cells`` set in its first state."""
    def write(tmp_path, doc):
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(dict(doc, states=[{**doc["states"][0], **cells},
                                                     *doc["states"][1:]])))
        return path
    return write


def both_empty(tmp_path, doc):
    """An empty document, written over the old file too: two files that hold the
    same (no) states, so only the empty list itself is wrong."""
    (tmp_path / "old.json").write_text(json.dumps({"states": []}))
    return other_json({"states": []})(tmp_path, doc)


@pytest.mark.parametrize("new_file", [
    fewer_states, not_json, missing,
    other_json({}), other_json({"states": [{"class": "x"}]}), other_json([]),
    first_row(value="0.5"), first_row(converged="no"), first_row(value=float("nan")),
    first_row(starts=None), both_empty,
], ids=["different-states", "not-json", "missing", "no-states", "short-row", "list",
        "string-value", "string-converged", "nan-value", "null-starts", "empty-states"])
def test_compare_on_bad_input_exits_2(tmp_path, doc, suite, capsys, new_file):
    # Exit 1 means a broken gate, so bad input must not end in a traceback's 1.
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert suite.main(["compare", str(old), str(new_file(tmp_path, doc))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    # A bad file is named; two good files that hold different states are not.
    assert new_file is fewer_states or str(tmp_path) in err, err


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


def run_with_suite(suite, code, *args):
    """``code`` in a fresh interpreter, with the tool loaded as ``suite``."""
    prelude = ("import importlib.util, sys\n"
               "from pathlib import Path\n"
               "spec = importlib.util.spec_from_file_location('suite', sys.argv[1])\n"
               "suite = importlib.util.module_from_spec(spec)\n"
               "spec.loader.exec_module(suite)\n")
    return subprocess.run([sys.executable, "-c", prelude + code, suite.__file__, *args],
                          capture_output=True, text=True, timeout=120)


def test_load_refuses_a_package_from_another_tree(tmp_path, suite):
    # The second tree's ``import qucorr`` would return the first tree's cached package.
    other = tmp_path / "src"
    shutil.copytree(suite.ROOT / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    cp = run_with_suite(suite, (
        "q, _ = suite.load(suite.ROOT / 'src')\n"
        "print(Path(q.__file__).parent)\n"
        "try:\n"
        "    suite.load(Path(sys.argv[2]))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"), str(other))
    assert cp.returncode == 0, cp.stderr
    first, *error = cp.stdout.splitlines()
    assert first == str(suite.ROOT / "src" / "qucorr")
    assert error == [f"qucorr is imported from {first}, not from {other.resolve()}"]


def test_the_suite_builds_every_class_without_pytest(suite):
    # The suite runs other trees' ``qucorr``; its state builders come from a
    # plain module, not from a test module and all that one imports.
    cp = run_with_suite(suite, (
        "sys.modules['pytest'] = None\n"
        "import numpy as np\n"
        "q, helpers = suite.load(suite.ROOT / 'src')\n"
        "for name, (seed, params, _, build) in suite.classes(q, helpers).items():\n"
        "    print(name, build(np.random.default_rng(seed), params[0]).dim_b)\n"))
    assert cp.returncode == 0, cp.stderr
    names = [line.split()[0] for line in cp.stdout.splitlines()]
    assert names == list(suite.classes(*suite.load(suite.ROOT / "src")))


def test_the_suite_reaches_the_oracle_without_pytest(suite):
    # The dense oracle lives with the builders, so the tool can check a suite
    # state against it: here the first x-crossover state.
    cp = run_with_suite(suite, (
        "sys.modules['pytest'] = None\n"
        "import numpy as np\n"
        "q, helpers = suite.load(suite.ROOT / 'src')\n"
        "seed, params, _, build = suite.classes(q, helpers)['x-crossover']\n"
        "rho = build(np.random.default_rng(seed), params[0])\n"
        "print(helpers.oracle_classical_correlation(rho), q.optimize_measurement(rho).value)\n"))
    assert cp.returncode == 0, cp.stderr
    oracle, value = map(float, cp.stdout.split())
    assert abs(oracle - value) <= 1e-12


def test_states_module_imports_only_numpy_and_public_names(suite):
    import qucorr

    tree = ast.parse((suite.ROOT / "tests" / "states.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.name, set()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
    assert set(imported) <= {"numpy", "qucorr"}
    assert imported["qucorr"] <= set(qucorr.__all__)
