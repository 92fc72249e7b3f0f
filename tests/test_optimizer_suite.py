"""A smoke run of tools/optimizer_suite.py: the first two states of every class."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("optimizer_suite",
                                               ROOT / "tools" / "optimizer_suite.py")
suite = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(suite)


def test_two_states_per_class():
    q, helpers = suite.load(ROOT / "src")
    doc = suite.run(q, helpers, per_class=2)
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
