"""The optimizer state suite: ``optimize_measurement`` on fixed-seed state classes.

Run the suite and write one JSON file, or compare two such files:

    python3 tools/optimizer_suite.py run --out OPT.json [--src PATH]
    python3 tools/optimizer_suite.py compare PARENT.json HEAD.json

``run`` imports ``qucorr`` from ``--src`` (a tree's ``src`` directory; this
tree's by default), so one checkout's tool can run a parent and a head on the
same states.  Every class draws its states from its own fixed seed.  Every
builder that is not a ``qucorr`` function lives in ``tests/states.py``, with
the tests' dense oracle.  For each state the file holds its class, index, d,
the value (a JSON float is its ``repr``), batches, starts and ``converged``,
and per class the batch median and maximum.  ``compare`` prints the worst
drop and the largest gain of the value, the states whose batch counts differ,
the states whose value (by ``float.hex``), batches, starts and ``converged``
are all identical, and the per-class median (max) batch table.  It then checks
the gates an optimizer change must keep against its parent, prints a ``FAIL:``
line for each one broken and exits 1 if any is: no value drops by more than
DROP_TOL bits, every search that converged in OLD converges in NEW, and no
class's median batch count rises by more than MEDIAN_RISE.  ``compare`` reads
the batch medians and maxima from the states, not from the file's summary,
which is there for other readers.

Exit status: 0 when the gates pass, 1 when a gate is broken, and 2 on bad
input (a file that cannot be read, is not JSON or is not a suite document, or
two files that hold different states), with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GAPS = (1e-4, -1e-4, 1e-3, -1e-3)
DROP_TOL = 1e-12
MEDIAN_RISE = 1


def load(src: Path):
    """``qucorr`` imported from ``src``, and the state builders of ``tests/states.py``
    run against it.  A process that already imported ``qucorr`` from elsewhere
    raises ``ValueError``."""
    src = src.resolve()
    sys.path.insert(0, str(src))
    q = importlib.import_module("qucorr")
    found = Path(q.__file__).resolve()
    if not found.is_relative_to(src):
        raise ValueError(f"qucorr is imported from {found.parent}, not from {src}")
    spec = importlib.util.spec_from_file_location(
        "_optimizer_suite_states", ROOT / "tests" / "states.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return q, helpers


def classes(q, helpers) -> dict:
    """Class name -> (seed, parameters cycled over the states, count, builder)."""

    mix = helpers.admixture

    def family(rng, d):
        return q.build_state(q.random_family_state(d, rng))

    def product(rng, d):
        return helpers.product_state(rng, d)[0]

    fixture = ROOT / "tests" / "fixtures" / "classical_diag_2x3.json"
    return {
        "random": (101, (3, 5, 8), 60, lambda rng, d: q.random_density_matrix(2, d, rng)),
        "random-d16": (116, (16,), 20, lambda rng, d: q.random_density_matrix(2, d, rng)),
        "rank1": (201, (3, 5, 8), 36, partial(helpers.rank_state, rank=1)),
        "rank2": (202, (3, 5, 8), 36, partial(helpers.rank_state, rank=2)),
        "rank3": (203, (3, 5, 8), 36, partial(helpers.rank_state, rank=3)),
        "family": (301, (3, 5, 8, 16), 40, family),
        "family+3%": (302, (3, 5, 8), 36, lambda rng, d: mix(family(rng, d), 0.03, rng)),
        "family+1e-6": (303, (3, 5, 8, 16), 40, lambda rng, d: mix(family(rng, d), 1e-6, rng)),
        "product": (401, (3, 4), 20, product),
        "product+1e-6": (402, (3, 4), 20, lambda rng, d: mix(product(rng, d), 1e-6, rng)),
        "x-crossover": (77, [(d, gap) for d in (3, 5) for gap in GAPS], 32,
                        lambda rng, dg: helpers.crossover_x_state(rng, *dg)),
        "rng788": (788, (8,), 1, lambda rng, d: q.random_density_matrix(2, d, rng)),
        "classical-diag-2x3": (0, (3,), 1, lambda rng, d: q.loads_density(fixture.read_text())),
    }


def summarize(states: list[dict]) -> dict:
    out = {}
    for name in dict.fromkeys(row["class"] for row in states):
        batches = [row["batches"] for row in states if row["class"] == name]
        out[name] = {"states": len(batches), "batches_median": float(np.median(batches)),
                     "batches_max": max(batches)}
    return out


def run(q, helpers) -> dict:
    """The suite's JSON document: every state of every class."""
    states = []
    for name, (seed, params, count, build) in classes(q, helpers).items():
        rng = np.random.default_rng(seed)
        for index in range(count):
            rho = build(rng, params[index % len(params)])
            result = q.optimize_measurement(rho)
            states.append({"class": name, "index": index, "d": rho.dim_b,
                           "value": result.value, "batches": result.batches,
                           "starts": result.starts, "converged": result.converged})
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=Path(q.__file__).parent)
    return {"revision": git.stdout.strip() if git.returncode == 0 else None,
            "states": states, "summary": summarize(states)}


def _pairs(old: dict, new: dict) -> list[tuple[dict, dict]]:
    key = lambda row: (row["class"], row["index"], row["d"])
    if [key(row) for row in old["states"]] != [key(row) for row in new["states"]]:
        raise ValueError("the two files hold different states")
    return list(zip(old["states"], new["states"]))


def failures(old: dict, new: dict) -> list[str]:
    """One ``FAIL:`` line for each gate that ``new`` breaks against ``old``."""
    out = []
    for a, b in _pairs(old, new):
        state = f"{a['class']} #{a['index']} (d = {a['d']})"
        if not b["value"] >= a["value"] - DROP_TOL:   # a NaN value fails too
            out.append(f"FAIL: {state}: value dropped by {a['value'] - b['value']:.3g} bits")
        if a["converged"] and not b["converged"]:
            out.append(f"FAIL: {state}: converged before, not now")
    new_summary = summarize(new["states"])
    for name, a in summarize(old["states"]).items():
        b = new_summary[name]
        if b["batches_median"] > a["batches_median"] + MEDIAN_RISE:
            out.append(f"FAIL: {name}: median batches rose from {a['batches_median']:g} "
                       f"to {b['batches_median']:g}")
    return out


def _same(a: dict, b: dict) -> bool:
    """Whether two rows of one state agree bit for bit: the value's ``float.hex``,
    batches, starts and converged."""
    cells = lambda row: (float(row["value"]).hex(), row["batches"], row["starts"],
                         row["converged"])
    return cells(a) == cells(b)


def compare(old: dict, new: dict) -> str:
    """A report of ``new`` against ``old``, which must hold the same states;
    ``main`` prints the ``failures`` lines after it."""
    pairs = _pairs(old, new)
    delta = [b["value"] - a["value"] for a, b in pairs]
    lines = [
        f"states: {len(pairs)}",
        f"worst drop: {max(0.0, -min(delta)):.3g} bits",
        f"largest gain: {max(0.0, max(delta)):.3g} bits",
        f"batch counts differ: {sum(a['batches'] != b['batches'] for a, b in pairs)} states",
        f"not converged: {sum(not a['converged'] for a, _ in pairs)} old, "
        f"{sum(not b['converged'] for _, b in pairs)} new",
        f"identical: {sum(_same(a, b) for a, b in pairs)} of {len(pairs)} states "
        "(value by float.hex, batches, starts, converged)",
        f"{'class':<20}{'states':>7}{'old batches':>14}{'new batches':>14}",
    ]
    cell = lambda row: f"{row['batches_median']:g} ({row['batches_max']})"
    new_summary = summarize(new["states"])
    for name, a in summarize(old["states"]).items():
        lines.append(f"{name:<20}{a['states']:>7}{cell(a):>14}{cell(new_summary[name]):>14}")
    return "\n".join(lines)


def _row_ok(row) -> bool:
    """A state row: ``class`` a string; ``index``, ``d``, ``batches`` and ``starts`` integers;
    ``value`` an int or float within the double range (not NaN, not a bool);
    ``converged`` a bool."""
    return (isinstance(row, dict)
            and all(k in row for k in ("class", "index", "d", "value", "batches", "starts",
                                       "converged"))
            and isinstance(row["class"], str)
            and all(type(row[k]) is int for k in ("index", "d", "batches", "starts"))
            and type(row["value"]) in (int, float) and abs(row["value"]) <= sys.float_info.max
            and type(row["converged"]) is bool)


def _read(path: Path) -> dict:
    """A suite document: a dict whose ``states`` is a non-empty list of rows
    that pass ``_row_ok``; anything else raises ``ValueError`` naming the file."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    rows = doc.get("states") if isinstance(doc, dict) else None
    if not (isinstance(rows, list) and rows and all(map(_row_ok, rows))):
        raise ValueError(f"{path} is not a suite document: it needs a non-empty list of "
                         "'states', each with a string class, integer index, d, batches and "
                         "starts, a finite number value and a true or false converged")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the suite and write its JSON")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--src", default=ROOT / "src", type=Path,
                   help="directory that holds the qucorr package")
    p = sub.add_parser("compare", help="compare two suite files")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        doc = run(*load(args.src))
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{len(doc['states'])} states written to {args.out}")
        return 0
    try:
        old, new = (_read(path) for path in (args.old, args.new))
        fails = failures(old, new)
        report = "\n".join([compare(old, new), *fails])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report, flush=True)
    except BrokenPipeError:
        # The reader left early (``| head``); send the rest, and the final
        # flush at exit, to /dev/null instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
