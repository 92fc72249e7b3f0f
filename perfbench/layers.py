"""Per-layer timings: medians of repeated calls into each module's public functions.

Every function is timed at each d in DIMS on seeded inputs, with a fixed
repeat count so that both commits of a comparison make the same calls.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
import numpy as np

import qucorr as q
from qucorr import cli

from workloads import CLI_SUBCOMMANDS, CLI_TIMEOUT_S, DIMS, CliCase

CHEAP_REPS = 31
OPTIMIZER_REPS = 5
TWIRL_REPS = 11
IMPORT_REPS = 5
CLI_MAIN_REPS = 3


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def function_metrics(rng: np.random.Generator, smoke: bool) -> dict[str, tuple[float, str]]:
    """``<layer>.<function>[.<variant>].d<d>_ms`` for every d, plus ``statefile.doc_bytes.d<d>``."""
    out: dict[str, tuple[float, str]] = {}
    for d in DIMS:
        rho = q.random_density_matrix(2, d, rng)
        s = q.random_family_state(d, rng)
        member = q.build_state(s)
        axis = q.random_axis(rng)
        doc = q.dumps_density(rho)
        cases = (
            ("operators.validate_density", lambda: q.validate_density(rho.matrix, 2, d), CHEAP_REPS),
            ("operators.partial_trace_a", lambda: q.partial_trace_a(rho), CHEAP_REPS),
            ("operators.von_neumann_entropy", lambda: q.von_neumann_entropy(rho.matrix), CHEAP_REPS),
            ("operators.negativity_trace_norm", lambda: q.negativity_trace_norm(rho), CHEAP_REPS),
            ("family.build_state", lambda: q.build_state(s), CHEAP_REPS),
            ("family.nearest_family_member", lambda: q.nearest_family_member(rho), CHEAP_REPS),
            ("family.correlation_report", lambda: q.correlation_report(s), CHEAP_REPS),
            ("measurement.classical_correlation_numeric.family",
             lambda: q.classical_correlation_numeric(member), OPTIMIZER_REPS),
            ("measurement.classical_correlation_numeric.generic",
             lambda: q.classical_correlation_numeric(rho), OPTIMIZER_REPS),
            ("measurement.conditional_entropy", lambda: q.conditional_entropy(rho, axis), CHEAP_REPS),
            ("twirl.twirl", lambda: q.twirl(rho), TWIRL_REPS),
            ("statefile.dumps_density", lambda: q.dumps_density(rho), CHEAP_REPS),
            ("statefile.loads_density", lambda: q.loads_density(doc), CHEAP_REPS),
        )
        for name, fn, reps in cases:
            out[f"{name}.d{d}_ms"] = (_median_ms(fn, 1 if smoke else reps), "ms")
        out[f"statefile.doc_bytes.d{d}"] = (float(len(doc.encode("utf-8"))), "bytes")
    return out


def cli_metrics(cases: list[CliCase], smoke: bool) -> dict[str, tuple[float, str]]:
    """``cli.import_s`` from fresh interpreters, and ``cli.main.<subcommand>_ms``:
    the CLI entry point called in-process on the first case of each subcommand."""
    out: dict[str, tuple[float, str]] = {}
    imports = []
    for _ in range(1 if smoke else IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qucorr"], check=True,
                       timeout=CLI_TIMEOUT_S, stdin=subprocess.DEVNULL)
        imports.append(time.perf_counter() - t0)
    out["cli.import_s"] = (statistics.median(imports), "s")
    for case in cases[:len(CLI_SUBCOMMANDS)]:
        def run_main(argv=case.argv):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"cli.main({argv}) failed")
        out[f"cli.main.{case.sub}_ms"] = (_median_ms(run_main, 1 if smoke else CLI_MAIN_REPS), "ms")
    return out
