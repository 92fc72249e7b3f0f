"""One benchmark run of one workload, in a fresh process.

Started by run.py, which puts the checkout's ``src`` on PYTHONPATH.  The worker
builds the seeded input list, prints ``ready`` (run.py times set-up up to
that line), runs the closed loop, and prints a context line and then the
result line.  With ``--setup-only`` it stops after ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import qucorr as q

import layers
from run import THREAD_DEFAULTS
from speed import REFERENCE_UNITS_PER_S, SpeedProbe
from workloads import CLI_SUBCOMMANDS, WORKLOADS, CliCold, make_workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
LAYERS = ("operators", "family", "measurement", "twirl", "statefile", "cli")
# Input-list length in rounds.  A run that reaches the end of its list starts
# again from the top, so a faster commit still repeats the same inputs.
ROUNDS = {"family-optimize": 128, "generic-discord": 32, "twirl-pipeline": 128, "cli-cold": 8}
# Rounds of the six cold subcommands behind the cli.cold.* metrics of a traced run.
COLD_ROUNDS = 3
SKEW = 1.0
MAX_LOGGED_FAILURES = 5


def _direct(name, fn, *args):
    return fn(*args)


class Tracer:
    """In-memory spans: one per op and one per benchmark-side call into a layer."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "op": self._op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        self._op += 1
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)

    def call(self, name, fn, *args):
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Self time per op and share of op time for every layer."""
        covered = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        own = defaultdict(float)
        op_time, n_ops = 0.0, 0
        for span in self.spans:
            duration = span["end"] - span["start"]
            if span["name"] == "op":
                op_time += duration
                n_ops += 1
            else:
                own[span["name"].split(".")[0]] += duration - covered[span["id"]]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = (1e3 * own[layer] / n_ops, "ms")
            out[f"{layer}.share"] = (own[layer] / op_time, "share")
        return out


def run_ops(workload, call=_direct, op_span=contextlib.nullcontext, budget_s=None,
            rounds=None, probe: SpeedProbe | None = None) -> list[tuple[str | None, float, bool]]:
    """Closed loop over the input list from its start, in whole rounds.

    Stops after ``rounds`` rounds, or at the first round boundary after
    ``budget_s`` seconds.  Returns (subcommand, op seconds, passed) per op;
    the oracle check is not part of the op time.  With a ``probe``, its
    reference work runs after each op, outside the op time.
    """
    results = []
    start = time.perf_counter()
    busy = 0.0
    i = 0
    while ((budget_s is None or time.perf_counter() - start < budget_s)
           and (rounds is None or i < rounds * workload.round_size)):
        for _ in range(workload.round_size):
            item = workload.items[i % len(workload.items)]
            i += 1
            t0 = time.perf_counter()
            elapsed = None
            try:
                with op_span():
                    result = workload.op(item, call)
                elapsed = time.perf_counter() - t0
                workload.check(item, result)
                passed = True
            except Exception as exc:  # a failed op is counted and the run goes on
                elapsed = elapsed if elapsed is not None else time.perf_counter() - t0
                passed = False
                if sum(not r[2] for r in results) < MAX_LOGGED_FAILURES:
                    print(f"{workload.name}: op {i - 1} failed: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
            results.append((getattr(item, "sub", None), elapsed, passed))
            if probe is not None:
                busy += elapsed
                probe.keep_up(busy)
    return results


def _busy(results) -> float:
    return sum(r[1] for r in results)


def end_to_end_metrics(results, peak_rss_mb: float,
                       factor: float = 1.0) -> dict[str, tuple[float, str]]:
    """Op timings are wall times multiplied by ``factor`` (see speed.py)."""
    passed = sum(ok for _, _, ok in results)
    times_ms = ([1e3 * t * factor for _, t, ok in results if ok]
                or [1e3 * t * factor for _, t, _ in results])
    p90 = statistics.quantiles(times_ms, n=10)[-1] if len(times_ms) > 1 else times_ms[0]
    return {
        "ops_per_s": (passed / (_busy(results) * factor), "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p90": (p90, "ms"),
        "ok_share": (passed / len(results), "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def cold_cli_metrics(results) -> dict[str, tuple[float, str]]:
    """``cli.cold.<subcommand>_ms``: median wall time of a fresh `python -m qucorr` run."""
    out = {}
    for sub in CLI_SUBCOMMANDS:
        mine = [r for r in results if r[0] == sub]
        times = [1e3 * t for _, t, ok in mine if ok] or [1e3 * t for _, t, _ in mine]
        out[f"cli.cold.{sub}_ms"] = (statistics.median(times), "ms")
    return out


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from .git directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(root: Path) -> str:
    """Digest of the package sources, which identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_context() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": _src_sha256(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_DEFAULTS},
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true",
                   help="self-check: one-round input lists, one repeat per timing")
    p.add_argument("--corrupt-oracle", action="store_true",
                   help="self-check: shift every oracle reference value")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not Path(q.__file__).resolve().is_relative_to(src.resolve()):
        print(f"qucorr was imported from {q.__file__}, not from {src}", file=sys.stderr)
        return 2
    skew = SKEW if args.corrupt_oracle else 0.0
    rounds = 1 if args.smoke else ROUNDS[args.workload]
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workload = make_workload(args.workload, np.random.default_rng(args.seed), rounds,
                                 skew, workdir / "inputs")
        print("ready", flush=True)
        if args.setup_only:
            return 0
        loop = {"rounds": 1} if args.smoke else {"budget_s": args.seconds / (1 + args.trace)}
        if args.trace:
            untraced = run_ops(workload, **loop)
            tracer = Tracer()
            traced = run_ops(workload, tracer.call, tracer.op,
                             rounds=len(untraced) // workload.round_size)
            metrics = tracer.layer_metrics()
            metrics["trace.overhead"] = (_busy(traced) / _busy(untraced), "ratio")
            layer_rng = np.random.default_rng([args.seed, 1])
            metrics.update(layers.function_metrics(layer_rng, args.smoke))
            cold_rounds = 1 if args.smoke else COLD_ROUNDS
            cold_cli = CliCold(layer_rng, cold_rounds, skew, workdir / "cold")
            metrics.update(layers.cli_metrics(cold_cli.items, args.smoke))
            cold = run_ops(cold_cli, rounds=cold_rounds)
            metrics.update(cold_cli_metrics(cold))
            results = untraced + traced + cold
            run_context = {}
        else:
            probe = SpeedProbe()
            results = run_ops(workload, probe=probe, **loop)
            who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCold) else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics = end_to_end_metrics(results, peak_rss_mb, probe.factor())
            wall = end_to_end_metrics(results, peak_rss_mb)
            run_context = {
                "speed": {"factor": probe.factor(), "units_per_s": probe.units_per_s(),
                          "reference_units_per_s": REFERENCE_UNITS_PER_S, "units": probe.units},
                "wall_metrics": {k: v for k, (v, _) in wall.items()},
            }
        context = {**machine_context(), **run_context}
        printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if args.trace:
            OUT.mkdir(parents=True, exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
            trace_file.write_text(json.dumps({
                "context": context, "workload": args.workload, "seed": args.seed,
                "spans": tracer.spans, "metrics": printed}), encoding="utf-8")
        failed = sum(not ok for _, _, ok in results)
        print(json.dumps({"context": context}))
        print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                          "metrics": printed}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
