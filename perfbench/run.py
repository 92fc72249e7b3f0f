"""qucorr benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the package is imported from
``src/`` there, as a user of the checkout would import it.  Workloads:
family-optimize, generic-discord, twirl-pipeline, cli-cold (see README.md).

This launcher needs only the standard library.  It starts worker.py in
SETUP_RUNS fresh processes, so set-up is timed several times: all but the
last stop once their inputs are built, and the last runs the measured loop.
A traced run skips the extra set-ups, since it reports no set-up time.
End-to-end timings, set-up time included, are scaled by the speed factor the
worker measured during its loop (see speed.py); the wall-clock values are in
the context line as ``wall_metrics``.  With
``--trace 0`` the last line printed carries the end-to-end metrics, with
``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170.0
# One BLAS thread: a single-client closed loop on small matrices, steadier
# timings on a shared machine.  An explicit setting in the environment wins.
THREAD_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key, value in THREAD_DEFAULTS.items():
        env.setdefault(key, value)
    return env


def run_worker(argv: list[str], env: dict[str, str], deadline: float) -> tuple[float, list[str]]:
    """Run worker.py; return seconds from start to its ``ready`` line and its other lines."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, env=env, cwd=ROOT, start_new_session=True)

    def kill_group() -> None:
        # The worker's own CLI subprocesses share its process group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), kill_group)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise SystemExit(proc.returncode or 1)
    return ready, lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (ROOT / "src" / "qucorr" / "__init__.py").is_file():
        print(f"no qucorr sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += ["--smoke"] * args.smoke + ["--corrupt-oracle"] * args.corrupt_oracle
    env = _worker_env()
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUP_RUNS - 1):
            setups.append(run_worker(argv + ["--setup-only"], env, deadline)[0])
    ready, lines = run_worker(argv, env, deadline)
    setups.append(ready)

    result = json.loads(lines[-1])
    if not args.trace:
        # The worker's context line, just before the result, carries the speed factor.
        context = json.loads(lines[-2])["context"]
        setup_s = statistics.median(setups)
        context["wall_metrics"]["setup_s"] = setup_s
        lines[-2] = json.dumps({"context": context})
        result["metrics"]["setup_s"] = {"value": setup_s * context["speed"]["factor"], "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
