"""The four benchmark workloads: seeded input lists, one timed op each, and oracles.

A workload holds ``items``, a list built from the seed before timing starts,
ordered so that every ``round_size`` consecutive items form one round (one
item per qudit dimension, or one per CLI subcommand).  ``op(item, call)`` is
the timed operation; it reaches the library only through ``call(name, fn,
*args)``, where ``name`` is ``<layer>.<function>``, so a traced run can put a
span around each call.  ``check(item, result)`` is the untimed oracle and
raises :class:`OracleMismatch` on a wrong output.

``skew`` is added to every oracle reference value.  It is 0 in real runs; the
self-check sets it to corrupt the oracles on purpose.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

import qucorr as q

DIMS = (3, 5, 8, 16)
CLI_DIM = 8
CLI_SUBCOMMANDS = ("corr", "corr_numeric", "sweep", "twirl", "discord", "check")
CLI_TIMEOUT_S = 120.0
SWEEP_STEPS = 200
PROBES_PER_STATE = 8

# Tolerances, unchanged from the tests: criterion 06 and criterion 08 in
# tests/test_acceptance.py, and the supremum / discord-sign checks in
# tests/test_measurement.py.
CLOSED_FORM_TOL = 1e-7
TWIRL_RESIDUAL_TOL = 1e-10
TWIRL_GAMMA_TOL = 1e-10
TWIRL_NEGATIVITY_SLACK = 1e-9
PROBE_SLACK = 1e-12
DISCORD_SLACK = 1e-9


class OracleMismatch(Exception):
    """An op returned a value its oracle rejects."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleMismatch(message)


def _fmt(x: float) -> str:
    # The CLI prints 12 significant digits; compare at exactly that precision.
    return format(float(x), ".12g")


def _entropy_b(matrix: np.ndarray, d: int) -> float:
    """S(rho_B) in bits, computed with numpy alone."""
    marginal = np.einsum('ijil->jl', np.asarray(matrix).reshape(2, d, 2, d))
    lam = np.clip(np.linalg.eigvalsh(marginal), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


class FamilyOptimize:
    """build_state + classical_correlation_numeric on random family members."""

    name = "family-optimize"
    round_size = len(DIMS)

    def __init__(self, rng: np.random.Generator, rounds: int, skew: float):
        self.skew = skew
        self.items = [q.random_family_state(d, rng) for _ in range(rounds) for d in DIMS]

    def op(self, s, call):
        rho = call("family.build_state", q.build_state, s)
        c_num, _ = call("measurement.classical_correlation_numeric",
                        q.classical_correlation_numeric, rho)
        return c_num

    def check(self, s, c_num) -> None:
        want = q.classical_correlation(s) + self.skew
        _require(abs(c_num - want) < CLOSED_FORM_TOL,
                 f"d={s.d}: optimizer {c_num!r} vs closed form {want!r}")


class GenericDiscord:
    """The `discord` subcommand in-process, on pre-serialized random full-rank states."""

    name = "generic-discord"
    round_size = len(DIMS)

    def __init__(self, rng: np.random.Generator, rounds: int, skew: float):
        self.skew = skew
        self.items = []
        for _ in range(rounds):
            for d in DIMS:
                rho = q.random_density_matrix(2, d, rng)
                axes = [q.random_axis(rng) for _ in range(PROBES_PER_STATE)]
                self.items.append((q.dumps_density(rho), rho, axes))

    def op(self, item, call):
        doc = item[0]
        rho = call("statefile.loads_density", q.loads_density, doc)
        mutual = call("operators.quantum_mutual_information", q.quantum_mutual_information, rho)
        c_num, _ = call("measurement.classical_correlation_numeric",
                        q.classical_correlation_numeric, rho)
        call("operators.negativity_trace_norm", q.negativity_trace_norm, rho)
        call("operators.commutator_condition", q.commutator_condition, rho)
        return rho, mutual, c_num

    def check(self, item, result) -> None:
        _, original, axes = item
        rho, mutual, c_num = result
        d = original.dim_b
        _require(np.array_equal(rho.matrix, original.matrix),
                 f"d={d}: loads_density did not reproduce the serialized state")
        s_b = _entropy_b(original.matrix, d)
        _require(-PROBE_SLACK <= c_num <= s_b + PROBE_SLACK,
                 f"d={d}: C={c_num!r} outside [0, S(rho_B)={s_b!r}]")
        _require(mutual - c_num >= -DISCORD_SLACK, f"d={d}: discord {mutual - c_num!r} < 0")
        best = max(q.measured_mutual_information(original, axis) for axis in axes)
        _require(c_num >= best + self.skew - PROBE_SLACK,
                 f"d={d}: C={c_num!r} below a single-axis probe {best + self.skew!r}")


class TwirlPipeline:
    """twirl, the criterion-08 checks, dumps_density and correlation_report."""

    name = "twirl-pipeline"
    round_size = len(DIMS)

    def __init__(self, rng: np.random.Generator, rounds: int, skew: float):
        self.skew = skew
        self.items = [q.random_density_matrix(2, d, rng) for _ in range(rounds) for d in DIMS]

    def op(self, rho, call):
        rep = call("twirl.twirl", q.twirl, rho)
        gamma_in = call("family.singlet_weight", q.singlet_weight, rho)
        neg_in = call("operators.negativity_trace_norm", q.negativity_trace_norm, rho)
        neg_out = call("operators.negativity_trace_norm", q.negativity_trace_norm, rep.output)
        doc = call("statefile.dumps_density", q.dumps_density, rep.output)
        report = call("family.correlation_report",
                      lambda: q.correlation_report(q.TwoParamState(rho.dim_b, rep.alpha, rep.gamma)))
        return rep, gamma_in, neg_in, neg_out, doc, report

    def check(self, rho, result) -> None:
        rep, gamma_in, neg_in, neg_out, doc, _ = result
        d = rho.dim_b
        _require(rep.residual < TWIRL_RESIDUAL_TOL, f"d={d}: residual {rep.residual!r}")
        _require(abs(rep.gamma - (gamma_in + self.skew)) < TWIRL_GAMMA_TOL,
                 f"d={d}: gamma {rep.gamma!r} vs singlet weight {gamma_in + self.skew!r}")
        _require(neg_out <= neg_in + TWIRL_NEGATIVITY_SLACK,
                 f"d={d}: negativity rose from {neg_in!r} to {neg_out!r}")
        _require(np.array_equal(q.loads_density(doc).matrix, rep.output.matrix),
                 f"d={d}: dumps_density does not round-trip the twirled state")


class CliCase:
    """One `python -m qucorr` invocation and what the oracle needs to check it."""

    def __init__(self, sub: str, argv: list[str], **ctx):
        self.sub = sub
        self.argv = argv
        self.ctx = ctx


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so import cost is part of the time."""
    return subprocess.run([sys.executable, "-m", "qucorr", *argv], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S, stdin=subprocess.DEVNULL)


def _parse_report(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


class CliCold:
    """Each CLI subcommand in turn, each in a fresh process, on files made in setup."""

    name = "cli-cold"
    round_size = len(CLI_SUBCOMMANDS)

    def __init__(self, rng: np.random.Generator, rounds: int, skew: float, workdir: Path):
        self.skew = skew
        self.items = []
        d = CLI_DIM
        workdir.mkdir(parents=True, exist_ok=True)
        for r in range(rounds):
            files = {}
            for sub in ("twirl", "discord", "check"):
                rho = q.random_density_matrix(2, d, rng)
                path = workdir / f"{sub}-{r}.json"
                path.write_text(q.dumps_density(rho), encoding="utf-8")
                files[sub] = (str(path), rho)
            s_corr, s_num = q.random_family_state(d, rng), q.random_family_state(d, rng)
            alpha = float(rng.uniform(0.0, 1.0 / (2.0 * (d - 2))))
            twirl_out = str(workdir / f"twirl-out-{r}.json")
            self.items += [
                CliCase("corr", ["corr", "--dim", str(d), "--alpha", repr(s_corr.alpha),
                                 "--gamma", repr(s_corr.gamma)], state=s_corr),
                CliCase("corr_numeric", ["corr", "--numeric", "--dim", str(d),
                                         "--alpha", repr(s_num.alpha),
                                         "--gamma", repr(s_num.gamma)], state=s_num),
                CliCase("sweep", ["sweep", "--dim", str(d), "--fix", f"alpha={alpha!r}",
                                  "--vary", "gamma", "--from", "0", "--to", "1",
                                  "--steps", str(SWEEP_STEPS)], alpha=alpha),
                CliCase("twirl", ["twirl", "--in", files["twirl"][0], "--out", twirl_out],
                        rho=files["twirl"][1], out=twirl_out),
                CliCase("discord", ["discord", "--in", files["discord"][0]],
                        rho=files["discord"][1]),
                CliCase("check", ["check", "--in", files["check"][0]], rho=files["check"][1]),
            ]

    def op(self, case: CliCase, call):
        return call("cli.python_m_qucorr", run_cli, case.argv)

    def check(self, case: CliCase, cp: subprocess.CompletedProcess) -> None:
        _require(cp.returncode == 0,
                 f"{case.sub}: exit code {cp.returncode}: {cp.stderr.strip()[-300:]}")
        if case.sub == "sweep":
            self._check_sweep(case, cp.stdout)
            return
        got = _parse_report(cp.stdout)
        for key, value in self._expected(case).items():
            want = _fmt(value + self.skew)
            _require(got.get(key) == want, f"{case.sub}: {key} = {got.get(key)!r}, library {want!r}")

    def _expected(self, case: CliCase) -> dict[str, float]:
        """Library values for every number the subcommand prints and the library defines."""
        ctx = case.ctx
        if case.sub in ("corr", "corr_numeric"):
            s = ctx["state"]
            report = q.correlation_report(s)
            want = {"alpha": s.alpha, "beta": s.beta, "gamma": s.gamma,
                    "mutual_info": report.mutual_info, "classical": report.classical,
                    "discord": report.discord, "negativity": report.negativity}
            if case.sub == "corr_numeric":
                rho = q.build_state(s)
                c_num, _ = q.classical_correlation_numeric(rho)
                want["classical_numeric"] = c_num
                want["discord_numeric"] = q.quantum_mutual_information(rho) - c_num
            return want
        rho = ctx["rho"]
        if case.sub == "twirl":
            rep = q.twirl(rho)
            written = Path(ctx["out"]).read_text(encoding="utf-8")
            _require(written == q.dumps_density(rep.output), "twirl: output file differs")
            return {"alpha": rep.alpha, "gamma": rep.gamma, "residual": rep.residual}
        if case.sub == "discord":
            # The subcommand's default optimizer settings: 256 seeded random probes.
            config = q.OptimizerConfig(random_probes=256, seed=0)
            c_num, _ = q.classical_correlation_numeric(rho, config)
            mutual = q.quantum_mutual_information(rho)
            return {"mutual_info": mutual, "classical_numeric": c_num,
                    "discord_numeric": mutual - c_num,
                    "negativity": q.negativity_trace_norm(rho),
                    "commutator_norm": q.commutator_condition(rho)}
        _, residual = q.nearest_family_member(rho)
        return {"min_eigenvalue": np.linalg.eigvalsh(rho.matrix)[0],
                "family_residual": residual,
                "negativity": q.negativity_trace_norm(rho)}

    def _check_sweep(self, case: CliCase, stdout: str) -> None:
        d, alpha = CLI_DIM, case.ctx["alpha"]
        lines = stdout.strip().splitlines()
        header = lines[0].split(",")
        _require(len(lines) == SWEEP_STEPS + 1, f"sweep: {len(lines) - 1} rows")
        for x, line in zip(np.linspace(0.0, 1.0, SWEEP_STEPS), lines[1:]):
            gamma = float(x)
            want = {"param": gamma, "alpha": alpha, "gamma": gamma,
                    "beta": (1.0 - 2.0 * (d - 2) * alpha - gamma) / 3.0}
            try:
                report = q.correlation_report(q.TwoParamState(d, alpha, gamma))
                want.update(classical=report.classical, discord=report.discord,
                            mutual_info=report.mutual_info, negativity=report.negativity)
                invalid = "0"
            except q.ParameterOutOfRangeError:
                invalid = "1"
            row = dict(zip(header, line.split(",")))
            _require(row.get("invalid") == invalid, f"sweep: gamma={gamma!r} validity")
            for key, value in want.items():
                expect = _fmt(value + self.skew)
                _require(row.get(key) == expect,
                         f"sweep: gamma={gamma!r} {key} = {row.get(key)!r}, library {expect!r}")


def make_workload(name: str, rng: np.random.Generator, rounds: int, skew: float,
                  workdir: Path):
    if name == CliCold.name:
        return CliCold(rng, rounds, skew, workdir)
    for cls in (FamilyOptimize, GenericDiscord, TwirlPipeline):
        if name == cls.name:
            return cls(rng, rounds, skew)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (FamilyOptimize.name, GenericDiscord.name, TwirlPipeline.name, CliCold.name)
