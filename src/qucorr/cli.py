"""Command-line interface.

Subcommands
-----------
corr     closed-form correlation report for one family member, optionally
         cross-checked by the numeric optimizer
sweep    CSV scan of the family along one parameter with a second one held fixed
twirl    map a state file onto the family by the twirling projection
discord  numeric correlation report for an arbitrary 2 x d state file
check    validation, family membership and PPT status of a state file

Exit codes: 0 success, 2 user/input error.  This is the only layer that
touches files; everything else works on in-memory values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import family as fam
from .measurement import OptimizerConfig, classical_correlation_numeric
from .operators import (
    VALIDATION_TOL,
    DensityMatrix,
    MatrixValidationError,
    _hermiticity_residual,
    commutator_condition,
    negativity_trace_norm,
    partial_transpose_a,
    quantum_mutual_information,
)
from .statefile import StateFormatError, dumps_density, loads_density
from .twirl import twirl

CSV_HEADER = "param,alpha,beta,gamma,classical,discord,mutual_info,negativity,invalid"

_PARAM_NAMES = ("alpha", "beta", "gamma")


def _fmt(x: float) -> str:
    # 12 significant digits, locale-independent: stable golden files.
    return format(float(x), ".12g")


def _read_state(path: str) -> DensityMatrix:
    text = Path(path).read_text(encoding="utf-8")
    return loads_density(text)


def _solve_point(d: int, known: dict[str, float]) -> tuple[float, float, float]:
    """Complete (alpha, beta, gamma) from two known values via the trace constraint."""
    if "alpha" in known and "gamma" in known:
        alpha, gamma = known["alpha"], known["gamma"]
        beta = (1.0 - 2.0 * (d - 2) * alpha - gamma) / 3.0
    elif "beta" in known and "gamma" in known:
        beta, gamma = known["beta"], known["gamma"]
        alpha = (1.0 - 3.0 * beta - gamma) / (2.0 * (d - 2))
    else:
        alpha, beta = known["alpha"], known["beta"]
        gamma = 1.0 - 2.0 * (d - 2) * alpha - 3.0 * beta
    return alpha, beta, gamma


def cmd_corr(args: argparse.Namespace) -> int:
    s = fam.TwoParamState(d=args.dim, alpha=args.alpha, gamma=args.gamma)
    report = fam.correlation_report(s)
    print(f"d = {s.d}")
    print(f"alpha = {_fmt(s.alpha)}")
    print(f"beta = {_fmt(s.beta)}")
    print(f"gamma = {_fmt(s.gamma)}")
    print(f"mutual_info = {_fmt(report.mutual_info)}")
    print(f"classical = {_fmt(report.classical)}")
    print(f"discord = {_fmt(report.discord)}")
    print(f"negativity = {_fmt(report.negativity)}")
    if args.numeric:
        rho = fam.build_state(s)
        c_num, axis = classical_correlation_numeric(rho)
        q_num = quantum_mutual_information(rho) - c_num
        print(f"classical_numeric = {_fmt(c_num)}")
        print(f"discord_numeric = {_fmt(q_num)}")
        print(f"delta_classical = {_fmt(abs(c_num - report.classical))}")
        print(f"delta_discord = {_fmt(abs(q_num - report.discord))}")
        print(f"axis = ({_fmt(axis.t)}, {_fmt(axis.y1)}, {_fmt(axis.y2)}, {_fmt(axis.y3)})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    fixed_name, fixed_value = args.fix
    if fixed_name == args.vary:
        raise ValueError(f"cannot both fix and vary '{fixed_name}'")
    if args.dim < 3:
        raise fam.ParameterOutOfRangeError(
            f"the family needs qudit dimension d >= 3, got --dim {args.dim}")
    if not np.isfinite(args.stop - args.start):
        raise ValueError(f"sweep span from {args.start!r} to {args.stop!r} overflows")
    grid = np.linspace(args.start, args.stop, args.steps)
    lines = [CSV_HEADER]
    for x in grid:
        alpha, beta, gamma = _solve_point(
            args.dim, {fixed_name: fixed_value, args.vary: float(x)})
        try:
            s = fam.TwoParamState(d=args.dim, alpha=alpha, gamma=gamma)
            report = fam.correlation_report(s)
            values = (report.classical, report.discord,
                      report.mutual_info, report.negativity)
            invalid = 0
        except fam.ParameterOutOfRangeError:
            values = (np.nan,) * 4
            invalid = 1
        lines.append(",".join(
            [_fmt(x), _fmt(alpha), _fmt(beta), _fmt(gamma)]
            + [_fmt(v) for v in values] + [str(invalid)]))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_twirl(args: argparse.Namespace) -> int:
    rho = _read_state(args.infile)
    report = twirl(rho)
    Path(args.out).write_text(dumps_density(report.output), encoding="utf-8")
    print(f"alpha = {_fmt(report.alpha)}")
    print(f"gamma = {_fmt(report.gamma)}")
    print(f"residual = {_fmt(report.residual)}")
    if args.report:
        w = report.intermediate_weights
        for j, a_j in enumerate(w.level_weights, start=2):
            print(f"level_weight[{j}] = {_fmt(a_j)}")
        print(f"phi_pair_weight = {_fmt(w.phi_pair)}")
        print(f"psi_plus_weight = {_fmt(w.psi_plus)}")
        print(f"psi_minus_weight = {_fmt(w.psi_minus)}")
    return 0


def cmd_discord(args: argparse.Namespace) -> int:
    rho = _read_state(args.infile)
    config = OptimizerConfig(random_probes=args.probes, seed=args.seed)
    c_num, axis = classical_correlation_numeric(rho, config)
    mutual = quantum_mutual_information(rho)
    print(f"mutual_info = {_fmt(mutual)}")
    print(f"classical_numeric = {_fmt(c_num)}")
    print("# classical_numeric is a certified lower bound on the supremum over measurements")
    print(f"discord_numeric = {_fmt(mutual - c_num)}")
    print(f"negativity = {_fmt(negativity_trace_norm(rho))}")
    print(f"commutator_norm = {_fmt(commutator_condition(rho))}")
    print(f"axis = ({_fmt(axis.t)}, {_fmt(axis.y1)}, {_fmt(axis.y2)}, {_fmt(axis.y3)})")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    rho = _read_state(args.infile)
    m = rho.matrix
    candidate, residual = fam.nearest_family_member(rho)
    print(f"hermiticity_residual = {_fmt(_hermiticity_residual(m))}")
    print(f"trace_residual = {_fmt(abs(np.trace(m) - 1.0))}")
    print(f"min_eigenvalue = {_fmt(np.linalg.eigvalsh(m)[0])}")
    if residual <= fam.MEMBERSHIP_TOL:
        print(f"in_family = yes (alpha = {_fmt(candidate.alpha)}, "
              f"gamma = {_fmt(candidate.gamma)})")
    else:
        print("in_family = no")
    print(f"family_residual = {_fmt(residual)}")
    pt_min = float(np.linalg.eigvalsh(partial_transpose_a(rho))[0])
    if pt_min >= -VALIDATION_TOL:
        print("ppt = yes")
    else:
        print("ppt = no")
    print(f"negativity = {_fmt(negativity_trace_norm(rho))}")
    return 0


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite number {text!r} is not allowed")
    return value


def _parse_fix(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or name not in _PARAM_NAMES:
        raise argparse.ArgumentTypeError(
            f"expected one of {'/'.join(_PARAM_NAMES)}=VALUE, got {text!r}")
    return name, _finite_float(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qucorr",
        description="Correlation measures for qubit-qudit states: closed forms "
                    "for the symmetric two-parameter family, a numeric "
                    "measurement optimizer, and LOCC twirling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corr", help="correlation report for one family member")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--dim", type=int, default=3, help="qudit dimension d >= 3")
    p.add_argument("--numeric", action="store_true",
                   help="also run the measurement optimizer and print both values")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("sweep", help="CSV scan along one family parameter")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--fix", type=_parse_fix, required=True, metavar="NAME=VALUE",
                   help="parameter held fixed (alpha, beta or gamma)")
    p.add_argument("--vary", choices=_PARAM_NAMES, required=True)
    p.add_argument("--from", dest="start", type=_finite_float, required=True)
    p.add_argument("--to", dest="stop", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("twirl", help="twirl a state file into the family")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--report", action="store_true",
                   help="print the halfway diagonal weights")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("discord", help="numeric correlation report for a state file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--probes", type=int, default=256,
                   help="extra random directions mixed into the scan")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("check", help="validate a state file, report membership and PPT")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (fam.ParameterOutOfRangeError, MatrixValidationError, StateFormatError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
