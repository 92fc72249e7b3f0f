"""End-to-end CLI checks and a property over every subcommand's exit code.

Every check runs ``cli.main`` in this process through :func:`run_cli`; one
test starts ``python -m qucorr`` in a subprocess, so ``__main__.py`` stays
covered too."""

import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qucorr import cli, closed_form, family, measurement
from qucorr.closed_form import TwoParamState, classical_correlation, discord
from qucorr.family import singlet_weight
from qucorr.operators import partial_trace_b, validate_density, von_neumann_entropy
from qucorr.statefile import dumps_density, loads_density
from states import bell_vectors

FIXTURES = Path(__file__).parent / "fixtures"

# Qudit dimensions past the family's domain: 2(d-2) is inf as a double at
# 10**308, and 10**400 does not convert to a double at all.
HUGE_DIMS = [str(10 ** 308), str(10 ** 400)]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``cli.main`` in this process with its stdout and stderr captured.  An
    argparse exit counts as its code, and a numpy RuntimeWarning is raised as
    an error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(["qucorr", *args], code, out.getvalue(), err.getvalue())


def parse_report(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            out[key.strip()] = value.strip()
    return out


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestHelp:

    @pytest.mark.parametrize("command", [
        [], ["corr"], ["sweep"], ["twirl"], ["discord"], ["check"]])
    def test_help_exits_cleanly(self, command):
        cp = run_cli(*command, "--help")
        assert cp.returncode == 0
        assert "usage" in cp.stdout.lower()


class TestModuleEntryPoint:

    def test_python_m_qucorr(self):
        cp = subprocess.run([sys.executable, "-m", "qucorr", "corr", "--alpha", "0",
                             "--gamma", "1"], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert parse_report(cp.stdout)["discord"] == 1.0


class TestCorr:

    def test_singlet_point(self):
        cp = run_cli("corr", "--alpha", "0", "--gamma", "1", "--dim", "3")
        assert cp.returncode == 0, cp.stderr
        got = parse_report(cp.stdout)
        assert got["mutual_info"] == 2.0
        assert got["classical"] == 1.0
        assert got["discord"] == 1.0
        assert got["negativity"] == 1.0

    def test_uniform_triplet_point(self):
        cp = run_cli("corr", "--alpha", "0", "--gamma", "0", "--dim", "3")
        got = parse_report(cp.stdout)
        assert abs(got["classical"] - 0.081704) < 1e-6
        assert abs(got["discord"] - 1.0 / 3.0) < 1e-12
        assert got["negativity"] == 0.0

    def test_numeric_cross_check(self):
        cp = run_cli("corr", "--alpha", "0.25", "--gamma", "0.5", "--dim", "3",
                     "--numeric")
        assert cp.returncode == 0, cp.stderr
        got = parse_report(cp.stdout)
        assert got["delta_classical"] < 1e-7
        assert got["delta_discord"] < 1e-7

    def test_mutual_info_at_equal_psi_weights_is_classical_plus_discord(self):
        # beta = gamma = 0.1, where I, C and D are about 0: I prints as C + D, unsigned.
        cp = run_cli("corr", "--alpha", "0.3", "--gamma", "0.1", "--dim", "3")
        s = TwoParamState(3, 0.3, 0.1)
        line = f"mutual_info = {cli._fmt(classical_correlation(s) + discord(s))}"
        assert line in cp.stdout.splitlines() and "mutual_info = -" not in cp.stdout

    @pytest.mark.parametrize("alpha, gamma, dim", [
        ("0.24392832826207378", "0.512143343475853", "3"),
        ("0.019653117278510174", "0.8820812963289395", "5")])
    def test_beta_rounding_below_zero_prints_zero(self, alpha, gamma, dim):
        # beta = (1 - 2(d-2)alpha - gamma)/3 rounds to -1.85e-16, which TwoParamState
        # accepts: the member, and the report of it, hold beta as 0.
        cp = run_cli("corr", "--alpha", alpha, "--gamma", gamma, "--dim", dim, "--numeric")
        assert cp.returncode == 0, cp.stderr
        assert "beta = 0" in cp.stdout.splitlines() and "beta = -" not in cp.stdout

    def test_out_of_range_is_user_error(self):
        cp = run_cli("corr", "--alpha", "0.9", "--gamma", "0", "--dim", "3")
        assert cp.returncode == 2
        assert "alpha" in cp.stderr

    @pytest.mark.parametrize("dim", HUGE_DIMS, ids=["1e308", "1e400"])
    def test_huge_dimension_is_user_error(self, dim):
        cp = run_cli("corr", "--alpha", "0", "--gamma", "0.5", "--dim", dim)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1 and "d >= 3" in cp.stderr

    def test_numeric_error_leaves_stdout_empty(self):
        # d = 2**62: the 2d x 2d matrix is refused before numpy is asked for it.
        cp = run_cli("corr", "--alpha", "0", "--gamma", "0.5", "--dim", str(2 ** 62),
                     "--numeric")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1

    @pytest.mark.parametrize("d", [2 ** 62, 2 ** 40], ids=["2**62", "2**40"])
    def test_numeric_at_a_dimension_no_matrix_can_hold(self, d):
        # The 2d x 2d matrix is refused before numpy is asked for it.
        cp = run_cli("corr", "--alpha", "0", "--gamma", "0.5", "--dim", str(d), "--numeric")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1
        assert f"d = {d}" in cp.stderr and "2d x 2d" in cp.stderr

    def test_numeric_out_of_memory_names_the_matrix(self, monkeypatch):
        # The matrix build is replaced, so no test asks numpy for a matrix this
        # size: at d = 10**5 it would take 596 GiB.
        def out_of_memory(s):
            raise MemoryError

        monkeypatch.setattr(family, "_family_matrix", out_of_memory)
        cp = run_cli("corr", "--alpha", "0", "--gamma", "0.5", "--dim", str(10 ** 5),
                     "--numeric")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1
        assert "d = 100000" in cp.stderr and "2d x 2d" in cp.stderr


class TestSweep:

    def test_gamma_zero_line(self, tmp_path):
        out = tmp_path / "line.csv"
        cp = run_cli("sweep", "--dim", "3", "--fix", "gamma=0", "--vary", "alpha",
                     "--from", "0", "--to", "0.5", "--steps", "200",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        header, data = parse_csv(out.read_text())
        assert header == ["param", "alpha", "beta", "gamma", "classical",
                          "discord", "mutual_info", "negativity", "invalid"]
        assert data.shape == (200, 9)
        alpha = data[:, 1]
        assert np.max(np.abs(data[:, 5] - (1.0 - 2.0 * alpha) / 3.0)) < 1e-12
        interior = (alpha > 0) & (alpha < 0.5)
        assert np.all(data[interior, 5] > data[interior, 4])
        assert np.all(data[:, 8] == 0)

    def test_fixed_beta_crossovers_and_invalid_tail(self, tmp_path):
        out = tmp_path / "beta.csv"
        cp = run_cli("sweep", "--dim", "3", "--fix", "beta=0.05", "--vary", "gamma",
                     "--from", "0", "--to", "1", "--steps", "201",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        _, data = parse_csv(out.read_text())
        valid = data[data[:, 8] == 0]
        invalid = data[data[:, 8] == 1]
        # gamma beyond 0.85 forces alpha < 0: flagged, not dropped
        assert invalid.size > 0
        assert np.min(invalid[:, 0]) > 0.85
        assert np.all(np.isnan(invalid[:, 4]))
        # negativity crosses both discord and classical inside the valid range
        n_minus_q = valid[:, 7] - valid[:, 5]
        n_minus_c = valid[:, 7] - valid[:, 4]
        assert n_minus_q.min() < 0 < n_minus_q.max()
        assert n_minus_c.min() < 0 < n_minus_c.max()

    def test_row_at_equal_psi_weights_has_no_correlations(self, tmp_path):
        out = tmp_path / "zero.csv"
        cp = run_cli("sweep", "--dim", "3", "--fix", "beta=0.05", "--vary", "gamma",
                     "--from", "0", "--to", "0.85", "--steps", "171",
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        _, data = parse_csv(out.read_text())
        nearest = data[np.argmin(np.abs(data[:, 0] - 0.05))]
        assert np.all(np.abs(nearest[4:8]) < 1e-9)

    def test_mutual_info_is_classical_plus_discord(self):
        # The row gamma = 0.05 has beta = gamma, where I, C and D are about 0.
        cp = run_cli("sweep", "--dim", "3", "--fix", "beta=0.05", "--vary", "gamma",
                     "--from", "0", "--to", "0.85", "--steps", "171")
        assert cp.returncode == 0, cp.stderr
        header, *lines = cp.stdout.splitlines()
        column = header.split(",").index("mutual_info")
        for x, line in zip(cli._grid(0.0, 0.85, 171), lines):
            alpha, _, gamma = closed_form._solve_params(3, {"beta": 0.05, "gamma": x})
            s = TwoParamState(3, alpha, gamma)
            mutual = line.split(",")[column]
            assert mutual == cli._fmt(classical_correlation(s) + discord(s))
            assert not mutual.startswith("-")

    def test_completed_weight_rounding_below_zero_prints_zero(self):
        # At alpha = 0.35, gamma = 1 - 2*0.35000000000000003 - 0.3 rounds to -1.1e-16,
        # which TwoParamState accepts: the valid row prints the singlet weight as 0.
        cp = run_cli("sweep", "--dim", "3", "--fix", "beta=0.1", "--vary", "alpha",
                     "--from", "0", "--to", "0.5", "--steps", "11")
        assert cp.returncode == 0, cp.stderr
        rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
        assert ",".join(rows[7]) == "0.35,0.35,0.1,0,0.0245112497837,0.1,0.124511249784,0,0"
        for row in rows:
            if row[-1] == "0":
                assert not any(field.startswith("-") for field in row[1:4])

    @pytest.mark.parametrize("fix, vary, stop, steps", [
        ("alpha=0.1", "beta", 0.4, 11), ("beta=0.1", "alpha", 0.48, 9)])
    def test_gamma_from_the_trace_and_invalid_below_zero(self, fix, vary, stop, steps):
        # gamma is the unknown: gamma = 1 - 2(d-2)alpha - 3beta, flagged once it is < 0.
        cp = run_cli("sweep", "--dim", "3", "--fix", fix, "--vary", vary,
                     "--from", "0", "--to", str(stop), "--steps", str(steps))
        assert cp.returncode == 0, cp.stderr
        fixed = float(fix.partition("=")[2])
        rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
        assert len(rows) == steps
        for x, row in zip(cli._grid(0.0, stop, steps), rows):
            alpha, beta = (fixed, x) if vary == "beta" else (x, fixed)
            gamma = 1.0 - 2.0 * alpha - 3.0 * beta
            assert row[1:4] == [cli._fmt(alpha), cli._fmt(beta), cli._fmt(gamma)]
            assert row[-1] == str(int(gamma < 0.0))
        assert {row[-1] for row in rows} == {"0", "1"}

    def test_byte_identical_reruns(self, tmp_path):
        args = ("sweep", "--dim", "4", "--fix", "alpha=0.1", "--vary", "gamma",
                "--from", "0", "--to", "0.6", "--steps", "50")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(first)).returncode == 0
        assert run_cli(*args, "--out", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_fix_and_vary_must_differ(self):
        cp = run_cli("sweep", "--dim", "3", "--fix", "alpha=0.1", "--vary", "alpha",
                     "--from", "0", "--to", "0.5", "--steps", "5")
        assert cp.returncode == 2

    @pytest.mark.parametrize("fix, vary", [("beta=0.1", "gamma"), ("gamma=0", "alpha")])
    def test_qudit_dimension_two_is_user_error(self, fix, vary):
        cp = run_cli("sweep", "--dim", "2", "--fix", fix, "--vary", vary,
                     "--from", "0", "--to", "0.5", "--steps", "5")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "d >= 3" in cp.stderr

    @pytest.mark.parametrize("dim", HUGE_DIMS, ids=["1e308", "1e400"])
    def test_huge_dimension_is_user_error(self, dim):
        cp = run_cli("sweep", "--dim", dim, "--fix", "gamma=0.5", "--vary", "alpha",
                     "--from", "0", "--to", "0.5", "--steps", "5")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1 and "d >= 3" in cp.stderr

    @pytest.mark.parametrize("option, value, named", [
        ("--from", "inf", "'inf'"), ("--from", "nan", "'nan'"), ("--to", "-inf", "'-inf'"),
        ("--fix", "alpha=nan", "'nan'")])
    def test_non_finite_value_is_user_error(self, option, value, named):
        args = {"--fix": "beta=0.05", "--from": "0", "--to": "0.5", option: value}
        cp = run_cli("sweep", "--dim", "3", "--vary", "gamma", "--steps", "5",
                     *(f"{k}={v}" for k, v in args.items()))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "non-finite" in cp.stderr and named in cp.stderr
        assert "Warning" not in cp.stderr

    @pytest.mark.parametrize("option, value, named", [
        ("--from", "abc", "bad number 'abc'"), ("--fix", "beta=x", "bad number 'x'"),
        ("--fix", "delta=1", "alpha/beta/gamma=VALUE")])
    def test_malformed_value_is_user_error(self, option, value, named):
        args = {"--fix": "beta=0.05", "--from": "0", "--to": "0.5", option: value}
        cp = run_cli("sweep", "--dim", "3", "--vary", "gamma", "--steps", "5",
                     *(f"{k}={v}" for k, v in args.items()))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert named in cp.stderr

    def test_overflowing_span_is_user_error(self):
        cp = run_cli("sweep", "--dim", "3", "--fix", "beta=0.05", "--vary", "gamma",
                     "--from=-1e308", "--to=1e308", "--steps", "5")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "overflows" in cp.stderr and "Warning" not in cp.stderr

    @pytest.mark.parametrize("steps, code, rows", [(-1, 2, 0), (0, 0, 0), (1, 0, 1), (2, 0, 2)])
    def test_steps_edge_cases(self, steps, code, rows):
        cp = run_cli("sweep", "--dim", "3", "--fix", "alpha=0.1", "--vary", "gamma",
                     "--from", "0.1", "--to", "0.7", "--steps", str(steps))
        assert cp.returncode == code
        if code == 2:
            assert cp.stdout == "" and "--steps must be >= 0" in cp.stderr
            return
        header, *lines = cp.stdout.splitlines()
        assert header == cli.CSV_HEADER and len(lines) == rows
        params = [float(line.split(",")[0]) for line in lines]
        # np.linspace's points: one step gives --from alone, more end at --to.
        if rows >= 1:
            assert params[0] == 0.1
        if rows >= 2:
            assert params[-1] == 0.7

    @pytest.mark.parametrize("start, stop, steps", [
        (0.0, 1.0, 200), (0.9, 0.1, 7), (-0.01, 0.55, 1001), (0.3, 0.3, 3), (-0.0, -1.0, 1),
        (0.0, 1.5e-323, 8)], ids=["up", "down", "long", "flat", "one", "underflow"])
    def test_grid_is_linspace(self, start, stop, steps):
        # Bit for bit, signed zeros too; at "underflow" the step rounds to 0.
        want = [float(x).hex() for x in np.linspace(start, stop, steps)]
        assert [x.hex() for x in cli._grid(start, stop, steps)] == want


class TestTwirlCommand:

    def test_singlet_file(self, tmp_path):
        out = tmp_path / "out.json"
        cp = run_cli("twirl", "--in", str(FIXTURES / "singlet_2x3.json"),
                     "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        got = parse_report(cp.stdout)
        assert abs(got["alpha"]) < 1e-12
        assert abs(got["gamma"] - 1.0) < 1e-12

    def test_family_file_parameters_unchanged(self, tmp_path):
        out = tmp_path / "out.json"
        cp = run_cli("twirl", "--in", str(FIXTURES / "family_2x3.json"),
                     "--out", str(out))
        got = parse_report(cp.stdout)
        assert abs(got["alpha"] - 0.1) < 1e-10
        assert abs(got["gamma"] - 0.3) < 1e-10

    def test_random_fixture_keeps_singlet_weight(self, tmp_path):
        src = FIXTURES / "random_2x4.json"
        expected = singlet_weight(loads_density(src.read_text()))
        out = tmp_path / "out.json"
        cp = run_cli("twirl", "--in", str(src), "--out", str(out), "--report")
        assert cp.returncode == 0, cp.stderr
        got = parse_report(cp.stdout)
        assert abs(got["gamma"] - expected) < 1e-10
        assert got["residual"] < 1e-10
        assert "psi_minus_weight" in got
        # written file is a valid family member with the same parameters
        text = out.read_text(encoding="utf-8")
        back = loads_density(text)
        assert abs(singlet_weight(back) - expected) < 1e-10
        assert dumps_density(back) == text
        assert "in_family = yes" in run_cli("check", "--in", str(out)).stdout
        # Projecting onto the family twice prints the same parameters.
        again = run_cli("twirl", "--in", str(out), "--out", str(tmp_path / "again.json"))
        params = lambda stdout: [line for line in stdout.splitlines()
                                 if line.startswith(("alpha =", "gamma ="))]
        assert params(again.stdout) == params(cp.stdout) and len(params(cp.stdout)) == 2

    def test_unreadable_input_is_user_error(self, tmp_path):
        cp = run_cli("twirl", "--in", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out.json"))
        assert cp.returncode == 2


class TestDiscordCommand:

    def test_family_file_matches_closed_form(self):
        cp = run_cli("discord", "--in", str(FIXTURES / "family_2x3.json"))
        assert cp.returncode == 0, cp.stderr
        got = parse_report(cp.stdout)
        s = TwoParamState(3, 0.1, 0.3)
        assert abs(got["classical_numeric"] - classical_correlation(s)) < 1e-7
        assert abs(got["discord_numeric"] - discord(s)) < 1e-7
        assert "lower bound" in cp.stdout

    def test_classical_diagonal_fixture(self):
        cp = run_cli("discord", "--in", str(FIXTURES / "classical_diag_2x3.json"))
        got = parse_report(cp.stdout)
        assert got["discord_numeric"] < 1e-7
        assert got["commutator_norm"] < 1e-10

    def test_pure_entangled_fixture(self):
        src = FIXTURES / "pure_entangled_2x3.json"
        rho = loads_density(src.read_text())
        expected = von_neumann_entropy(partial_trace_b(rho))
        cp = run_cli("discord", "--in", str(src))
        got = parse_report(cp.stdout)
        assert abs(got["discord_numeric"] - expected) < 1e-6

    def test_axis_prints_no_negative_zero(self):
        # The search ends about 2e-9 from the z axis: three components, the
        # Bloch direction, none of them printed as -0.
        cp = run_cli("discord", "--in", str(FIXTURES / "classical_diag_2x3.json"))
        assert cp.returncode == 0, cp.stderr
        axis = parse_report(cp.stdout)["axis"].strip("()").split(", ")
        assert len(axis) == 3 and axis[2] == "1"
        assert not any(c.startswith("-") for c in axis)

    def test_negative_zero_axis_component_prints_0(self):
        # The fold negates -z to (-0.0, -0.0, 1.0).
        axis = measurement._fold((0.0, 0.0, -1.0))
        assert axis == (0.0, 0.0, 1.0) and np.signbit(axis[0]) and np.signbit(axis[1])
        assert [cli._fmt(c) for c in axis] == ["0", "0", "1"]

    def test_axis_on_the_upper_hemisphere(self):
        # n and -n are one measurement; the printed axis is the unit Bloch
        # direction with (n_z, n_y, n_x) >= (0, 0, 0), in `corr --numeric` too.
        for argv in (["discord", "--in", str(FIXTURES / "random_2x4.json")],
                     ["corr", "--numeric", "--alpha", "0.05", "--gamma", "0.55", "--dim", "5"]):
            cp = run_cli(*argv)
            assert cp.returncode == 0, cp.stderr
            n = tuple(map(float, parse_report(cp.stdout)["axis"].strip("()").split(",")))
            assert len(n) == 3 and n[::-1] >= (0.0, 0.0, 0.0)
            assert abs(sum(c * c for c in n) - 1.0) <= 1e-11

    def test_probe_options_are_gone(self):
        cp = run_cli("discord", "--help")
        assert cp.returncode == 0
        assert "--probes" not in cp.stdout and "--seed" not in cp.stdout
        cp = run_cli("discord", "--in", str(FIXTURES / "family_2x3.json"), "--probes", "5")
        assert cp.returncode == 2
        assert cp.stdout == ""


class TestCheckCommand:

    def test_family_file(self):
        cp = run_cli("check", "--in", str(FIXTURES / "family_2x3.json"))
        assert cp.returncode == 0, cp.stderr
        assert "in_family = yes" in cp.stdout
        assert "ppt = yes" in cp.stdout

    def test_npt_family_file(self):
        cp = run_cli("check", "--in", str(FIXTURES / "npt_family_2x3.json"))
        got = parse_report(cp.stdout)
        assert "ppt = no" in cp.stdout
        # 2*alpha + 2*gamma - 1 at alpha=0.175, gamma=0.5
        assert abs(got["negativity"] - 0.35) < 1e-9

    def test_random_file_not_in_family(self):
        cp = run_cli("check", "--in", str(FIXTURES / "random_2x4.json"))
        assert "in_family = no" in cp.stdout

    def test_ppt_state_above_unit_trace_has_zero_negativity(self, cli_inputs):
        # Trace 1 + 4e-11: the excess trace is not negativity.
        cp = run_cli("check", f"--in={cli_inputs['outer_mean_above_alpha_max']}")
        assert cp.returncode == 0, cp.stderr
        assert "ppt = yes" in cp.stdout
        assert "negativity = 0\n" in cp.stdout

    def test_corrupted_file_names_invariant(self, tmp_path):
        import json
        doc = json.loads((FIXTURES / "family_2x3.json").read_text())
        doc["matrix"][0][0][0] += 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        cp = run_cli("check", "--in", str(bad))
        assert cp.returncode == 2
        assert "trace" in cp.stderr.lower()

    def test_nan_file_names_non_finite_value(self, tmp_path):
        text = (FIXTURES / "family_2x3.json").read_text()
        bad = tmp_path / "nan.json"
        bad.write_text(text.replace("[0, 0]", "[NaN, 0]", 1))
        cp = run_cli("check", "--in", str(bad))
        assert cp.returncode == 2
        assert "non-finite" in cp.stderr and "NaN" in cp.stderr

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        cp = run_cli("check", "--in", str(bad))
        assert cp.returncode == 2

    def test_short_row_names_the_row(self, tmp_path):
        path = tmp_path / "short.json"
        rows = [[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]
        rows[1] = rows[1][:1]
        path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
        cp = run_cli("check", "--in", str(path))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "row 1 must have 4 entries" in cp.stderr

    def test_qudit_dimension_two_is_user_error(self, tmp_path):
        path = tmp_path / "qubits.json"
        path.write_text(dumps_density(validate_density(np.eye(4) / 4.0, 2, 2)))
        cp = run_cli("check", "--in", str(path))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "d >= 3" in cp.stderr

    @pytest.mark.parametrize("cells, invariant", [
        ({(0, 1): 1.7e308, (1, 0): -1.7e308}, "Hermitian"),
        ({(0, 0): 1.7e308, (1, 1): 1.7e308}, "trace"),
    ], ids=["hermiticity", "trace"])
    def test_overflowing_file_gives_one_error_line(self, tmp_path, cells, invariant):
        path = tmp_path / "huge.json"
        path.write_text(_with_cells(cells))
        cp = run_cli("check", "--in", str(path))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1
        assert invariant in cp.stderr

    def test_help_lists_no_tolerance_option(self):
        cp = run_cli("check", "--help")
        assert cp.returncode == 0
        assert "--tol" not in cp.stdout


# Inputs for the exit-code property: the fixtures plus files that break each
# read step (file system, encoding, JSON, structure, the 2 x d split,
# validation, d >= 3), and valid states at the edges: a qubit pair, a d = 16
# state that passes validation although its qubit marginal's smallest
# eigenvalue is -5e-10, a d = 3 family member scaled to trace 1 + 5e-11,
# whose weights leave beta at -1.7e-11, and a d = 3 state at trace 1 + 4e-11
# whose outer mean is 2e-11 above alpha_max, so the projection must clip alpha.
_HUGE = 1.7e308


def _family_doc() -> dict:
    return json.loads((FIXTURES / "family_2x3.json").read_text())


def _with_cells(cells: dict) -> str:
    """The family fixture with the given (row, column) cells set to real values."""
    doc = _family_doc()
    for (i, j), value in cells.items():
        doc["matrix"][i][j] = [value, 0]
    return json.dumps(doc)


BAD_INPUTS = {
    "empty": "",
    "not_json": "{not json",
    "not_utf8": b"\xff\xfe\x00{",
    "nan_token": (FIXTURES / "family_2x3.json").read_text().replace("[0, 0]", "[NaN, 0]", 1),
    "qubit_pair": dumps_density(validate_density(np.eye(4) / 4.0, 2, 2)),
    "qutrit_pair": json.dumps({"dims": [3, 3], "matrix": [
        [[1 / 9 if i == j else 0, 0] for j in range(9)] for i in range(9)]}),
    "qudit_dim_one": json.dumps({"dims": [2, 1], "matrix": [[[0.5, 0], [0, 0]],
                                                            [[0, 0], [0.5, 0]]]}),
    "wrong_rows": json.dumps({"dims": [2, 3], "matrix": _family_doc()["matrix"][:4]}),
    "not_psd": _with_cells({(0, 0): 1.5, (1, 1): -0.5}),
    "hermiticity_overflow": _with_cells({(0, 1): _HUGE, (1, 0): -_HUGE}),
    "trace_overflow": _with_cells({(0, 0): _HUGE, (1, 1): _HUGE}),
    "cancelling_huge_diagonal": _with_cells({(0, 0): _HUGE, (1, 1): -_HUGE}),
    "marginal_below_tolerance": dumps_density(validate_density(
        np.kron(np.diag([1 + 5e-10, -5e-10]), np.eye(16) / 16), 2, 16)),
    "trace_edge_member": dumps_density(validate_density((1 + 5e-11) * (
        0.5 * np.outer(bell_vectors(3)[3], bell_vectors(3)[3]) + np.diag([0, 0, 0.25] * 2)),
        2, 3)),
    "outer_mean_above_alpha_max": dumps_density(validate_density(
        np.diag([0, 0, 0.5 * (1 + 4e-11), 0, 0, 0.5 * (1 + 4e-11)]), 2, 3)),
}
INPUT_NAMES = sorted(p.name for p in FIXTURES.glob("*.json")) + sorted(BAD_INPUTS) + [
    "missing", "directory"]


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    paths = {p.name: p for p in FIXTURES.glob("*.json")}
    for name, content in BAD_INPUTS.items():
        paths[name] = root / name
        if isinstance(content, bytes):
            paths[name].write_bytes(content)
        else:
            paths[name].write_text(content)
    paths["missing"] = root / "missing.json"
    paths["directory"] = root
    return paths


NUMBERS = st.one_of(st.floats(), st.floats(0.0, 1.0), st.sampled_from(
    [0.0, 0.05, 0.5, 1.0, _HUGE, -_HUGE, float("nan"), float("inf"), float("-inf")]))
DIMS = st.integers(-1, 6)
PARAMS = st.sampled_from(("alpha", "beta", "gamma"))


def assert_exits_0_or_2(argv: list[str]) -> int:
    """:func:`run_cli` must return 0, or 2 with an error on stderr and nothing
    on stdout.  Returns the code."""
    cp = run_cli(*argv)
    assert cp.returncode in (0, 2), (argv, cp.returncode, cp.stderr)
    if cp.returncode == 2:
        assert cp.stdout == "" and cp.stderr.strip(), argv
    return cp.returncode


class TestExitCodeProperty:
    """Options are passed as --name=value so that values such as -inf reach
    the parser instead of being read as options."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(alpha=NUMBERS, gamma=NUMBERS, dim=DIMS, numeric=st.booleans())
    @example(alpha=0.0, gamma=0.5, dim=10 ** 308, numeric=False)
    @example(alpha=0.0, gamma=0.5, dim=10 ** 400, numeric=False)
    def test_corr(self, alpha, gamma, dim, numeric):
        assert_exits_0_or_2(["corr", f"--alpha={alpha!r}", f"--gamma={gamma!r}",
                             f"--dim={dim}"] + ["--numeric"] * numeric)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dim=DIMS, fix=PARAMS, fixed=NUMBERS, vary=PARAMS, start=NUMBERS, stop=NUMBERS,
           steps=st.integers(0, 20))
    @example(dim=2, fix="beta", fixed=0.1, vary="gamma", start=0.0, stop=1.0, steps=5)
    @example(dim=10 ** 308, fix="gamma", fixed=0.5, vary="alpha", start=0.0, stop=0.5, steps=5)
    @example(dim=10 ** 400, fix="gamma", fixed=0.5, vary="alpha", start=0.0, stop=0.5, steps=5)
    def test_sweep(self, dim, fix, fixed, vary, start, stop, steps):
        assert_exits_0_or_2(["sweep", f"--dim={dim}", f"--fix={fix}={fixed!r}",
                             f"--vary={vary}", f"--from={start!r}",
                             f"--to={stop!r}", f"--steps={steps}"])

    # `check` and `discord` run on every input in the two implication tests below.
    @pytest.mark.parametrize("report", [False, True], ids=["plain", "report"])
    @pytest.mark.parametrize("name", INPUT_NAMES)
    def test_twirl(self, cli_inputs, name, report):
        assert_exits_0_or_2(["twirl", f"--in={cli_inputs[name]}",
                             f"--out={cli_inputs['directory'] / 'twirled.json'}"]
                            + ["--report"] * report)

    @pytest.mark.parametrize("command", ["check", "discord", "twirl"])
    def test_state_outside_2_x_d_names_the_split(self, cli_inputs, command):
        out = [f"--out={cli_inputs['directory'] / 'twirled.json'}"] * (command == "twirl")
        cp = run_cli(command, f"--in={cli_inputs['qutrit_pair']}", *out)
        assert cp.returncode == 2 and cp.stdout == ""
        assert len(cp.stderr.splitlines()) == 1 and "2 x d" in cp.stderr

    # A state is validated once, when it is read, so what `check` accepts
    # `discord` accepts.  Not the converse: `discord` takes 2 x 2 files that
    # `check` rejects.
    @pytest.mark.parametrize("name", INPUT_NAMES)
    def test_discord_accepts_what_check_accepts(self, cli_inputs, name):
        if assert_exits_0_or_2(["check", f"--in={cli_inputs[name]}"]) == 0:
            assert assert_exits_0_or_2(["discord", f"--in={cli_inputs[name]}"]) == 0

    # The converse holds from d = 3 on: the family projection clips gamma to
    # the trace constraint, so every valid 2 x d state has a nearest member.
    @pytest.mark.parametrize("name", INPUT_NAMES)
    def test_check_and_twirl_accept_what_discord_accepts_from_d3(self, cli_inputs, name):
        path = cli_inputs[name]
        if assert_exits_0_or_2(["discord", f"--in={path}"]) == 0 and \
                loads_density(path.read_text()).dim_b >= 3:
            assert assert_exits_0_or_2(["check", f"--in={path}"]) == 0
            assert assert_exits_0_or_2(["twirl", f"--in={path}",
                                        f"--out={cli_inputs['directory'] / 'twirled.json'}"]) == 0
