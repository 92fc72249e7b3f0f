"""End-to-end CLI checks through subprocess, matching real usage, and an
in-process property over every subcommand's exit code."""

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

from qucorr import cli
from qucorr.family import TwoParamState, classical_correlation, discord
from qucorr.operators import partial_trace_b, validate_density, von_neumann_entropy
from qucorr.statefile import dumps_density, loads_density
from qucorr.family import singlet_weight

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "qucorr", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


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

    def test_out_of_range_is_user_error(self):
        cp = run_cli("corr", "--alpha", "0.9", "--gamma", "0", "--dim", "3")
        assert cp.returncode == 2
        assert "alpha" in cp.stderr


class TestOptimizerSizes:

    @pytest.mark.parametrize("args, field", [
        (["discord", "--in", str(FIXTURES / "family_2x3.json"), "--probes", "-3"],
         "random_probes"),
    ], ids=["discord_probes"])
    def test_bad_size_is_user_error_before_any_output(self, args, field):
        cp = run_cli(*args)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert field in cp.stderr


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

    def test_overflowing_span_is_user_error(self):
        cp = run_cli("sweep", "--dim", "3", "--fix", "beta=0.05", "--vary", "gamma",
                     "--from=-1e308", "--to=1e308", "--steps", "5")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "overflows" in cp.stderr and "Warning" not in cp.stderr


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
        back = loads_density(out.read_text())
        assert abs(singlet_weight(back) - expected) < 1e-10

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
# read step (file system, encoding, JSON, structure, validation, d >= 3).
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
    "qudit_dim_one": json.dumps({"dims": [2, 1], "matrix": [[[0.5, 0], [0, 0]],
                                                            [[0, 0], [0.5, 0]]]}),
    "wrong_rows": json.dumps({"dims": [2, 3], "matrix": _family_doc()["matrix"][:4]}),
    "not_psd": _with_cells({(0, 0): 1.5, (1, 1): -0.5}),
    "hermiticity_overflow": _with_cells({(0, 1): _HUGE, (1, 0): -_HUGE}),
    "trace_overflow": _with_cells({(0, 0): _HUGE, (1, 1): _HUGE}),
    "cancelling_huge_diagonal": _with_cells({(0, 0): _HUGE, (1, 1): -_HUGE}),
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
INPUTS = st.sampled_from(INPUT_NAMES)


def assert_exits_0_or_2(argv: list[str]) -> None:
    """Run ``cli.main`` in this process: it must return 0, or 2 with an error
    on stderr and nothing on stdout.  An argparse exit counts as its code, and
    a numpy RuntimeWarning is raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().strip(), argv


class TestExitCodeProperty:
    """Options are passed as --name=value so that values such as -inf reach
    the parser instead of being read as options."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(alpha=NUMBERS, gamma=NUMBERS, dim=DIMS, numeric=st.booleans())
    def test_corr(self, alpha, gamma, dim, numeric):
        assert_exits_0_or_2(["corr", f"--alpha={alpha!r}", f"--gamma={gamma!r}",
                             f"--dim={dim}"] + ["--numeric"] * numeric)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dim=DIMS, fix=PARAMS, fixed=NUMBERS, vary=PARAMS, start=NUMBERS, stop=NUMBERS,
           steps=st.integers(0, 20))
    @example(dim=2, fix="beta", fixed=0.1, vary="gamma", start=0.0, stop=1.0, steps=5)
    def test_sweep(self, dim, fix, fixed, vary, start, stop, steps):
        assert_exits_0_or_2(["sweep", f"--dim={dim}", f"--fix={fix}={fixed!r}",
                             f"--vary={vary}", f"--from={start!r}",
                             f"--to={stop!r}", f"--steps={steps}"])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=INPUTS, report=st.booleans())
    def test_twirl(self, cli_inputs, name, report):
        assert_exits_0_or_2(["twirl", f"--in={cli_inputs[name]}",
                             f"--out={cli_inputs['directory'] / 'twirled.json'}"]
                            + ["--report"] * report)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=INPUTS, probes=st.integers(-3, 16), seed=st.integers(-2, 5))
    def test_discord(self, cli_inputs, name, probes, seed):
        assert_exits_0_or_2(["discord", f"--in={cli_inputs[name]}", f"--probes={probes}",
                             f"--seed={seed}"])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(name=INPUTS)
    @example(name="qubit_pair")
    def test_check(self, cli_inputs, name):
        assert_exits_0_or_2(["check", f"--in={cli_inputs[name]}"])
