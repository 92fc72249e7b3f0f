"""End-to-end CLI checks through subprocess, matching real usage."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qucorr.family import TwoParamState, classical_correlation, discord
from qucorr.operators import partial_trace_b, von_neumann_entropy
from qucorr.statefile import loads_density
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
