"""The package's lazy namespace, each check in a fresh interpreter: what an import
loads, what ``qucorr.twirl`` is after each import order, and what ``dir`` lists."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# dir(qucorr) when the package imported every submodule eagerly, plus the
# numpy-free module of closed forms and the LOCC protocol's module.
NAMES = sorted([
    "ConditionalEnsemble", "CorrelationReport", "DensityMatrix", "DimensionMismatchError",
    "IntermediateWeights", "MatrixValidationError", "NonFiniteError",
    "NonHermitianError", "NonUnitTraceError", "NotInFamilyError",
    "NotPositiveSemidefiniteError", "OptimizerConfig", "OptimizerResult",
    "ParameterOutOfRangeError", "StateFormatError", "TwirlReport", "TwoParamState",
    "VALIDATION_TOL", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__", "__version__", "build_state",
    "check_family_invariance", "classical_correlation", "classical_correlation_numeric",
    "classify_family", "commutator_condition", "conditional_ensemble", "conditional_entropy",
    "conditional_entropy_closed", "correlation_report", "discord", "discord_numeric",
    "dumps_density", "ensemble_spectrum_spread", "entropy_b", "family", "family_spectrum",
    "loads_density", "locc_stages", "marginal_b_spectrum", "measured_mutual_information",
    "measurement", "mutual_information", "nearest_family_member", "negativity", "negativity_trace_norm", "operators",
    "optimize_measurement", "partial_trace_a", "partial_trace_b", "partial_transpose_a",
    "projectors", "quantum_mutual_information", "random_axis", "random_density_matrix",
    "random_family_state", "random_unitary", "singlet_weight", "statefile", "twirl",
    "validate_density", "von_neumann_entropy",
] + ["closed_form", "locc"])


def python(*args: str) -> subprocess.CompletedProcess:
    cp = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert cp.returncode == 0, cp.stderr
    return cp


def test_import_loads_no_numpy():
    code = ("import sys, qucorr; "
            "r = qucorr.correlation_report(qucorr.TwoParamState(3, 0.1, 0.3)); "
            "print('numpy' in sys.modules, r.discord > 0)")
    assert python("-c", code).stdout.split() == ["False", "True"]


@pytest.mark.parametrize("argv", [
    ["corr", "--dim", "8", "--alpha", "0.01", "--gamma", "0.3"],
    ["sweep", "--dim", "8", "--fix", "alpha=0.01", "--vary", "gamma",
     "--from", "0", "--to", "1", "--steps", "5"]], ids=["corr", "sweep"])
def test_corr_and_sweep_load_no_numpy(argv):
    cp = python("-X", "importtime", "-m", "qucorr", *argv)
    modules = [line.rpartition("|")[2].strip() for line in cp.stderr.splitlines()
               if line.startswith("import time:")]
    assert "qucorr.cli" in modules
    assert not [m for m in modules if m == "numpy" or m.startswith("numpy.")]
    # -X importtime does not list a module that importlib.import_module loads.
    code = f"import sys; from qucorr import cli; cli.main({argv!r}); print('numpy' in sys.modules)"
    assert python("-c", code).stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("code", [
    "from qucorr.locc import locc_stages; import qucorr",
    "import qucorr.family as F; import qucorr; assert F.twirl is qucorr.twirl",
    "import qucorr; qucorr.twirl; from qucorr.locc import locc_stages",
    "import qucorr.measurement, qucorr.locc, qucorr",
    "from qucorr import twirl, family; import qucorr; assert twirl is qucorr.twirl",
], ids=["from_module", "import_as", "attribute_first", "submodules", "from_package"])
def test_twirl_attribute_is_the_function(code):
    check = "import sys; print(qucorr.twirl is sys.modules['qucorr.family'].twirl)"
    assert python("-c", f"{code}; {check}").stdout.strip() == "True"


def test_dir_lists_every_name_before_and_after_loading():
    code = ("import json, qucorr; before = dir(qucorr); "
            "[getattr(qucorr, n) for n in qucorr.__all__]; "
            "print(json.dumps([before, dir(qucorr)]))")
    before, after = json.loads(python("-c", code).stdout)
    assert before == after == NAMES
