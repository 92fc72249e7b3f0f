"""Correlation measures for qubit-qudit quantum states.

The package computes quantum mutual information, classical correlation,
quantum discord and entanglement negativity for bipartite 2 x d systems
along two independent routes: closed forms for a highly symmetric
two-parameter family of states, and a numeric optimization over projective
qubit measurements that works for arbitrary states.  An LOCC twirling
projection, :func:`twirl`, maps any 2 x d state onto the family; the paper's
protocol behind it runs stage by stage in :mod:`qucorr.locc`.

Each name is imported from its submodule on first use (PEP 562), so
``import qucorr`` loads no numpy, and neither do the closed forms, which
:mod:`qucorr.closed_form` evaluates on plain floats.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "operators": (
        "VALIDATION_TOL", "DensityMatrix", "DimensionMismatchError", "MatrixValidationError",
        "NonFiniteError", "NonHermitianError", "NonUnitTraceError",
        "NotPositiveSemidefiniteError", "commutator_condition", "negativity_trace_norm",
        "partial_trace_a", "partial_trace_b", "partial_transpose_a",
        "quantum_mutual_information", "random_density_matrix", "random_unitary",
        "validate_density", "von_neumann_entropy"),
    "closed_form": (
        "CorrelationReport", "ParameterOutOfRangeError", "TwoParamState",
        "classical_correlation", "conditional_entropy_closed", "correlation_report",
        "discord", "entropy_b", "mutual_information", "negativity"),
    "family": (
        "IntermediateWeights", "NotInFamilyError", "TwirlReport", "build_state",
        "classify_family", "family_spectrum", "marginal_b_spectrum", "nearest_family_member",
        "random_family_state", "singlet_weight", "twirl"),
    "measurement": (
        "ConditionalEnsemble", "OptimizerConfig", "OptimizerResult",
        "classical_correlation_numeric", "conditional_ensemble", "conditional_entropy",
        "discord_numeric", "ensemble_spectrum_spread", "measured_mutual_information",
        "optimize_measurement", "projectors", "random_axis"),
    "locc": ("check_family_invariance", "locc_stages"),
    "statefile": ("StateFormatError", "dumps_density", "loads_density"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted({*_EXPORTS, *_SOURCE})


def __getattr__(name):
    """Import the submodule that defines ``name`` and bind all its exports, so
    that later lookups are plain attribute reads."""
    if name in _SOURCE:
        module = _importlib.import_module(f"{__name__}.{_SOURCE[name]}")
        globals().update((each, getattr(module, each)) for each in _EXPORTS[_SOURCE[name]])
        return globals()[name]
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    names = {*globals(), *__all__} - {"__all__", "__dir__", "__getattr__"}
    return sorted(n for n in names if not n.startswith("_") or n.startswith("__"))

