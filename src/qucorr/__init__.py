"""Correlation measures for qubit-qudit quantum states.

The package computes quantum mutual information, classical correlation,
quantum discord and entanglement negativity for bipartite 2 x d systems
along two independent routes: closed forms for a highly symmetric
two-parameter family of states, and a numeric optimization over projective
qubit measurements that works for arbitrary states.  An LOCC twirling
projection maps any 2 x d state onto the family.

The function :func:`twirl` shadows its module ``qucorr.twirl`` as a package
attribute, so ``import qucorr.twirl as T`` binds the function; use
``from qucorr.twirl import ...`` to reach the module.
"""

from .operators import (
    VALIDATION_TOL,
    DensityMatrix,
    DimensionMismatchError,
    MatrixValidationError,
    NonFiniteError,
    NonHermitianError,
    NonUnitTraceError,
    NotPositiveSemidefiniteError,
    commutator_condition,
    hermitian_spectrum,
    is_classical_diagonal,
    negativity_trace_norm,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_a,
    quantum_mutual_information,
    random_density_matrix,
    random_unitary,
    tensor,
    validate_density,
    von_neumann_entropy,
)
from .family import (
    CorrelationReport,
    NotInFamilyError,
    ParameterOutOfRangeError,
    TwoParamState,
    bell_vectors,
    build_state,
    classical_correlation,
    classify_family,
    conditional_entropy_closed,
    correlation_report,
    discord,
    entropy_b,
    family_spectrum,
    marginal_b_spectrum,
    mutual_information,
    nearest_family_member,
    negativity,
    random_family_state,
    singlet_weight,
)
from .measurement import (
    ConditionalEnsemble,
    MeasurementAxis,
    OptimizerConfig,
    OptimizerResult,
    axis_from_direction,
    classical_correlation_numeric,
    conditional_ensemble,
    conditional_entropy,
    discord_numeric,
    ensemble_spectrum_spread,
    measured_mutual_information,
    optimize_measurement,
    projectors,
    random_axis,
)
from .twirl import (
    IntermediateWeights,
    LocalUnitary,
    TwirlReport,
    check_family_invariance,
    locc_stages,
    random_local_unitary,
    twirl,
)
from .statefile import StateFormatError, dumps_density, loads_density

__version__ = "0.1.0"
