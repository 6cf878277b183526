"""clocksim: frequency-measurement precision of n two-level ions under
dephasing, for uncorrelated, maximally entangled, and symmetric partially
entangled preparations.
"""

__version__ = "0.1.0"

from .collective import genramsey_opt_uncertainty, solve_topt
from .evolution import MAX_BLOCK_QUBITS
from .exceptions import (
    BracketingError,
    ClocksimError,
    DegenerateStateError,
    NoInformationError,
    SingularOutcomeError,
    SingularPointError,
)
from .fisher import family_qfi, qfi_uncertainty
from .optimize import (
    OptimizationReport,
    fig3_scan,
    improvement_sweep,
    optimize_symmetric_coeffs,
    qfi_shot_optimum,
)
from .qstate import (
    CollectiveMoments,
    SymmetricFamilyState,
    collective_moments,
    uniform_coefficients,
)
from .ramsey import (
    ExperimentBudget,
    PrecisionResult,
    reference_limit,
    signal_ghz,
    signal_uncorrelated,
    uncertainty_ghz,
    uncertainty_uncorrelated,
)

__all__ = [
    "__version__",
    "MAX_BLOCK_QUBITS",
    "SymmetricFamilyState",
    "CollectiveMoments",
    "ExperimentBudget",
    "PrecisionResult",
    "OptimizationReport",
    "ClocksimError",
    "SingularPointError",
    "DegenerateStateError",
    "NoInformationError",
    "SingularOutcomeError",
    "BracketingError",
    "uniform_coefficients",
    "collective_moments",
    "signal_uncorrelated",
    "signal_ghz",
    "uncertainty_uncorrelated",
    "uncertainty_ghz",
    "reference_limit",
    "solve_topt",
    "genramsey_opt_uncertainty",
    "family_qfi",
    "qfi_uncertainty",
    "qfi_shot_optimum",
    "optimize_symmetric_coeffs",
    "improvement_sweep",
    "fig3_scan",
]
