"""Characterization of two-level pair states over real and complex numbers.

Correlation-matrix algebra, entanglement witnesses from separability
eigenvalue equations, standard-form reduction, quasiprobability
decompositions, and a synthetic tomography pipeline with Monte-Carlo
error propagation.
"""

from .pauli_core import (
    DEFAULT_TOL,
    LocalState,
    NumberField,
    cfr_state,
    correlation_from_density,
    density_from_correlation,
    hs_distance,
    is_physical,
    product_correlation,
    real_projection,
    similarity,
)
from .quasiprob import (
    QuasiDecomposition,
    decompose,
    expansion_error,
    local_reconstruction,
    separability_certificate,
)
from .standard_form import (
    LocalMapPair,
    SingularMarginal,
    StandardFormResult,
    apply_local_maps,
    to_standard_form,
)
from .tomography import (
    CountsDataset,
    EstimatedState,
    estimate_correlations,
    mix_datasets,
    monte_carlo_propagate,
    repair_to_physical,
    simulate_counts,
)
from .witness import (
    SIGMA_YY,
    DiagObservable,
    SeparabilityEigenpair,
    WitnessVerdict,
    analytic_spectrum,
    bounds,
    evaluate_witness,
    numeric_separability_eigs,
)

__all__ = [
    "DEFAULT_TOL",
    "LocalState",
    "NumberField",
    "cfr_state",
    "correlation_from_density",
    "density_from_correlation",
    "hs_distance",
    "is_physical",
    "product_correlation",
    "real_projection",
    "similarity",
    "QuasiDecomposition",
    "decompose",
    "expansion_error",
    "local_reconstruction",
    "separability_certificate",
    "LocalMapPair",
    "SingularMarginal",
    "StandardFormResult",
    "apply_local_maps",
    "to_standard_form",
    "CountsDataset",
    "EstimatedState",
    "estimate_correlations",
    "mix_datasets",
    "monte_carlo_propagate",
    "repair_to_physical",
    "simulate_counts",
    "SIGMA_YY",
    "DiagObservable",
    "SeparabilityEigenpair",
    "WitnessVerdict",
    "analytic_spectrum",
    "bounds",
    "evaluate_witness",
    "numeric_separability_eigs",
]

__version__ = "0.1.0"
