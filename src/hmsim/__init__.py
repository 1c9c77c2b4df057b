"""Deterministic contextual simulator for dichotomic quantum measurements
and history propositions, with exact dyadic enumeration and seeded
Monte Carlo verification."""

from types import ModuleType as _ModuleType

from .dichotomic import (
    BlochVector,
    DichotomicOutcome,
    DiscreteContext,
    DyadicRule,
    bloch_of_qubit,
    continuous_outcome,
    continuous_probability,
    diagonal_coordinate,
    dyadic_outcome,
    dyadic_outcome_geometric,
    dyadic_partial_sum,
    qubit_from_angles,
)
from .errors import (
    DegenerateSpanError,
    DimensionError,
    DisjointnessError,
    DomainError,
    EmptyTensorError,
    HmsimError,
    InfeasibleError,
    InvariantError,
    NormalizationError,
    SupportError,
)
from .hilbert import (
    Projector,
    StateVector,
    UnitaryMap,
    apply_projector,
    born_probability,
    complement_projector,
    conjugate,
    inner_product,
    ketbra,
    projector_from_span,
    tensor_projectors,
    tensor_vectors,
)
from .histories import (
    Convention,
    HistoryOutcome,
    HomogeneousHistory,
    InhomogeneousHistory,
    PseudoProjection,
    TemporalSupport,
    are_disjoint,
    check_disjoint_family,
    conjugate_history,
    disjoint_or,
    downset_contains,
    history_hms_outcome,
    history_probability,
    hpo_negation,
    hpo_projector,
    inhomogeneous_probability,
    pseudo_project,
    trajectory,
)
from .rng import RandomSource, draw_lambda
from .sampler import (
    ExactCheckReport,
    FrequencySummary,
    Model,
    exact_check,
    lambda_preimage,
    run_dichotomic,
    run_history,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
