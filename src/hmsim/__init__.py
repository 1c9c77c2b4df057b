"""Deterministic contextual simulator for dichotomic quantum measurements
and history propositions, with exact dyadic enumeration and seeded
Monte Carlo verification.

Names resolve lazily (PEP 562): `import hmsim` loads no submodule and no
numpy, and `hmsim.<name>` imports the submodule that defines it on first
access. So `hmsim.cli` can set the process's BLAS defaults before numpy
loads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dichotomic": (
        "BlochVector", "DichotomicOutcome", "DiscreteContext", "DyadicRule", "bloch_of_qubit",
        "continuous_probability", "diagonal_coordinate", "dyadic_outcome",
        "dyadic_outcome_geometric", "dyadic_partial_sum", "qubit_from_angles",
    ),
    "errors": (
        "DegenerateSpanError", "DimensionError", "DisjointnessError", "DomainError",
        "EmptyTensorError", "HmsimError", "InfeasibleError", "InvariantError",
        "NormalizationError", "SupportError",
    ),
    "hilbert": (
        "Projector", "StateVector", "UnitaryMap", "born_probability", "complement_projector",
        "conjugate", "ketbra", "projector_from_span", "tensor_projectors", "tensor_vectors",
    ),
    "histories": (
        "Convention", "HistoryOutcome", "HomogeneousHistory", "InhomogeneousHistory",
        "PseudoProjection", "TemporalSupport", "are_disjoint", "check_disjoint_family",
        "conjugate_history", "disjoint_or", "history_probability", "hpo_negation", "hpo_projector",
        "inhomogeneous_probability", "pseudo_project", "trajectory",
    ),
    "rng": ("RandomSource", "draw_lambda"),
    "sampler": (
        "ExactCheckReport", "FrequencySummary", "Model", "exact_check", "run_dichotomic",
        "run_history",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", "edl", *_EXPORTS})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it on the package
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
