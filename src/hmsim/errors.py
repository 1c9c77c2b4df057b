"""Exception types shared across the package."""


class HmsimError(Exception):
    """Base class for all hmsim errors."""


class DimensionError(HmsimError, ValueError):
    """Operands live on spaces of incompatible dimension."""


class NormalizationError(HmsimError, ValueError):
    """A vector required to be a physical state is not normalized."""


class DegenerateSpanError(HmsimError, ValueError):
    """Spanning set is linearly dependent (or numerically too close to it)."""


class EmptyTensorError(HmsimError, ValueError):
    """Tensor product of zero factors was requested."""


class DomainError(HmsimError, ValueError):
    """Scalar argument outside its admissible domain."""


class InvariantError(HmsimError, ValueError):
    """Constructed value violates a structural invariant (hermiticity, idempotency, ...)."""


class _FamilyError(HmsimError, ValueError):
    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class SupportError(_FamilyError):
    """Histories do not share the temporal support / slot layout; `pair` is (0, k) in a family."""


class DisjointnessError(_FamilyError):
    """Branches of a disjoint family overlap; `pair` is the first (i, j) found."""


class InfeasibleError(HmsimError, ValueError):
    """A trajectory was requested for an outcome that cannot occur."""
