"""Deterministic outcome rules for yes/no measurements.

Two families of models are implemented. In the continuous model the hidden
context is a uniform coordinate ``u`` on the chord between the measurement
direction and its antipode; the outcome is a threshold function of ``u``
against the projected state coordinate ``t``. In the discrete models the
hidden context is a positive integer level ``lam`` carrying weight
``2**-lam``, and the outcome at each level is fixed either by a greedy
running-sum rule on the target probability or by the parity of the cell the
state coordinate falls into when the chord is split into ``2**lam`` equal
half-open cells.

Both discrete rules recover the target probability: the weights of the
ALPHA levels form a binary decomposition of it. The two rules pick the same
levels whenever the target is not a dyadic rational; at dyadics they pick
different (equally valid) decompositions, e.g. 3/4 = 1/2 + 1/4 for the
greedy rule versus 1/2 + 1/8 + 1/16 + ... for the parity rule.

All level decisions are made in exact fixed-point arithmetic: the scalar
input is first rounded onto the ``2**-60`` grid, after which every
comparison is an integer comparison. This makes the decompositions
bit-identical across platforms.

Both masks are read off the binary digits of the fixed-point numerator
``num / 2**bits``: level i is decided by numerator bit ``bits - i``, and
mask bit ``i - 1`` holds the answer, so a mask is the top ``depth`` digits
in reverse order. The greedy rule takes the digits of the target itself (all
levels when the target is 1). The parity rule takes the complement of the
digits of t (no level when t is 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DomainError, InvariantError
from .hilbert import StateVector

SCALE_BITS = 60
LAMBDA_CAP = 60  # enumeration cap used by samplers and the CLI


class DichotomicOutcome(Enum):
    ALPHA = "alpha"
    NOT_ALPHA = "not_alpha"


class DyadicRule(Enum):
    GREEDY = "greedy"
    GEOMETRIC = "geometric"


@dataclass(frozen=True)
class BlochVector:
    """Unit vector in R^3 representing a qubit ray."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if abs(self.x * self.x + self.y * self.y + self.z * self.z - 1.0) > 1e-12:
            raise InvariantError("Bloch vector must have unit norm")

    @classmethod
    def from_angles(cls, theta: float, phi: float = 0.0) -> "BlochVector":
        st = math.sin(theta)
        v = (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
        n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        return cls(v[0] / n, v[1] / n, v[2] / n)

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def antipode(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)


# Position on the chord from the measurement direction (t=0) to its antipode (t=1).
DiagonalCoordinate = float


@dataclass(frozen=True)
class DiscreteContext:
    """Discrete context level with weight 2**-lam."""

    lam: int

    def __post_init__(self):
        if not isinstance(self.lam, int) or isinstance(self.lam, bool) or self.lam < 1:
            raise DomainError(f"context level must be a positive integer, got {self.lam!r}")
        if self.lam > 1074:
            raise DomainError("context level beyond float64 range for its weight")

    @property
    def weight(self) -> float:
        return 2.0 ** (-self.lam)


def bloch_of_qubit(p: StateVector) -> BlochVector:
    """Bloch coordinates (2 Re a*b, 2 Im a*b, |a|^2 - |b|^2) of a normalized qubit."""
    if p.space_dim != 2:
        raise DomainError(f"expected a qubit, got dim {p.space_dim}")
    p.require_normalized()
    a, b = complex(p.amplitudes[0]), complex(p.amplitudes[1])
    ab = a.conjugate() * b
    return BlochVector(2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2)


def qubit_from_angles(theta: float, phi: float = 0.0) -> StateVector:
    """Normalized qubit state (cos(theta/2), e^{i phi} sin(theta/2))."""
    return StateVector.of(
        [math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)]
    )


def diagonal_coordinate(p: BlochVector, alpha: BlochVector) -> DiagonalCoordinate:
    """Orthogonal projection of p onto the alpha chord, as t = (1 - p.alpha)/2."""
    t = (1.0 - p.dot(alpha)) / 2.0
    return min(max(t, 0.0), 1.0)


def continuous_outcome(t: DiagonalCoordinate, u: float) -> DichotomicOutcome:
    """ALPHA iff the context coordinate u lies at or beyond t (closed at u == t)."""
    _check_unit_interval(t, "t")
    _check_unit_interval(u, "u")
    return DichotomicOutcome.ALPHA if u >= t else DichotomicOutcome.NOT_ALPHA


def continuous_probability(t: DiagonalCoordinate) -> float:
    """ALPHA probability under a uniform context coordinate: 1 - t."""
    _check_unit_interval(t, "t")
    return 1.0 - t


def _check_unit_interval(x: float, name: str) -> None:
    if not isinstance(x, (int, float)) or isinstance(x, bool) or math.isnan(x):
        raise DomainError(f"{name} must be a real number in [0,1], got {x!r}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"{name}={x!r} outside [0,1]")


def _check_level(lam: int) -> int:
    if not isinstance(lam, int) or isinstance(lam, bool) or lam < 1:
        raise DomainError(f"level must be a positive integer, got {lam!r}")
    return lam


def _fixed_point(x: float) -> int:
    """Round x in [0,1] onto the 2**-SCALE_BITS grid (ties to even).

    Scaling by a power of two is exact in binary64, so the only rounding is
    the final one; inputs with 53-bit significands above 2**-7 are already
    on the grid and survive unchanged.
    """
    _check_unit_interval(x, "probability")
    return round(x * float(1 << SCALE_BITS))


def _reversed_digits(x: int, width: int) -> int:
    """The low `width` binary digits of x in reverse order."""
    return int(format(x & ((1 << width) - 1), f"0{width}b")[::-1], 2)


def _greedy_alpha_mask(num: int, bits: int, depth: int) -> int:
    """Greedy binary decomposition of num/2**bits down to level `depth` <= `bits`.

    Level i is ALPHA iff the target is >= the running sum plus 2**-i, with
    the comparison closed (>=), so exact hits are taken: that is numerator
    bit bits-i, or every level for a target of 1.
    """
    if num >= 1 << bits:
        return (1 << depth) - 1
    return _reversed_digits(num >> (bits - depth), depth)


def _parity_alpha_mask(t_num: int, bits: int, depth: int) -> int:
    """Even-cell rule: level i is ALPHA iff floor(t * 2**i) is even, i.e. iff
    bit bits-i of t_num is clear (`depth` <= `bits`).

    t = 1 exactly never answers ALPHA, so that a state antipodal to the
    measurement direction has ALPHA probability exactly zero.
    """
    if t_num == 1 << bits:
        return 0
    return _reversed_digits(~(t_num >> (bits - depth)), depth)


@dataclass(frozen=True)
class DyadicExpansion:
    """Exact record of the level outcomes for levels 1..depth.

    `numerator`/2**`bits` is the fixed-point target probability (for the
    parity rule this is still the ALPHA probability 1 - t, converted in
    integer arithmetic so no float subtraction is involved). Bit i-1 of
    `alpha_mask` is set iff the outcome at level i is ALPHA.
    """

    numerator: int
    bits: int
    depth: int
    alpha_mask: int

    def outcome(self, lam: int) -> DichotomicOutcome:
        if not 1 <= lam <= self.depth:
            raise DomainError(f"level {lam} outside expansion depth {self.depth}")
        if (self.alpha_mask >> (lam - 1)) & 1:
            return DichotomicOutcome.ALPHA
        return DichotomicOutcome.NOT_ALPHA

    def alpha_levels(self) -> list[int]:
        return [i for i in range(1, self.depth + 1) if (self.alpha_mask >> (i - 1)) & 1]

    def alpha_bools(self) -> np.ndarray:
        """Boolean table indexed by level-1; used for vectorized sampling."""
        return np.array(
            [(self.alpha_mask >> i) & 1 == 1 for i in range(self.depth)], dtype=bool
        )

    @cached_property
    def partial_sum_numerator(self) -> int:
        """Sum of 2**(bits-i) over the ALPHA levels i: the mask's digits reversed."""
        return _reversed_digits(self.alpha_mask, self.depth) << (self.bits - self.depth)

    @property
    def abs_error_numerator(self) -> int:
        return self.numerator - self.partial_sum_numerator

    def partial_sum(self) -> float:
        return self.partial_sum_numerator / (1 << self.bits)

    def abs_error(self) -> float:
        return self.abs_error_numerator / (1 << self.bits)

    def bound_satisfied(self) -> bool:
        """0 <= target - partial_sum <= 2**-depth, checked in exact integers.

        The upper end is attained (closed) exactly when every level up to
        the depth answered ALPHA, e.g. for a target of 1.
        """
        return 0 <= self.abs_error_numerator <= (1 << (self.bits - self.depth))


def expand(prob: float, depth: int, rule: DyadicRule = DyadicRule.GREEDY) -> DyadicExpansion:
    """Level outcomes 1..depth for target ALPHA probability `prob`."""
    _check_level(depth)
    num60 = _fixed_point(prob)
    bits = max(SCALE_BITS, depth)
    num = num60 << (bits - SCALE_BITS)
    if rule is DyadicRule.GREEDY:
        mask = _greedy_alpha_mask(num, bits, depth)
    elif rule is DyadicRule.GEOMETRIC:
        mask = _parity_alpha_mask((1 << bits) - num, bits, depth)
    else:
        raise DomainError(f"unknown rule {rule!r}")
    return DyadicExpansion(num, bits, depth, mask)


def expand_geometric_t(t: float, depth: int) -> DyadicExpansion:
    """Parity-rule outcomes parameterized directly by the chord coordinate t."""
    _check_level(depth)
    t60 = _fixed_point(t)
    bits = max(SCALE_BITS, depth)
    t_num = t60 << (bits - SCALE_BITS)
    mask = _parity_alpha_mask(t_num, bits, depth)
    return DyadicExpansion((1 << bits) - t_num, bits, depth, mask)


def dyadic_outcome(prob: float, lam: int) -> DichotomicOutcome:
    """Greedy-rule outcome at a single level."""
    return expand(prob, lam, DyadicRule.GREEDY).outcome(lam)


def dyadic_outcome_geometric(t: float, lam: int) -> DichotomicOutcome:
    """Even-cell parity outcome at a single level, from the chord coordinate t."""
    return expand_geometric_t(t, lam).outcome(lam)


def dyadic_partial_sum(prob: float, depth: int, rule: DyadicRule = DyadicRule.GREEDY) -> float:
    """Sum of 2**-lam over the ALPHA levels lam <= depth.

    For the GEOMETRIC rule the chord coordinate is derived as t = 1 - prob
    in exact integer arithmetic. Depths beyond 60 are supported; the
    accumulation stays exact at any depth (arbitrary-precision integers).
    """
    return expand(prob, depth, rule).partial_sum()
