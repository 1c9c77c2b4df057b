"""Deterministic outcome rules for yes/no measurements.

Two families of models are implemented. In the continuous model the hidden
context is a uniform coordinate ``u`` on the chord between the measurement
direction and its antipodal point; the outcome is a threshold function of
``u`` against the projected state coordinate ``t``. In the discrete models the
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

Both expansions are the target truncated to ``depth`` binary digits. With
the fixed-point numerator ``num / 2**bits`` and ``s = bits - depth``, the
greedy rule keeps ``num >> s`` (``2**depth - 1`` when the target is 1), and
the parity rule keeps the complement of the digits of t,
``2**depth - 1 - (t_num >> s)`` (0 when t is 1). Level i answers ALPHA iff
digit ``depth - i`` of that integer is set, and the integer shifted left by
``s`` is the partial sum on the ``2**-bits`` grid. Neither rule branches, so
the same shifts serve a Python int (``expand``) and an int64 array (``_exact_checks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import SCALE_BITS
from .errors import DomainError, InvariantError
from .hilbert import StateVector


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

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


# Position on the chord from the measurement direction (t=0) to its antipodal point (t=1).
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


def continuous_probability(t: DiagonalCoordinate) -> float:
    """ALPHA probability under a uniform context coordinate: 1 - t."""
    _check_unit_interval(t, "t")
    return 1.0 - t


def _check_unit_interval(x: float, name: str) -> None:
    if not isinstance(x, (int, float)) or isinstance(x, bool) or math.isnan(x):
        raise DomainError(f"{name} must be a real number in [0,1], got {x!r}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"{name}={x!r} outside [0,1]")


def _fixed_point(x: float, depth: int) -> tuple[int, int]:
    """x in [0,1] as a numerator on the 2**-bits grid, with bits = max(SCALE_BITS, depth).

    x is rounded onto the 2**-SCALE_BITS grid (ties to even). Scaling by a
    power of two is exact in binary64, so the only rounding is the final
    one; inputs with 53-bit significands above 2**-7 are already on the grid
    and survive unchanged.
    """
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise DomainError(f"level must be a positive integer, got {depth!r}")
    _check_unit_interval(x, "probability")
    bits = max(SCALE_BITS, depth)
    return round(x * float(1 << SCALE_BITS)) << (bits - SCALE_BITS), bits


def _greedy_digits(num, s: int, depth: int):
    """Greedy binary decomposition of num/2**bits down to level `depth`, s = bits - depth.

    Level i is ALPHA iff the target is >= the running sum plus 2**-i, with
    the comparison closed (>=), so exact hits are taken: that is numerator
    bit bits-i, or every level for a target of 1, the one with g >> depth = 1.
    """
    g = num >> s
    return g - (g >> depth)


def _parity_digits(t_num, s: int, depth: int):
    """Even-cell rule: level i is ALPHA iff floor(t * 2**i) is even, i.e. iff
    bit bits-i of t_num is clear (s = bits - depth).

    t = 1 exactly never answers ALPHA (there q >> depth = 1), so that a state
    antipodal to the measurement direction has ALPHA probability exactly zero.
    """
    q = t_num >> s
    return (1 << depth) - 1 - q + (q >> depth)


@dataclass(frozen=True)
class DyadicExpansion:
    """Exact record of the level outcomes for levels 1..depth.

    `numerator`/2**`bits` is the fixed-point target probability (for the
    parity rule this is still the ALPHA probability 1 - t, converted in
    integer arithmetic so no float subtraction is involved). `digits`/2**`depth`
    is the partial sum: bit depth-i of `digits` is set iff level i is ALPHA.
    """

    numerator: int
    bits: int
    depth: int
    digits: int

    def outcome(self, lam: int) -> DichotomicOutcome:
        if not 1 <= lam <= self.depth:
            raise DomainError(f"level {lam} outside expansion depth {self.depth}")
        if (self.digits >> (self.depth - lam)) & 1:
            return DichotomicOutcome.ALPHA
        return DichotomicOutcome.NOT_ALPHA

    @property
    def partial_sum_numerator(self) -> int:
        """Sum of 2**(bits-i) over the ALPHA levels i."""
        return self.digits << (self.bits - self.depth)

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


def _parity_expansion(t: int, bits: int, depth: int) -> DyadicExpansion:
    return DyadicExpansion((1 << bits) - t, bits, depth, _parity_digits(t, bits - depth, depth))


def expand(prob: float, depth: int, rule: DyadicRule = DyadicRule.GREEDY) -> DyadicExpansion:
    """Level outcomes 1..depth for target ALPHA probability `prob`."""
    num, bits = _fixed_point(prob, depth)
    if rule is DyadicRule.GREEDY:
        return DyadicExpansion(num, bits, depth, _greedy_digits(num, bits - depth, depth))
    if rule is DyadicRule.GEOMETRIC:
        return _parity_expansion((1 << bits) - num, bits, depth)
    raise DomainError(f"unknown rule {rule!r}")


def _exact_checks(probs: list[float], level: int) -> tuple[list, list, list]:
    """The partial_sum, abs_error and bound_satisfied columns of sampler.exact_check for
    each target under GREEDY, then GEOMETRIC, at a level <= SCALE_BITS, in int64. rint
    rounds ties to even, as round does; int64 -> float64 / 2**60 rounds as int / int."""
    p = np.asarray(probs, dtype=np.float64)
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))  # NaN too, refused as expand does
    if bad.size:
        _check_unit_interval(probs[bad[0]], "probability")
    one, s = 1 << SCALE_BITS, SCALE_BITS - level
    num = np.rint(p * float(one)).astype(np.int64)
    partial = np.stack((_greedy_digits(num, s, level), _parity_digits(one - num, s, level)), 1) << s
    err = num[:, None] - partial
    return ((partial / one).ravel().tolist(), (err / one).ravel().tolist(),
            ((err >= 0) & (err <= 1 << s)).ravel().tolist())


def expand_geometric_t(t: float, depth: int) -> DyadicExpansion:
    """Parity-rule outcomes parameterized directly by the chord coordinate t."""
    return _parity_expansion(*_fixed_point(t, depth), depth)


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
