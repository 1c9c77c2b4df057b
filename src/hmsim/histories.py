"""History propositions as projectors on a tensor-product space.

A homogeneous history is a time-ordered sequence of projectors, represented
as the pure-tensor projector of its slots (the history projection operator,
HPO, of Isham, J. Math. Phys. 35, 2157 (1994)). Negation is identity minus
that tensor, and the "or" of a disjoint family is the sum of the branch
tensors. Probabilities come from chaining the slot projectors through the
initial state, in one walk over amplitude arrays (_lueders_chain); only
pseudo_project and trajectory, which return states, wrap its images as
StateVectors. The deterministic outcome at a context level is the greedy
dyadic rule applied to that probability (sampler.run_history).

Disjointness is decided slot by slot (check_disjoint_family). Only
hpo_projector, hpo_negation and disjoint_or build d**n-sized matrices, and
they refuse totals above MAX_DENSE_DIM.

Two probability conventions are provided. LUEDERS renormalizes the state
after every slot and multiplies the step survival weights, giving the
sequential-measurement value ||pi_n ... pi_1 p||^2; it satisfies
P(A) + P(not A) = 1. LITERAL evaluates the tensor-space expectation on the
raw unnormalized projection chain, which multiplies the cumulative survival
weights instead; the two agree for single-time histories and differ beyond
that. LUEDERS is the default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import (
    DimensionError,
    DisjointnessError,
    DomainError,
    InfeasibleError,
    SupportError,
)
from .hilbert import (
    Projector,
    StateVector,
    complement_projector,
    conjugate,
    tensor_projectors,
    tensor_vectors,
)

DISJOINT_TOL = 1e-10
ZERO_SURVIVAL_TOL = 1e-24  # on a squared norm
MAX_DENSE_DIM = 2048  # total dim of a dense history operator; 64 MiB as complex128


class Convention(Enum):
    LUEDERS = "lueders"
    LITERAL = "literal"


class HistoryOutcome(Enum):
    A = "A"
    NOT_A = "NOT_A"


@dataclass(frozen=True)
class TemporalSupport:
    """Strictly increasing, nonempty time stamps."""

    times: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if not ts:
            raise SupportError("temporal support must contain at least one time")
        if any(not (a < b) for a, b in zip(ts, ts[1:])):
            raise SupportError(f"times must be strictly increasing, got {ts}")
        object.__setattr__(self, "times", ts)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class HomogeneousHistory:
    support: TemporalSupport
    projectors: tuple[Projector, ...]

    def __post_init__(self):
        projs = tuple(self.projectors)
        if len(projs) != len(self.support):
            raise DimensionError(
                f"{len(projs)} projectors for {len(self.support)} time points"
            )
        object.__setattr__(self, "projectors", projs)

    @classmethod
    def at_times(cls, times, projectors) -> "HomogeneousHistory":
        return cls(TemporalSupport(tuple(times)), tuple(projectors))

    @property
    def length(self) -> int:
        return len(self.projectors)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(p.space_dim for p in self.projectors)


@dataclass(frozen=True, eq=False)
class InhomogeneousHistory:
    """Disjoint family of homogeneous histories on one support.

    The branch list is a chosen decomposition: it fixes the physical
    procedure, so two different branch lists with the same projector sum are
    deliberately distinct values.
    """

    branches: tuple[HomogeneousHistory, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", check_disjoint_family(self.branches))


@dataclass(frozen=True, eq=False)
class PseudoProjection:
    """Normalized projection chain of an initial state along a history.

    `chain` holds the pre-slot states (q0 = p, then the renormalized image
    after each of the first n-1 slots); `survival` holds the squared norms
    lost at those steps. If a step annihilates the state the chain stops
    there and `annihilated` is set.
    """

    chain: tuple[StateVector, ...]
    survival: tuple[float, ...]
    annihilated: bool

    @property
    def tensor(self) -> StateVector:
        """Tensor product of the chain, built on each access."""
        return tensor_vectors(self.chain)


def _check_same_layout(a: HomogeneousHistory, b: HomogeneousHistory) -> None:
    if a.support != b.support:
        raise SupportError("histories have different temporal supports")
    if a.factor_dims != b.factor_dims:
        raise SupportError("histories have different slot dimensions")


def check_disjoint_family(branches) -> tuple[HomogeneousHistory, ...]:
    """The branches as a tuple, once they share one layout and are pairwise disjoint.

    A pair is disjoint when max|(x_k A_k)(x_k B_k)| = prod_k max|A_k B_k| <=
    DISJOINT_TOL, an O(n d^3) test by the Kronecker identities in Van Loan, J.
    Comput. Appl. Math. 123, 85 (2000). The first failing pair (i, j) is named.
    """
    branches = tuple(branches)
    if not branches:
        raise DisjointnessError("at least one branch required")
    for b in branches[1:]:
        _check_same_layout(branches[0], b)
    for i, j in combinations(range(len(branches)), 2):
        slots = zip(branches[i].projectors, branches[j].projectors)
        overlap = math.prod(float(np.max(np.abs(pa.matrix @ pb.matrix))) for pa, pb in slots)
        if not overlap <= DISJOINT_TOL:
            raise DisjointnessError(f"branches {i} and {j} are not disjoint", pair=(i, j))
    return branches


def are_disjoint(a: HomogeneousHistory, b: HomogeneousHistory) -> bool:
    try:
        check_disjoint_family((a, b))
    except DisjointnessError:
        return False
    return True


def _check_dense_dim(a: HomogeneousHistory) -> None:
    total = math.prod(a.factor_dims)
    if total > MAX_DENSE_DIM:
        raise DomainError(f"dense history operator dim {total} exceeds {MAX_DENSE_DIM}")


def hpo_projector(a: HomogeneousHistory) -> Projector:
    """Pure-tensor projector of the history's slots."""
    _check_dense_dim(a)
    return tensor_projectors(a.projectors)


def hpo_negation(a: HomogeneousHistory) -> Projector:
    """Identity minus the pure tensor."""
    return complement_projector(hpo_projector(a))


def disjoint_or(branches) -> Projector:
    """Sum of the branch tensors of a pairwise-disjoint family."""
    branches = check_disjoint_family(branches)
    _check_dense_dim(branches[0])
    return Projector(sum(tensor_projectors(b.projectors).matrix for b in branches))


def _require_state_fits(p: StateVector, a: HomogeneousHistory) -> None:
    p.require_normalized()
    for k, proj in enumerate(a.projectors):
        if proj.space_dim != p.space_dim:
            raise DimensionError(
                f"slot {k} has dim {proj.space_dim}, state has dim {p.space_dim}"
            )


def _lueders_chain(amps: np.ndarray, projectors):
    """(survival, renormalized image) per slot of the Lueders chain, on amplitude arrays.

    At the first slot whose survival is below ZERO_SURVIVAL_TOL the image is
    None and the walk stops.
    """
    for proj in projectors:
        w = proj.matrix @ amps
        s = float(np.real(np.vdot(w, w)))
        if s < ZERO_SURVIVAL_TOL:
            yield s, None
            return
        amps = w / math.sqrt(s)
        yield s, amps


def pseudo_project(p: StateVector, a: HomogeneousHistory) -> PseudoProjection:
    """Chain the state through the first n-1 slots, renormalizing each step."""
    _require_state_fits(p, a)
    chain: list[StateVector] = [p]
    survival: list[float] = []
    for s, q in _lueders_chain(p.amplitudes, a.projectors[:-1]):
        survival.append(s)
        if q is None:
            return PseudoProjection(tuple(chain), tuple(survival), True)
        chain.append(StateVector(q))
    return PseudoProjection(tuple(chain), tuple(survival), False)


def history_probability(
    p: StateVector, a: HomogeneousHistory, convention: Convention = Convention.LUEDERS
) -> float:
    """Probability of the affirmative outcome for a homogeneous history.

    LUEDERS multiplies the per-step survival weights of the renormalized
    chain (telescopes to ||pi_n ... pi_1 p||^2). LITERAL evaluates the
    tensor expectation on the unnormalized chain, i.e. the product of the
    cumulative survivals ||pi_k ... pi_1 p||^2 over all slots.
    """
    _require_state_fits(p, a)
    if convention is Convention.LUEDERS:
        prob = 1.0
        for s, q in _lueders_chain(p.amplitudes, a.projectors):
            if q is None:
                return 0.0
            prob *= s
        return min(prob, 1.0)
    if convention is Convention.LITERAL:
        amps = p.amplitudes
        prob = 1.0
        for proj in a.projectors:
            amps = proj.matrix @ amps
            prob *= float(np.real(np.vdot(amps, amps)))
            if prob < ZERO_SURVIVAL_TOL:
                return 0.0
        return min(prob, 1.0)
    raise DomainError(f"unknown convention {convention!r}")


def inhomogeneous_probability(
    p: StateVector, h: InhomogeneousHistory, convention: Convention = Convention.LUEDERS
) -> float:
    """Branch probabilities summed in index order, one procedure per branch.

    Roundoff can push a sum that is mathematically 1 a few ulps above it;
    such sums are snapped back to 1. Larger sums are genuinely possible
    (each branch is its own procedure, so the terms need not be exclusive
    events of a single experiment) and are returned as computed.
    """
    total = sum(history_probability(p, b, convention) for b in h.branches)
    if 1.0 < total <= 1.0 + 1e-12:
        return 1.0
    return total


def trajectory(
    p: StateVector, a: HomogeneousHistory, outcome: HistoryOutcome
) -> tuple[StateVector, ...] | None:
    """Post-slot states when the affirmative outcome occurred; None otherwise.

    A negative outcome determines no trajectory. Requesting the affirmative
    trajectory when its probability vanishes is infeasible.
    """
    if outcome is HistoryOutcome.NOT_A:
        return None
    _require_state_fits(p, a)
    states: list[StateVector] = []
    for _, q in _lueders_chain(p.amplitudes, a.projectors):
        if q is None:
            raise InfeasibleError("affirmative outcome has probability zero")
        states.append(StateVector(q))
    return tuple(states)


def conjugate_history(a: HomogeneousHistory, us) -> HomogeneousHistory:
    """Slotwise unitary conjugation of the history's projectors."""
    us = tuple(us)
    if len(us) != a.length:
        raise DimensionError(f"{len(us)} unitaries for {a.length} slots")
    rotated = tuple(conjugate(p, u) for p, u in zip(a.projectors, us))
    return HomogeneousHistory(a.support, rotated)
