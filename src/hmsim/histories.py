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

Disjointness is decided slot by slot (check_disjoint_family), in bounded time:
the slowest family the bounds admit that we know of, 1024 branches cycling
through 64 one-slot histories, each over its own dim-64 zero projector (4096
fresh 64x64 products, 523,776 pairs), takes 0.31-0.45 s on one 2-vCPU Xeon
core with one OpenBLAS thread. Only hpo_projector, hpo_negation and
disjoint_or build d**n-sized matrices, and PseudoProjection.tensor a d**n-sized
vector; each refuses totals above hilbert.MAX_DENSE_DIM before any Kronecker product.

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
from functools import cache
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
MAX_ORHISTORY_BRANCHES = 1024  # of a disjoint family: 523,776 pairs
MAX_ORHISTORY_PRODUCTS = 1 << 12  # min(b(b-1)/2, u**2) * n for b branches of u objects, n slots


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


def check_disjoint_family(branches) -> tuple[HomogeneousHistory, ...]:
    """The branches as a tuple, once they share one layout and are pairwise disjoint.

    The first branch k whose support or slot dims differ from branch 0's is named by
    SupportError's pair (0, k). A pair is disjoint when max|(x_k A_k)(x_k B_k)| =
    prod_k max|A_k B_k| <= DISJOINT_TOL, an O(n d^3) test by the Kronecker
    identities in Van Loan, J. Comput. Appl. Math. 123, 85 (2000). The first failing
    pair (i, j) is named. A family of more than MAX_ORHISTORY_BRANCHES branches, or
    one that may need more than MAX_ORHISTORY_PRODUCTS slot products, raises
    DomainError before any product. Each ordered pair of history objects, and of
    projector objects (they hash by identity), is multiplied once, so the two memo
    tables, which live for one call, hold at most MAX_ORHISTORY_PRODUCTS entries.
    """
    branches = tuple(branches)
    if not branches:
        raise DisjointnessError("at least one branch required")
    for k, b in enumerate(branches):
        if b.support != branches[0].support:
            raise SupportError("histories have different temporal supports", pair=(0, k))
        if b.factor_dims != branches[0].factor_dims:
            raise SupportError("histories have different slot dimensions", pair=(0, k))
    count = len(branches)
    products = min(count * (count - 1) // 2, len(set(branches)) ** 2) * branches[0].length
    if count > MAX_ORHISTORY_BRANCHES or products > MAX_ORHISTORY_PRODUCTS:
        raise DomainError(f"{count} branches need up to {products} slot products; at most"
                          f" {MAX_ORHISTORY_BRANCHES} branches and {MAX_ORHISTORY_PRODUCTS}"
                          " products are supported")
    slot_overlap = cache(lambda pa, pb: float(np.max(np.abs(pa.matrix @ pb.matrix))))
    overlap = cache(lambda a, b: math.prod(map(slot_overlap, a.projectors, b.projectors)))
    for i, j in combinations(range(count), 2):
        if not overlap(branches[i], branches[j]) <= DISJOINT_TOL:
            raise DisjointnessError(f"branches {i} and {j} are not disjoint", pair=(i, j))
    return branches


def are_disjoint(a: HomogeneousHistory, b: HomogeneousHistory) -> bool:
    try:
        check_disjoint_family((a, b))
    except DisjointnessError:
        return False
    return True


def hpo_projector(a: HomogeneousHistory) -> Projector:
    """Pure-tensor projector of the history's slots."""
    return tensor_projectors(a.projectors)


def hpo_negation(a: HomogeneousHistory) -> Projector:
    """Identity minus the pure tensor."""
    return complement_projector(hpo_projector(a))


def disjoint_or(branches) -> Projector:
    """Sum of the branch tensors of a pairwise-disjoint family, not checked again: its
    errors reach the branches' errors plus their pairwise overlaps."""
    branches = check_disjoint_family(branches)
    return Projector._trusted(sum(tensor_projectors(b.projectors).matrix for b in branches))


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
        amps = proj.matrix.dot(amps)
        s = float(np.vdot(amps, amps).real)
        if s < ZERO_SURVIVAL_TOL:
            yield s, None
            return
        amps /= math.sqrt(s)  # a fresh array: the caller's amplitudes are never written
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
    return _chain_probability(p.amplitudes, a.projectors, convention)


def _chain_probability(amps: np.ndarray, projectors, convention: Convention) -> float:
    """history_probability of a normalized state's amplitudes, of every slot's dim."""
    if convention is Convention.LUEDERS:
        prob = 1.0
        for s, q in _lueders_chain(amps, projectors):
            if q is None:
                return 0.0
            prob *= s
        return min(prob, 1.0)
    if convention is Convention.LITERAL:
        prob = 1.0
        for proj in projectors:
            amps = proj.matrix.dot(amps)
            prob *= float(np.vdot(amps, amps).real)
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
    _require_state_fits(p, h.branches[0])  # every branch has branch 0's slot dims
    return _branch_total(_chain_probability(p.amplitudes, b.projectors, convention)
                         for b in h.branches)


def _branch_total(probs) -> float:
    """Branch probabilities summed in the order given; see inhomogeneous_probability."""
    total = sum(probs)
    return 1.0 if 1.0 < total <= 1.0 + 1e-12 else total


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
