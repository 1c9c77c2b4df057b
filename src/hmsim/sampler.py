"""Monte Carlo runners and exact enumeration checks.

Sampling consumes one stream in trial order, in fixed blocks of BLOCK_WORDS
words, and keeps only integer counts, so results are a pure function of
(seed, stream_id, inputs) and memory does not depend on the trial count.
Deterministic outcome tables are precomputed per experiment (the target
probability is fixed across trials). A discrete model counts the words of
each bit length b and sums those counts over the b whose level
min(65 - b, lambda_max) the table marks ALPHA; the continuous model counts
the uniforms >= t.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

# histories is reached as hmsim.histories.<name>, loaded on first use, so sample and sphere skip it
import hmsim

from . import LAMBDA_CAP
from .dichotomic import DyadicRule, continuous_probability, expand, expand_geometric_t
from .errors import DomainError
from .rng import RandomSource, _bit_length_u64, _check_lambda_max

# Words drawn per block: sampling memory is bounded by this, not by the trial
# count. 2**14 words keep a block's 128 KiB temporaries in a 2 MiB per-core L2.
# Measured in process, 5e6 greedy trials took 0.040 s at 2**14 words, 0.051 s
# at 2**12 (per-call overhead) and 0.072 s at 2**16 (out of L2).
BLOCK_WORDS = 1 << 14


class Model(Enum):
    CONTINUOUS = "continuous"
    GREEDY = "greedy"
    GEOMETRIC = "geometric"


@dataclass(frozen=True)
class FrequencySummary:
    n_trials: int
    count_alpha: int
    expected_p: float
    z_score: float

    @property
    def frequency(self) -> float:
        return self.count_alpha / self.n_trials


@dataclass(frozen=True)
class ExactCheckReport:
    """Exact enumeration of one target probability up to level L."""

    partial_sum: float
    abs_error: float
    bound_satisfied: bool
    tail_mass: float

    def to_record(self) -> dict:
        return asdict(self)


def summarize(n_trials: int, count_alpha: int, expected_p: float) -> FrequencySummary:
    """Binomial z-score of the observed count against the expected probability.

    For the degenerate probabilities 0 and 1 the score is 0 when the count
    matches exactly and infinite otherwise.
    """
    if n_trials < 1:
        raise DomainError(f"n_trials must be >= 1, got {n_trials}")
    if not 0 <= count_alpha <= n_trials:
        raise DomainError("count outside [0, n_trials]")
    if expected_p in (0.0, 1.0):
        z = 0.0 if count_alpha == int(round(expected_p * n_trials)) else math.inf
    else:
        z = (count_alpha - n_trials * expected_p) / math.sqrt(
            n_trials * expected_p * (1.0 - expected_p)
        )
    return FrequencySummary(int(n_trials), int(count_alpha), float(expected_p), float(z))


def _model_table(model: Model, value: float, lambda_max: int) -> tuple[float, np.ndarray | None]:
    """Expected probability and (for discrete models) the outcome table by level."""
    if model is Model.CONTINUOUS:
        return continuous_probability(value), None
    if model is Model.GREEDY:
        return value, expand(value, lambda_max, DyadicRule.GREEDY).alpha_bools()
    if model is Model.GEOMETRIC:
        return continuous_probability(value), expand_geometric_t(value, lambda_max).alpha_bools()
    raise DomainError(f"unknown model {model!r}")


def run_dichotomic(
    model: Model,
    value: float,
    n: int,
    rng: RandomSource,
    lambda_max: int = LAMBDA_CAP,
) -> FrequencySummary:
    """n independent trials of one dichotomic model.

    `value` is the target probability for GREEDY and the chord coordinate t
    for CONTINUOUS and GEOMETRIC (expected probability 1 - t).
    """
    if n < 1:
        raise DomainError(f"trial count must be >= 1, got {n}")
    _check_lambda_max(lambda_max)
    expected, table = _model_table(model, value, lambda_max)
    blocks = (min(BLOCK_WORDS, n - start) for start in range(0, n, BLOCK_WORDS))
    if model is Model.CONTINUOUS:
        count = sum(int(np.count_nonzero(rng.uniforms(m) >= value)) for m in blocks)
    else:
        by_bits = sum(np.bincount(_bit_length_u64(rng.raw64s(m)), minlength=65) for m in blocks)
        level_of_bits = np.minimum(65 - np.arange(65), lambda_max)
        count = int(by_bits[table[level_of_bits - 1]].sum())
    return summarize(n, count, expected)


def _check_branch_sum(prob: float, where: str = "") -> float:
    """prob, once it is at most 1; `where` opens the message otherwise."""
    if prob > 1.0:
        raise DomainError(
            f"{where}branch procedure probabilities sum to {prob!r}; a sum beyond 1"
            " cannot be realized by a single dichotomic context model"
        )
    return prob


def run_history(
    p: hmsim.hilbert.StateVector,
    a: hmsim.histories.HomogeneousHistory | hmsim.histories.InhomogeneousHistory,
    convention: hmsim.histories.Convention,
    n: int,
    rng: RandomSource,
    lambda_max: int = LAMBDA_CAP,
) -> FrequencySummary:
    """Sample the deterministic history outcome over drawn context levels."""
    if isinstance(a, hmsim.histories.InhomogeneousHistory):
        prob = _check_branch_sum(hmsim.histories.inhomogeneous_probability(p, a, convention))
    else:
        prob = hmsim.histories.history_probability(p, a, convention)
    return run_dichotomic(Model.GREEDY, prob, n, rng, lambda_max)


def exact_check(prob: float, level: int, rule: DyadicRule = DyadicRule.GREEDY) -> ExactCheckReport:
    """Exact partial-sum check: 0 <= prob - sum <= 2**-level, in integer arithmetic.

    abs_error is the exact numerator converted once to float; the bound flag
    itself is decided on integers. tail_mass is the weight of all levels
    beyond the enumeration cap, 2**-level.
    """
    exp = expand(prob, level, rule)
    return ExactCheckReport(
        partial_sum=exp.partial_sum(),
        abs_error=exp.abs_error(),
        bound_satisfied=exp.bound_satisfied(),
        tail_mass=2.0 ** (-level),
    )
