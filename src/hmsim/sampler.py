"""Monte Carlo runners and exact enumeration checks.

Sampling consumes one stream in trial order, in fixed blocks of BLOCK_WORDS
words, and keeps only integer counts, so results are a pure function of
(seed, stream_id, inputs) and memory does not depend on the trial count.
The target probability is fixed across trials, so each experiment reduces
its outcome rule once to one test on a trial's raw 64-bit word w, and a
trial costs one integer comparison:

- Discrete models. The level of w is min(65 - bit_length(w), lambda_max),
  so level i < lambda_max is the top set bit 64 - i, and the cap level is
  every lower bit and w = 0. The mask P = digits << (64 - lambda_max), with
  the low 64 - lambda_max bits also set when the cap level is ALPHA, holds
  exactly the bits whose level is ALPHA. A nonzero w's top bit lies in one
  of w & P and w & ~P, which is then the larger, so the trial is ALPHA iff
  (w & P) > (w & ~P); at w = 0 both are 0, so >= when the cap is ALPHA.
- Continuous model. RandomSource.uniforms defines u = (w >> 11) * 2**-53, and
  t * 2**53 is exact for t in [0, 1], so u >= t iff w >= ceil(t * 2**53) << 11.
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
from .rng import RandomSource, _check_lambda_max

# Words drawn per block: sampling memory is bounded by this, not by the trial
# count. In process on a 2-vCPU Xeon, 5e6 trials of each of the three models took
# 128 ms at 2**12 words (per-call overhead), 112 ms at 2**14 and 116 ms at 2**16,
# medians of 10 interleaved rounds; 2**16 saves no time, and its two live 512 KiB
# blocks add 0.8 MiB to the peak RSS of a 5e6-trial `hmsim sphere`.
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


def _word_test(model: Model, value: float, lambda_max: int) -> tuple[float, int, bool]:
    """Expected probability, the word constant c of the ALPHA test and whether the
    test is closed (>=) or open (>): w against c for CONTINUOUS (w >= 2**64 is
    written w > 2**64 - 1), w & c against w & ~c for the discrete models."""
    if model is Model.CONTINUOUS:
        expected, bound = continuous_probability(value), math.ceil(value * 2.0**53) << 11
        return (expected, bound, True) if bound < 1 << 64 else (expected, bound - 1, False)
    if model is Model.GREEDY:
        expected, exp = value, expand(value, lambda_max, DyadicRule.GREEDY)
    elif model is Model.GEOMETRIC:
        expected, exp = continuous_probability(value), expand_geometric_t(value, lambda_max)
    else:
        raise DomainError(f"unknown model {model!r}")
    low, cap = 64 - lambda_max, exp.digits & 1
    return expected, exp.digits << low | ((1 << low) - 1) * cap, bool(cap)


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
    expected, word, closed = _word_test(model, value, lambda_max)
    compare, word = np.greater_equal if closed else np.greater, np.uint64(word)
    blocks = (rng.raw64s(min(BLOCK_WORDS, n - start)) for start in range(0, n, BLOCK_WORDS))
    if model is Model.CONTINUOUS:
        count = sum(int(np.count_nonzero(compare(w, word))) for w in blocks)
    else:
        # w & P first, then w & ~P into w itself, so that two block-sized arrays are live
        count = sum(int(np.count_nonzero(compare(w & word, np.bitwise_and(w, ~word, out=w))))
                    for w in blocks)
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
