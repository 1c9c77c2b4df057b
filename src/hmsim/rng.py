"""Seeded, splittable random streams: one Philox word stream per key.

Generator contract: numpy's Philox (philox4x64) counter-based bit generator,
period 2**256, keyed by the 128-bit pair (seed, stream_id). Identical
(seed, stream_id) reproduce the identical raw 64-bit word sequence on every
platform, and every draw is made from those words in order; distinct stream
ids give statistically independent streams. A uniform double is the standard
53-bit construction (word >> 11) * 2**-53 of one word, the value numpy's
Generator.random makes from it. The first ten uniforms of (seed=42,
stream_id=0) are frozen as a golden vector in the test suite. hmsim.sampler
counts each raw word with one integer comparison.

Discrete context levels are drawn by scanning the bits of one raw 64-bit
word most-significant first: each bit is one fair Bernoulli trial and the
level is the index of the first set bit, capped at lambda_max (an all-zero
prefix of length lambda_max - 1, probability 2**-(lambda_max - 1), is
assigned to the cap). That index is 65 - bit_length(word), so the level is
min(65 - bit_length(word), lambda_max): a pure function of the bit length.
"""

from __future__ import annotations

import numpy as np

from . import LAMBDA_CAP
from .dichotomic import DiscreteContext
from .errors import DomainError

GENERATOR_NAME = "philox4x64 (numpy Philox), key = (seed, stream_id)"


class RandomSource:
    """One Philox stream identified by (seed, stream_id)."""

    def __init__(self, seed: int = 0, stream_id: int = 0):
        for name, v in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < 2**64:
                raise DomainError(f"{name} must be an integer in [0, 2**64), got {v!r}")
        self.seed = seed
        self.stream_id = stream_id
        self.bit_generator = np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self) -> float:
        return (self.raw64() >> 11) * 2**-53

    def uniforms(self, n: int) -> np.ndarray:
        return (self.raw64s(n) >> np.uint64(11)) * 2.0**-53

    def raw64(self) -> int:
        return self.bit_generator.random_raw()

    def raw64s(self, n: int) -> np.ndarray:
        return self.bit_generator.random_raw(int(n))


_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized int.bit_length for uint64 arrays, as int64: the count of powers of two <= x."""
    return np.searchsorted(_POW2, np.asarray(x, dtype=np.uint64), side="right").astype(np.int64)


def _check_lambda_max(lambda_max: int) -> int:
    if not isinstance(lambda_max, int) or isinstance(lambda_max, bool) or not 1 <= lambda_max <= LAMBDA_CAP:
        raise DomainError(f"lambda_max must be an integer in [1, {LAMBDA_CAP}], got {lambda_max!r}")
    return lambda_max


def draw_lambda(rng: RandomSource, lambda_max: int = LAMBDA_CAP) -> DiscreteContext:
    """Level of the first successful fair Bernoulli trial, capped at lambda_max."""
    _check_lambda_max(lambda_max)
    x = rng.raw64()
    first_one = 65 - x.bit_length()
    return DiscreteContext(min(first_one, lambda_max))


def draw_lambdas(rng: RandomSource, n: int, lambda_max: int = LAMBDA_CAP) -> np.ndarray:
    """Vector form of draw_lambda; same per-draw word consumption."""
    _check_lambda_max(lambda_max)
    return np.minimum(65 - _bit_length_u64(rng.raw64s(n)), lambda_max)
