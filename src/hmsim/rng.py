"""Seeded, splittable random streams.

Generator contract: numpy's Philox (philox4x64) counter-based generator,
period 2**256, keyed by the 128-bit pair (seed, stream_id). Identical
(seed, stream_id) reproduce the identical draw sequence on every platform;
distinct stream ids give statistically independent streams. Uniform doubles
are the standard 53-bit construction, (word >> 11) * 2**-53 for one raw
64-bit word, so one uniform consumes exactly one raw word. The first ten
uniforms of (seed=42, stream_id=0) are frozen as a golden vector in the test
suite. The samplers count raw words only (see hmsim.sampler): u >= t iff
word >= ceil(t * 2**53) << 11, and a level is ALPHA iff the word's top set bit
is in the mask P of ALPHA bit positions, i.e. iff (word & P) > (word & ~P),
as the part holding the top bit is the larger.

Discrete context levels are drawn by scanning the bits of one raw 64-bit
word most-significant first: each bit is one fair Bernoulli trial and the
level is the index of the first set bit, capped at lambda_max (an all-zero
prefix of length lambda_max - 1, probability 2**-(lambda_max - 1), is
assigned to the cap). That index is 65 - bit_length(word), so the level is
min(65 - bit_length(word), lambda_max): a pure function of the bit length.

The vector bit length is read exactly from a float64 exponent. A word of 64
bits does not convert to float64 exactly (2**64 - 1 rounds to 2**64), but
its top 53 bits, hi = word >> 11, do; for word >= 2**11 the biased exponent
field of float64(hi) is bit_length(word) + 1011. Words below 2**11
(probability 2**-53) are exact floats themselves, and np.frexp gives their
bit length.
"""

from __future__ import annotations

import numpy as np

from . import LAMBDA_CAP
from .dichotomic import DiscreteContext
from .errors import DomainError

GENERATOR_NAME = "philox4x64 (numpy Philox), key = (seed, stream_id)"

_U64 = 1 << 64


class RandomSource:
    """One Philox stream identified by (seed, stream_id)."""

    def __init__(self, seed: int = 0, stream_id: int = 0):
        for name, v in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < _U64:
                raise DomainError(f"{name} must be an integer in [0, 2**64), got {v!r}")
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed, stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_id={self.stream_id})"

    def uniform(self) -> float:
        return float(self.generator.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self.generator.random(int(n))

    def raw64(self) -> int:
        return int(self.generator.integers(0, _U64, dtype=np.uint64))

    def raw64s(self, n: int) -> np.ndarray:
        return self.generator.bit_generator.random_raw(int(n))  # as integers(0, 2**64, uint64)


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized int.bit_length for uint64 arrays, as int64.

    float64(x >> 11) is exact, and its biased exponent field is
    bit_length(x) + 1011 for x >= 2**11. Below that the field is 0 (the
    result is negative); those words are exact floats, so their bit length
    is the exponent np.frexp returns, which is 0 for 0.
    """
    x = np.asarray(x, dtype=np.uint64)
    bits = (x >> np.uint64(11)).astype(np.float64).view(np.int64)
    bits >>= 52
    bits -= 1011
    if bits.min(initial=0) < 0:
        small = bits < 0
        bits[small] = np.frexp(x[small].astype(np.float64))[1]
    return bits


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
