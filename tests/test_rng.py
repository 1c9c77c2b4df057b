import numpy as np
import pytest

from hmsim.dichotomic import DiscreteContext
from hmsim.errors import DomainError
from hmsim.rng import (
    GENERATOR_NAME,
    RandomSource,
    _bit_length_u64,
    draw_lambda,
    draw_lambdas,
)

# First ten uniforms of the committed generator for (seed=42, stream_id=0).
GOLDEN_SEED_42 = [
    0.8201981478608876,
    0.18924562408645496,
    0.8676608148821462,
    0.3945814702827203,
    0.36812845090913937,
    0.4344462539595917,
    0.1946354913878905,
    0.06224821089808552,
    0.8767979674463799,
    0.7670379910197939,
]


def test_generator_contract_is_documented():
    assert "philox" in GENERATOR_NAME.lower()


def test_golden_vector_seed_42():
    rng = RandomSource(42, 0)
    assert [rng.uniform() for _ in range(10)] == GOLDEN_SEED_42


def test_identical_keys_identical_streams():
    scalar_stream = RandomSource(7, 3)
    vector_stream = RandomSource(7, 3)
    assert [scalar_stream.uniform() for _ in range(20)] == list(
        vector_stream.uniforms(20)
    )


def test_distinct_streams_differ():
    a = RandomSource(42, 0).uniforms(8)
    b = RandomSource(42, 1).uniforms(8)
    c = RandomSource(43, 0).uniforms(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_in_unit_interval():
    u = RandomSource(1, 0).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_uniform_mean():
    u = RandomSource(0, 0).uniforms(10**6)
    assert abs(float(u.mean()) - 0.5) < 0.002


def test_scalar_and_vector_lambda_draws_agree():
    seq = RandomSource(5, 9)
    scalar = [draw_lambda(seq).lam for _ in range(50)]
    vec = draw_lambdas(RandomSource(5, 9), 50)
    assert scalar == list(vec)


# A second oracle: the bit length of x is the count of powers of two <= x.
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def test_bit_length_matches_python_ints():
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 2**64, size=500, dtype=np.uint64)
    near_powers = {w for k in range(65) for w in (2**k - 1, 2**k, 2**k + 1)}
    edge = np.array(sorted(w for w in near_powers if w < 2**64), dtype=np.uint64)
    for arr in (xs, edge, edge[::-1].reshape(-1, 2)):
        got = _bit_length_u64(arr)
        want = np.array([int(x).bit_length() for x in arr.ravel()]).reshape(arr.shape)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(got, np.searchsorted(_POW2, arr, side="right"))


def test_lambda_draw_distribution():
    lams = draw_lambdas(RandomSource(0, 0), 10**6)
    assert lams.min() >= 1 and lams.max() <= 60
    frac_one = float((lams == 1).mean())
    assert abs(frac_one - 0.5) < 0.002
    assert abs(float(lams.mean()) - 2.0) < 0.01


def test_lambda_cap_and_tail():
    lams = draw_lambdas(RandomSource(0, 1), 10**5, lambda_max=2)
    assert set(np.unique(lams)) <= {1, 2}
    # cap level collects the residual tail: P(2) = 1/2 here
    assert abs(float((lams == 2).mean()) - 0.5) < 0.01


def test_draw_lambda_returns_context():
    ctx = draw_lambda(RandomSource(11, 0))
    assert isinstance(ctx, DiscreteContext)
    assert ctx.weight == 2.0**-ctx.lam


def test_key_validation():
    with pytest.raises(DomainError):
        RandomSource(-1, 0)
    with pytest.raises(DomainError):
        RandomSource(0, 2**64)
    with pytest.raises(DomainError):
        draw_lambda(RandomSource(0, 0), lambda_max=0)
    with pytest.raises(DomainError):
        draw_lambdas(RandomSource(0, 0), 5, lambda_max=61)
