import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, refusal
from hmsim.dichotomic import (
    BlochVector,
    DichotomicOutcome,
    DiscreteContext,
    DyadicRule,
    bloch_of_qubit,
    continuous_probability,
    diagonal_coordinate,
    dyadic_outcome,
    dyadic_outcome_geometric,
    dyadic_partial_sum,
    expand,
    expand_geometric_t,
    qubit_from_angles,
)
from hmsim.dichotomic import _exact_checks, _greedy_digits, _parity_digits
from hmsim.errors import DomainError, InvariantError
from hmsim.hilbert import StateVector, born_probability, ketbra
from hmsim.sampler import exact_check

ALPHA = DichotomicOutcome.ALPHA
NOT_ALPHA = DichotomicOutcome.NOT_ALPHA

# Uniform 53-bit values, the resolution of one PRNG draw; all lie exactly on
# the 2**-60 fixed-point grid, so the recovery bounds are exact.
grid_probabilities = st.integers(min_value=0, max_value=2**53).map(lambda k: k / 2.0**53)


def enumeration_sum(prob: float, depth: int, rule: DyadicRule) -> Fraction:
    """Independent accumulation: add 2**-lam over pointwise ALPHA outcomes."""
    total = Fraction(0)
    for lam in range(1, depth + 1):
        if rule is DyadicRule.GREEDY:
            out = dyadic_outcome(prob, lam)
        else:
            out = dyadic_outcome_geometric(1.0 - prob, lam)
        if out is ALPHA:
            total += Fraction(1, 2**lam)
    return total


def test_bloch_of_qubit_examples():
    b = bloch_of_qubit(StateVector.basis(2, 0))
    assert (b.x, b.y, b.z) == pytest.approx((0.0, 0.0, 1.0))
    b = bloch_of_qubit(StateVector.of([2**-0.5, 2**-0.5]))
    assert (b.x, b.y, b.z) == pytest.approx((1.0, 0.0, 0.0))
    b = bloch_of_qubit(StateVector.of([2**-0.5, 1j * 2**-0.5]))
    assert (b.x, b.y, b.z) == pytest.approx((0.0, 1.0, 0.0))


def test_bloch_vector_must_be_unit():
    with pytest.raises(InvariantError):
        BlochVector(0.5, 0.0, 0.0)


def test_diagonal_coordinate_examples():
    up = BlochVector(0.0, 0.0, 1.0)
    assert diagonal_coordinate(up, up) == 0.0
    assert diagonal_coordinate(BlochVector(0.0, 0.0, -1.0), up) == 1.0
    tilted = BlochVector(math.sin(math.pi / 3.0), 0.0, math.cos(math.pi / 3.0))
    assert diagonal_coordinate(tilted, up) == pytest.approx(0.25, abs=1e-12)


def test_continuous_probability_examples():
    assert continuous_probability(0.0) == 1.0
    assert continuous_probability(0.25) == 0.75
    assert continuous_probability(0.5) == 0.5


def test_continuous_model_matches_born_rule(rng):
    for _ in range(300):
        p = random_state(rng, 2)
        a = random_state(rng, 2)
        t = diagonal_coordinate(bloch_of_qubit(p), bloch_of_qubit(a))
        assert abs(continuous_probability(t) - born_probability(p, ketbra(a))) <= 1e-12


def test_sphere_angle_cross_check():
    p = qubit_from_angles(math.pi / 3.0)
    t = diagonal_coordinate(bloch_of_qubit(p), BlochVector(0.0, 0.0, 1.0))
    assert continuous_probability(t) == pytest.approx(math.cos(math.pi / 6.0) ** 2, abs=1e-12)


def test_dyadic_outcome_hand_traces():
    assert all(dyadic_outcome(0.0, lam) is NOT_ALPHA for lam in range(1, 10))
    assert dyadic_outcome(0.5, 1) is ALPHA
    assert dyadic_outcome(0.5, 2) is NOT_ALPHA
    assert dyadic_outcome(0.75, 1) is ALPHA
    assert dyadic_outcome(0.75, 2) is ALPHA  # closed comparison takes the exact hit
    assert dyadic_outcome(0.75, 3) is NOT_ALPHA
    with pytest.raises(DomainError):
        dyadic_outcome(1.5, 1)
    with pytest.raises(DomainError):
        dyadic_outcome(0.5, 0)


def test_dyadic_outcome_geometric_hand_traces():
    assert all(dyadic_outcome_geometric(0.0, lam) is ALPHA for lam in range(1, 10))
    assert dyadic_outcome_geometric(0.25, 2) is NOT_ALPHA  # cell index 1
    assert dyadic_outcome_geometric(0.25, 3) is ALPHA  # cell index 2
    assert all(dyadic_outcome_geometric(1.0, lam) is NOT_ALPHA for lam in range(1, 10))


def test_partial_sum_examples():
    assert dyadic_partial_sum(0.5, 10, DyadicRule.GREEDY) == 0.5
    for rule in DyadicRule:
        assert dyadic_partial_sum(1.0, 10, rule) == 1.0 - 2.0**-10
    err = 1.0 / 3.0 - dyadic_partial_sum(1.0 / 3.0, 20, DyadicRule.GREEDY)
    assert 0.0 <= err < 2.0**-20


@pytest.mark.parametrize("rule", list(DyadicRule))
@pytest.mark.parametrize("prob", [0.0, 1.0, 0.5, 0.75, 1 / 3, 1 / 7, 1 / math.pi, 2**0.5 - 1])
def test_partial_sum_matches_enumeration_oracle(prob, rule):
    got = Fraction(dyadic_partial_sum(prob, 20, rule))
    assert got == enumeration_sum(prob, 20, rule)


@given(grid_probabilities)
def test_greedy_partial_sum_matches_truncation_oracle(prob):
    # closed form: the greedy selection keeps exactly the binary digits of prob;
    # the endpoint 1.0 has no finite expansion and stops 2**-depth short
    depth = 20
    oracle = min(math.floor(prob * 2.0**depth), 2.0**depth - 1.0) / 2.0**depth
    assert dyadic_partial_sum(prob, depth, DyadicRule.GREEDY) == oracle


@settings(max_examples=300)
@given(grid_probabilities)
def test_recovery_bounds_on_grid(prob):
    for rule in DyadicRule:
        err = prob - dyadic_partial_sum(prob, 40, rule)
        assert 0.0 <= err <= 2.0**-40


@pytest.mark.parametrize("prob", [0.0, 1.0, 0.5, 0.25, 3 / 8, 11 / 16, 1 / 1024, 1023 / 1024])
def test_recovery_bounds_boundary_dyadics(prob):
    for depth in (1, 5, 40, 60):
        for rule in DyadicRule:
            exp = expand(prob, depth, rule)
            assert exp.bound_satisfied()
            assert 0 <= exp.abs_error_numerator <= 1 << (exp.bits - depth)


def test_deep_expansion_stays_exact_beyond_sixty():
    # depth beyond the 2**-60 input grid: the expansion bottoms out exactly
    exp = expand(1 / 3, 80, DyadicRule.GREEDY)
    assert exp.digits & (2**20 - 1) == 0  # levels 61..80 are the low 20 digits
    assert exp.abs_error_numerator == 0
    assert exp.bound_satisfied()


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=2**53 - 1).filter(lambda k: k % 2 == 1))
def test_models_agree_pointwise_off_dyadics(k):
    prob = k / 2.0**53
    for lam in range(1, 41):
        assert dyadic_outcome(prob, lam) is dyadic_outcome_geometric(1.0 - prob, lam)


@pytest.mark.parametrize("prob", [1 / 3, 1 / 7, 1 / math.pi, 2**0.5 - 1])
def test_models_agree_pointwise_named_constants(prob):
    for lam in range(1, 41):
        assert dyadic_outcome(prob, lam) is dyadic_outcome_geometric(1.0 - prob, lam)


def test_models_diverge_at_three_quarters_but_sums_agree():
    # the two binary decompositions of 3/4 part ways from level 3 onward
    for lam in range(3, 41):
        assert dyadic_outcome(0.75, lam) is not dyadic_outcome_geometric(0.25, lam)
    greedy = dyadic_partial_sum(0.75, 40, DyadicRule.GREEDY)
    geom = dyadic_partial_sum(0.75, 40, DyadicRule.GEOMETRIC)
    assert greedy == 0.75
    assert abs(0.75 - geom) <= 2.0**-40



# The per-level loops that the truncated-numerator rule replaced, kept as
# oracles: bit i-1 of a loop mask is set iff level i answers ALPHA.
def greedy_mask_loop(num: int, bits: int, depth: int) -> int:
    mask = 0
    acc = 0
    for i in range(1, depth + 1):
        step = 1 << (bits - i)
        if num >= acc + step:
            mask |= 1 << (i - 1)
            acc += step
    return mask


def parity_mask_loop(t_num: int, bits: int, depth: int) -> int:
    if t_num == 1 << bits:
        return 0
    mask = 0
    for i in range(1, depth + 1):
        cell = t_num >> (bits - i)
        if cell % 2 == 0:
            mask |= 1 << (i - 1)
    return mask


def partial_sum_loop(mask: int, bits: int, depth: int) -> int:
    acc = 0
    for i in range(1, depth + 1):
        if (mask >> (i - 1)) & 1:
            acc += 1 << (bits - i)
    return acc


def with_neighbours(x: float):
    """x and its float neighbours one ulp away, those inside [0, 1]."""
    return st.sampled_from(
        [y for y in (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0)) if y <= 1.0])


dyadic_neighbours = st.integers(0, 70).flatmap(
    lambda j: st.integers(0, 2**j).map(lambda k: k / 2.0**j)).flatmap(with_neighbours)
power_neighbours = st.integers(0, 1074).map(lambda k: 2.0**-k).flatmap(with_neighbours)
mask_values = st.one_of(
    st.sampled_from([0.0, 1.0]), dyadic_neighbours, power_neighbours,
    st.floats(0.0, 2.0**-60), st.floats(0.0, 1.0),
)


def assert_matches_loop_mask(exp, mask: int) -> None:
    levels = [(mask >> (lam - 1)) & 1 == 1 for lam in range(1, exp.depth + 1)]
    assert [exp.outcome(lam) is ALPHA for lam in range(1, exp.depth + 1)] == levels
    assert exp.digits == sum(1 << (exp.depth - lam) for lam, alpha in enumerate(levels, 1) if alpha)
    assert exp.partial_sum_numerator == partial_sum_loop(mask, exp.bits, exp.depth)


@settings(max_examples=500, deadline=None)
@given(mask_values, st.integers(1, 200))
def test_outcomes_and_partial_sum_match_the_level_loops(value, depth):
    greedy = expand(value, depth, DyadicRule.GREEDY)
    bits, num = greedy.bits, greedy.numerator
    assert_matches_loop_mask(greedy, greedy_mask_loop(num, bits, depth))
    for parity in (expand(value, depth, DyadicRule.GEOMETRIC), expand_geometric_t(value, depth)):
        t_num = (1 << bits) - parity.numerator
        assert_matches_loop_mask(parity, parity_mask_loop(t_num, bits, depth))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_digits_match_the_level_loops_on_raw_numerators(data):
    # every numerator on a grid of any width, not only those a float rounds onto
    depth = data.draw(st.integers(1, 200))
    bits = data.draw(st.integers(depth, 260))
    num = data.draw(st.integers(0, 2**bits))
    shift = bits - depth
    greedy, parity = greedy_mask_loop(num, bits, depth), parity_mask_loop(num, bits, depth)
    assert _greedy_digits(num, shift, depth) << shift == partial_sum_loop(greedy, bits, depth)
    assert _parity_digits(num, shift, depth) << shift == partial_sum_loop(parity, bits, depth)


# The scalar exact_check, on Python ints, is the oracle for the int64 column check.
COLUMN_EDGES = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 0.75, 0.3,
                math.nextafter(2.0**-60, 0.0), 2.0**-60, math.nextafter(2.0**-60, 1.0)]


def scalar_checks(probs, level):
    reports = [exact_check(p, level, rule) for p in probs
               for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC)]
    return [(r.partial_sum.hex(), r.abs_error.hex(), r.bound_satisfied) for r in reports]


def column_checks(probs, level):
    columns = _exact_checks(probs, level)
    assert all(type(x) is t for col, t in zip(columns, (float, float, bool)) for x in col)
    return [(a.hex(), b.hex(), c) for a, b, c in zip(*columns)]


def test_column_checks_match_exact_check_at_every_level():
    for level in range(1, 61):
        assert column_checks(COLUMN_EDGES, level) == scalar_checks(COLUMN_EDGES, level), level


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(COLUMN_EDGES) | mask_values, max_size=8), st.integers(1, 60))
def test_column_checks_match_exact_check(probs, level):
    assert column_checks(probs, level) == scalar_checks(probs, level)


def test_column_checks_refuse_the_first_target_outside_the_unit_interval():
    assert _exact_checks([], 60) == ([], [], [])
    for probs, message in [
        ([0.5, math.nan, 2.0], "probability must be a real number in [0,1], got nan"),
        ([0.5, 1.0 + 2.0**-52, math.nan], "probability=1.0000000000000002 outside [0,1]"),
        ([-1e-300, math.inf], "probability=-1e-300 outside [0,1]"),
        ([1.0, math.inf], "probability=inf outside [0,1]"),
    ]:
        with pytest.raises(DomainError) as err:
            _exact_checks(probs, 60)
        assert str(err.value) == message
        with pytest.raises(DomainError) as err:  # as the scalar check refuses it
            scalar_checks(probs, 60)
        assert str(err.value) == message


# a string where an enum is expected is refused, not read as the member of that value
@pytest.mark.parametrize("call, error, message", [
    (lambda: bloch_of_qubit(StateVector.basis(3, 0)), DomainError, "expected a qubit, got dim 3"),
    (lambda: expand(0.5, 4).outcome(5), DomainError, "level 5 outside expansion depth 4"),
    (lambda: expand(0.5, 4, "greedy"), DomainError, "unknown rule 'greedy'"),
], ids=["bloch-of-a-qutrit", "level-beyond-depth", "rule-by-value"])
def test_refusals(call, error, message):
    assert refusal(call) == (error, message)


def test_discrete_context_weights_exact():
    assert DiscreteContext(1).weight == 0.5
    assert DiscreteContext(60).weight == 2.0**-60
    assert DiscreteContext(1074).weight == 2.0**-1074
    with pytest.raises(DomainError):
        DiscreteContext(0)
    with pytest.raises(DomainError):
        DiscreteContext(1075)


def test_qubit_from_angles_normalized():
    for theta in np.linspace(0.0, math.pi, 7):
        assert qubit_from_angles(theta, 0.3).is_normalized()
