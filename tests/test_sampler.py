import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmsim
from conftest import refusal
from hmsim import sampler
from hmsim.dichotomic import (
    DichotomicOutcome,
    DyadicRule,
    continuous_probability,
    expand,
    expand_geometric_t,
)
from hmsim.errors import DomainError
from hmsim.hilbert import Projector, StateVector
from hmsim.histories import Convention, HomogeneousHistory, InhomogeneousHistory
from hmsim.rng import RandomSource, _bit_length_u64
from hmsim.sampler import (
    BLOCK_WORDS,
    Model,
    exact_check,
    run_dichotomic,
    run_history,
    summarize,
)

ALPHA = DichotomicOutcome.ALPHA
INV2 = 1.0 / math.sqrt(2.0)
PLUS = StateVector.of([INV2, INV2])
P0 = Projector([[1.0, 0.0], [0.0, 0.0]])
P1 = Projector([[0.0, 0.0], [0.0, 1.0]])


def _bit_length_shift_loop(x: np.ndarray) -> np.ndarray:
    """Six-pass shift-loop bit length of uint64 words (0 for zero); the slow oracle."""
    x = x.astype(np.uint64, copy=True)
    out = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(s))
        out[big] += s
        x[big] >>= np.uint64(s)
    out += (x == np.uint64(1))
    return out


@pytest.mark.parametrize("n", [1, 3, 4, 2**14, 2**14 + 7])
@pytest.mark.parametrize("scalars", [0, 1, 3])
def test_raw64s_gives_the_bounded_integer_words_and_state(n, scalars):
    # RandomSource reads every draw from Philox's raw words; numpy's Generator over the
    # same key is the oracle: Generator.integers(0, 2**64, dtype=uint64) gives the same
    # words, also after an odd number of scalar raw64() draws, the bit generator's state
    # after them is the same, and Generator.random gives the same next uniforms
    ours = RandomSource(7, 3)
    oracle = np.random.Generator(np.random.Philox(key=[7, 3]))
    for _ in range(scalars):
        assert ours.raw64() == int(oracle.integers(0, 2**64, dtype=np.uint64))
    words = ours.raw64s(n)
    expected = oracle.integers(0, 2**64, size=n, dtype=np.uint64)
    assert (words.dtype, words.shape) == (expected.dtype, expected.shape)
    assert words.tobytes() == expected.tobytes()
    assert repr(ours.bit_generator.state) == repr(oracle.bit_generator.state)
    assert ours.raw64() == int(oracle.integers(0, 2**64, dtype=np.uint64))
    assert ours.uniform() == oracle.random()
    assert ours.uniforms(n).tobytes() == oracle.random(n).tobytes()


def _alpha_flags(model, value, n, rng, lambda_max):
    """Per-trial oracle of run_dichotomic: (expected_p, contexts, ALPHA flags), one per trial.

    The continuous flags are the float rule u >= t on the stream's uniforms; a discrete
    level is read with the shift loop and looked up level by level in DyadicExpansion.outcome.
    """
    if model is Model.CONTINUOUS:
        us = rng.uniforms(n)
        return continuous_probability(value), us, us >= value
    if model is Model.GREEDY:
        expected, exp = value, expand(value, lambda_max, DyadicRule.GREEDY)
    else:
        expected, exp = continuous_probability(value), expand_geometric_t(value, lambda_max)
    table = np.array([exp.outcome(lam) is ALPHA for lam in range(1, lambda_max + 1)])
    lams = np.minimum(65 - _bit_length_shift_loop(rng.raw64s(n)), lambda_max)
    return expected, lams, table[lams - 1]


def _philox_uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform Philox makes from each raw word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


@pytest.mark.parametrize("n", [1, BLOCK_WORDS + 3])
@pytest.mark.parametrize("seed,stream", [(0, 0), (42, 0), (7, 3), (2**64 - 1, 2**64 - 1)])
def test_uniforms_are_the_top_53_bits_of_the_raw_words(seed, stream, n):
    # the continuous sampler compares raw words with a bound derived from this contract
    source = RandomSource(seed, stream)
    assert repr(source) == f"RandomSource(seed={seed}, stream_id={stream})"
    words = source.raw64s(n)
    assert RandomSource(seed, stream).uniforms(n).tobytes() == _philox_uniforms(words).tobytes()


def test_certain_event_counts_everything():
    for model, value in ((Model.GREEDY, 1.0), (Model.CONTINUOUS, 0.0), (Model.GEOMETRIC, 0.0)):
        s = run_dichotomic(model, value, 500, RandomSource(3, 0))
        assert s.count_alpha == 500
        assert s.z_score == 0.0


def test_impossible_event_counts_nothing():
    for model, value in ((Model.GREEDY, 0.0), (Model.CONTINUOUS, 1.0), (Model.GEOMETRIC, 1.0)):
        s = run_dichotomic(model, value, 500, RandomSource(3, 1))
        assert s.count_alpha == 0
        assert s.z_score == 0.0


def test_summaries_reproducible_and_stream_sensitive():
    a = run_dichotomic(Model.GREEDY, 0.3, 2000, RandomSource(9, 4))
    b = run_dichotomic(Model.GREEDY, 0.3, 2000, RandomSource(9, 4))
    c = run_dichotomic(Model.GREEDY, 0.3, 2000, RandomSource(9, 5))
    assert a == b
    assert a != c


def test_trials_match_summary():
    for model, value in ((Model.GREEDY, 0.37), (Model.CONTINUOUS, 0.37), (Model.GEOMETRIC, 0.37)):
        expected, contexts, flags = _alpha_flags(model, value, 400, RandomSource(1, 2), 60)
        summary = run_dichotomic(model, value, 400, RandomSource(1, 2))
        assert contexts.shape == flags.shape == (400,)
        assert expected == summary.expected_p
        assert int(flags.sum()) == summary.count_alpha


def test_trial_contexts_have_expected_types():
    _, us, _ = _alpha_flags(Model.CONTINUOUS, 0.5, 1000, RandomSource(0, 0), 60)
    assert us.dtype == np.float64
    assert np.all(us >= 0.0) and np.all(us < 1.0)
    for model in (Model.GREEDY, Model.GEOMETRIC):
        for lambda_max in (1, 3, 60):
            _, lams, _ = _alpha_flags(model, 0.5, 1000, RandomSource(0, 0), lambda_max)
            assert np.issubdtype(lams.dtype, np.integer)
            assert np.all(lams >= 1) and np.all(lams <= lambda_max)


DYADIC = st.integers(1, 60).flatmap(lambda j: st.integers(0, 2**j).map(lambda k: k / 2**j))


@settings(max_examples=80, deadline=None)
@given(model=st.sampled_from(list(Model)),
       value=st.one_of(st.sampled_from([0.0, 1.0]), DYADIC, st.floats(0.0, 1.0)),
       lambda_max=st.sampled_from([1, 2, 3, 59, 60]),
       n=st.sampled_from([1, BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1, 2 * BLOCK_WORDS + 3]),
       seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 3))
def test_blockwise_counts_match_per_trial_oracle(model, value, lambda_max, n, seed, stream):
    s = run_dichotomic(model, value, n, RandomSource(seed, stream), lambda_max)
    expected, _, flags = _alpha_flags(model, value, n, RandomSource(seed, stream), lambda_max)
    assert (s.count_alpha, s.expected_p) == (int(flags.sum()), expected)


NEAR_POWERS = st.integers(0, 64).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1]))
WORDS = st.one_of(st.integers(0, 2**64 - 1), NEAR_POWERS.filter(lambda w: 0 <= w < 2**64))


@settings(max_examples=200, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=40))
def test_bit_length_matches_int_and_shift_loop(words):
    x = np.array(words, dtype=np.uint64)
    want = [w.bit_length() for w in words]
    assert _bit_length_u64(x).tolist() == want == _bit_length_shift_loop(x).tolist()


class _ServedWords:
    """A RandomSource stand-in that serves one fixed uint64 array in order, as raw
    words or as the uniforms Philox makes from them."""

    def __init__(self, words):
        self.words, self.pos = np.asarray(words, dtype=np.uint64), 0

    def raw64s(self, n):
        self.pos += n
        return self.words[self.pos - n:self.pos].copy()

    def uniforms(self, n):
        return _philox_uniforms(self.raw64s(n))


# Every top-bit position: 2**j - 1, 2**j and 2**j + 1 for j in 0..63, then 0 and 2**64 - 1.
# Words below 2**11 are ones Philox draws with probability 2**-53.
EDGE_WORDS = [w for j in range(64) for w in (2**j - 1, 2**j, 2**j + 1)] + [0, 2**64 - 1]


# For every lambda_max one of greedy 1/3 (the even levels up to 54) and geometric 1/3 (the
# odd levels up to 53 and every level from 55) marks the cap level ALPHA and the other does
# not. The cap boundary, bit 64 - lambda_max, is a top bit (63, 62, 60, 59), bit 11 or 10
# at the edge of a word's top 53 bits, or a low bit (5, 4).
@pytest.mark.parametrize("lambda_max", [1, 2, 4, 5, 53, 54, 59, 60])
@pytest.mark.parametrize("model,value", [
    (Model.GREEDY, 1 / 3), (Model.GREEDY, 0.3), (Model.GREEDY, 2.0**-54 + 2.0**-56 + 2.0**-59),
    (Model.GEOMETRIC, 1 / 3), (Model.GEOMETRIC, 0.3),
])
def test_edge_words_through_the_sampler_match_the_shift_loop(model, value, lambda_max):
    n = 2 * BLOCK_WORDS + 7
    words = RandomSource(5, 0).raw64s(n)
    edges = np.repeat(np.array(EDGE_WORDS, dtype=np.uint64), 20)
    words[np.random.default_rng(lambda_max).choice(n, edges.size, replace=False)] = edges
    s = run_dichotomic(model, value, n, _ServedWords(words), lambda_max)
    expected, _, flags = _alpha_flags(model, value, n, _ServedWords(words), lambda_max)
    assert (s.count_alpha, s.expected_p) == (int(flags.sum()), expected)


@pytest.mark.parametrize("t", [0.0, 5e-324, 2.0**-60, 2.0**-53, 0.25, 1 / 3, 0.5, 1.0 - 2.0**-53,
                               1.0])
def test_continuous_rule_is_closed_at_the_threshold(t):
    # the word K << 11, whose uniform is the least one >= t, is ALPHA; the word below it
    # is not, and the word above it is, as the float rule u >= t says
    k = math.ceil(t * 2**53) << 11
    words = np.tile(np.array([w for w in (k - 1, k, k + 1) if 0 <= w < 2**64], dtype=np.uint64), 5)
    s = run_dichotomic(Model.CONTINUOUS, t, words.size, _ServedWords(words))
    assert s.count_alpha == int(np.count_nonzero(_philox_uniforms(words) >= t))
    if 0.0 < t < 1.0:
        assert s.count_alpha == 10


@given(st.floats(0.0, 1.0), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_continuous_alpha_region_is_an_up_set(t, u, v):
    lo, hi = sorted((u, v))
    alpha = [run_dichotomic(Model.CONTINUOUS, t, 1, _ServedWords([w])).count_alpha
             for w in (lo, hi)]
    assert alpha[0] <= alpha[1]
    assert alpha == [int(x >= t) for x in _philox_uniforms(np.array([lo, hi], dtype=np.uint64))]


def test_counts_do_not_depend_on_the_block_size(monkeypatch):
    n = 3 * 2**16 + 5
    summaries = {}
    for block in (1000, 2**14, 2**16):
        monkeypatch.setattr(sampler, "BLOCK_WORDS", block)
        summaries[block] = [run_dichotomic(model, 0.3, n, RandomSource(8, i))
                            for i, model in enumerate(Model)]
    assert summaries[1000] == summaries[2**14] == summaries[2**16]


class _FirstDraw(Exception):
    pass


class _StopAtFirstDraw:
    def raw64s(self, n):
        raise _FirstDraw


@pytest.mark.parametrize("model", [Model.GREEDY, Model.CONTINUOUS])
def test_block_schedule_memory_does_not_grow_with_trials(model):
    # a list of every block size at 1e11 trials would hold millions of ints
    tracemalloc.start()
    try:
        with pytest.raises(_FirstDraw):
            run_dichotomic(model, 0.3, 10**11, _StopAtFirstDraw())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Spawns the command in its argv with stdout to /dev/null, reaps it with wait4
# and prints [exit code, ru_maxrss]. A spawned child's ru_maxrss starts from its
# parent's high-water mark at exec, so this small process stands between the
# test process, whatever its own peak, and the command measured.
_PEAK_RSS_LAUNCHER = """
import json, os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))
"""


def _sampling_peak_rss_bytes() -> int:
    """Peak RSS of `hmsim sample` at 20M trials, measured through the launcher."""
    argv = [sys.executable, "-m", "hmsim.cli", "sample", "--model", "greedy", "--p", "0.3",
            "--trials", "20000000", "--no-timestamp"]
    env = dict(os.environ, PYTHONPATH=str(Path(hmsim.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, maxrss_kib = json.loads(run.stdout)
    assert code == 0, run.stderr
    return maxrss_kib * 1024  # ru_maxrss is in KiB on Linux


def test_sampling_memory_does_not_grow_with_trials():
    # 20M trials; per-trial arrays of words, levels and flags would peak near 675 MB
    assert _sampling_peak_rss_bytes() < 150 * 2**20


def test_sampling_memory_ignores_the_test_process_peak():
    # the test process peaks above 300 MB first; a child spawned straight from it
    # would report at least that much, whatever the CLI itself used
    ballast = np.ones(300 * 2**20, dtype=np.uint8)
    assert _sampling_peak_rss_bytes() < 150 * 2**20
    del ballast


def test_frequencies_near_expected():
    n = 10**5
    s = run_dichotomic(Model.GREEDY, 0.5, n, RandomSource(0, 0))
    assert abs(s.frequency - 0.5) < 0.01
    assert abs(s.z_score) < 4.0
    s = run_dichotomic(Model.CONTINUOUS, 0.25, n, RandomSource(0, 1))
    assert s.expected_p == 0.75
    assert abs(s.frequency - 0.75) < 0.01


def test_run_history_identity_always_affirms():
    ident = Projector.identity(2)
    hist = HomogeneousHistory.at_times([0.0, 1.0], [ident, ident])
    s = run_history(PLUS, hist, Convention.LUEDERS, 300, RandomSource(2, 0))
    assert s.count_alpha == 300


def test_run_history_expected_probabilities():
    hist = HomogeneousHistory.at_times([0.0, 1.0], [P0, P0])
    lued = run_history(PLUS, hist, Convention.LUEDERS, 10**5, RandomSource(0, 0))
    lit = run_history(PLUS, hist, Convention.LITERAL, 10**5, RandomSource(0, 1))
    assert lued.expected_p == pytest.approx(0.5, abs=1e-12)
    assert lit.expected_p == pytest.approx(0.25, abs=1e-12)
    assert abs(lued.z_score) < 4.0
    assert abs(lit.z_score) < 4.0


def test_run_history_accepts_disjoint_families():
    fam = InhomogeneousHistory((
        HomogeneousHistory.at_times([0.0, 1.0], [P0, P0]),
        HomogeneousHistory.at_times([0.0, 1.0], [P1, P1]),
    ))
    s = run_history(PLUS, fam, Convention.LUEDERS, 400, RandomSource(0, 0))
    assert s.count_alpha == 400  # branch probabilities sum to one


def test_run_history_rejects_procedure_sums_beyond_one():
    p_plus = Projector([[0.5, 0.5], [0.5, 0.5]])
    p_minus = Projector([[0.5, -0.5], [-0.5, 0.5]])
    ident = Projector.identity(2)
    fam = InhomogeneousHistory((
        HomogeneousHistory.at_times([0.0, 1.0], [ident, p_plus]),
        HomogeneousHistory.at_times([0.0, 1.0], [P1, p_minus]),
    ))
    with pytest.raises(DomainError, match="beyond 1"):
        run_history(PLUS, fam, Convention.LUEDERS, 100, RandomSource(0, 0))


def alpha_levels(prob: float, depth: int, rule: DyadicRule) -> list[int]:
    exp = expand(prob, depth, rule)
    return [lam for lam in range(1, depth + 1) if exp.outcome(lam) is ALPHA]


def test_alpha_level_examples():
    assert alpha_levels(0.5, 5, DyadicRule.GREEDY) == [1]
    assert alpha_levels(0.0, 8, DyadicRule.GREEDY) == []
    assert alpha_levels(0.75, 4, DyadicRule.GREEDY) == [1, 2]
    assert alpha_levels(0.75, 4, DyadicRule.GEOMETRIC) == [1, 3, 4]


def test_alpha_level_measure_equals_partial_sum():
    for prob in (0.0, 1.0, 0.3, 1 / 3, 0.9875):
        for rule in DyadicRule:
            rep = exact_check(prob, 30, rule)
            exp = expand(prob, 30, rule)
            measure = sum(Fraction(1, 2**lam) for lam in range(1, 31)
                          if exp.outcome(lam) is ALPHA)
            assert Fraction(rep.partial_sum) == measure


def test_exact_check_examples():
    rep = exact_check(1 / 3, 30, DyadicRule.GREEDY)
    assert rep.bound_satisfied
    assert 0.0 <= rep.abs_error < 2.0**-30
    rep = exact_check(0.0, 10, DyadicRule.GREEDY)
    assert rep.abs_error == 0.0 and rep.partial_sum == 0.0
    for k in range(17):
        for rule in DyadicRule:
            assert exact_check(k / 16, 20, rule).bound_satisfied


def test_exact_check_tail_mass_exact():
    assert exact_check(0.4, 40, DyadicRule.GREEDY).tail_mass == 2.0**-40
    assert exact_check(0.4, 7, DyadicRule.GEOMETRIC).tail_mass == 2.0**-7


def test_exact_check_closed_upper_bound_at_certainty():
    # at probability one both rules stop exactly 2**-L short, which still counts
    for rule in DyadicRule:
        rep = exact_check(1.0, 10, rule)
        assert rep.partial_sum == 1.0 - 2.0**-10
        assert rep.abs_error == 2.0**-10
        assert rep.bound_satisfied


def test_summarize_degenerate_and_regular():
    assert summarize(100, 100, 1.0).z_score == 0.0
    assert summarize(100, 99, 1.0).z_score == math.inf
    assert summarize(100, 0, 0.0).z_score == 0.0
    s = summarize(400, 220, 0.5)
    assert s.z_score == pytest.approx((220 - 200) / math.sqrt(400 * 0.25))
    with pytest.raises(DomainError):
        summarize(0, 0, 0.5)
    with pytest.raises(DomainError):
        summarize(10, 11, 0.5)


def test_domain_validation():
    with pytest.raises(DomainError):
        run_dichotomic(Model.GREEDY, 1.5, 10, RandomSource(0, 0))
    with pytest.raises(DomainError):
        run_dichotomic(Model.CONTINUOUS, -0.2, 10, RandomSource(0, 0))
    with pytest.raises(DomainError):
        run_dichotomic(Model.GREEDY, 0.5, 0, RandomSource(0, 0))
    with pytest.raises(DomainError):
        run_dichotomic(Model.GREEDY, 0.5, 10, RandomSource(0, 0), lambda_max=0)
    assert refusal(lambda: run_dichotomic("greedy", 0.5, 10, RandomSource(0, 0))) == (
        DomainError, "unknown model 'greedy'")
