import math
from fractions import Fraction

import numpy as np
import pytest

from hmsim.dichotomic import DichotomicOutcome, DyadicRule
from hmsim.errors import DomainError
from hmsim.hilbert import Projector, StateVector
from hmsim.histories import Convention, HomogeneousHistory, InhomogeneousHistory
from hmsim.rng import RandomSource
from hmsim.sampler import (
    Model,
    _alpha_flags,
    exact_check,
    lambda_preimage,
    run_dichotomic,
    run_history,
    summarize,
)

ALPHA = DichotomicOutcome.ALPHA
INV2 = 1.0 / math.sqrt(2.0)
PLUS = StateVector.of([INV2, INV2])
P0 = Projector([[1.0, 0.0], [0.0, 0.0]])
P1 = Projector([[0.0, 0.0], [0.0, 1.0]])


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


def test_lambda_preimage_examples():
    assert lambda_preimage(0.5, ALPHA, 5, DyadicRule.GREEDY) == [1]
    assert lambda_preimage(0.0, ALPHA, 8, DyadicRule.GREEDY) == []
    assert lambda_preimage(0.75, ALPHA, 4, DyadicRule.GREEDY) == [1, 2]
    assert lambda_preimage(0.75, DichotomicOutcome.NOT_ALPHA, 4, DyadicRule.GREEDY) == [3, 4]


def test_preimage_measure_equals_partial_sum():
    for prob in (0.0, 1.0, 0.3, 1 / 3, 0.9875):
        for rule in DyadicRule:
            rep = exact_check(prob, 30, rule)
            measure = sum(Fraction(1, 2**lam) for lam in lambda_preimage(prob, ALPHA, 30, rule))
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
