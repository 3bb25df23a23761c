"""Unit and property tests for the closed-form model kernels."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from engagekit.models import (
    DiminishingRewardParams,
    EngagementDecayParams,
    FlowParams,
    LogisticDifficultyParams,
    RetentionParams,
    RewardFrequencyParams,
    case_difficulty,
    diminishing_reward_value,
    engagement_decay,
    flow_challenge,
    logistic_difficulty,
    retention_probability,
    reward_frequency,
    sigmoid,
)

# Frozen from a 50-digit evaluation of 1/(1 + exp(-z)), rounded to float64.
SIGMOID_10 = 0.9999546021312976
SIGMOID_HALF = 0.6224593312018546

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


# --- sigmoid -----------------------------------------------------------------

def test_sigmoid_symmetry_point():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_frozen_value():
    assert sigmoid(10.0) == SIGMOID_10


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_sigmoid_reflection_identity(z):
    assert abs(sigmoid(z) + sigmoid(-z) - 1.0) < 1e-12


@pytest.mark.parametrize("z", [-1e308, -800.0, -37.0, 0.0, 37.0, 800.0, 1e308])
def test_sigmoid_open_interval_even_when_saturated(z):
    assert 0.0 < sigmoid(z) < 1.0


def test_sigmoid_increasing():
    grid = [-30.0, -5.0, -1.0, 0.0, 0.5, 2.0, 10.0, 30.0]
    values = [sigmoid(z) for z in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_sigmoid_rejects_non_finite(z):
    with pytest.raises(ValueError):
        sigmoid(z)


# --- reward frequency --------------------------------------------------------

def test_reward_frequency_zero_exponent():
    assert reward_frequency(RewardFrequencyParams(r0=1.0, alpha=0.0), 7.0) == 1.0


def test_reward_frequency_t0_identity():
    assert reward_frequency(RewardFrequencyParams(r0=5.0, alpha=-3.2), 0.0) == 5.0


def test_reward_frequency_doubles_at_log2():
    assert reward_frequency(RewardFrequencyParams(r0=1.0, alpha=math.log(2)), 1.0) == pytest.approx(2.0, rel=1e-12)


def test_reward_frequency_rejects_negative_time():
    with pytest.raises(ValueError):
        reward_frequency(RewardFrequencyParams(r0=1.0, alpha=0.1), -0.5)


@given(st.floats(min_value=0, max_value=100, allow_nan=False), finite)
def test_reward_frequency_constant_when_alpha_zero(t, r0_raw):
    r0 = abs(r0_raw) + 1e-6
    p = RewardFrequencyParams(r0=r0, alpha=0.0)
    assert reward_frequency(p, t) == r0


@given(
    st.floats(min_value=1e-3, max_value=10),
    st.floats(min_value=1e-3, max_value=2),
    st.floats(min_value=0, max_value=50),
    st.floats(min_value=1e-6, max_value=50),
)
def test_reward_frequency_increasing_iff_alpha_positive(r0, alpha, t, dt):
    p = RewardFrequencyParams(r0=r0, alpha=alpha)
    assert reward_frequency(p, t + dt) > reward_frequency(p, t)
    p_neg = RewardFrequencyParams(r0=r0, alpha=-alpha)
    assert reward_frequency(p_neg, t + dt) < reward_frequency(p_neg, t)


# --- diminishing rewards -----------------------------------------------------

def test_diminishing_reward_n0_identity():
    assert diminishing_reward_value(DiminishingRewardParams(v0=10.0, beta=1.0), 0) == 10.0


def test_diminishing_reward_halves():
    assert diminishing_reward_value(DiminishingRewardParams(v0=10.0, beta=1.0), 1) == 5.0


def test_diminishing_reward_closed_form():
    assert diminishing_reward_value(DiminishingRewardParams(v0=10.0, beta=0.5), 4) == 10.0 / 3.0


@pytest.mark.parametrize("n", [-1, 2.5, "3"])
def test_diminishing_reward_rejects_bad_counts(n):
    with pytest.raises(ValueError):
        diminishing_reward_value(DiminishingRewardParams(v0=10.0, beta=0.5), n)


@given(
    st.floats(min_value=1e-3, max_value=100),
    st.floats(min_value=1e-3, max_value=10),
    st.integers(min_value=0, max_value=1000),
)
def test_diminishing_reward_strictly_decreasing(v0, beta, n):
    p = DiminishingRewardParams(v0=v0, beta=beta)
    assert diminishing_reward_value(p, n + 1) < diminishing_reward_value(p, n)


# --- logistic difficulty -----------------------------------------------------

def test_logistic_difficulty_midpoints():
    assert logistic_difficulty(LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=0.0), 0.0) == 0.5
    assert logistic_difficulty(LogisticDifficultyParams(d_max=4.0, gamma=2.0, x0=3.0), 3.0) == 2.0


def test_logistic_difficulty_log3_point():
    p = LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=0.0)
    assert logistic_difficulty(p, math.log(3)) == pytest.approx(0.75, rel=1e-12)


# Logit ranges below keep sigmoid out of its float-saturated tail, where
# neighbouring outputs collapse onto the same double and strict ordering
# is unobservable.
@given(
    st.floats(min_value=1e-3, max_value=100),
    st.floats(min_value=0.1, max_value=3),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.01, max_value=3),
)
def test_logistic_difficulty_strictly_increasing(d_max, gamma, x0, x, dx):
    p = LogisticDifficultyParams(d_max=d_max, gamma=gamma, x0=x0)
    lo, hi = logistic_difficulty(p, x), logistic_difficulty(p, x + dx)
    assert lo < hi
    assert 0.0 < lo and hi < d_max


def test_logistic_difficulty_rejects_non_finite():
    p = LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=0.0)
    with pytest.raises(ValueError):
        logistic_difficulty(p, math.inf)


# --- flow challenge ----------------------------------------------------------

def test_flow_challenge_addition():
    assert flow_challenge(0.5, FlowParams(k=0.2)) == pytest.approx(0.7, abs=1e-15)
    assert flow_challenge(0.0, FlowParams(k=-1.0)) == -1.0


@given(finite)
def test_flow_challenge_zero_offset_identity(skill):
    assert flow_challenge(skill, FlowParams(k=0.0)) == skill


# --- retention probability ---------------------------------------------------

def test_retention_probability_frozen_value():
    p = RetentionParams(a=0.5, b=0.5, c=5.0)
    assert retention_probability(p, 1.0, 10.0) == SIGMOID_HALF


def test_retention_probability_degenerate_coefficients():
    p = RetentionParams(a=0.0, b=0.0, c=0.0)
    assert retention_probability(p, 123.0, -456.0) == 0.5


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
def test_retention_probability_threshold_symmetry(a, b, e, r):
    # c equal to the weighted sum puts the argument exactly at zero
    c = a * e + b * r
    assert retention_probability(RetentionParams(a=a, b=b, c=c), e, r) == 0.5


@given(
    st.floats(min_value=0.01, max_value=2),
    st.floats(min_value=0.01, max_value=2),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.01, max_value=3),
)
def test_retention_probability_monotone(a, b, c, e, r, delta):
    # bounded draws for the same saturation reason as the difficulty test
    p = RetentionParams(a=a, b=b, c=c)
    assert retention_probability(p, e + delta, r) > retention_probability(p, e, r)
    assert retention_probability(p, e, r + delta) > retention_probability(p, e, r)


# --- engagement decay --------------------------------------------------------

def test_engagement_decay_zero_rate():
    assert engagement_decay(EngagementDecayParams(e0=1.0, lam=0.0), 100.0) == 1.0


def test_engagement_decay_t0_identity():
    assert engagement_decay(EngagementDecayParams(e0=0.8, lam=3.7), 0.0) == 0.8


def test_engagement_decay_half_life():
    assert engagement_decay(EngagementDecayParams(e0=1.0, lam=math.log(2)), 1.0) == pytest.approx(0.5, rel=1e-12)


def test_engagement_decay_rejects_negative_time():
    with pytest.raises(ValueError):
        engagement_decay(EngagementDecayParams(e0=1.0, lam=0.1), -1.0)


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=0, max_value=100),
    st.floats(min_value=0, max_value=100),
)
def test_engagement_decay_non_increasing(e0, lam, t1, dt):
    p = EngagementDecayParams(e0=e0, lam=lam)
    assert engagement_decay(p, t1 + dt) <= engagement_decay(p, t1)


# --- session difficulty kernel ----------------------------------------------

def test_case_difficulty_balanced_arguments():
    assert case_difficulty(0.0, 1.0) == 0.5
    assert case_difficulty(1.0, 0.0) == 0.5


def test_case_difficulty_saturated_value():
    assert case_difficulty(1.0, 10.0) == SIGMOID_10


def test_case_difficulty_rejects_non_finite():
    with pytest.raises(ValueError):
        case_difficulty(math.nan, 1.0)


# --- integers too large for a float ------------------------------------------

HUGE = 10**400  # exact as a Python int; float() of it raises OverflowError
_LD = LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=0.0)
_RP = RetentionParams(a=1.0, b=1.0, c=1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: sigmoid(HUGE), "z"),
        (lambda: sigmoid(-HUGE), "z"),
        (lambda: logistic_difficulty(_LD, HUGE), "x"),
        (lambda: retention_probability(_RP, HUGE, 1.0), "e"),
        (lambda: retention_probability(_RP, 0.5, -HUGE), "r"),
        (lambda: case_difficulty(HUGE, 1.0), "engagement"),
        (lambda: case_difficulty(0.5, HUGE), "reward"),
        (lambda: flow_challenge(HUGE, FlowParams(k=0.0)), "skill"),
    ],
    ids=["sigmoid", "sigmoid-negative", "logistic_difficulty", "retention-e", "retention-r",
         "case-engagement", "case-reward", "flow_challenge"],
)
def test_kernels_name_an_integer_too_large_for_a_float(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got an integer too large for a float$"):
        call()


# --- parameter validation ----------------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        lambda: RewardFrequencyParams(r0=0.0, alpha=0.1),
        lambda: RewardFrequencyParams(r0=-1.0, alpha=0.1),
        lambda: RewardFrequencyParams(r0=1.0, alpha=math.inf),
        lambda: DiminishingRewardParams(v0=0.0, beta=0.1),
        lambda: DiminishingRewardParams(v0=10.0, beta=-0.1),
        lambda: LogisticDifficultyParams(d_max=0.0, gamma=1.0, x0=0.0),
        lambda: LogisticDifficultyParams(d_max=1.0, gamma=0.0, x0=0.0),
        lambda: LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=math.nan),
        lambda: FlowParams(k=math.inf),
        lambda: RetentionParams(a=math.nan, b=0.0, c=0.0),
        lambda: EngagementDecayParams(e0=1.5, lam=0.1),
        lambda: EngagementDecayParams(e0=-0.1, lam=0.1),
        lambda: EngagementDecayParams(e0=0.5, lam=-0.1),
        lambda: EngagementDecayParams(e0=True, lam=0.1),
    ],
)
def test_invalid_params_rejected(factory):
    with pytest.raises(ValueError):
        factory()


# --- purity ------------------------------------------------------------------

def test_operations_are_pure():
    rf = RewardFrequencyParams(r0=2.0, alpha=0.3)
    dr = DiminishingRewardParams(v0=7.0, beta=0.4)
    ld = LogisticDifficultyParams(d_max=2.0, gamma=1.5, x0=0.3)
    rp = RetentionParams(a=0.5, b=0.25, c=1.0)
    ed = EngagementDecayParams(e0=0.7, lam=0.2)
    calls = [
        lambda: sigmoid(1.234),
        lambda: reward_frequency(rf, 3.21),
        lambda: diminishing_reward_value(dr, 17),
        lambda: logistic_difficulty(ld, 0.77),
        lambda: flow_challenge(0.4, FlowParams(k=0.1)),
        lambda: retention_probability(rp, 0.6, 4.2),
        lambda: engagement_decay(ed, 9.5),
        lambda: case_difficulty(0.3, 2.2),
    ]
    for call in calls:
        assert call() == call()
