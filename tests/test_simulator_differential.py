"""Differential tests: the simulators against a step-at-a-time reference.

The reference is the original object-per-step timeline: one validated
UserState per step, built from the public model kernels, looped with
detect_at_risk and apply_intervention, drawing from the generator one call
at a time. The simulators draw up front and run over plain floats, so these
tests pin both the draw discipline and the arithmetic: results must be equal
(==), not close. The chain tests run the simulator against itself: a
timeline's two chains must not read each other's inputs.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from engagekit.models import (
    DiminishingRewardParams,
    EngagementDecayParams,
    LogisticDifficultyParams,
    RetentionParams,
    case_difficulty,
    diminishing_reward_value,
    logistic_difficulty,
    retention_probability,
)
from engagekit.rng import MAX_SEED, make_rng
from engagekit.simulator import (
    SessionStep,
    TimelinePoint,
    UserState,
    apply_intervention,
    detect_at_risk,
    run_timeline,
    simulate_session,
    step_user,
)

from conftest import make_timeline_config


def reference_step(state, cfg, rng):
    difficulty = logistic_difficulty(cfg.difficulty, state.skill)
    success = bool(rng.random() < 1.0 - difficulty)

    skill = state.skill
    if success:
        skill = skill + cfg.skill_gain * (1.0 - skill)

    reward = diminishing_reward_value(cfg.diminishing, state.interactions)
    reward *= state.pending_reward_multiplier

    decay_factor = math.exp(-cfg.decay.lam)
    engagement = min(max(
        state.engagement * decay_factor + cfg.engagement_boost * (reward / cfg.diminishing.v0), 0.0), 1.0)
    retention = retention_probability(cfg.retention, engagement, reward)

    new_state = UserState(
        engagement=engagement,
        skill=skill,
        cumulative_reward=state.cumulative_reward + reward,
        interactions=state.interactions + 1,
        time=state.time + 1,
        pending_reward_multiplier=1.0,
    )
    point = TimelinePoint(new_state.time, engagement, skill, reward, difficulty, retention, success, False)
    return new_state, point


def reference_timeline(initial, cfg):
    rng = make_rng(cfg.seed)
    state = initial
    points = []
    for _ in range(cfg.steps):
        state, point = reference_step(state, cfg, rng)
        if cfg.interventions_enabled and detect_at_risk(point, cfg.intervention_threshold):
            state = apply_intervention(state, cfg)
            point = replace(point, intervened=True)
        points.append(point)
    return points


def reference_session(num_tasks, seed):
    rng = make_rng(seed)
    steps = []
    for task in range(num_tasks):
        engagement = rng.random()
        reward = rng.random() * 10.0
        difficulty = case_difficulty(engagement, reward)
        success = rng.random() < 1.0 - difficulty
        steps.append(SessionStep(task + 1, engagement, reward, difficulty, bool(success)))
    return steps


unit = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=MAX_SEED)

initial_states = st.builds(
    UserState,
    engagement=unit,
    skill=unit,
    cumulative_reward=st.floats(min_value=0.0, max_value=1e6),
    interactions=st.integers(min_value=0, max_value=10**6),
    time=st.integers(min_value=0, max_value=10**6),
    pending_reward_multiplier=st.floats(min_value=1.0, max_value=5.0),
)

configs = st.builds(
    make_timeline_config,
    steps=st.integers(min_value=1, max_value=300),
    diminishing=st.builds(DiminishingRewardParams,
                          v0=st.floats(min_value=1e-3, max_value=100.0),
                          beta=st.floats(min_value=0.0, max_value=2.0)),
    difficulty=st.builds(LogisticDifficultyParams,
                         d_max=st.floats(min_value=1e-3, max_value=1.0),
                         gamma=st.floats(min_value=1e-3, max_value=50.0),
                         x0=st.floats(min_value=-2.0, max_value=2.0)),
    retention=st.builds(RetentionParams,
                        a=st.floats(min_value=-5.0, max_value=5.0),
                        b=st.floats(min_value=-5.0, max_value=5.0),
                        c=st.floats(min_value=-5.0, max_value=5.0)),
    decay=st.builds(EngagementDecayParams, e0=unit, lam=st.floats(min_value=0.0, max_value=3.0)),
    skill_gain=st.floats(min_value=0.0, max_value=0.99),
    engagement_boost=st.floats(min_value=0.0, max_value=2.0),
    intervention_threshold=st.just(0.0) | st.floats(min_value=0.0, max_value=1.0,
                                                    exclude_min=True, exclude_max=True),
    intervention_reward_multiplier=st.floats(min_value=1.0, max_value=4.0),
    seed=seeds,
)


# Successes are frequent and each moves skill 99% of the way to 1.
REACHES_FIXED_POINT = make_timeline_config(
    skill_gain=0.99, difficulty=LogisticDifficultyParams(d_max=0.1, gamma=1.0, x0=0.5),
)


# The engine computes difficulty again only when skill moves. These examples
# hold skill still (no gain; skill already 1; a gain below half an ulp of
# skill) or drive it to its fixed point within a few successes.
@settings(max_examples=150, deadline=None)
@given(initial_states, configs)
@example(UserState(engagement=0.9, skill=0.3), make_timeline_config(skill_gain=0.0))
@example(UserState(engagement=0.9, skill=1.0), make_timeline_config())
@example(UserState(engagement=0.9, skill=0.5), make_timeline_config(skill_gain=1e-300))
@example(UserState(engagement=0.9, skill=0.0), REACHES_FIXED_POINT)
def test_run_timeline_equals_reference(initial, cfg):
    assert run_timeline(initial, cfg) == reference_timeline(initial, cfg)


def test_difficulty_memo_examples_hold_skill_as_described():
    assert 0.5 + 1e-300 * (1.0 - 0.5) == 0.5
    points = run_timeline(UserState(engagement=0.9, skill=0.0), REACHES_FIXED_POINT)
    fixed = points[-1].skill
    assert fixed + 0.99 * (1.0 - fixed) == fixed
    assert sum(p.success for p in points if p.skill == fixed) > 100


def outcome(run, initial, cfg):
    """The points run returns, or the type and message of what it raises."""
    try:
        return run(initial, cfg)
    except Exception as exc:
        return type(exc), str(exc)


def huge(moderate_max):
    return st.floats(min_value=1e-3, max_value=moderate_max) | st.floats(min_value=1e300, max_value=1.7e308)


overflow_configs = st.builds(
    make_timeline_config,
    steps=st.integers(min_value=1, max_value=50),
    diminishing=st.builds(DiminishingRewardParams, v0=huge(100.0), beta=st.floats(min_value=0.0, max_value=2.0)),
    difficulty=st.builds(LogisticDifficultyParams,
                         d_max=st.floats(min_value=1e-3, max_value=1.0),
                         gamma=huge(50.0),
                         x0=st.floats(min_value=-2.0, max_value=2.0)),
    retention=st.builds(RetentionParams,
                        a=st.floats(min_value=-5.0, max_value=5.0),
                        b=huge(5.0) | huge(5.0).map(lambda b: -b),
                        c=st.floats(min_value=-5.0, max_value=5.0)),
    skill_gain=st.floats(min_value=0.0, max_value=0.99),
    engagement_boost=st.floats(min_value=0.0, max_value=2.0),
    intervention_threshold=st.just(0.0) | st.floats(min_value=0.0, max_value=1.0,
                                                    exclude_min=True, exclude_max=True),
    intervention_reward_multiplier=st.floats(min_value=1.0, max_value=4.0) | st.floats(min_value=1e300,
                                                                                        max_value=1.7e308),
    seed=seeds,
)


# A success on the first step moves skill to where the difficulty logit
# overflows: that raises at the second step's difficulty, and not at all
# when there is no second step.
LOGIT_OVERFLOWS_AFTER_SUCCESS = dict(
    seed=0, skill_gain=0.99, difficulty=LogisticDifficultyParams(d_max=0.1, gamma=1e308, x0=-0.9),
)


@settings(max_examples=300, deadline=None)
@given(initial_states, overflow_configs)
@example(UserState(engagement=0.9, skill=0.0), make_timeline_config(steps=1, **LOGIT_OVERFLOWS_AFTER_SUCCESS))
@example(UserState(engagement=0.9, skill=0.0), make_timeline_config(steps=5, **LOGIT_OVERFLOWS_AFTER_SUCCESS))
def test_run_timeline_raises_as_reference_with_overflowing_parameters(initial, cfg):
    assert outcome(run_timeline, initial, cfg) == outcome(reference_timeline, initial, cfg)


@settings(deadline=None)
@given(initial_states, configs)
def test_step_user_equals_reference_first_step(initial, cfg):
    rng, reference_rng = make_rng(cfg.seed), make_rng(cfg.seed)
    assert step_user(initial, cfg, rng) == reference_step(initial, cfg, reference_rng)
    assert rng.random() == reference_rng.random()


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=300), seeds)
def test_simulate_session_equals_reference(num_tasks, seed):
    assert simulate_session(num_tasks, seed) == reference_session(num_tasks, seed)


def test_default_profile_long_timeline_equals_reference(initial_state):
    # 5000 steps run deep into the saturated regime where interventions fire
    # on almost every step and the multiplier is armed and consumed in turn.
    cfg = make_timeline_config(steps=5000)
    assert run_timeline(initial_state, cfg) == reference_timeline(initial_state, cfg)


# The two chains of the simulator's contract: each column group must come out
# equal when every input that its chain does not read is changed.
RETENTION_CHAIN = ("engagement", "reward_granted", "retention_prob", "intervened")
SKILL_CHAIN = ("skill", "success", "difficulty")


def columns(points, names):
    return [tuple(getattr(point, name) for name in names) for point in points]


@settings(max_examples=100, deadline=None)
@given(initial_states, configs, seeds)
def test_retention_chain_does_not_depend_on_the_seed(initial, cfg, seed):
    assert columns(run_timeline(initial, replace(cfg, seed=seed)), RETENTION_CHAIN) == columns(
        run_timeline(initial, cfg), RETENTION_CHAIN)


@settings(max_examples=100, deadline=None)
@given(initial_states, configs, initial_states, configs)
def test_skill_chain_reads_only_draws_skill_gain_difficulty_and_skill(initial, cfg, other_initial, other):
    # other keeps what the skill chain reads from cfg and initial, and draws
    # every other parameter and initial value afresh.
    other = replace(other, steps=cfg.steps, difficulty=cfg.difficulty, skill_gain=cfg.skill_gain, seed=cfg.seed)
    other_initial = replace(other_initial, skill=initial.skill)
    assert columns(run_timeline(other_initial, other), SKILL_CHAIN) == columns(
        run_timeline(initial, cfg), SKILL_CHAIN)
