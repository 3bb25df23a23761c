"""Differential tests: the simulators against a step-at-a-time reference.

The reference is the original object-per-step timeline: one validated
UserState per step, built from the public model kernels, looped with
detect_at_risk and apply_intervention, drawing from the generator one call
at a time. The simulators draw up front and run over plain floats, so these
tests pin both the draw discipline and the arithmetic: results must be equal
(==), not close.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
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


@settings(max_examples=150, deadline=None)
@given(initial_states, configs)
def test_run_timeline_equals_reference(initial, cfg):
    assert run_timeline(initial, cfg) == reference_timeline(initial, cfg)


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
