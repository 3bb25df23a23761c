"""Tests for the session and timeline simulators."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

from engagekit.models import (
    DiminishingRewardParams,
    LogisticDifficultyParams,
    RetentionParams,
    case_difficulty,
)
from engagekit.regression import ConfusionMatrix, FitConfig, RetentionModel, generate_synthetic_dataset
from engagekit.rng import make_rng
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
from engagekit.simulator import _OpenSessionStep, _OpenTimelinePoint

from conftest import make_timeline_config


def make_point(retention_prob, step=1):
    return TimelinePoint(
        step=step, engagement=0.5, skill=0.5, reward_granted=1.0,
        difficulty=0.5, retention_prob=retention_prob, success=True, intervened=False,
    )


# --- session loop ------------------------------------------------------------

def test_session_step_count():
    assert len(simulate_session(10, seed=0)) == 10


def test_session_rejects_zero_tasks():
    with pytest.raises(ValueError):
        simulate_session(0, seed=0)


def test_session_difficulty_matches_kernel_exactly():
    for step in simulate_session(200, seed=4):
        assert step.difficulty == case_difficulty(step.engagement, step.reward)


def test_session_value_ranges():
    for step in simulate_session(500, seed=8):
        assert 0.0 <= step.engagement < 1.0
        assert 0.0 <= step.reward < 10.0
        assert 0.0 < step.difficulty < 1.0


def test_session_task_indices_one_based():
    steps = simulate_session(5, seed=1)
    assert [s.task_index for s in steps] == [1, 2, 3, 4, 5]


def test_session_deterministic():
    assert simulate_session(50, seed=123) == simulate_session(50, seed=123)


# --- single step dynamics ----------------------------------------------------

def test_step_failure_leaves_skill_unchanged():
    # x0 far below skill drives difficulty to ~1, so the step must fail
    cfg = make_timeline_config(
        difficulty=replace(make_timeline_config().difficulty, x0=-50.0), skill_gain=0.0
    )
    state = UserState(engagement=0.5, skill=0.5)
    new_state, point = step_user(state, cfg, make_rng(0))
    assert point.success is False
    assert new_state.skill == state.skill


def test_step_success_applies_headroom_gain():
    # x0 far above skill drives difficulty to ~0, so the step must succeed
    cfg = make_timeline_config(
        difficulty=replace(make_timeline_config().difficulty, x0=50.0), skill_gain=0.25
    )
    state = UserState(engagement=0.5, skill=0.2)
    new_state, point = step_user(state, cfg, make_rng(0))
    assert point.success is True
    assert new_state.skill == pytest.approx(0.2 + 0.25 * 0.8, rel=1e-15)


def test_step_identity_engagement_dynamics():
    cfg = make_timeline_config(
        decay=replace(make_timeline_config().decay, lam=0.0), engagement_boost=0.0
    )
    state = UserState(engagement=0.37, skill=0.5)
    new_state, _ = step_user(state, cfg, make_rng(0))
    assert new_state.engagement == 0.37


def test_step_counts_advance():
    cfg = make_timeline_config()
    state = UserState(engagement=0.9, skill=0.0, interactions=3, time=7)
    new_state, point = step_user(state, cfg, make_rng(0))
    assert new_state.interactions == 4
    assert new_state.time == 8
    assert point.step == 8


def test_step_reward_uses_interaction_count_and_accumulates():
    cfg = make_timeline_config()  # v0=10, beta=0.3
    state = UserState(engagement=0.9, skill=0.0, cumulative_reward=1.0, interactions=2)
    new_state, point = step_user(state, cfg, make_rng(0))
    expected = 10.0 / (1.0 + 0.3 * 2)
    assert point.reward_granted == expected
    assert new_state.cumulative_reward == 1.0 + expected


def test_step_consumes_pending_multiplier_once():
    cfg = make_timeline_config(
        diminishing=replace(make_timeline_config().diminishing, beta=0.0)
    )
    state = UserState(engagement=0.9, skill=0.0, pending_reward_multiplier=2.0)
    mid_state, point = step_user(state, cfg, make_rng(0))
    assert point.reward_granted == 20.0
    assert mid_state.pending_reward_multiplier == 1.0
    _, next_point = step_user(mid_state, cfg, make_rng(1))
    assert next_point.reward_granted == 10.0


def test_step_skill_closed_form_after_200_successes():
    cfg = make_timeline_config(
        difficulty=replace(make_timeline_config().difficulty, x0=50.0)
    )
    state = UserState(engagement=0.9, skill=0.0)
    rng = make_rng(77)
    for _ in range(200):
        state, point = step_user(state, cfg, rng)
        assert point.success
    expected = 1.0 - (1.0 - 0.0) * (1.0 - cfg.skill_gain) ** 200
    assert state.skill == pytest.approx(expected, abs=1e-9)


def test_step_consumes_exactly_one_draw():
    cfg = make_timeline_config()
    rng_a = make_rng(5)
    step_user(UserState(engagement=0.9, skill=0.0), cfg, rng_a)
    rng_b = make_rng(5)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


# --- at-risk detection and intervention --------------------------------------

def test_detect_at_risk_below_threshold():
    assert detect_at_risk(make_point(0.3), 0.5) is True


def test_detect_at_risk_strict_comparison():
    assert detect_at_risk(make_point(0.5), 0.5) is False


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2])
def test_detect_at_risk_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError):
        detect_at_risk(make_point(0.4), threshold)


def test_intervention_identity():
    cfg = make_timeline_config(engagement_boost=0.0, intervention_reward_multiplier=1.0)
    state = UserState(engagement=0.4, skill=0.3)
    assert apply_intervention(state, cfg) == state


def test_intervention_clamps_engagement():
    cfg = make_timeline_config(engagement_boost=0.5)
    state = UserState(engagement=0.99, skill=0.3)
    assert apply_intervention(state, cfg).engagement == 1.0


def test_intervention_arms_reward_multiplier():
    cfg = make_timeline_config(intervention_reward_multiplier=2.0)
    state = UserState(engagement=0.4, skill=0.3)
    assert apply_intervention(state, cfg).pending_reward_multiplier == 2.0


# --- timeline runs -----------------------------------------------------------

def test_timeline_single_step(initial_state):
    points = run_timeline(initial_state, make_timeline_config(steps=1))
    assert len(points) == 1
    assert points[0].step == 1


def test_timeline_emits_configured_step_count(initial_state):
    assert len(run_timeline(initial_state, make_timeline_config(steps=137))) == 137


def test_timeline_deterministic(initial_state):
    cfg = make_timeline_config(steps=300)
    assert run_timeline(initial_state, cfg) == run_timeline(initial_state, cfg)


def test_timeline_invariants_across_seeds(initial_state):
    for seed in range(8):
        points = run_timeline(initial_state, make_timeline_config(steps=400, seed=seed))
        skills = [p.skill for p in points]
        assert all(b >= a for a, b in zip(skills, skills[1:]))
        assert all(0.0 <= p.engagement <= 1.0 for p in points)
        assert all(0.0 < p.retention_prob < 1.0 for p in points)
        assert all(0.0 < p.difficulty < 1.0 for p in points)


def test_timeline_pure_decay_matches_closed_form(initial_state):
    cfg = make_timeline_config(steps=1000, engagement_boost=0.0, intervention_threshold=0.0)
    points = run_timeline(initial_state, cfg)
    lam, e0 = cfg.decay.lam, initial_state.engagement
    for p in points:
        assert p.engagement == pytest.approx(e0 * math.exp(-lam * p.step), abs=1e-9)
    assert not any(p.intervened for p in points)


def test_timeline_pure_decay_strictly_decreasing(initial_state):
    cfg = make_timeline_config(steps=200, engagement_boost=0.0, intervention_threshold=0.0)
    points = run_timeline(initial_state, cfg)
    engagement = [initial_state.engagement] + [p.engagement for p in points]
    assert all(b < a for a, b in zip(engagement, engagement[1:]))


def test_timeline_interventions_fire_and_lift_retention(initial_state):
    cfg_on = make_timeline_config(steps=500)
    cfg_off = replace(cfg_on, intervention_threshold=0.0)
    on = run_timeline(initial_state, cfg_on)
    off = run_timeline(initial_state, cfg_off)
    assert any(p.intervened for p in on)
    mean_on = np.mean([p.retention_prob for p in on])
    mean_off = np.mean([p.retention_prob for p in off])
    assert mean_on >= mean_off


def test_timeline_intervened_flag_matches_threshold(initial_state):
    cfg = make_timeline_config(steps=300)
    for p in run_timeline(initial_state, cfg):
        assert p.intervened == (p.retention_prob < cfg.intervention_threshold)


# --- record validation -------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"engagement": 1.5, "skill": 0.5},
        {"engagement": -0.1, "skill": 0.5},
        {"engagement": 0.5, "skill": 1.0001},
        {"engagement": 0.5, "skill": 0.5, "cumulative_reward": -1.0},
        {"engagement": 0.5, "skill": 0.5, "interactions": -1},
        {"engagement": 0.5, "skill": 0.5, "time": -2},
        {"engagement": 0.5, "skill": 0.5, "pending_reward_multiplier": 0.5},
    ],
)
def test_user_state_validation(kwargs):
    with pytest.raises(ValueError):
        UserState(**kwargs)


@pytest.mark.parametrize(
    "overrides",
    [
        {"steps": 0},
        {"skill_gain": 1.0},
        {"skill_gain": -0.1},
        {"engagement_boost": -0.5},
        {"intervention_threshold": 1.0},
        {"intervention_reward_multiplier": 0.9},
    ],
)
def test_timeline_config_validation(overrides):
    with pytest.raises(ValueError):
        make_timeline_config(**overrides)


def test_skill_gain_zero_is_allowed():
    assert make_timeline_config(skill_gain=0.0).skill_gain == 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: UserState(engagement=0.5, skill=0.5, interactions=True),
        lambda: UserState(engagement=0.5, skill=0.5, time=True),
        lambda: make_timeline_config(steps=True),
        lambda: simulate_session(True, 0),
        lambda: FitConfig(max_epochs=True),
        lambda: ConfusionMatrix(tn=True, fp=0, fn=0, tp=0),
        lambda: generate_synthetic_dataset(True, 0),
        lambda: RetentionModel(0.0, 0.0, 0.0, (0.0, 0.0), (1.0, 1.0), epochs_used=True),
    ],
    ids=["interactions", "time", "steps", "num_tasks", "max_epochs", "confusion", "n", "epochs_used"],
)
def test_bool_counts_rejected(make):
    with pytest.raises(ValueError, match=r"must be a (non-negative|positive) integer, got True"):
        make()


# --- non-finite intermediates ------------------------------------------------

MAX_FLOAT = 1.7976931348623157e308


@pytest.mark.parametrize(
    "cfg_overrides, state_overrides, message",
    [
        # gamma * (skill - x0) overflows inside the difficulty kernel
        ({"difficulty": LogisticDifficultyParams(d_max=1.0, gamma=1e308, x0=-5.0)}, {},
         "z must be finite, got inf"),
        # the armed multiplier doubles a near-maximal v0 past the float range
        ({"diminishing": DiminishingRewardParams(v0=MAX_FLOAT, beta=0.3)},
         {"pending_reward_multiplier": 2.0}, "r must be finite, got inf"),
        # same overflow with engagement_boost = 0: 0 * inf makes engagement nan
        ({"diminishing": DiminishingRewardParams(v0=MAX_FLOAT, beta=0.3), "engagement_boost": 0.0},
         {"pending_reward_multiplier": 2.0}, "e must be finite, got nan"),
        # b * reward overflows inside the retention kernel
        ({"diminishing": DiminishingRewardParams(v0=1e308, beta=0.0),
          "retention": RetentionParams(a=0.5, b=10.0, c=1.5)}, {}, "z must be finite, got inf"),
        # every reward is finite, their running sum is not
        ({"diminishing": DiminishingRewardParams(v0=1e308, beta=0.0), "intervention_threshold": 0.0}, {},
         "cumulative_reward must be finite, got inf"),
    ],
    ids=["difficulty-logit", "reward", "engagement", "retention-logit", "cumulative-reward"],
)
def test_non_finite_intermediates_keep_their_messages(cfg_overrides, state_overrides, message):
    cfg = make_timeline_config(steps=3, **cfg_overrides)
    state = UserState(engagement=0.9, skill=0.5, **state_overrides)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_timeline(state, cfg)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rng = make_rng(0)
        for _ in range(cfg.steps):
            state, _ = step_user(state, cfg, rng)


# --- record protocols --------------------------------------------------------

def engine_point():
    """The last point run_timeline builds: an open twin retyped in place."""
    return run_timeline(UserState(engagement=0.9, skill=0.5), make_timeline_config(steps=3))[-1]


def engine_step():
    """The last step simulate_session builds: an open twin retyped in place."""
    return simulate_session(3, seed=4)[-1]


# Each record type built by its public constructor and by its engine.
RECORDS = [make_point(0.25, step=3), SessionStep(2, 0.5, 3.5, 0.9, False), engine_point(), engine_step()]
RECORD_IDS = ["TimelinePoint", "SessionStep", "TimelinePoint-run_timeline", "SessionStep-simulate_session"]


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
def test_records_support_replace_copy_and_pickle(record):
    changed = replace(record, success=not record.success)
    assert changed.success is not record.success
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        record.success = True


@pytest.mark.parametrize(
    "record, record_type",
    [(engine_point(), TimelinePoint), (engine_step(), SessionStep)],
    ids=["run_timeline", "simulate_session"],
)
def test_engine_records_are_their_public_record(record, record_type):
    assert type(record) is record_type
    public = record_type(**{f.name: getattr(record, f.name) for f in fields(record_type)})
    assert record == public and public == record
    assert hash(record) == hash(public)
    assert repr(record) == repr(public)
    assert fields(record) == fields(public)
    for f in fields(record_type):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
@pytest.mark.parametrize("name", ["step", "task_index", "success", "extra"])
def test_records_refuse_assignment_and_deletion_of_any_name(record, name):
    # A frozen slots dataclass's own __setattr__ calls super() with the class
    # it had before slots were added, which raised TypeError for a name that
    # is not a field of the record.
    before = repr(record)
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, 1)
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize(
    "twin, record_type",
    [(_OpenTimelinePoint, TimelinePoint), (_OpenSessionStep, SessionStep)],
    ids=["TimelinePoint", "SessionStep"],
)
def test_open_twin_slots_match_the_record_fields(twin, record_type):
    # Retyping with obj.__class__ = record_type needs the same slots in the
    # same order and no base class adding any of its own.
    names = tuple(f.name for f in fields(record_type))
    assert twin.__slots__ == names
    assert record_type.__slots__ == names
    assert twin.__mro__ == (twin, object)
    # A plain class: the engines never call it, so it defines no __init__
    # (nor any other method) and is no dataclass.
    assert set(vars(twin)) == {"__module__", "__slots__", "__doc__", *names}
    assert not is_dataclass(twin)
    assert twin.__basicsize__ == record_type.__basicsize__
