"""Shared fixtures: the documented default parameter profile."""

import pytest

from engagekit.models import (
    DiminishingRewardParams,
    EngagementDecayParams,
    LogisticDifficultyParams,
    RetentionParams,
)
from engagekit.simulator import TimelineConfig, UserState


def make_timeline_config(**overrides) -> TimelineConfig:
    """Default-profile timeline config with keyword overrides."""
    base = dict(
        steps=200,
        diminishing=DiminishingRewardParams(v0=10.0, beta=0.3),
        difficulty=LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=0.5),
        retention=RetentionParams(a=0.5, b=0.5, c=1.5),
        decay=EngagementDecayParams(e0=0.9, lam=0.1),
        skill_gain=0.02,
        engagement_boost=0.3,
        intervention_threshold=0.3,
        intervention_reward_multiplier=2.0,
        seed=2025,
    )
    base.update(overrides)
    return TimelineConfig(**base)


@pytest.fixture
def timeline_config():
    return make_timeline_config()


@pytest.fixture
def initial_state():
    return UserState(engagement=0.9, skill=0.0)
