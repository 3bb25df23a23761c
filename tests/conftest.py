"""Shared fixtures: the documented default parameter profile, and the
environment for tests that start a fresh interpreter."""

import os
from pathlib import Path

import pytest

import engagekit
from engagekit.config import CONFIG_ENV_VAR
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


SRC = Path(engagekit.__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """This process's environment for a child interpreter that imports
    engagekit from SRC and resolves no config from the environment."""
    env = {key: value for key, value in os.environ.items() if key != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env
