"""Stochastic simulation of gamified learning.

Two seeded simulators built on the closed-form models:

* :func:`simulate_session` is the short task loop: per task, engagement and
  reward are drawn uniformly, difficulty comes from the session kernel, and
  success lands with probability 1 - difficulty.

* :func:`run_timeline` / :func:`step_user` produce a long-horizon user trajectory
  emitting engagement, skill, granted reward, difficulty, and retention
  probability at every step, with optional at-risk detection and
  intervention after each step.

Timeline step dynamics, in fixed order:

  1. difficulty   = logistic_difficulty(difficulty params, skill)
  2. success      = uniform draw < 1 - difficulty
  3. skill       += skill_gain * (1 - skill), on success only
  4. reward       = diminishing_reward_value(reward params, interactions),
                    times the pending intervention multiplier (then cleared);
                    added to cumulative reward
  5. engagement   = clamp(engagement * exp(-lam)
                          + engagement_boost * reward / v0, 0, 1)
  6. retention    = retention_probability(retention params, engagement, reward)
  7. interactions and time advance by one
  8. if retention < intervention_threshold (never, when it is 0): the point is
     flagged intervened, engagement gains engagement_boost (clamped to 1) and
     the next reward is armed with intervention_reward_multiplier, exactly as
     detect_at_risk and apply_intervention do.

Draw discipline is part of the contract: a timeline step consumes exactly
one uniform draw (the success outcome at stage 2); reward and engagement
updates consume none. A session task consumes three draws, in the order
engagement, reward, success. Since no draw depends on the state, both
simulators take all their draws up front in one call (``random(steps)``, or
``random((num_tasks, 3))`` for a session), which yields the same doubles as
one ``random()`` call at a time. Traces are therefore bit-reproducible for a
given seed.

Validation happens at entry, not per step. UserState and TimelineConfig
validate at construction, so one timeline engine, :func:`_advance`, runs all
steps over plain floats, inlines the model kernels with their operation
order (and math.exp) unchanged, and builds one TimelinePoint per step and no
intermediate UserState. Inside the loop it keeps only the checks on values
that can leave the float range, raising the same messages as the kernels
and UserState: an overflowing logit (``z must be finite, got inf``), reward
(``r must be finite, got inf``) or cumulative reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .models import (
    DiminishingRewardParams,
    EngagementDecayParams,
    FlowParams,
    LogisticDifficultyParams,
    RetentionParams,
    RewardFrequencyParams,
    _finite,
    _sigmoid,
)
from .rng import make_rng

__all__ = [
    "UserState",
    "SessionStep",
    "TimelinePoint",
    "TimelineConfig",
    "simulate_session",
    "step_user",
    "run_timeline",
    "detect_at_risk",
    "apply_intervention",
]


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


@dataclass(frozen=True)
class UserState:
    """Evolving user snapshot for timeline simulation.

    pending_reward_multiplier is the intervention flag: it scales the next
    step's granted reward once and is then reset to 1.
    """

    engagement: float
    skill: float
    cumulative_reward: float = 0.0
    interactions: int = 0
    time: int = 0
    pending_reward_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.engagement) and 0.0 <= self.engagement <= 1.0):
            raise ValueError(f"engagement must be in [0, 1], got {self.engagement}")
        if not (math.isfinite(self.skill) and 0.0 <= self.skill <= 1.0):
            raise ValueError(f"skill must be in [0, 1], got {self.skill}")
        if not (math.isfinite(self.cumulative_reward) and self.cumulative_reward >= 0.0):
            raise ValueError(f"cumulative_reward must be >= 0, got {self.cumulative_reward}")
        for name in ("interactions", "time"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= 0):
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if not (math.isfinite(self.pending_reward_multiplier) and self.pending_reward_multiplier >= 1.0):
            raise ValueError(
                f"pending_reward_multiplier must be >= 1, got {self.pending_reward_multiplier}"
            )


@dataclass(frozen=True, slots=True)
class SessionStep:
    """One task of a simulated session; difficulty is always the session
    kernel applied to this step's drawn engagement and reward."""

    task_index: int
    engagement: float
    reward: float
    difficulty: float
    success: bool


@dataclass(frozen=True, slots=True)
class TimelinePoint:
    """One emitted timeline sample: the user's state at the end of a step,
    plus whether an intervention fired right after it."""

    step: int
    engagement: float
    skill: float
    reward_granted: float
    difficulty: float
    retention_prob: float
    success: bool
    intervened: bool


@dataclass(frozen=True)
class TimelineConfig:
    """Everything a timeline run needs: the full model-parameter profile,
    the step dynamics knobs, and the seed.

    intervention_threshold = 0 disables at-risk detection entirely; any
    positive threshold must lie in (0, 1). skill_gain = 0 and
    engagement_boost = 0 are valid "off" settings for their dynamics.
    """

    steps: int
    reward_frequency: RewardFrequencyParams
    diminishing: DiminishingRewardParams
    difficulty: LogisticDifficultyParams
    flow: FlowParams
    retention: RetentionParams
    decay: EngagementDecayParams
    skill_gain: float
    engagement_boost: float
    intervention_threshold: float
    intervention_reward_multiplier: float
    seed: int

    def __post_init__(self) -> None:
        if isinstance(self.steps, bool) or not (isinstance(self.steps, int) and self.steps >= 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if not (math.isfinite(self.skill_gain) and 0.0 <= self.skill_gain < 1.0):
            raise ValueError(f"skill_gain must be in [0, 1), got {self.skill_gain}")
        if not (math.isfinite(self.engagement_boost) and self.engagement_boost >= 0.0):
            raise ValueError(f"engagement_boost must be >= 0, got {self.engagement_boost}")
        if not (math.isfinite(self.intervention_threshold) and 0.0 <= self.intervention_threshold < 1.0):
            raise ValueError(
                f"intervention_threshold must be 0 (off) or in (0, 1), got {self.intervention_threshold}"
            )
        if not (math.isfinite(self.intervention_reward_multiplier) and self.intervention_reward_multiplier >= 1.0):
            raise ValueError(
                f"intervention_reward_multiplier must be >= 1, got {self.intervention_reward_multiplier}"
            )

    @property
    def interventions_enabled(self) -> bool:
        return self.intervention_threshold > 0.0


def simulate_session(num_tasks: int, seed: int) -> list[SessionStep]:
    """Simulate a learning session of num_tasks tasks.

    Per task: engagement ~ U[0,1), reward ~ U[0,10), difficulty from the
    session kernel, success with probability 1 - difficulty. Deterministic
    given the seed.
    """
    if isinstance(num_tasks, bool) or not (isinstance(num_tasks, int) and num_tasks >= 1):
        raise ValueError(f"num_tasks must be a positive integer, got {num_tasks!r}")
    steps = []
    for task, (engagement, reward, u) in enumerate(make_rng(seed).random((num_tasks, 3)).tolist(), 1):
        reward *= 10.0
        difficulty = _sigmoid(engagement + reward - 1.0)  # case_difficulty; both terms are finite
        steps.append(SessionStep(task, engagement, reward, difficulty, u < 1.0 - difficulty))
    return steps


def _advance(
    state: UserState, cfg: TimelineConfig, draws: list[float], threshold: float
) -> tuple[list[TimelinePoint], UserState]:
    """The timeline engine: one step per draw from state (dynamics order in
    module doc), at-risk below threshold (0 never is). Returns the emitted
    points and the successor state."""
    # Plain floats, as the kernels' _finite() conversions gave them.
    d_max, gamma, x0 = map(float, (cfg.difficulty.d_max, cfg.difficulty.gamma, cfg.difficulty.x0))
    v0, beta = float(cfg.diminishing.v0), float(cfg.diminishing.beta)
    a, b, c = map(float, (cfg.retention.a, cfg.retention.b, cfg.retention.c))
    decay_factor = math.exp(-cfg.decay.lam)
    skill_gain, boost = float(cfg.skill_gain), float(cfg.engagement_boost)
    multiplier = float(cfg.intervention_reward_multiplier)
    inf = math.inf

    engagement, skill = float(state.engagement), float(state.skill)
    cumulative, pending = float(state.cumulative_reward), float(state.pending_reward_multiplier)
    n, t = state.interactions, state.time
    points = []
    append = points.append
    for u in draws:
        z = gamma * (skill - x0)
        if not -inf < z < inf:
            _finite("z", z)  # raises logistic_difficulty's message
        difficulty = d_max * _sigmoid(z)
        success = u < 1.0 - difficulty
        if success:
            skill = skill + skill_gain * (1.0 - skill)

        reward = v0 / (1.0 + beta * n) * pending
        pending = 1.0
        # Never negative: every term is >= 0, so only the upper clamp can act.
        engagement = engagement * decay_factor + boost * (reward / v0)
        if engagement > 1.0:
            engagement = 1.0
        if reward == inf:  # the only non-finite reward; e is nan when boost is 0
            _finite("e", engagement)
            _finite("r", reward)
        z = a * engagement + b * reward - c
        if not -inf < z < inf:
            _finite("z", z)  # raises retention_probability's message
        retention = _sigmoid(z)

        cumulative = cumulative + reward
        if cumulative == inf:
            raise ValueError(f"cumulative_reward must be >= 0, got {cumulative}")
        n += 1
        t += 1
        intervened = retention < threshold
        append(TimelinePoint(t, engagement, skill, reward, difficulty, retention, success, intervened))
        if intervened:  # apply_intervention
            engagement = engagement + boost
            if engagement > 1.0:
                engagement = 1.0
            pending = multiplier
    return points, UserState(engagement, skill, cumulative, n, t, pending)


def step_user(
    state: UserState, cfg: TimelineConfig, rng: np.random.Generator
) -> tuple[UserState, TimelinePoint]:
    """Advance a user by one timeline step (dynamics order in module doc),
    with no at-risk check.

    Consumes exactly one uniform draw from rng. Returns the successor state
    and the emitted point; the input state is untouched.
    """
    points, new_state = _advance(state, cfg, [rng.random()], 0.0)
    return new_state, points[0]


def detect_at_risk(point: TimelinePoint, threshold: float) -> bool:
    """True when the point's retention probability falls strictly below the
    threshold. The threshold must lie in the open interval (0, 1)."""
    if not (math.isfinite(threshold) and 0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return point.retention_prob < threshold


def apply_intervention(state: UserState, cfg: TimelineConfig) -> UserState:
    """Boost an at-risk user: bump engagement once (clamped to [0, 1]) and
    arm the reward multiplier for the next step."""
    return replace(
        state,
        engagement=_clamp01(state.engagement + cfg.engagement_boost),
        pending_reward_multiplier=cfg.intervention_reward_multiplier,
    )


def run_timeline(initial: UserState, cfg: TimelineConfig) -> list[TimelinePoint]:
    """Run cfg.steps timeline steps from the initial state.

    After each step, when interventions are enabled, a point that
    detect_at_risk would flag is marked intervened and the state is adjusted
    as apply_intervention does. Deterministic given cfg.seed.
    """
    draws = make_rng(cfg.seed).random(cfg.steps).tolist()
    return _advance(initial, cfg, draws, cfg.intervention_threshold)[0]
