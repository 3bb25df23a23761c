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
simulators take all their draws up front as one list of doubles from
``rng._draws(seed, n)``: ``steps`` draws for a timeline, ``3 * num_tasks``
for a session, read in triples. These are the doubles that one
``make_rng(seed).random()`` call at a time would give, in the same order,
whether numpy or the package's pure-Python PCG64 produced them (see
``rng``), so neither simulator needs numpy loaded. Traces are therefore
bit-reproducible for a given seed.

A timeline is two independent chains, and that is part of the contract too.
The skill chain (stages 1-3: skill -> difficulty -> success -> skill) reads
the draws, skill_gain, the difficulty parameters and the initial skill, and
nothing else. The retention chain (stages 4-8: interactions and pending
multiplier -> reward -> engagement -> retention -> intervention ->
engagement and pending multiplier) reads no draw, no skill and no success.
So the engagement, reward_granted, retention_prob and intervened columns do
not depend on the seed: retention is a deterministic function of the
initial state and the config. And the skill, success and difficulty columns
depend on none of the diminishing, retention or decay parameters,
engagement_boost, the intervention threshold or multiplier, or the initial
engagement, interactions, cumulative reward and pending multiplier: an
intervention never changes skill or success. The engine still runs both
chains in one loop, since two loops would pay for two iterations a step.

Validation happens at entry, not per step. UserState and TimelineConfig
validate at construction, so one timeline engine, :func:`_advance`, runs all
steps over plain floats and builds one TimelinePoint per step and no
intermediate UserState. It inlines the model kernels with their operation
order (and math.exp) unchanged: the retention sigmoid is written out in the
loop, with ``models._sigmoid``'s sign branch and clamp. Difficulty depends
on skill alone, so the engine computes it (and 1 - difficulty) on the first
step and again only on a step whose skill differs from the one it was last
computed at, that is after a success that moved skill; skills that compare
equal give the same difficulty bit for bit. Inside the loop it keeps only
the checks on values that can leave the float range, at the stage of the
step where the kernels made them, raising the messages the kernels raise
and the object-per-step code raised: an overflowing logit (``z must be
finite, got inf``), reward (``r must be finite, got inf``) or cumulative
reward (``cumulative_reward must be finite, got inf``, as UserState says).

Both engines build each TimelinePoint and SessionStep without the record's
``__init__``: a call with no arguments makes an instance of a private "open
twin" (see :func:`_open_twin`: the same slots, no ``__init__`` of its own,
so the call runs only object's C ``__new__`` and ``__init__``), the engine
stores its slots as plain attributes, then retypes it in place with
``obj.__class__ = TimelinePoint`` (or SessionStep). A frozen dataclass's
``__init__`` is a Python frame that sets each field through
``object.__setattr__``; that was the largest cost left per step. The
twin's bare call also costs less than ``object.__new__(twin)``, a generic
wrapper that packs and checks its arguments. What the engines return is
still an ordinary frozen record, equal to and indistinguishable from one
built by the public constructor.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, replace
from typing import TYPE_CHECKING

from ._spec import (
    AT_LEAST_ONE,
    COUNT,
    FINITE,
    NON_NEGATIVE,
    POSITIVE_COUNT,
    UNIT,
    UNIT_BELOW_ONE,
    UNIT_OPEN,
    record,
)
from .models import (
    DiminishingRewardParams,
    EngagementDecayParams,
    LogisticDifficultyParams,
    RetentionParams,
    _P_CEIL,
    _P_FLOOR,
    _sigmoid,
)
from .rng import SEED, _draws

if TYPE_CHECKING:
    import numpy as np

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


@record
class UserState:
    """Evolving user snapshot for timeline simulation.

    pending_reward_multiplier is the intervention flag: it scales the next
    step's granted reward once and is then reset to 1.
    """

    engagement: float = UNIT.field()
    skill: float = UNIT.field()
    cumulative_reward: float = NON_NEGATIVE.field(0.0)
    interactions: int = COUNT.field(0)
    time: int = COUNT.field(0)
    pending_reward_multiplier: float = AT_LEAST_ONE.field(1.0)


def _frozen_slots(record: type) -> type:
    """Give a frozen ``slots=True`` dataclass the refusals of a frozen
    dataclass without slots.

    The ``__setattr__``/``__delattr__`` that dataclass generates call
    ``super()`` with the class it had before slots were added, so on a name
    that is not a field they raised TypeError. These raise
    FrozenInstanceError for every name, with dataclass's messages. A frozen
    dataclass's body may not define them, so they are set after decoration.
    """

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    record.__setattr__, record.__delattr__ = __setattr__, __delattr__
    return record


@_frozen_slots
@dataclass(frozen=True, slots=True)
class SessionStep:
    """One task of a simulated session; difficulty is always the session
    kernel applied to this step's drawn engagement and reward."""

    task_index: int
    engagement: float
    reward: float
    difficulty: float
    success: bool


@_frozen_slots
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


def _open_twin(record: type) -> type:
    """A private plain class with record's slots, in record's field order.

    It has no ``__init__`` and no base but object: the engines make an
    instance by calling it with no arguments, store each slot as a plain
    attribute (a frozen dataclass's ``__init__`` goes through
    ``object.__setattr__`` field by field), and retype it in place with
    ``obj.__class__ = record``, which CPython allows because the slot
    layouts are identical. What results is an ordinary frozen record (type,
    ``==``, hash, repr, replace, copy, pickle and FrozenInstanceError on
    assignment all as if built by record(...)).
    """
    return type(f"_Open{record.__name__}", (), {"__slots__": record.__slots__})


_OpenSessionStep = _open_twin(SessionStep)
_OpenTimelinePoint = _open_twin(TimelinePoint)


@record
class TimelineConfig:
    """Everything a timeline run needs: the model parameters the step
    dynamics read, the dynamics knobs, and the seed.

    intervention_threshold = 0 disables at-risk detection entirely; any
    positive threshold must lie in (0, 1). skill_gain = 0 and
    engagement_boost = 0 are valid "off" settings for their dynamics.
    """

    steps: int = POSITIVE_COUNT.field()
    diminishing: DiminishingRewardParams
    difficulty: LogisticDifficultyParams
    retention: RetentionParams
    decay: EngagementDecayParams
    skill_gain: float = UNIT_BELOW_ONE.field()
    engagement_boost: float = NON_NEGATIVE.field()
    intervention_threshold: float = UNIT_BELOW_ONE.field()
    intervention_reward_multiplier: float = AT_LEAST_ONE.field()
    seed: int = SEED.field()

    @property
    def interventions_enabled(self) -> bool:
        return self.intervention_threshold > 0.0


def simulate_session(num_tasks: int, seed: int) -> list[SessionStep]:
    """Simulate a learning session of num_tasks tasks.

    Per task: engagement ~ U[0,1), reward ~ U[0,10), difficulty from the
    session kernel, success with probability 1 - difficulty. Deterministic
    given the seed.
    """
    POSITIVE_COUNT.check("num_tasks", num_tasks)
    steps = []
    append, open_step, record = steps.append, _OpenSessionStep, SessionStep
    draws = iter(_draws(seed, 3 * num_tasks))
    for task, (engagement, reward, u) in enumerate(zip(draws, draws, draws), 1):
        reward *= 10.0
        difficulty = _sigmoid(engagement + reward - 1.0)  # case_difficulty; both terms are finite
        step = open_step()  # an open twin, retyped below (see _open_twin)
        step.task_index = task
        step.engagement = engagement
        step.reward = reward
        step.difficulty = difficulty
        step.success = u < 1.0 - difficulty
        step.__class__ = record
        append(step)
    return steps


def _advance(
    state: UserState, cfg: TimelineConfig, draws: list[float], threshold: float
) -> tuple[list[TimelinePoint], UserState]:
    """The timeline engine: one step per draw from state (dynamics order in
    module doc), at-risk below threshold (0 never is). Returns the emitted
    points and the successor state.

    It reads each parameter as it is: records store their numbers as Python
    floats (see ``_spec``), so the loop computes in double, as the kernels
    do."""
    d_max, gamma, x0 = cfg.difficulty.d_max, cfg.difficulty.gamma, cfg.difficulty.x0
    v0, beta = cfg.diminishing.v0, cfg.diminishing.beta
    a, b, c = cfg.retention.a, cfg.retention.b, cfg.retention.c
    decay_factor = math.exp(-cfg.decay.lam)
    skill_gain, boost = cfg.skill_gain, cfg.engagement_boost
    multiplier = cfg.intervention_reward_multiplier
    inf, exp, p_floor, p_ceil = math.inf, math.exp, _P_FLOOR, _P_CEIL

    engagement, skill = state.engagement, state.skill
    cumulative, pending = state.cumulative_reward, state.pending_reward_multiplier
    n, t = state.interactions, state.time
    # The skill that difficulty was last computed at; nan matches no skill,
    # so the first step computes it.
    known = math.nan
    points = []
    append, open_point, record = points.append, _OpenTimelinePoint, TimelinePoint
    for u in draws:
        if skill != known:  # the first step, or a success moved skill
            known = skill
            z = gamma * (skill - x0)
            if not -inf < z < inf:
                FINITE.check("z", z)  # raises logistic_difficulty's message
            difficulty = d_max * _sigmoid(z)
            keep = 1.0 - difficulty
        success = u < keep
        if success:
            skill = skill + skill_gain * (1.0 - skill)

        reward = v0 / (1.0 + beta * n) * pending
        pending = 1.0
        # Never negative: every term is >= 0, so only the upper clamp can act.
        engagement = engagement * decay_factor + boost * (reward / v0)
        if engagement > 1.0:
            engagement = 1.0
        if reward == inf:  # the only non-finite reward; e is nan when boost is 0
            FINITE.check("e", engagement)
            FINITE.check("r", reward)
        z = a * engagement + b * reward - c
        if not -inf < z < inf:
            FINITE.check("z", z)  # raises retention_probability's message
        if z >= 0.0:  # _sigmoid, inlined
            retention = 1.0 / (1.0 + exp(-z))
        else:
            ez = exp(z)
            retention = ez / (1.0 + ez)
        if retention < p_floor:
            retention = p_floor
        elif retention > p_ceil:
            retention = p_ceil

        cumulative = cumulative + reward
        if cumulative == inf:
            FINITE.check("cumulative_reward", cumulative)  # raises UserState's message
        n += 1
        t += 1
        intervened = retention < threshold
        point = open_point()  # an open twin, retyped below (see _open_twin)
        point.step = t
        point.engagement = engagement
        point.skill = skill
        point.reward_granted = reward
        point.difficulty = difficulty
        point.retention_prob = retention
        point.success = success
        point.intervened = intervened
        point.__class__ = record
        append(point)
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

    Each call pays ``_advance``'s per-run set-up (a dozen parameter reads
    and a one-draw list) and builds a validated successor ``UserState``, so
    stepping a long timeline through this costs several times
    :func:`run_timeline` per step (about 4.6 us against 0.8 us, best of 15
    1000-step runs on a 2-vCPU Xeon VM, Python 3.11); use run_timeline for
    whole timelines.
    """
    points, new_state = _advance(state, cfg, [rng.random()], 0.0)
    return new_state, points[0]


def detect_at_risk(point: TimelinePoint, threshold: float) -> bool:
    """True when the point's retention probability falls strictly below the
    threshold. The threshold must lie in the open interval (0, 1)."""
    threshold = UNIT_OPEN.check("threshold", threshold)
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
    return _advance(initial, cfg, _draws(cfg.seed, cfg.steps), cfg.intervention_threshold)[0]
