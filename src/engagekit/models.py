"""Closed-form engagement, reward, and difficulty models.

Stateless kernels for adaptive gamification. Everything else in the package
(the retention regression, the session and timeline simulators) composes
these functions:

    reward_frequency          R(t) = r0 * exp(alpha * t)
    diminishing_reward_value  V(n) = v0 / (1 + beta * n)
    logistic_difficulty       D(x) = d_max * sigmoid(gamma * (x - x0))
    flow_challenge            C(x) = x + k
    retention_probability     P(e, r) = sigmoid(a*e + b*r - c)
    engagement_decay          E(t) = e0 * exp(-lam * t)
    case_difficulty           sigmoid(engagement + reward - 1)

All quantities are 64-bit floats. Parameter records are frozen dataclasses
whose fields declare their constraints (see ``_spec``), checked at
construction, and store every number as a Python float. Kernel arguments
follow the records' number rule: a finite real (numpy scalars included),
used as a float; a bool, a string, a Decimal or None raises a ValueError
naming the argument. Model functions are pure, so identical inputs produce
bit-identical outputs and concurrent calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._spec import COUNT, FINITE, NON_NEGATIVE, NUMBER, POSITIVE, UNIT, Spec, check_fields

__all__ = [
    "RewardFrequencyParams",
    "DiminishingRewardParams",
    "LogisticDifficultyParams",
    "FlowParams",
    "RetentionParams",
    "EngagementDecayParams",
    "sigmoid",
    "reward_frequency",
    "diminishing_reward_value",
    "logistic_difficulty",
    "flow_challenge",
    "retention_probability",
    "engagement_decay",
    "case_difficulty",
]

# Open-interval bounds for probabilities: the closest doubles to 0 and 1.
_P_FLOOR = math.nextafter(0.0, 1.0)
_P_CEIL = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class RewardFrequencyParams:
    """Exponential reward schedule: r0 rewards per unit time at t=0,
    scaled by exp(alpha * t) as engagement accumulates."""

    r0: float = POSITIVE.field()
    alpha: float = FINITE.field()

    __post_init__ = check_fields


@dataclass(frozen=True)
class DiminishingRewardParams:
    """Hyperbolic reward decay: v0 points on the first interaction,
    shrinking by a factor 1/(1 + beta*n) after n interactions."""

    v0: float = POSITIVE.field()
    beta: float = NON_NEGATIVE.field()

    __post_init__ = check_fields


@dataclass(frozen=True)
class LogisticDifficultyParams:
    """Logistic difficulty curve over skill: saturates at d_max, rises at
    rate gamma, centered on the baseline skill level x0."""

    d_max: float = POSITIVE.field()
    gamma: float = POSITIVE.field()
    x0: float = FINITE.field()

    __post_init__ = check_fields


@dataclass(frozen=True)
class FlowParams:
    """Linear challenge-skill balance: challenge sits k units above skill."""

    k: float = FINITE.field()

    __post_init__ = check_fields


@dataclass(frozen=True)
class RetentionParams:
    """Logistic retention coefficients: a weighs engagement, b weighs
    reward, c is the decision threshold."""

    a: float = FINITE.field()
    b: float = FINITE.field()
    c: float = FINITE.field()

    __post_init__ = check_fields


@dataclass(frozen=True)
class EngagementDecayParams:
    """Exponential engagement decay from e0 at rate lam per unit time."""

    e0: float = UNIT.field()
    lam: float = Spec(NUMBER, ge=0.0, key="lambda").field()

    __post_init__ = check_fields


def sigmoid(z: float) -> float:
    """Numerically stable logistic function 1 / (1 + exp(-z)).

    Branches on the sign of z so |z| up to (and well beyond) 700 neither
    overflows nor underflows. The result is pinned to the open interval
    (0, 1): in the saturated regime the nearest double to the true value
    would be exactly 0.0 or 1.0, and this function returns the adjacent
    representable double instead so probability contracts hold everywhere.
    """
    return _sigmoid(FINITE.check("z", z))


def _sigmoid(z: float) -> float:
    """sigmoid without the finiteness check, for callers that have made it.

    ``simulator._advance`` writes this out for its retention logit; keep the
    two alike (the simulator's differential tests hold them equal)."""
    if z >= 0.0:
        out = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        out = ez / (1.0 + ez)
    return _P_FLOOR if out < _P_FLOOR else _P_CEIL if out > _P_CEIL else out


def reward_frequency(p: RewardFrequencyParams, t: float) -> float:
    """Reward rate at time t >= 0: r0 * exp(alpha * t)."""
    t = NON_NEGATIVE.check("t", t)
    return p.r0 * math.exp(p.alpha * t)


def diminishing_reward_value(p: DiminishingRewardParams, n: int) -> float:
    """Reward value after n interactions: v0 / (1 + beta * n)."""
    COUNT.check("n", n)
    return p.v0 / (1.0 + p.beta * n)


def logistic_difficulty(p: LogisticDifficultyParams, x: float) -> float:
    """Task difficulty at skill level x, strictly increasing in x and
    bounded by (0, d_max)."""
    x = FINITE.check("x", x)
    return p.d_max * sigmoid(p.gamma * (x - p.x0))


def flow_challenge(skill: float, p: FlowParams) -> float:
    """Challenge level that keeps a user of the given skill in flow."""
    return FINITE.check("skill", skill) + p.k


def retention_probability(p: RetentionParams, e: float, r: float) -> float:
    """Probability of staying active given engagement e and reward factor r:
    sigmoid(a*e + b*r - c)."""
    e = FINITE.check("e", e)
    r = FINITE.check("r", r)
    return sigmoid(p.a * e + p.b * r - p.c)


def engagement_decay(p: EngagementDecayParams, t: float) -> float:
    """Engagement remaining at time t >= 0: e0 * exp(-lam * t)."""
    t = NON_NEGATIVE.check("t", t)
    return p.e0 * math.exp(-p.lam * t)


def case_difficulty(engagement: float, reward: float) -> float:
    """Session-loop difficulty kernel: sigmoid(engagement + reward - 1).

    Expects engagement on [0, 1] and reward on [0, 10]; the ranges are not
    enforced since the function is well defined for any finite inputs.
    """
    engagement = FINITE.check("engagement", engagement)
    reward = FINITE.check("reward", reward)
    return sigmoid(engagement + reward - 1.0)
