"""Reference loops that gauge how fast the machine runs at the moment.

The benchmark runs on shared virtual machines whose cores run faster or
slower in spells that can outlast a whole run, with CPU time tracking wall
time. No statistic taken inside one run can remove a spell that fills it.
So each workload runs, between its ops, a fixed reference loop of like
character (interpreted float code, or small numpy arrays) written here,
calling no engagekit code. A slower machine stretches the loop and the ops
alike; a change to engagekit stretches only the ops. The throughput the benchmark gates is the work done
per second of op time, scaled by the loop's time against its nominal time:

    work_per_ref_s = work / op_seconds * loop_seconds / nominal_seconds

The nominal times are the loops' times on the 2-vCPU Intel Xeon VM where
they were set. They only scale the figure; on that machine, when quiet, it
reads close to the plain work per second.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Steps of the interpreted loop run before each block of four cohort users,
# and before each CLI command. A fresh interpreter importing numpy would
# look more like a CLI command, but its time did not follow the commands'
# from moment to moment, while this loop's did.
INTERPRETER_STEPS = {"cohort": 4000, "cli": 15000}
# Epochs of the array loop before each retention block: 800 and 6400 rows,
# the training-set sizes of the workload's 1000- and 8000-row pipelines.
ARRAY_EPOCHS = 1500
ARRAY_ROWS = (800, 6400, 800)

# Nominal seconds of one calibration, by workload (see the module doc).
NOMINAL_S = {"cohort": 0.0128, "retention": 0.17, "cli": 0.048}


class _State:
    """A small immutable record, built once a step like the simulator's."""

    __slots__ = ("engagement", "skill", "reward", "time")

    def __init__(self, engagement: float, skill: float, reward: float, time: int) -> None:
        self.engagement = engagement
        self.skill = skill
        self.reward = reward
        self.time = time


def _logistic(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def interpreter_loop(steps: int) -> float:
    """A learner-like recurrence over plain floats, one scalar draw from a
    numpy generator a step; returns a checksum so nothing is skipped."""
    draw = np.random.default_rng(12345).random
    state = _State(0.5, 0.0, 0.0, 0)
    decay = math.exp(-0.1)
    total = 0.0
    for n in range(steps):
        difficulty = _logistic(state.skill - 0.5)
        skill = state.skill
        if draw() < 1.0 - difficulty:
            skill += 0.02 * (1.0 - skill)
        reward = 10.0 / (1.0 + 0.3 * (n % 200))
        engagement = min(max(state.engagement * decay + 0.03 * reward, 0.0), 1.0)
        retention = _logistic(0.5 * engagement + 0.5 * reward - 1.5)
        if retention < 0.3:
            engagement = min(engagement + 0.3, 1.0)
        state = _State(engagement, skill, state.reward + reward, state.time + 1)
        total += retention
    return total


_ARRAYS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _arrays(rows: int) -> tuple[np.ndarray, np.ndarray]:
    if rows not in _ARRAYS:
        gen = np.random.default_rng(rows)
        X = gen.standard_normal((rows, 2))
        y = (X @ np.array([1.0, 2.0]) > 0.0).astype(np.float64)
        _ARRAYS[rows] = (X, y)
    return _ARRAYS[rows]


def array_loop(epochs: int, rows: int) -> float:
    """Full-batch logistic gradient descent on fixed standardized data."""
    X, y = _arrays(rows)
    w = np.zeros(2)
    b = 0.0
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        resid = p - y
        g_w = X.T @ resid / rows
        g_b = float(resid.mean())
        w -= 0.5 * g_w
        b -= 0.5 * g_b
    return float(w @ w) + b


def calibrate(workload: str) -> float:
    """Run the workload's reference loop once; return its seconds."""
    t0 = perf_counter()
    if workload == "retention":
        for rows in ARRAY_ROWS:
            array_loop(ARRAY_EPOCHS, rows)
    else:
        interpreter_loop(INTERPRETER_STEPS[workload])
    return perf_counter() - t0


def speed_factor(workload: str, samples: list[float]) -> float:
    """Mean calibration time over its nominal: above 1 on a slower machine."""
    return sum(samples) / len(samples) / NOMINAL_S[workload]
