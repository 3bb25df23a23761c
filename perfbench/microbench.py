"""Layer microbenchmarks: fixed-length loops over public engagekit calls.

Each loop runs once untimed to warm up, then REPEATS times timed; the
reported figure is the median time per call. The scalar kernels run over a
fixed input mix that includes saturated arguments (|z| > 40), where the
sigmoid clamps to the open interval.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from time import perf_counter

import engagekit as ek

REPEATS = 5
FRESH_INTERPRETERS = 5

SIGMOID_Z = (-745.0, -50.0, -41.0, -3.0, -0.25, 0.0, 0.25, 3.0, 41.0, 50.0, 745.0)
DIFFICULTY_X = (-60.0, -40.6, -2.0, 0.0, 0.25, 0.5, 0.75, 1.0, 3.0, 41.0, 60.0)
# (engagement, reward) pairs; the last two saturate both kernels.
PAIRS = ((0.0, 0.0), (0.5, 0.5), (0.9, 10.0), (0.1, 2.0), (1.0, 3.0), (0.3, 7.5),
         (0.2, 90.0), (0.0, -90.0))


def _per_call(loop, calls: int) -> float:
    """Median seconds per call of loop(), which makes `calls` calls."""
    loop()
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        loop()
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples)


def _fresh_interpreter_ms(code: str, env: dict) -> float:
    """Median wall time of a new interpreter that runs code, in ms."""
    samples = []
    for i in range(FRESH_INTERPRETERS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        if i:
            samples.append((perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def run_all(cfg: ek.RunConfig, env: dict) -> dict[str, float]:
    out = {}
    reps = 2000

    def sigmoid():
        f = ek.sigmoid
        for _ in range(reps):
            for z in SIGMOID_Z:
                f(z)
    out["models.sigmoid_ns"] = _per_call(sigmoid, reps * len(SIGMOID_Z)) * 1e9

    def difficulty():
        f, p = ek.logistic_difficulty, cfg.models.difficulty
        for _ in range(reps):
            for x in DIFFICULTY_X:
                f(p, x)
    out["models.logistic_difficulty_ns"] = _per_call(difficulty, reps * len(DIFFICULTY_X)) * 1e9

    def retention():
        f, p = ek.retention_probability, cfg.models.retention
        for _ in range(reps):
            for e, r in PAIRS:
                f(p, e, r)
    out["models.retention_probability_ns"] = _per_call(retention, reps * len(PAIRS)) * 1e9

    def case():
        f = ek.case_difficulty
        for _ in range(reps):
            for e, r in PAIRS:
                f(e, r)
    out["models.case_difficulty_ns"] = _per_call(case, reps * len(PAIRS)) * 1e9

    seeds = [(2**64 - 1) // (i + 1) for i in range(500)]

    def make_rng():
        for s in seeds:
            ek.make_rng(s)
    out["rng.make_rng_us"] = _per_call(make_rng, len(seeds)) * 1e6

    timeline_cfg = cfg.timeline_config(steps=200)
    steps = 2000

    def step_user():
        rng = ek.make_rng(timeline_cfg.seed)
        state = cfg.initial_user_state()
        for _ in range(steps):
            state, _ = ek.step_user(state, timeline_cfg, rng)
    out["simulator.step_user_us"] = _per_call(step_user, steps) * 1e6

    points = ek.run_timeline(cfg.initial_user_state(), timeline_cfg)
    threshold = timeline_cfg.intervention_threshold

    def detect():
        for _ in range(50):
            for p in points:
                ek.detect_at_risk(p, threshold)
    out["simulator.detect_at_risk_ns"] = _per_call(detect, 50 * len(points)) * 1e9

    states = [ek.UserState(engagement=p.engagement, skill=p.skill, interactions=p.step, time=p.step)
              for p in points]

    def intervene():
        for s in states:
            ek.apply_intervention(s, timeline_cfg)
    out["simulator.apply_intervention_us"] = _per_call(intervene, len(states)) * 1e6

    tasks = 2000
    out["simulator.session_task_us"] = _per_call(lambda: ek.simulate_session(tasks, 11), tasks) * 1e6

    data = ek.generate_synthetic_dataset(800, 3)
    means, stds = data.features().mean(axis=0), data.features().std(axis=0)
    model = ek.RetentionModel(w_engagement=1.5, w_reward=8.0, bias=-9.0,
                              feature_means=(float(means[0]), float(means[1])),
                              feature_stds=(float(stds[0]), float(stds[1])))

    def gradient():
        for _ in range(200):
            ek.loss_and_gradient(model, data)
    out["regression.loss_and_gradient_us"] = _per_call(gradient, 200) * 1e6

    path = ek.default_config_path()
    raw = json.loads(path.read_text(encoding="utf-8"))

    def load():
        for _ in range(100):
            ek.load_config(path)
    out["config.load_config_ms"] = _per_call(load, 100) * 1e3

    def parse():
        for _ in range(100):
            ek.parse_config(raw)
    out["config.parse_config_ms"] = _per_call(parse, 100) * 1e3

    def timeline_config():
        for _ in range(1000):
            cfg.timeline_config()
    out["config.timeline_config_us"] = _per_call(timeline_config, 1000) * 1e6

    out["cli.import_numpy_floor_ms"] = _fresh_interpreter_ms("import numpy", env)
    out["cli.import_engagekit_ms"] = _fresh_interpreter_ms("import engagekit", env)
    return out
