"""Output checks for the benchmark, run outside the timed region.

Every check returns a list of error strings; an empty list means the output
is correct. The checks rebuild what they compare against from the inputs
alone: a plain-Python timeline recurrence on the same ``make_rng`` draws, the
synthetic labels and split from the same seeds, and a gradient-descent fit
written here in numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

import engagekit as ek

# A timeline recomputed with numpy's exp instead of math.exp may differ in
# the last bit; after 10^3 contracting steps that stays far inside 1e-9.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# The reference fit uses a tanh-based sigmoid and its own summation order,
# so its weights agree with the package's to rounding, not to the bit.
FIT_REL_TOL = 1e-6

_P_FLOOR = math.nextafter(0.0, 1.0)
_P_CEIL = math.nextafter(1.0, 0.0)

DATASET_HEADER = ["engagement", "reward", "retention"]
SESSION_HEADER = ["task", "engagement", "reward", "difficulty", "success"]
TIMELINE_HEADER = ["step", "engagement", "skill", "reward", "difficulty",
                   "retention_prob", "success", "intervened"]


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        out = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        out = ez / (1.0 + ez)
    return min(max(out, _P_FLOOR), _P_CEIL)


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def reference_timeline(engagement: float, skill: float, cfg) -> list[tuple]:
    """Timeline recurrence over plain floats.

    Returns one (engagement, skill, reward, difficulty, retention, success,
    intervened) tuple per step. All draws are taken up front; the package
    documents one uniform draw per step, so the streams line up.
    """
    draws = ek.make_rng(cfg.seed).random(cfg.steps).tolist()
    d, ret, dim = cfg.difficulty, cfg.retention, cfg.diminishing
    decay = math.exp(-cfg.decay.lam)
    threshold = cfg.intervention_threshold
    multiplier = 1.0
    out = []
    for n, u in enumerate(draws):
        difficulty = d.d_max * _sigmoid(d.gamma * (skill - d.x0))
        success = u < 1.0 - difficulty
        if success:
            skill = skill + cfg.skill_gain * (1.0 - skill)
        reward = dim.v0 / (1.0 + dim.beta * n) * multiplier
        multiplier = 1.0
        engagement = _clamp01(engagement * decay + cfg.engagement_boost * (reward / dim.v0))
        retention = _sigmoid(ret.a * engagement + ret.b * reward - ret.c)
        intervened = threshold > 0.0 and retention < threshold
        out.append((engagement, skill, reward, difficulty, retention, success, intervened))
        if intervened:
            engagement = _clamp01(engagement + cfg.engagement_boost)
            multiplier = cfg.intervention_reward_multiplier
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_timeline(initial, cfg, points, against_reference: bool) -> list[str]:
    """Invariants on every point; the reference recurrence when asked."""
    if len(points) != cfg.steps:
        return [f"timeline has {len(points)} points, expected {cfg.steps}"]
    threshold = cfg.intervention_threshold
    errors = []
    prev_skill = initial.skill
    for i, p in enumerate(points, start=1):
        if p.step != i:
            errors.append(f"step {i}: numbered {p.step}")
        if not 0.0 < p.retention_prob < 1.0:
            errors.append(f"step {i}: retention_prob {p.retention_prob} outside (0, 1)")
        if not 0.0 < p.difficulty <= cfg.difficulty.d_max:
            errors.append(f"step {i}: difficulty {p.difficulty} outside (0, d_max]")
        if not 0.0 <= p.engagement <= 1.0:
            errors.append(f"step {i}: engagement {p.engagement} outside [0, 1]")
        if not prev_skill <= p.skill <= 1.0:
            errors.append(f"step {i}: skill {p.skill} decreased from {prev_skill} or exceeds 1")
        if p.intervened != (threshold > 0.0 and p.retention_prob < threshold):
            errors.append(f"step {i}: intervened={p.intervened} with retention "
                          f"{p.retention_prob} and threshold {threshold}")
        prev_skill = p.skill
        if errors:
            return errors
    if against_reference:
        ref = reference_timeline(initial.engagement, initial.skill, cfg)
        for i, (p, r) in enumerate(zip(points, ref), start=1):
            got = (p.engagement, p.skill, p.reward_granted, p.difficulty, p.retention_prob)
            if not all(_close(a, b) for a, b in zip(got, r[:5])) or (p.success, p.intervened) != r[5:]:
                return [f"step {i}: {got + (p.success, p.intervened)} differs from reference {r}"]
    return errors


def intervention_counts(points, threshold: float) -> tuple[int, int, int]:
    """(intervened steps, interventions followed by a step, of those the
    ones whose next step's retention is at or above the threshold)."""
    fired = followed = recovered = 0
    for i, p in enumerate(points):
        if p.intervened:
            fired += 1
            if i + 1 < len(points):
                followed += 1
                recovered += points[i + 1].retention_prob >= threshold
    return fired, followed, recovered


def _synthetic_labels(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = ek.make_rng(seed)
    engagement = rng.random(n)
    reward = rng.random(n) * 10.0
    return engagement, reward, (0.5 * engagement + 0.5 * reward > 5.0).astype(np.int64)


def check_report(run_cfg, report) -> list[str]:
    """Accuracy against the confusion counts, the counts against the
    regenerated test labels, and the package's labels against the rule."""
    n = run_cfg.case_study.num_samples
    n_test = round(run_cfg.case_study.test_fraction * n)
    cm = report.confusion
    errors = []
    if cm.total != n_test:
        errors.append(f"confusion total {cm.total}, expected {n_test} test rows")
    elif not math.isclose(report.accuracy, (cm.tn + cm.tp) / cm.total, rel_tol=0.0, abs_tol=1e-12):
        errors.append(f"accuracy {report.accuracy} disagrees with confusion {cm}")
    _, _, y = _synthetic_labels(n, run_cfg.seeds.data)
    labels = ek.generate_synthetic_dataset(n, run_cfg.seeds.data).retention
    if not (np.isin(labels, (0, 1)).all() and np.array_equal(labels, y)):
        errors.append("dataset labels are not the 0/1 criterion labels")
    if report.positive_rate != float(y.mean()):
        errors.append(f"positive_rate {report.positive_rate}, expected {float(y.mean())}")
    test_y = y[ek.make_rng(run_cfg.seeds.split).permutation(n)[:n_test]]
    ones = int(test_y.sum())
    if (cm.fn + cm.tp, cm.tn + cm.fp) != (ones, n_test - ones):
        errors.append(f"confusion rows {cm} do not match {ones} positive test labels")
    if not 1 <= report.epochs_used <= run_cfg.fit.max_epochs:
        errors.append(f"epochs_used {report.epochs_used} outside [1, max_epochs]")
    return errors


def reference_fit(run_cfg) -> tuple[float, float, float, int]:
    """Full-batch gradient descent on the standardized training rows.

    Returns (w_engagement, w_reward, bias, epochs).
    """
    n = run_cfg.case_study.num_samples
    n_test = round(run_cfg.case_study.test_fraction * n)
    engagement, reward, y = _synthetic_labels(n, run_cfg.seeds.data)
    train = ek.make_rng(run_cfg.seeds.split).permutation(n)[n_test:]
    x = np.column_stack((engagement[train], reward[train]))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    target = y[train].astype(np.float64)
    w = np.zeros(2)
    b = 0.0
    fit = run_cfg.fit
    for epoch in range(fit.max_epochs):
        resid = 0.5 * (1.0 + np.tanh(0.5 * (x @ w + b))) - target
        g_w = x.T @ resid / len(target)
        g_b = float(resid.mean())
        if math.hypot(g_w[0], g_w[1], g_b) < fit.convergence_tol:
            return float(w[0]), float(w[1]), b, epoch
        w = w - fit.learning_rate * g_w
        b -= fit.learning_rate * g_b
    return float(w[0]), float(w[1]), b, fit.max_epochs


def check_fit(report, reference: tuple[float, float, float, int]) -> list[str]:
    got = (report.w_engagement, report.w_reward, report.bias)
    if not all(math.isclose(a, b, rel_tol=FIT_REL_TOL, abs_tol=1e-9) for a, b in zip(got, reference)):
        return [f"weights {got} differ from reference fit {reference[:3]}"]
    if abs(report.epochs_used - reference[3]) > 1:
        return [f"epochs_used {report.epochs_used}, reference fit took {reference[3]}"]
    return []


def _read_csv(path, header: list[str], rows: int) -> tuple[list[list[str]], list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    if not table or table[0] != header:
        return [], [f"{path}: header {table[:1]}, expected {header}"]
    if len(table) - 1 != rows:
        return [], [f"{path}: {len(table) - 1} rows, expected {rows}"]
    return table[1:], []


def check_dataset_csv(path, n: int) -> list[str]:
    table, errors = _read_csv(path, DATASET_HEADER, n)
    for lineno, (e, r, y) in enumerate(table, start=2):
        e, r, y = float(e), float(r), int(y)
        if not (0.0 <= e < 1.0 and 0.0 <= r < 10.0 and y == int(0.5 * e + 0.5 * r > 5.0)):
            return [f"{path}:{lineno}: row {(e, r, y)} out of range or mislabeled"]
    return errors


def check_session_csv(path, tasks: int, stdout: str) -> list[str]:
    table, errors = _read_csv(path, SESSION_HEADER, tasks)
    for i, (task, e, r, d, s) in enumerate(table, start=1):
        e, r, d = float(e), float(r), float(d)
        if not (int(task) == i and 0.0 <= e < 1.0 and 0.0 <= r < 10.0
                and 0.0 < d < 1.0 and s in ("0", "1")):
            return [f"{path}: task row {i} {(task, e, r, d, s)} out of range"]
    lines = stdout.splitlines()
    if len(lines) != tasks or not all(line.startswith("Task ") for line in lines):
        errors.append(f"session stdout has {len(lines)} lines, expected {tasks} task lines")
    return errors


def check_timeline_csv(path, steps: int, threshold: float) -> list[str]:
    table, errors = _read_csv(path, TIMELINE_HEADER, steps)
    prev_skill = 0.0
    for i, row in enumerate(table, start=1):
        step, e, skill, reward, d, ret = int(row[0]), *map(float, row[1:6])
        success, intervened = row[6], row[7]
        if not (step == i and 0.0 <= e <= 1.0 and prev_skill <= skill <= 1.0 and reward > 0.0
                and 0.0 < d <= 1.0 and 0.0 < ret < 1.0 and success in ("0", "1")
                and intervened == ("1" if threshold > 0.0 and ret < threshold else "0")):
            return [f"{path}: step row {i} {row} breaks a timeline invariant"]
        prev_skill = skill
    return errors


def check_case_study_files(report_path, confusion_path, stdout: str, test_rows: int) -> list[str]:
    with open(report_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    report = json.loads(text)
    cm = report["confusion"]
    total = cm["tn"] + cm["fp"] + cm["fn"] + cm["tp"]
    errors = []
    if total != test_rows:
        errors.append(f"{report_path}: confusion total {total}, expected {test_rows}")
    elif not math.isclose(report["accuracy"], (cm["tn"] + cm["tp"]) / total, rel_tol=0.0, abs_tol=1e-12):
        errors.append(f"{report_path}: accuracy {report['accuracy']} disagrees with {cm}")
    expected = [["", "predicted_0", "predicted_1"],
                ["true_0", str(cm["tn"]), str(cm["fp"])],
                ["true_1", str(cm["fn"]), str(cm["tp"])]]
    with open(confusion_path, "r", encoding="utf-8", newline="") as handle:
        if list(csv.reader(handle)) != expected:
            errors.append(f"{confusion_path}: does not match the report's confusion counts")
    if stdout != text:
        errors.append("case-study stdout differs from the report file")
    return errors
