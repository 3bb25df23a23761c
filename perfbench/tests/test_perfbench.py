"""Tests of the benchmark itself: its inputs, its oracle and its output.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import engagekit as ek  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CFG = ek.load_config(ek.default_config_path())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_deterministic_under_the_seed(workload):
    first = workloads.build(workload, 5, CFG)
    assert first == workloads.build(workload, 5, CFG)
    assert first != workloads.build(workload, 6, CFG)


def test_cohort_blocks_hold_the_threshold_mix():
    users = workloads.build_cohort(9, CFG, blocks=4)
    size = workloads.block_size("cohort")
    for start in range(0, len(users), size):
        block = users[start:start + size]
        assert sorted(u.cfg.intervention_threshold for u in block) == sorted(workloads.COHORT_BLOCK)


def _timeline(threshold=0.3, steps=300):
    user = workloads.build_cohort(3, CFG, blocks=1)[0]
    cfg = dataclasses.replace(user.cfg, intervention_threshold=threshold, steps=steps)
    return user.initial, cfg, ek.run_timeline(user.initial, cfg)


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.45])
def test_oracle_accepts_the_package_timeline(threshold):
    initial, cfg, points = _timeline(threshold)
    assert oracle.check_timeline(initial, cfg, points, True) == []


def test_oracle_accepts_last_bit_drift():
    initial, cfg, points = _timeline()
    drifted = [dataclasses.replace(p, retention_prob=math.nextafter(p.retention_prob, 1.0),
                                   engagement=math.nextafter(p.engagement, 0.0)) for p in points]
    assert oracle.check_timeline(initial, cfg, drifted, True) == []


def _corrupt(points, i, **changes):
    return points[:i] + [dataclasses.replace(points[i], **changes)] + points[i + 1:]


def test_oracle_rejects_corrupted_timelines():
    initial, cfg, points = _timeline()
    p = points[100]
    cases = [
        _corrupt(points, 100, skill=points[99].skill - 1e-3),             # skill decreased
        _corrupt(points, 100, intervened=not p.intervened),                # flag off its rule
        _corrupt(points, 100, retention_prob=1.0),                         # outside (0, 1)
        _corrupt(points, 100, reward_granted=p.reward_granted * (1 + 1e-6)),  # off the recurrence
        _corrupt(points, 100, success=not p.success),
        points[:-1],
    ]
    for bad in cases:
        assert oracle.check_timeline(initial, cfg, bad, True), bad[100:101]


def _pipeline():
    run_cfg = workloads.build_retention(4, CFG, blocks=1)[0]
    return run_cfg, ek.run_case_study(run_cfg)


def test_oracle_accepts_the_package_report_and_fit():
    run_cfg, report = _pipeline()
    assert oracle.check_report(run_cfg, report) == []
    assert oracle.check_fit(report, oracle.reference_fit(run_cfg)) == []


def test_oracle_rejects_corrupted_reports():
    run_cfg, report = _pipeline()
    cm = report.confusion
    assert cm.tn != cm.tp
    # Same accuracy, so the report still constructs, but the wrong rows.
    swapped = dataclasses.replace(report, confusion=ek.ConfusionMatrix(tn=cm.tp, fp=cm.fp, fn=cm.fn, tp=cm.tn))
    assert oracle.check_report(run_cfg, swapped)
    assert oracle.check_report(run_cfg, dataclasses.replace(report, positive_rate=0.5))
    assert oracle.check_report(run_cfg, dataclasses.replace(report, epochs_used=0))
    reference = oracle.reference_fit(run_cfg)
    assert oracle.check_fit(dataclasses.replace(report, w_reward=report.w_reward * (1 + 1e-4)), reference)
    assert oracle.check_fit(dataclasses.replace(report, epochs_used=report.epochs_used - 10), reference)


def _rewrite(path, edit):
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(path).write_text("".join(edit(lines)), encoding="utf-8")


def _flip_last_field(line):
    head, last = line.rstrip("\n").rsplit(",", 1)
    return f"{head},{1 - int(last)}\n"


def test_oracle_rejects_corrupted_csvs(tmp_path):
    data = tmp_path / "data.csv"
    ek.write_dataset_csv(data, ek.generate_synthetic_dataset(200, 1))
    assert oracle.check_dataset_csv(data, 200) == []
    assert oracle.check_dataset_csv(data, 201)
    _rewrite(data, lambda lines: lines[:5] + [_flip_last_field(lines[5])] + lines[6:])
    assert oracle.check_dataset_csv(data, 200)

    session = tmp_path / "session.csv"
    steps = ek.simulate_session(50, 2)
    ek.write_session_csv(session, steps)
    stdout = "".join(f"Task {s.task_index}: ...\n" for s in steps)
    assert oracle.check_session_csv(session, 50, stdout) == []
    assert oracle.check_session_csv(session, 50, stdout[:-10])
    _rewrite(session, lambda lines: ["task,engagement,reward,difficulty,ok\n"] + lines[1:])
    assert oracle.check_session_csv(session, 50, stdout)

    timeline = tmp_path / "timeline.csv"
    initial, cfg, points = _timeline()
    ek.write_timeline_csv(timeline, points)
    assert oracle.check_timeline_csv(timeline, len(points), cfg.intervention_threshold) == []
    _rewrite(timeline, lambda lines: lines[:40] + [_flip_last_field(lines[40])] + lines[41:])
    assert oracle.check_timeline_csv(timeline, len(points), cfg.intervention_threshold)


def test_oracle_rejects_a_mismatched_case_study_pair(tmp_path):
    _, report = _pipeline()
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    (tmp_path / "report.json").write_text(text, encoding="utf-8")
    ek.write_confusion_csv(tmp_path / "cm.csv", report.confusion)
    args = (tmp_path / "report.json", tmp_path / "cm.csv")
    rows = report.confusion.total
    assert oracle.check_case_study_files(*args, text, rows) == []
    assert oracle.check_case_study_files(*args, text.replace("{", "{ ", 1), rows)
    cm = report.confusion
    ek.write_confusion_csv(tmp_path / "cm.csv", ek.ConfusionMatrix(tn=cm.tn, fp=cm.fp, fn=cm.tp, tp=cm.fn))
    assert oracle.check_case_study_files(*args, text, rows)


def test_calibration_runs_no_engagekit_code():
    code = ("import sys, calibrate; "
            "s = [calibrate.calibrate(w) for w in ('cohort', 'retention')]; "
            "assert all(x > 0 for x in s); assert 'engagekit' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True, timeout=60)


def test_speed_factor_is_mean_loop_time_over_nominal():
    import calibrate

    nominal = calibrate.NOMINAL_S["cohort"]
    assert calibrate.speed_factor("cohort", [nominal, 3 * nominal]) == pytest.approx(2.0)


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def _result(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload,trace", [("cohort", 0), ("retention", 0), ("cli", 0), ("retention", 1)])
def test_printed_metrics_match_the_spec(workload, trace):
    proc = _result(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in group}
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result("cohort", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
