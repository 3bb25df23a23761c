"""Tests for JSON configuration loading/validation and CSV persistence."""

import copy
import dataclasses
import errno
import json
import os
import pickle
import re
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from engagekit.cli import main
from engagekit.config import (
    ConfigError,
    FitConfig,
    ModelProfile,
    Seeds,
    TimelineSettings,
    default_config_path,
    load_config,
    parse_config,
)
from engagekit.models import EngagementDecayParams, FlowParams, RewardFrequencyParams
from engagekit.simulator import TimelineConfig, UserState, run_timeline, simulate_session
from engagekit.storage import (
    DATASET_HEADER,
    SESSION_HEADER,
    TIMELINE_HEADER,
    read_dataset_csv,
    write_case_study_files,
    write_confusion_csv,
    write_dataset_csv,
    write_session_csv,
    write_timeline_csv,
)

from conftest import make_timeline_config


def default_raw() -> dict:
    return json.loads(default_config_path().read_text(encoding="utf-8"))


# --- config loading ----------------------------------------------------------

def test_default_config_parses_cleanly():
    cfg = load_config(default_config_path())
    assert cfg.case_study.num_samples == 1000
    assert cfg.case_study.test_fraction == 0.2
    assert cfg.seeds.data == 0
    assert cfg.seeds.split == 42
    assert cfg.models.diminishing.v0 == 10.0
    assert cfg.models.decay.lam == 0.1
    assert cfg.timeline.steps == 200


def test_default_config_assembles_simulator_pieces():
    cfg = load_config(default_config_path())
    tl = cfg.timeline_config()
    assert tl.steps == 200
    assert tl.seed == cfg.seeds.sim
    assert tl.retention == cfg.models.retention
    assert cfg.timeline_config(steps=17).steps == 17
    state = cfg.initial_user_state()
    assert state.engagement == cfg.models.decay.e0
    assert state.skill == cfg.timeline.initial_skill


def test_negative_beta_names_field():
    raw = default_raw()
    raw["models"]["diminishing"]["beta"] = -1
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert any("diminishing.beta" in v for v in err.value.violations)


def test_missing_seed_names_field():
    raw = default_raw()
    del raw["seeds"]["fit"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert any(v.startswith("seeds.fit") for v in err.value.violations)


@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_config_error_keeps_its_violations_when_copied(clone):
    err = ConfigError(["a.b: must be > 0.0, got 0.0", "seeds.sim: missing"])
    got = clone(err)
    assert type(got) is ConfigError
    assert got.violations == err.violations
    assert str(got) == str(err) == "invalid configuration:\n  a.b: must be > 0.0, got 0.0\n  seeds.sim: missing"


def test_all_violations_reported_at_once():
    raw = default_raw()
    raw["models"]["diminishing"]["beta"] = -1
    raw["models"]["difficulty"]["gamma"] = 0
    raw["timeline"]["steps"] = 0
    del raw["seeds"]["sim"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    text = "\n".join(err.value.violations)
    assert "diminishing.beta" in text
    assert "difficulty.gamma" in text
    assert "timeline.steps" in text
    assert "seeds.sim" in text
    assert len(err.value.violations) == 4


def test_unknown_field_reported():
    raw = default_raw()
    raw["models"]["decay"]["half_life"] = 3
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert any("decay.half_life" in v and "unexpected" in v for v in err.value.violations)


def test_missing_section_reported():
    raw = default_raw()
    del raw["timeline"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert any(v.startswith("timeline:") for v in err.value.violations)


def test_integer_fields_reject_floats():
    raw = default_raw()
    raw["case_study"]["num_samples"] = 1000.0
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert any("num_samples" in v for v in err.value.violations)


def test_non_number_rejected():
    raw = default_raw()
    raw["models"]["difficulty"]["x0"] = "high"
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert any("difficulty.x0" in v for v in err.value.violations)


def test_top_level_must_be_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any("invalid JSON" in v for v in err.value.violations)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.json")


def utf8_error(data: bytes) -> str:
    """The message that decoding data as UTF-8 raises."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        return str(err)
    raise AssertionError("data is valid UTF-8")


def test_non_utf8_config_is_invalid_json_naming_the_path(tmp_path):
    # JSON text exchanged between systems must be UTF-8 (RFC 8259, 8.1).
    data = b'{"models": "\xff"}'
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == [f"{path}: invalid JSON: {utf8_error(data)}"]


# Names within a JSON object should be unique (RFC 8259, section 4); a parser
# that keeps the last copy would let a bad value hide behind a good one.
DEFAULT_STEPS = '"steps": 200'
DEFAULT_TIMELINE = re.search(r'"timeline": \{[^}]*\}', default_config_path().read_text(encoding="utf-8"))[0]


@pytest.mark.parametrize(
    "old, new, expected",
    [
        (DEFAULT_STEPS, '"steps": -5, "steps": 50', ["timeline.steps: duplicate field"]),
        (DEFAULT_STEPS, '"steps": 50, "steps": -5',
         ["timeline.steps: duplicate field", "timeline.steps: must be >= 1, got -5"]),
        (DEFAULT_STEPS, '"steps": 50, "steps": 60, "steps": 70', ["timeline.steps: duplicate field"]),
        (DEFAULT_TIMELINE, DEFAULT_TIMELINE.replace("200", "-5") + ", " + DEFAULT_TIMELINE,
         ["config.timeline: duplicate field"]),
        ('"data": 0', '"data": 0, "extra": 1, "extra": 2',
         ["seeds.extra: unexpected field", "seeds.extra: duplicate field"]),
    ],
    ids=["bad-then-good", "good-then-bad", "three-copies", "bad-section-then-good", "unknown-twice"],
)
def test_duplicate_keys_are_violations(tmp_path, old, new, expected):
    text = default_config_path().read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "dup.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == expected


def test_duplicate_keys_are_reported_with_every_other_violation(tmp_path, capsys):
    text = default_config_path().read_text(encoding="utf-8")
    text = text.replace('"beta": 0.3', '"beta": -1, "v0": 10.0').replace('"lambda": 0.1', '"lambda": -1')
    path = tmp_path / "dup.json"
    path.write_text(text.replace('"sim": 2025', '"sim": 2025, "sim": 2025'), encoding="utf-8")
    assert main(["simulate-timeline", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr() == ("", "".join(f"error: {v}\n" for v in [
        "models.diminishing.v0: duplicate field",
        "models.diminishing.beta: must be >= 0.0, got -1.0",
        "models.decay.lambda: must be >= 0.0, got -1.0",
        "seeds.sim: duplicate field",
    ]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dup.json"]


# --- CSV persistence ---------------------------------------------------------
#
# Building a dataset, a generated dataset or a confusion matrix needs numpy:
# those tests are marked numpy, and import regression themselves. The reader
# parses the whole file before it loads numpy, so the tests of its format
# errors block numpy even where it is installed.

@pytest.fixture
def without_numpy(monkeypatch):
    """Any import of numpy fails, as where it is not installed."""
    monkeypatch.setitem(sys.modules, "numpy", None)


@pytest.mark.numpy
def test_dataset_csv_round_trip(tmp_path):
    from engagekit.regression import generate_synthetic_dataset

    data = generate_synthetic_dataset(500, seed=21)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, data)
    assert read_dataset_csv(path) == data


@pytest.mark.numpy
def test_dataset_csv_header_and_count(tmp_path):
    from engagekit.regression import generate_synthetic_dataset

    data = generate_synthetic_dataset(50, seed=2)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, data)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(DATASET_HEADER)
    assert len(lines) == 51


@pytest.mark.usefixtures("without_numpy")
def test_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path)
    assert str(err.value) == f"{path}: expected header engagement,reward,retention"


@pytest.mark.usefixtures("without_numpy")
def test_dataset_csv_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("engagement,reward,retention\n0.5,oops,1\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path)
    assert ":2:" in str(err.value)


@pytest.mark.usefixtures("without_numpy")
@pytest.mark.parametrize("row, count", [("0.5,5.0", 2), ("0.5,5.0,1,1", 4), ("", 0)])
def test_dataset_csv_wrong_column_count_message(tmp_path, row, count):
    path = tmp_path / "bad.csv"
    path.write_text(f"engagement,reward,retention\n0.1,1.0,0\n{row}\n0.2,2.0,1\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path)
    assert str(err.value) == f"{path}:3: expected 3 columns, got {count}"


@pytest.mark.usefixtures("without_numpy")
def test_dataset_csv_header_only_message(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("engagement,reward,retention\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path)
    assert str(err.value) == f"{path}: no data rows"


@pytest.mark.usefixtures("without_numpy")
def test_dataset_csv_non_utf8_names_the_file(tmp_path):
    data = b"engagement,reward,retention\n0.1,1.0,0\n0.5,\xff,1\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path)
    assert str(err.value) == f"{path}: {utf8_error(data)}"


@pytest.mark.numpy
@pytest.mark.parametrize(
    "row, problem",
    [
        ("0.5,5.0,2", "retention labels must be 0 or 1"),
        ("nan,5.0,1", "feature values must be finite"),
        ("0.5,inf,0", "feature values must be finite"),
    ],
    ids=["label-2", "nan-feature", "inf-feature"],
)
def test_dataset_csv_rejects_values_no_dataset_holds_naming_the_file(tmp_path, row, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f"engagement,reward,retention\n0.1,1.0,0\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_dataset_csv(path)
    assert str(err.value) == f"{path}: {problem}"


def test_session_csv_layout(tmp_path):
    steps = simulate_session(10, seed=0)
    path = tmp_path / "session.csv"
    write_session_csv(path, steps)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(SESSION_HEADER)
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[4] in ("0", "1")


def test_timeline_csv_layout(tmp_path):
    points = run_timeline(UserState(engagement=0.9, skill=0.0), make_timeline_config(steps=25))
    path = tmp_path / "timeline.csv"
    write_timeline_csv(path, points)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(TIMELINE_HEADER)
    assert len(lines) == 26


@pytest.mark.numpy
def test_confusion_csv_layout(tmp_path):
    from engagekit.regression import ConfusionMatrix

    path = tmp_path / "cm.csv"
    write_confusion_csv(path, ConfusionMatrix(tn=188, fp=0, fn=4, tp=8))
    assert path.read_text(encoding="utf-8") == (
        ",predicted_0,predicted_1\ntrue_0,188,0\ntrue_1,4,8\n"
    )


# Each writer replaces its file in one step: a failure partway through keeps
# the file's previous bytes and leaves no temp file beside it.
FAILING_WRITES = {
    "dataset": lambda path: write_dataset_csv(
        path, SimpleNamespace(engagement=[0.1, 0.2], reward=[1.0, 2.0], retention=[1, "x"])),
    "session": lambda path: write_session_csv(path, [*simulate_session(3, seed=0), None]),
    "timeline": lambda path: write_timeline_csv(
        path, [*run_timeline(UserState(engagement=0.9, skill=0.0), make_timeline_config(steps=3)), None]),
    "confusion": lambda path: write_confusion_csv(path, None),
}


@pytest.mark.parametrize("kind", FAILING_WRITES)
def test_failed_write_keeps_previous_file(tmp_path, kind):
    path = tmp_path / "out.csv"
    path.write_text("previous\n", encoding="utf-8")
    with pytest.raises((AttributeError, TypeError, ValueError)):
        FAILING_WRITES[kind](path)
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.numpy
def test_write_onto_directory_fails_before_writing(tmp_path):
    from engagekit.regression import ConfusionMatrix

    with pytest.raises(IsADirectoryError):
        write_confusion_csv(tmp_path, ConfusionMatrix(tn=1, fp=0, fn=0, tp=1))
    assert list(tmp_path.iterdir()) == []
    assert list(tmp_path.parent.glob(f".{tmp_path.name}*")) == []


@pytest.mark.numpy
def test_failed_rename_names_the_target_not_the_temp_file(tmp_path, monkeypatch):
    from engagekit.regression import ConfusionMatrix

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)

    path = tmp_path / "cm.csv"
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError) as err:
        write_confusion_csv(path, ConfusionMatrix(tn=1, fp=0, fn=0, tp=1))
    assert (err.value.errno, err.value.filename, err.value.filename2) == (errno.EACCES, str(path), None)
    assert str(err.value) == f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: {str(path)!r}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.numpy
def test_case_study_files_land_together_or_not_at_all(tmp_path):
    from engagekit.regression import ConfusionMatrix

    report, cm_path = tmp_path / "report.json", tmp_path / "cm.csv"
    cm = ConfusionMatrix(tn=3, fp=0, fn=1, tp=2)
    write_case_study_files(report, "{}\n", cm_path, cm)
    assert report.read_text(encoding="utf-8") == "{}\n"
    assert cm_path.read_text(encoding="utf-8") == ",predicted_0,predicted_1\ntrue_0,3,0\ntrue_1,1,2\n"
    previous = report.read_bytes(), cm_path.read_bytes()
    failures = [
        (AttributeError, cm_path, None),  # the CSV fails after both files are staged
        (FileNotFoundError, tmp_path / "missing_dir" / "cm.csv", cm),
        (IsADirectoryError, tmp_path, cm),
    ]
    for error, path, matrix in failures:
        with pytest.raises(error):
            write_case_study_files(report, "[]\n", path, matrix)
        assert (report.read_bytes(), cm_path.read_bytes()) == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cm.csv", "report.json"]


@pytest.mark.numpy
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("other", ["./same.out", "sub/../same.out", "link.out"])
def test_case_study_files_reject_one_file_named_twice(tmp_path, monkeypatch, existing, other):
    from engagekit.regression import ConfusionMatrix

    # Both paths resolve to one file: writing it twice would keep only the
    # confusion CSV, so the write fails naming the second path, and nothing changes.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.out").symlink_to(tmp_path / "same.out")
    if existing:
        (tmp_path / "same.out").write_text("previous\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        write_case_study_files("same.out", "{}\n", other, ConfusionMatrix(tn=1, fp=0, fn=0, tp=1))
    assert str(err.value) == f"{other}: names the same file as same.out"
    expected = ["link.out", "same.out", "sub"] if existing else ["link.out", "sub"]
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    if existing:
        assert (tmp_path / "same.out").read_text(encoding="utf-8") == "previous\n"


# --- pinned loader messages --------------------------------------------------
#
# The exact ConfigError.violations list for every way a field of the default
# profile can be wrong. Each row is one field: its section path, JSON key,
# kind, and every bound crossed once with the message it must produce.

NAN = json.loads("NaN")
MISSING = object()

FIELD_BOUNDS = [
    ("models.diminishing", "v0", "number", [(0.0, "must be > 0.0, got 0.0")]),
    ("models.diminishing", "beta", "number", [(-1, "must be >= 0.0, got -1.0")]),
    ("models.difficulty", "d_max", "number", [(-2.0, "must be > 0.0, got -2.0")]),
    ("models.difficulty", "gamma", "number", [(0, "must be > 0.0, got 0.0")]),
    ("models.difficulty", "x0", "number", []),
    ("models.retention", "a", "number", []),
    ("models.retention", "b", "number", []),
    ("models.retention", "c", "number", []),
    ("models.decay", "e0", "number",
     [(-0.1, "must be >= 0.0, got -0.1"), (1.5, "must be <= 1.0, got 1.5")]),
    ("models.decay", "lambda", "number", [(-0.1, "must be >= 0.0, got -0.1")]),
    ("fit", "learning_rate", "number", [(0.0, "must be > 0.0, got 0.0")]),
    ("fit", "max_epochs", "integer", [(0, "must be >= 1, got 0")]),
    ("fit", "convergence_tol", "number", [(-1e-6, "must be > 0.0, got -1e-06")]),
    ("case_study", "num_samples", "integer", [(1, "must be >= 2, got 1")]),
    ("case_study", "test_fraction", "number",
     [(0, "must be > 0.0, got 0.0"), (1, "must be < 1.0, got 1.0")]),
    ("timeline", "steps", "integer", [(0, "must be >= 1, got 0")]),
    ("timeline", "initial_skill", "number",
     [(-0.5, "must be >= 0.0, got -0.5"), (1.5, "must be <= 1.0, got 1.5")]),
    ("timeline", "skill_gain", "number",
     [(-0.1, "must be >= 0.0, got -0.1"), (1.0, "must be < 1.0, got 1.0")]),
    ("timeline", "engagement_boost", "number", [(-0.3, "must be >= 0.0, got -0.3")]),
    ("timeline", "intervention_threshold", "number",
     [(-0.1, "must be >= 0.0, got -0.1"), (1, "must be < 1.0, got 1.0")]),
    ("timeline", "intervention_reward_multiplier", "number", [(0.5, "must be >= 1.0, got 0.5")]),
    *[
        ("seeds", name, "integer",
         [(-1, "must be >= 0, got -1"),
          (2**64, "must be <= 18446744073709551615, got 18446744073709551616")])
        for name in ("data", "split", "fit", "sim")
    ],
    ("output", "report_json", "string", []),
    ("output", "confusion_csv", "string", []),
]

WRONG_TYPES = {
    "number": [("high", "must be a number, got 'high'"), (True, "must be a number, got True"),
               (None, "must be a number, got None"), (NAN, "must be finite, got nan")],
    "integer": [("high", "must be an integer, got 'high'"), (True, "must be an integer, got True"),
                (3.0, "must be an integer, got 3.0"), (NAN, "must be an integer, got nan")],
    "string": [(7, "must be a non-empty string, got 7"), (True, "must be a non-empty string, got True"),
               ("", "must be a non-empty string, got ''"), (NAN, "must be a non-empty string, got nan")],
}

SECTIONS = [
    "models", "models.diminishing", "models.difficulty", "models.retention", "models.decay",
    "fit", "case_study", "timeline", "seeds", "output",
]

# The sections of the closed-form models no command runs, with the values the
# profile last held: the kernels and their records stay public, but a config
# that still holds one is refused as a whole, whatever its fields hold, while
# each record still checks its own fields when built directly.
REMOVED_SECTIONS = {
    "models.reward_frequency": RewardFrequencyParams(r0=1.0, alpha=0.05),
    "models.flow": FlowParams(k=0.1),
}
REMOVED_FIELD_BOUNDS = [
    ("models.reward_frequency", "r0", "number",
     [(0, "must be > 0.0, got 0.0"), (-1.5, "must be > 0.0, got -1.5")]),
    ("models.reward_frequency", "alpha", "number", []),
    ("models.flow", "k", "number", []),
]


def _section_of(raw: dict, path: str) -> dict:
    for key in path.split("."):
        raw = raw[key]
    return raw


def _raw_with(path: str) -> dict:
    """The default profile, with the removed section at ``path`` put back."""
    raw = default_raw()
    if path in REMOVED_SECTIONS:
        parent, _, key = path.rpartition(".")
        _section_of(raw, parent)[key] = dataclasses.asdict(REMOVED_SECTIONS[path])
    return raw


def _record_at(path: str):
    if path in REMOVED_SECTIONS:
        return REMOVED_SECTIONS[path]
    record = load_config(default_config_path())
    for name in path.split("."):
        record = getattr(record, name)
    return record


def _violation(path: str, key: str, message: str) -> str:
    """What the loader reports for ``message`` at ``path.key``; a removed
    section is reported as a whole."""
    return f"{path}: unexpected field" if path in REMOVED_SECTIONS else f"{path}.{key}: {message}"


# The fields whose record declares a default: left out, they load it.
DEFAULTS = {"fit.learning_rate": 0.5, "fit.max_epochs": 5000, "fit.convergence_tol": 1e-6}


def _field_cases():
    for path, key, kind, bounds in FIELD_BOUNDS + REMOVED_FIELD_BOUNDS:
        field = f"{path}.{key}"
        missing = None if field in DEFAULTS else [_violation(path, key, "missing required field")]
        yield pytest.param(path, key, MISSING, missing, id=f"{field}-missing")
        for value, message in WRONG_TYPES[kind] + bounds:
            yield pytest.param(path, key, value, [_violation(path, key, message)], id=f"{field}-{value!r}")


@pytest.mark.parametrize("path, key, value, expected", list(_field_cases()))
def test_field_violation_messages_are_pinned(path, key, value, expected):
    raw = _raw_with(path)
    section = _section_of(raw, path)
    assert key in section
    if value is MISSING:
        del section[key]
    else:
        section[key] = value
    if expected is None:  # left out, the field takes its record's default
        record = parse_config(raw)
        for name in path.split("."):
            record = getattr(record, name)
        assert getattr(record, key) == DEFAULTS[f"{path}.{key}"]
        return
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == expected


@pytest.mark.parametrize("path", ["", *SECTIONS, *REMOVED_SECTIONS])
def test_unknown_key_message_is_pinned(path):
    raw = _raw_with(path)
    (_section_of(raw, path) if path else raw)["extra"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [_violation(path or "config", "extra", "unexpected field")]


@pytest.mark.parametrize("path", [*SECTIONS, *REMOVED_SECTIONS])
@pytest.mark.parametrize("value", [None, [], 3, "section"])
def test_section_messages_are_pinned(path, value):
    parent_path, _, key = path.rpartition(".")
    raw = default_raw()
    parent = _section_of(raw, parent_path) if parent_path else raw
    parent[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    removed = path in REMOVED_SECTIONS
    assert err.value.violations == [f"{path}: {'unexpected field' if removed else 'must be an object'}"]
    del parent[key]
    if removed:
        # The profile no longer asks for the section: without it the config is whole.
        assert parse_config(raw) == parse_config(default_raw())
        return
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [f"{path}: missing required section"]


@pytest.mark.parametrize("document", [[1, 2, 3], "config", 3, None, NAN])
def test_top_level_message_is_pinned(document):
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.violations == ["top level: must be a JSON object"]


def test_violation_order_is_pinned():
    raw = default_raw()
    raw["extra"] = 1
    del raw["fit"]
    raw["output"] = "paths"
    raw["models"]["bogus"] = {}
    raw["models"]["flow"] = {"k": 0.1}
    raw["models"]["diminishing"]["v0"] = 0
    raw["models"]["decay"]["half_life"] = 3
    raw["models"]["decay"]["e0"] = "high"
    raw["models"]["decay"]["lambda"] = -1
    raw["case_study"]["num_samples"] = 1
    raw["timeline"]["steps"] = True
    raw["timeline"]["skill_gain"] = 1.0
    del raw["seeds"]["fit"]
    raw["seeds"]["sim"] = -1
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [
        "config.extra: unexpected field",
        "fit: missing required section",
        "output: must be an object",
        "models.bogus: unexpected field",
        "models.flow: unexpected field",
        "models.diminishing.v0: must be > 0.0, got 0.0",
        "models.decay.half_life: unexpected field",
        "models.decay.e0: must be a number, got 'high'",
        "models.decay.lambda: must be >= 0.0, got -1.0",
        "case_study.num_samples: must be >= 2, got 1",
        "timeline.steps: must be an integer, got True",
        "timeline.skill_gain: must be < 1.0, got 1.0",
        "seeds.fit: missing required field",
        "seeds.sim: must be >= 0, got -1",
    ]


@pytest.mark.parametrize(
    "path, key, value, expected", [case for case in _field_cases() if case.values[2] is not MISSING]
)
def test_records_reject_what_the_loader_rejects(path, key, value, expected):
    record = _record_at(path)
    name = "lam" if key == "lambda" else key
    with pytest.raises(ValueError, match=f"^{name} must be "):
        replace(record, **{name: value})


# A JSON integer literal of 309 or more digits is exact in Python but has no
# float; every number field must report it, not raise OverflowError.
HUGE = 10**400
NUMBER_FIELDS = [(path, key) for path, key, kind, _ in FIELD_BOUNDS + REMOVED_FIELD_BOUNDS if kind == "number"]


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("path, key", NUMBER_FIELDS, ids=[f"{p}.{k}" for p, k in NUMBER_FIELDS])
def test_integer_too_large_for_a_float_is_a_violation(path, key, sign):
    raw = _raw_with(path)
    _section_of(raw, path)[key] = sign * HUGE
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [_violation(path, key, "must be finite, got an integer too large for a float")]
    record = _record_at(path)
    name = "lam" if key == "lambda" else key
    with pytest.raises(ValueError, match=f"^{name} must be finite, got an integer too large for a float$"):
        replace(record, **{name: sign * HUGE})


def test_integer_too_large_for_a_float_from_a_file(tmp_path):
    text = default_config_path().read_text(encoding="utf-8")
    path = tmp_path / "huge.json"
    path.write_text(re.sub(r'("x0":\s*)[0-9.]+', r"\g<1>1" + "0" * 400, text, count=1), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == ["models.difficulty.x0: must be finite, got an integer too large for a float"]


def test_fields_nothing_reads_stay_in_the_profile_only():
    assert load_config(default_config_path()).seeds.fit == 7
    assert "seed" not in {f.name for f in fields(FitConfig)}


@pytest.mark.parametrize("section", REMOVED_SECTIONS)
def test_removed_model_sections_are_unexpected(tmp_path, capsys, section):
    raw = _raw_with(section)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.violations == [f"{section}: unexpected field"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate-timeline", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr() == ("", f"error: {section}: unexpected field\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]


def _record_fields(record) -> list[tuple[str, type]]:
    hints = typing.get_type_hints(record)
    return [(f.name, hints[f.name]) for f in fields(record) if "spec" not in f.metadata]


def test_model_profile_holds_exactly_the_timeline_model_records():
    assert _record_fields(ModelProfile) == _record_fields(TimelineConfig)
    assert [name for name, _ in _record_fields(ModelProfile)] == ["diminishing", "difficulty", "retention", "decay"]


def test_readme_profile_is_the_packaged_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    profile = re.search(r"packaged default profile:\n\n```json\n(.*?)```", readme, re.DOTALL)[1]
    assert json.loads(profile) == default_raw()


def _spec_of(record, name):
    return next(f.metadata["spec"] for f in fields(record) if f.name == name)


# Each timeline setting with the record field it feeds: they must share one
# Spec object, so the loader accepts exactly what timeline_config() and
# initial_user_state() can build, never defers an error to them, and names
# the problem with a bad value as building the engine record does.
TIMELINE_FEEDS = [
    *[(TimelineSettings, name, TimelineConfig, name) for name in (
        "steps", "skill_gain", "engagement_boost", "intervention_threshold",
        "intervention_reward_multiplier",
    )],
    (TimelineSettings, "initial_skill", UserState, "skill"),
    (EngagementDecayParams, "e0", UserState, "engagement"),
    (Seeds, "sim", TimelineConfig, "seed"),
]
SECTION_OF = {TimelineSettings: "timeline", EngagementDecayParams: "models.decay", Seeds: "seeds"}


@pytest.mark.parametrize(
    "source, name, target, field", TIMELINE_FEEDS,
    ids=[f"{s.__name__}.{n}->{t.__name__}.{f}" for s, n, t, f in TIMELINE_FEEDS],
)
def test_timeline_settings_share_the_spec_of_the_field_they_feed(source, name, target, field):
    assert _spec_of(source, name) is _spec_of(target, field)
    path = SECTION_OF[source]
    kind, bounds = next((kind, bounds) for where, key, kind, bounds in FIELD_BOUNDS if (where, key) == (path, name))
    cfg = load_config(default_config_path())
    engine = cfg.initial_user_state() if target is UserState else cfg.timeline_config()
    # Each pinned wrong type and bad bound, through the loader and through
    # building the engine record directly: one problem text from both.
    for value, problem in WRONG_TYPES[kind] + bounds:
        raw = default_raw()
        _section_of(raw, path)[name] = value
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.violations == [f"{path}.{name}: {problem}"]
        with pytest.raises(ValueError) as err:
            replace(engine, **{field: value})
        assert str(err.value) == f"{field} {problem}"

