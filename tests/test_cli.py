"""End-to-end CLI tests driven through main()."""

import json
import re
import sys

import pytest

from engagekit.cli import main
from engagekit.config import CONFIG_ENV_VAR, default_config_path

SESSION_LINE = re.compile(
    r"^Task \d+: Engagement: \d+\.\d{2}, Reward: \d+\.\d{2}, "
    r"Difficulty: \d+\.\d{2}, Success: (True|False)$"
)


def write_config(tmp_path, **overrides):
    """Copy the default profile into tmp_path with overrides applied."""
    raw = json.loads(default_config_path().read_text(encoding="utf-8"))
    raw["output"]["report_json"] = str(tmp_path / "report.json")
    raw["output"]["confusion_csv"] = str(tmp_path / "confusion.csv")
    for key, value in overrides.items():
        section, field = key.split(".")
        raw[section][field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


# --- gen-data ----------------------------------------------------------------

def test_gen_data_writes_rows_and_prints_rate(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--n", "1000", "--seed", "0", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1001
    stdout = capsys.readouterr().out
    assert "1000 rows" in stdout
    assert "positive rate" in stdout


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gen-data", "--n", "500", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen-data", "--n", "500", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_large_run_prints_expected_rate(tmp_path, capsys):
    out = tmp_path / "big.csv"
    assert main(["gen-data", "--n", "100000", "--seed", "0", "--out", str(out)]) == 0
    match = re.search(r"positive rate (\d+\.\d+)", capsys.readouterr().out)
    assert match is not None
    assert abs(float(match.group(1)) - 0.05) <= 0.005


def test_gen_data_rejects_bad_n(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--n", "0", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_io_failure(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "data.csv"
    assert main(["gen-data", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def missing_file_error(path):
    # The message names the path the user gave, not the temp file staged beside it.
    return f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


@pytest.mark.parametrize("command", [
    ["gen-data", "--n", "10"],
    ["simulate-session", "--tasks", "3"],
    ["simulate-timeline", "--steps", "5"],
])
def test_missing_output_directory_names_the_output_path(tmp_path, capsys, command):
    out = tmp_path / "missing_dir" / "x.csv"
    assert main(command + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == missing_file_error(out)
    assert ".tmp" not in captured.err


@pytest.mark.numpy
@pytest.mark.parametrize("output", ["report_json", "confusion_csv"])
def test_case_study_missing_output_directory_names_the_output_path(tmp_path, capsys, output):
    config = write_config(tmp_path)
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["output"][output] = str(tmp_path / "missing_dir" / "out")
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["case-study", "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", missing_file_error(tmp_path / "missing_dir" / "out"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


# --- case-study --------------------------------------------------------------
#
# A case-study run needs numpy: those tests are marked numpy. Its config is
# checked without it.

@pytest.mark.numpy
def test_case_study_report(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["case-study", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accuracy"] >= 0.97
    cm = report["confusion"]
    assert cm["tn"] + cm["fp"] + cm["fn"] + cm["tp"] == 200
    assert report["weights"]["engagement"] > 0
    assert report["weights"]["reward"] > 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "confusion.csv").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert on_disk == report


@pytest.mark.numpy
def test_case_study_deterministic(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["case-study", "--config", str(config)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    first_cm = (tmp_path / "confusion.csv").read_bytes()
    assert main(["case-study", "--config", str(config)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first
    assert (tmp_path / "confusion.csv").read_bytes() == first_cm


@pytest.mark.numpy
def test_case_study_env_var_config(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, **{"case_study.num_samples": 500})
    monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
    assert main(["case-study"]) == 0
    report = json.loads(capsys.readouterr().out)
    cm = report["confusion"]
    assert cm["tn"] + cm["fp"] + cm["fn"] + cm["tp"] == 100  # 0.2 * 500


def test_case_study_invalid_config_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, **{"fit.learning_rate": -1})
    assert main(["case-study", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "fit.learning_rate" in err
    assert not (tmp_path / "report.json").exists()


def test_case_study_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, **{"fit.learning_rate": 10**400})
    assert main(["case-study", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "error: fit.learning_rate: must be finite, got an integer too large for a float\n"
    assert not (tmp_path / "report.json").exists()


def test_case_study_reports_a_bad_config_without_numpy(tmp_path, capsys, monkeypatch):
    # case-study checks its config before it imports the pipeline and numpy.
    # The numpy-backed modules are dropped, so importing them would meet the
    # block.
    monkeypatch.setitem(sys.modules, "numpy", None)
    for name in ("engagekit.case_study", "engagekit.regression"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    config = write_config(tmp_path)
    raw = json.loads(config.read_text(encoding="utf-8"))
    del raw["fit"]
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["case-study", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", "error: fit: missing required section\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.numpy
def test_case_study_single_class_training_set_exits_1(tmp_path, capsys):
    # Ten rows under the default seeds hold no positive label, so the fit
    # raises FitError, a ValueError, which main reports like any other.
    config = write_config(tmp_path, **{"case_study.num_samples": 10})
    assert main(["case-study", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: training set contains a single class; boundary is undefined\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.numpy
def test_case_study_bad_confusion_path_writes_neither_file(tmp_path, capsys):
    config = write_config(tmp_path)
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["output"]["confusion_csv"] = str(tmp_path / "missing_dir" / "confusion.csv")
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["case-study", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.numpy
def test_case_study_failure_keeps_previous_files(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["case-study", "--config", str(config)]) == 0
    report, cm = (tmp_path / "report.json").read_bytes(), (tmp_path / "confusion.csv").read_bytes()
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["case_study"]["num_samples"] = 500
    raw["output"]["confusion_csv"] = str(tmp_path)  # a directory
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["case-study", "--config", str(config)]) == 1
    assert (tmp_path / "report.json").read_bytes() == report
    assert (tmp_path / "confusion.csv").read_bytes() == cm
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "confusion.csv", "report.json"]


@pytest.mark.numpy
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_case_study_one_file_for_both_outputs_exits_1_writing_nothing(tmp_path, capsys, monkeypatch, existing):
    # report_json and confusion_csv name one file: the report would be lost
    # under the confusion CSV, so the run fails and the file keeps its bytes.
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path)
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["output"].update(report_json="same.out", confusion_csv="./same.out")
    config.write_text(json.dumps(raw), encoding="utf-8")
    if existing:
        (tmp_path / "same.out").write_text("previous\n", encoding="utf-8")
    assert main(["case-study", "--config", str(config)]) == 1
    assert capsys.readouterr() == ("", "error: ./same.out: names the same file as same.out\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"] + (["same.out"] if existing else [])
    if existing:
        assert (tmp_path / "same.out").read_text(encoding="utf-8") == "previous\n"


# --- simulate-session --------------------------------------------------------

def test_simulate_session_prints_task_lines(tmp_path, capsys):
    out = tmp_path / "session.csv"
    assert main(["simulate-session", "--tasks", "10", "--seed", "0", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    for line in lines:
        assert SESSION_LINE.match(line), line
    assert len(out.read_text(encoding="utf-8").splitlines()) == 11


def test_simulate_session_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate-session", "--seed", "3", "--out", str(a)]) == 0
    assert main(["simulate-session", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_session_rejects_zero_tasks(tmp_path, capsys):
    out = tmp_path / "session.csv"
    assert main(["simulate-session", "--tasks", "0", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tasks", ["0", "-3"])
def test_simulate_session_bad_tasks_names_the_flag(tmp_path, capsys, tasks):
    out = tmp_path / "session.csv"
    assert main(["simulate-session", "--tasks", tasks, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: tasks must be >= 1, got {tasks}\n")
    assert not out.exists()


# --- simulate-timeline -------------------------------------------------------

def test_simulate_timeline_row_count_and_summary(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "timeline.csv"
    assert main(["simulate-timeline", "--config", str(config), "--steps", "100", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 101
    stdout = capsys.readouterr().out
    assert "final_skill=" in stdout
    assert "mean_retention_prob=" in stdout
    assert "interventions=" in stdout


def test_simulate_timeline_deterministic(tmp_path):
    config = write_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate-timeline", "--config", str(config), "--out", str(a)]) == 0
    assert main(["simulate-timeline", "--config", str(config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_timeline_interventions_lift_mean_retention(tmp_path, capsys):
    summary = re.compile(r"mean_retention_prob=(\d+\.\d+)")
    means = {}
    for name, threshold in (("on", 0.3), ("off", 0.0)):
        config = write_config(tmp_path, **{"timeline.intervention_threshold": threshold})
        out = tmp_path / f"timeline_{name}.csv"
        assert main(["simulate-timeline", "--config", str(config), "--out", str(out)]) == 0
        means[name] = float(summary.search(capsys.readouterr().out).group(1))
    assert means["on"] >= means["off"]


def test_simulate_timeline_malformed_config_writes_nothing(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{oops", encoding="utf-8")
    out = tmp_path / "timeline.csv"
    assert main(["simulate-timeline", "--config", str(config), "--out", str(out)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["case-study"], ["simulate-timeline", "--steps", "5"]])
def test_non_utf8_config_exits_2_naming_the_path(tmp_path, capsys, command):
    config = tmp_path / "latin1.json"
    config.write_bytes(b'{"models": "caf\xe9"}')
    out = tmp_path / "timeline.csv"
    extra = ["--out", str(out)] if command[0] == "simulate-timeline" else []
    assert main(command + ["--config", str(config)] + extra) == 2
    assert capsys.readouterr() == (
        "", f"error: {config}: invalid JSON: 'utf-8' codec can't decode byte 0xe9 in position 15: "
            "invalid continuation byte\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.json"]


def test_simulate_timeline_missing_config_file(tmp_path, capsys):
    out = tmp_path / "timeline.csv"
    code = main(["simulate-timeline", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# --- parser ------------------------------------------------------------------

def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code != 0
