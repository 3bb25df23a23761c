"""The package namespace: lazy re-exports of every public name."""

import importlib
import json
import subprocess
import sys

import pytest

import engagekit

from conftest import subprocess_env

# The names the package exported when its __init__ imported every module.
PUBLIC = {
    "case_study": ["CaseStudyReport", "run_case_study"],
    "config": [
        "CaseStudySettings", "ConfigError", "ModelProfile", "OutputPaths", "RunConfig", "Seeds",
        "TimelineSettings", "default_config_path", "load_config", "parse_config",
    ],
    "models": [
        "DiminishingRewardParams", "EngagementDecayParams", "FlowParams", "LogisticDifficultyParams",
        "RetentionParams", "RewardFrequencyParams", "case_difficulty", "diminishing_reward_value",
        "engagement_decay", "flow_challenge", "logistic_difficulty", "retention_probability",
        "reward_frequency", "sigmoid",
    ],
    "regression": [
        "ConfusionMatrix", "Dataset", "FitConfig", "FitError", "RetentionModel", "SplitPair", "accuracy",
        "confusion", "fit_logistic", "generate_synthetic_dataset", "loss_and_gradient", "predict_label",
        "predict_proba", "retention_criterion", "train_test_split",
    ],
    "rng": ["make_rng"],
    "simulator": [
        "SessionStep", "TimelineConfig", "TimelinePoint", "UserState", "apply_intervention",
        "detect_at_risk", "run_timeline", "simulate_session", "step_user",
    ],
    "storage": [
        "read_dataset_csv", "write_confusion_csv", "write_dataset_csv", "write_session_csv",
        "write_timeline_csv",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_56_public_names():
    assert len(NAMES) == 56
    assert sorted(engagekit.__all__) == sorted(name for _, name in NAMES)
    assert len(set(engagekit.__all__)) == len(engagekit.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from engagekit import *", namespace)
    assert set(engagekit.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(engagekit, name) for name in engagekit.__all__)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_module_attribute(module, name):
    assert getattr(engagekit, name) is getattr(importlib.import_module(f"engagekit.{module}"), name)


def test_dir_lists_every_public_name():
    assert set(engagekit.__all__) <= set(dir(engagekit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'engagekit' has no attribute 'no_such_name'$"):
        engagekit.no_such_name  # noqa: B018
    assert not hasattr(engagekit, "no_such_name")


def test_submodules_import_through_the_package():
    from engagekit import cli

    assert cli is sys.modules["engagekit.cli"]
    assert engagekit.simulator is sys.modules["engagekit.simulator"]


def test_import_engagekit_imports_no_module_and_not_numpy():
    code = ("import json, sys, engagekit\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'engagekit'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == ["engagekit"]
