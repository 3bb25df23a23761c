"""Adaptive gamification toolkit.

Closed-form engagement/reward/difficulty models, a from-scratch logistic
retention predictor, and seeded simulators for learner sessions and
long-horizon user timelines with at-risk intervention.

The public names below are loaded on first access (PEP 562), so importing
the package imports none of its modules, and numpy only comes in with the
modules that need it.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names the package re-exports from it.
_EXPORTS = {
    "case_study": ("CaseStudyReport", "run_case_study"),
    "config": (
        "CaseStudySettings", "ConfigError", "FitConfig", "ModelProfile", "OutputPaths", "RunConfig", "Seeds",
        "TimelineSettings", "default_config_path", "load_config", "parse_config",
    ),
    "models": (
        "DiminishingRewardParams", "EngagementDecayParams", "FlowParams", "LogisticDifficultyParams",
        "RetentionParams", "RewardFrequencyParams", "case_difficulty", "diminishing_reward_value",
        "engagement_decay", "flow_challenge", "logistic_difficulty", "retention_probability",
        "reward_frequency", "sigmoid",
    ),
    "regression": (
        "ConfusionMatrix", "Dataset", "FitError", "RetentionModel", "SplitPair", "accuracy",
        "confusion", "fit_logistic", "generate_synthetic_dataset", "loss_and_gradient", "predict_label",
        "predict_proba", "retention_criterion", "train_test_split",
    ),
    "rng": ("make_rng",),
    "simulator": (
        "SessionStep", "TimelineConfig", "TimelinePoint", "UserState", "apply_intervention",
        "detect_at_risk", "run_timeline", "simulate_session", "step_user",
    ),
    "storage": (
        "read_dataset_csv", "write_confusion_csv", "write_dataset_csv", "write_session_csv",
        "write_timeline_csv",
    ),
}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:  # engagekit.<module> without importing it first
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
