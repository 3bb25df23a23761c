"""End-to-end retention case study: generate, split, fit, evaluate."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import RunConfig
from .regression import (
    ConfusionMatrix,
    _predict_labels,
    accuracy,
    confusion,
    fit_logistic,
    generate_synthetic_dataset,
    train_test_split,
)

__all__ = ["CaseStudyReport", "run_case_study"]


@dataclass(frozen=True)
class CaseStudyReport:
    """Evaluation summary of one pipeline run."""

    accuracy: float
    confusion: ConfusionMatrix
    positive_rate: float
    w_engagement: float
    w_reward: float
    bias: float
    epochs_used: int

    def __post_init__(self) -> None:
        expected = (self.confusion.tn + self.confusion.tp) / self.confusion.total
        if not math.isclose(self.accuracy, expected, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(
                f"accuracy {self.accuracy} inconsistent with confusion counts ({expected})"
            )

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": {
                "tn": self.confusion.tn,
                "fp": self.confusion.fp,
                "fn": self.confusion.fn,
                "tp": self.confusion.tp,
            },
            "positive_rate": self.positive_rate,
            "weights": {"engagement": self.w_engagement, "reward": self.w_reward},
            "bias": self.bias,
            "epochs_used": self.epochs_used,
        }


def run_case_study(cfg: RunConfig) -> CaseStudyReport:
    """Run the full pipeline under the config's seeds and fit settings."""
    data = generate_synthetic_dataset(cfg.case_study.num_samples, cfg.seeds.data)
    split = train_test_split(data, cfg.case_study.test_fraction, cfg.seeds.split)
    model = fit_logistic(split.train, cfg.fit)
    predictions = _predict_labels(model, split.test.engagement, split.test.reward)
    labels = split.test.retention
    return CaseStudyReport(
        accuracy=accuracy(predictions, labels),
        confusion=confusion(predictions, labels),
        positive_rate=data.positive_rate,
        w_engagement=model.w_engagement,
        w_reward=model.w_reward,
        bias=model.bias,
        epochs_used=model.epochs_used,
    )
