"""Tests for the retention regression pipeline."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from engagekit.case_study import CaseStudyReport, run_case_study
from engagekit.config import CaseStudySettings, default_config_path, load_config
from engagekit.regression import (
    ConfusionMatrix,
    Dataset,
    FitConfig,
    FitError,
    RetentionModel,
    accuracy,
    confusion,
    fit_logistic,
    generate_synthetic_dataset,
    loss_and_gradient,
    predict_label,
    predict_proba,
    retention_criterion,
    train_test_split,
)


def unit_scaler_model(w_engagement=0.0, w_reward=0.0, bias=0.0, means=(0.0, 0.0), stds=(1.0, 1.0)):
    return RetentionModel(w_engagement, w_reward, bias, means, stds)


def random_case(rng):
    """One random (model, small dataset) pair for gradient checks."""
    n = int(rng.integers(5, 40))
    data = Dataset(rng.random(n), rng.random(n) * 10.0, rng.integers(0, 2, n))
    model = RetentionModel(
        w_engagement=float(rng.normal()),
        w_reward=float(rng.normal()),
        bias=float(rng.normal()),
        feature_means=(float(rng.normal()), float(rng.normal(5.0))),
        feature_stds=(float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 4.0))),
    )
    return model, data


def central_difference_gradient(model, data, h=1e-6):
    """Finite-difference oracle for the loss gradient."""

    def loss_at(w1, w2, b):
        shifted = replace(model, w_engagement=w1, w_reward=w2, bias=b)
        return loss_and_gradient(shifted, data)[0]

    w1, w2, b = model.w_engagement, model.w_reward, model.bias
    return np.array([
        (loss_at(w1 + h, w2, b) - loss_at(w1 - h, w2, b)) / (2 * h),
        (loss_at(w1, w2 + h, b) - loss_at(w1, w2 - h, b)) / (2 * h),
        (loss_at(w1, w2, b + h) - loss_at(w1, w2, b - h)) / (2 * h),
    ])


# --- dataset construction ----------------------------------------------------

def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        Dataset([], [], [])


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError):
        Dataset([0.1], [1.0], [2])


def test_dataset_checks_labels_before_casting():
    with pytest.raises(ValueError, match="^retention labels must be 0 or 1$"):
        Dataset([0.1, 0.2], [1.0, 2.0], [0.7, 1.0])


# A bool is not a number here: numpy would store True as 1 (or 1.0).
@pytest.mark.parametrize(
    "columns, name",
    [
        (([0.1, 0.2], [1.0, 2.0], [True, False]), "retention"),
        (([0.1, 0.2], [True, 2.0], [1, 0]), "reward"),
        (([0.1, False], [1.0, 2.0], [1, 0]), "engagement"),
        (([0.1, 0.2], [1.0, 2.0], [1, np.bool_(False)]), "retention"),
        (([np.bool_(True), 0.2], [1.0, 2.0], [1, 0]), "engagement"),
        ((np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.array([True, False])), "retention"),
        ((np.array([0.1, 0.2]), np.array([True, False]), np.array([1, 0])), "reward"),
        ((np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.array([1, True], dtype=object)), "retention"),
        (([0.1], [1.0], True), "retention"),
    ],
    ids=["label-list", "reward-list", "engagement-list", "label-numpy-bool", "engagement-numpy-bool",
         "label-array", "reward-array", "label-object-array", "label-scalar"],
)
def test_dataset_rejects_bools(columns, name):
    with pytest.raises(ValueError, match=f"^{name} must hold numbers, got a bool$"):
        Dataset(*columns)


# Nor is a numeric string or None: numpy would parse '0.1' and store None as nan.
@pytest.mark.parametrize(
    "columns, name, got",
    [
        ((["0.1", "0.2"], ["1.0", "2.0"], [0, 1]), "engagement", "'0.1'"),
        (([0.1, 0.2], [1.0, "2.0"], [0, 1]), "reward", "'2.0'"),
        (([0.1, None], [1.0, 2.0], [0, 1]), "engagement", "None"),
        (([0.1, 0.2], [1.0, 2.0], ["0", "1"]), "retention", "'0'"),
        (([0.1, 0.2], [1.0, 2.0], [0, None]), "retention", "None"),
        ((np.array(["0.1", "0.2"]), np.array([1.0, 2.0]), np.array([0, 1])), "engagement", "'0.1'"),
        ((np.array([0.1, 0.2]), np.array([1.0, None]), np.array([0, 1])), "reward", "None"),
        ((np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.array([0j, 1j])), "retention", "0j"),
        ((np.array([], dtype=str), np.array([]), np.array([])), "engagement", "dtype <U1"),
        (("0.1", [1.0], [0]), "engagement", "'0.1'"),
    ],
    ids=["engagement-strings", "reward-string", "engagement-none", "label-strings", "label-none",
         "engagement-str-array", "reward-object-array", "label-complex-array", "empty-str-array",
         "engagement-one-string"],
)
def test_dataset_rejects_non_numbers(columns, name, got):
    with pytest.raises(ValueError, match=f"^{name} must hold numbers, got {re.escape(got)}$"):
        Dataset(*columns)


def test_dataset_accepts_every_kind_of_real():
    # numpy scalars and ints in a list, an object array of floats, int and
    # float32 arrays: all numbers, stored as the same float64 column.
    columns = (
        [np.float64(0.1), 0.2, 1, np.int64(2)],
        np.array([1.0, 2.0, 3.0, 4.0], dtype=object),
        np.array([0, 1, 0, 1], dtype=np.int8),
    )
    d = Dataset(*columns)
    assert d.engagement.tolist() == [0.1, 0.2, 1.0, 2.0]
    assert d == Dataset([0.1, 0.2, 1.0, 2.0], np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32), [0, 1, 0, 1])


class _Unscannable(np.ndarray):
    """An array that fails any Python pass over its elements."""

    def __iter__(self):
        raise AssertionError("iterated element by element")


def test_dataset_does_not_scan_numeric_arrays():
    columns = (np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.array([0, 1]))
    d = Dataset(*(column.view(_Unscannable) for column in columns))
    assert d == Dataset(*columns)


def test_dataset_rejects_non_finite_features():
    with pytest.raises(ValueError):
        Dataset([math.inf], [1.0], [0])


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Dataset([0.1, 0.2], [1.0], [0, 1])


def test_dataset_is_immutable():
    d = Dataset([0.1, 0.2], [1.0, 2.0], [0, 1])
    with pytest.raises(ValueError):
        d.engagement[0] = 9.9


# --- synthetic data ----------------------------------------------------------

def test_generate_row_count():
    assert len(generate_synthetic_dataset(1000, seed=0)) == 1000


def test_generate_rejects_zero():
    with pytest.raises(ValueError):
        generate_synthetic_dataset(0, seed=0)


def test_generate_deterministic():
    assert generate_synthetic_dataset(500, seed=11) == generate_synthetic_dataset(500, seed=11)


def test_generate_feature_ranges():
    d = generate_synthetic_dataset(5000, seed=3)
    assert d.engagement.min() >= 0.0 and d.engagement.max() < 1.0
    assert d.reward.min() >= 0.0 and d.reward.max() < 10.0


def test_generate_labels_follow_criterion():
    d = generate_synthetic_dataset(2000, seed=5)
    expected = [retention_criterion(e, r) for e, r in zip(d.engagement, d.reward)]
    assert d.retention.tolist() == expected


@pytest.mark.parametrize(
    "engagement, reward, message",
    [
        (True, "9.9", "engagement must be a number, got True"),
        (None, 1.0, "engagement must be a number, got None"),
        (np.bool_(True), 9.9, f"engagement must be a number, got {np.bool_(True)!r}"),
        (0.5, "9.9", "reward must be a number, got '9.9'"),
        (0.5, math.inf, "reward must be finite, got inf"),
    ],
)
def test_retention_criterion_rejects_non_numbers(engagement, reward, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        retention_criterion(engagement, reward)


def test_retention_criterion_points():
    assert retention_criterion(0.9, 9.5) == 1  # 0.45 + 4.75 = 5.2 > 5
    assert retention_criterion(0.0, 10.0) == 0  # exactly on the boundary
    assert retention_criterion(0.2, 4.0) == 0


# --- train/test split --------------------------------------------------------

def test_split_sizes_default_fraction():
    d = generate_synthetic_dataset(1000, seed=0)
    pair = train_test_split(d, 0.2, seed=42)
    assert len(pair.test) == 200 and len(pair.train) == 800


def test_split_rounding_small():
    d = generate_synthetic_dataset(10, seed=0)
    pair = train_test_split(d, 0.1, seed=1)
    assert len(pair.test) == 1 and len(pair.train) == 9


def test_split_partition_invariant():
    d = generate_synthetic_dataset(257, seed=9)
    pair = train_test_split(d, 0.3, seed=2)
    combined = np.concatenate([pair.train_indices, pair.test_indices])
    assert sorted(combined.tolist()) == list(range(257))
    # rows really come from those indices
    assert np.array_equal(pair.test.engagement, d.engagement[pair.test_indices])


def test_split_deterministic():
    d = generate_synthetic_dataset(100, seed=0)
    a = train_test_split(d, 0.25, seed=7)
    b = train_test_split(d, 0.25, seed=7)
    assert np.array_equal(a.test_indices, b.test_indices)
    assert a.train == b.train and a.test == b.test


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.3])
def test_split_rejects_out_of_range_fraction(fraction):
    d = generate_synthetic_dataset(10, seed=0)
    with pytest.raises(ValueError):
        train_test_split(d, fraction, seed=0)


def test_split_rejects_a_single_row():
    d = Dataset([0.5], [5.0], [1])
    with pytest.raises(ValueError) as err:
        train_test_split(d, 0.5, seed=0)
    assert str(err.value) == "dataset must have at least 2 rows to split"


def test_split_rejects_degenerate_rounding():
    d = generate_synthetic_dataset(10, seed=0)
    with pytest.raises(ValueError):
        train_test_split(d, 0.01, seed=0)  # rounds to zero test rows
    with pytest.raises(ValueError):
        train_test_split(d, 0.99, seed=0)  # rounds to zero train rows


# --- loss and gradient -------------------------------------------------------

def test_loss_zero_model_balanced_labels():
    d = Dataset([0.1, 0.9, 0.4, 0.6], [1.0, 9.0, 3.0, 7.0], [0, 1, 0, 1])
    loss, _ = loss_and_gradient(unit_scaler_model(), d)
    assert loss == pytest.approx(math.log(2), rel=1e-15)


def test_loss_is_log2_at_zero_weights_for_any_labels():
    d = generate_synthetic_dataset(100, seed=1)
    m = RetentionModel(0.0, 0.0, 0.0, (0.5, 5.0), (0.3, 2.9))
    loss, _ = loss_and_gradient(m, d)
    assert loss == pytest.approx(math.log(2), rel=1e-15)


def test_gradient_zero_model_closed_form():
    d = Dataset([0.2, 0.8], [2.0, 8.0], [0, 1])
    m = unit_scaler_model()
    _, grad = loss_and_gradient(m, d)
    y = d.retention.astype(float)
    expected = [
        np.mean((0.5 - y) * d.engagement),
        np.mean((0.5 - y) * d.reward),
        np.mean(0.5 - y),
    ]
    assert grad == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        model, data = random_case(rng)
        _, analytic = loss_and_gradient(model, data)
        numeric = central_difference_gradient(model, data)
        rel_err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel_err < 1e-5


# --- fitting -----------------------------------------------------------------

@pytest.fixture(scope="module")
def case_pipeline():
    data = generate_synthetic_dataset(1000, seed=0)
    pair = train_test_split(data, 0.2, seed=42)
    model = fit_logistic(pair.train, FitConfig())
    return data, pair, model


def test_fit_reaches_high_test_accuracy(case_pipeline):
    _, pair, model = case_pipeline
    preds = [predict_label(model, e, r) for e, r in zip(pair.test.engagement, pair.test.reward)]
    assert accuracy(preds, pair.test.retention) >= 0.97


def test_fit_weights_positive(case_pipeline):
    _, _, model = case_pipeline
    assert model.w_engagement > 0.0 and model.w_reward > 0.0


def test_fit_deterministic(case_pipeline):
    _, pair, model = case_pipeline
    again = fit_logistic(pair.train, FitConfig())
    assert (again.w_engagement, again.w_reward, again.bias) == (
        model.w_engagement, model.w_reward, model.bias,
    )
    assert again.epochs_used == model.epochs_used


def test_fit_reduces_training_loss(case_pipeline):
    _, pair, model = case_pipeline
    final_loss, _ = loss_and_gradient(model, pair.train)
    assert final_loss <= math.log(2)


def test_fit_rejects_single_class():
    d = Dataset([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [0, 0, 0])
    with pytest.raises(FitError):
        fit_logistic(d, FitConfig())


def test_fit_rejects_constant_feature():
    d = Dataset([0.5, 0.5, 0.5, 0.5], [1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
    with pytest.raises(FitError):
        fit_logistic(d, FitConfig())


@pytest.mark.parametrize("name", ["engagement", "reward"])
@pytest.mark.parametrize("column", [
    [1e308, -1e308, 1e308, -1e308],  # the squares of the spread overflow
    [1.5e308, 1.5e308, 1.0, 1.0],  # the sum overflows, so the mean does too
])
def test_fit_names_the_feature_whose_scaler_overflows(name, column):
    other = [0.1, 0.2, 0.3, 0.4]
    columns = {"engagement": other, "reward": other, name: column}
    d = Dataset(columns["engagement"], columns["reward"], [0, 1, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match=f"^{name}'s mean or std is not finite; standardization is undefined$"):
            fit_logistic(d, FitConfig())


def test_fit_converges_early_on_easy_data():
    # well-separated classes with a huge tolerance stop before max_epochs
    d = Dataset([0.1, 0.2, 0.8, 0.9], [1.0, 2.0, 8.0, 9.0], [0, 0, 1, 1])
    model = fit_logistic(d, FitConfig(convergence_tol=0.2, max_epochs=5000))
    assert model.epochs_used < 5000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"max_epochs": 0},
        {"convergence_tol": 0.0},
    ],
)
def test_fit_config_validation(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


# --- prediction --------------------------------------------------------------

def test_predict_proba_at_scaler_means_zero_model():
    m = unit_scaler_model(means=(0.4, 5.5), stds=(0.2, 3.0))
    assert predict_proba(m, 0.4, 5.5) == 0.5


def test_predict_proba_monotone_in_reward(case_pipeline):
    _, _, model = case_pipeline
    assert predict_proba(model, 0.5, 9.0) > predict_proba(model, 0.5, 5.0)


def test_predict_proba_positive_region(case_pipeline):
    _, _, model = case_pipeline
    assert predict_proba(model, 1.0, 9.9) > 0.5


def test_predict_proba_rejects_non_finite():
    with pytest.raises(ValueError):
        predict_proba(unit_scaler_model(), math.nan, 1.0)


def test_predict_proba_overflow_names_the_input(case_pipeline):
    _, _, model = case_pipeline
    with pytest.raises(ValueError, match=r"^engagement 0\.5 and reward 1e\+308 "):
        predict_proba(model, 0.5, 1e308)


def test_predict_label_tie_goes_to_one():
    assert predict_label(unit_scaler_model(), 0.3, 4.0, threshold=0.5) == 1


def test_predict_label_below_threshold():
    m = unit_scaler_model(w_engagement=1.0, bias=0.5)
    # probability sigmoid(0.5) ~ 0.622
    assert predict_label(m, 0.0, 0.0, threshold=0.7) == 0
    assert predict_label(m, 0.0, 0.0, threshold=0.99) == 0


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
def test_predict_label_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError):
        predict_label(unit_scaler_model(), 0.5, 5.0, threshold=threshold)


# --- metrics -----------------------------------------------------------------

def test_accuracy_identical_lists():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0


def test_accuracy_complementary_lists():
    assert accuracy([1, 0, 1], [0, 1, 0]) == 0.0


def test_accuracy_counts():
    assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75


def test_accuracy_rejects_mismatch_and_empty():
    with pytest.raises(ValueError):
        accuracy([1, 0], [1])
    with pytest.raises(ValueError):
        accuracy([], [])


def test_confusion_perfect_predictions():
    cm = confusion([0, 1, 0, 1], [0, 1, 0, 1])
    assert (cm.fp, cm.fn) == (0, 0) and cm.tn + cm.tp == 4


def test_confusion_all_zero_vs_all_one():
    cm = confusion([0, 0, 0], [1, 1, 1])
    assert cm.fn == 3 and cm.tp == 0 and cm.tn == 0 and cm.fp == 0


def test_confusion_rejects_non_binary():
    with pytest.raises(ValueError):
        confusion([0, 2], [0, 1])


BOOL_COLUMNS = {"list": [True, False], "array": np.array([True, False])}


@pytest.mark.parametrize("metric", [accuracy, confusion])
@pytest.mark.parametrize("column", BOOL_COLUMNS)
@pytest.mark.parametrize("side", ["predictions", "labels"])
def test_metrics_reject_bools(metric, column, side):
    bools, ints = BOOL_COLUMNS[column], [1, 0]
    args = (bools, ints) if side == "predictions" else (ints, bools)
    with pytest.raises(ValueError, match=f"^{side} must hold numbers, got a bool$"):
        metric(*args)


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(tn=-1, fp=0, fn=0, tp=0)


def masked_confusion(preds, labels):
    """Reference counts: one masked sum per cell."""
    preds, labels = np.asarray(preds), np.asarray(labels)
    return ConfusionMatrix(
        tn=int(np.sum((labels == 0) & (preds == 0))),
        fp=int(np.sum((labels == 0) & (preds == 1))),
        fn=int(np.sum((labels == 1) & (preds == 0))),
        tp=int(np.sum((labels == 1) & (preds == 1))),
    )


BINARY_FORMS = {
    "int-list": lambda bits: bits,
    "float-list": lambda bits: [float(b) for b in bits],
    "int64-array": lambda bits: np.array(bits, dtype=np.int64),
    "float64-array": lambda bits: np.array(bits, dtype=np.float64),
}


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=500),
    st.sampled_from(sorted(BINARY_FORMS)),
    st.sampled_from(sorted(BINARY_FORMS)),
)
def test_confusion_partitions_and_matches_accuracy(pairs, pred_form, label_form):
    preds = BINARY_FORMS[pred_form]([p for p, _ in pairs])
    labels = BINARY_FORMS[label_form]([l for _, l in pairs])
    cm = confusion(preds, labels)
    assert cm == masked_confusion(preds, labels)
    assert cm.total == len(pairs)
    assert all(type(count) is int for count in (cm.tn, cm.fp, cm.fn, cm.tp))
    assert accuracy(preds, labels) == (cm.tn + cm.tp) / cm.total


def make_report(accuracy_value, cm):
    return CaseStudyReport(accuracy=accuracy_value, confusion=cm, positive_rate=0.05,
                           w_engagement=1.0, w_reward=8.0, bias=-9.0, epochs_used=5000)


def test_case_study_report_accepts_accuracy_of_its_confusion():
    cm = ConfusionMatrix(tn=180, fp=3, fn=1, tp=16)
    preds = [0] * 180 + [1] * 3 + [0] * 1 + [1] * 16
    labels = [0] * 183 + [1] * 17
    assert make_report(accuracy(preds, labels), cm).accuracy == 0.98


@pytest.mark.parametrize("accuracy_value", [0.5, 0.98 + 1e-9, 0.975], ids=["far", "past-tolerance", "one-row-off"])
def test_case_study_report_rejects_accuracy_its_confusion_contradicts(accuracy_value):
    cm = ConfusionMatrix(tn=180, fp=3, fn=1, tp=16)
    with pytest.raises(ValueError) as err:
        make_report(accuracy_value, cm)
    assert str(err.value) == f"accuracy {accuracy_value} inconsistent with confusion counts (0.98)"


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(accuracy=0.0, confusion=ConfusionMatrix(0, 0, 0, 0)), "confusion must count at least one prediction"),
        (dict(w_engagement=None), "w_engagement must be a number, got None"),
        (dict(epochs_used=-3), "epochs_used must be >= 0, got -3"),
        (dict(positive_rate="x"), "positive_rate must be a number, got 'x'"),
        (dict(accuracy=True, confusion=ConfusionMatrix(0, 0, 0, 1)), "accuracy must be a number, got True"),
        (dict(accuracy=2.0), "accuracy must be <= 1.0, got 2.0"),
        (dict(confusion=None), "confusion must be a ConfusionMatrix, got None"),
    ],
    ids=["empty-confusion", "None-weight", "negative-epochs", "str-rate", "bool-accuracy", "accuracy-above-1",
         "None-confusion"],
)
def test_case_study_report_checks_its_fields(fields, message):
    report = dict(accuracy=0.98, confusion=ConfusionMatrix(tn=180, fp=3, fn=1, tp=16), positive_rate=0.05,
                  w_engagement=1.0, w_reward=8.0, bias=-9.0, epochs_used=5000)
    with pytest.raises(ValueError) as err:
        CaseStudyReport(**{**report, **fields})
    assert str(err.value) == message


# Seeds whose splits hold both labels on each side, so the fit is defined;
# 500 epochs leave some rows wrong and, at 150 and 300 rows, some predicted 1.
@pytest.mark.parametrize("num_samples, seed", [(40, 2), (75, 2), (150, 1), (300, 1)])
def test_case_study_accuracy_is_that_of_its_predictions(num_samples, seed):
    base = load_config(default_config_path())
    cfg = replace(
        base,
        case_study=CaseStudySettings(num_samples=num_samples, test_fraction=0.2),
        fit=replace(base.fit, max_epochs=500),
        seeds=replace(base.seeds, data=seed, split=seed + 100),
    )
    report = run_case_study(cfg)
    data = generate_synthetic_dataset(num_samples, cfg.seeds.data)
    split = train_test_split(data, 0.2, cfg.seeds.split)
    model, test = fit_logistic(split.train, cfg.fit), split.test
    preds = [predict_label(model, e, r) for e, r in zip(test.engagement.tolist(), test.reward.tolist())]
    assert report.confusion == confusion(preds, test.retention)
    assert report.accuracy == accuracy(preds, test.retention)


# --- model record validation -------------------------------------------------

def test_retention_model_rejects_zero_std():
    with pytest.raises(ValueError):
        RetentionModel(0.0, 0.0, 0.0, (0.0, 0.0), (0.0, 1.0))


def test_retention_model_rejects_non_finite_weight():
    with pytest.raises(ValueError):
        RetentionModel(math.inf, 0.0, 0.0, (0.0, 0.0), (1.0, 1.0))
