"""The records' number and integer rules, applied to kernel arguments,
predict_proba's observation, RetentionModel's scaler and the counts and
seeds the engines take, and what a record stores.

A number is a finite real (numpy scalars included), never a bool, and an
integer too large for a float is reported as such; ``_spec.FINITE`` states
this once. The differential tests hold the checked paths to the code they
replaced for every number that code accepted. A record stores each checked
number as a Python float, so that a kernel, the timeline engine, the fit
and the vectorised labels all compute in double whatever real they were
given. An integer is any ``Integral`` (numpy integers included), never a
bool; a record stores it, and a function computes with it, as the Python
int it equals.
"""

import dataclasses
import functools
import json
import math
import re
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engagekit import case_study, config, models, regression, simulator
from engagekit._spec import FINITE, INTEGER, NUMBER, POSITIVE, _specs
from engagekit.case_study import CaseStudyReport
from engagekit.config import CaseStudySettings, FitConfig, Seeds, TimelineSettings
from engagekit.models import (
    DiminishingRewardParams,
    EngagementDecayParams,
    FlowParams,
    LogisticDifficultyParams,
    RetentionParams,
    RewardFrequencyParams,
    _sigmoid,
    case_difficulty,
    diminishing_reward_value,
    flow_challenge,
    logistic_difficulty,
    retention_probability,
    sigmoid,
)
from engagekit.regression import (
    ConfusionMatrix,
    RetentionModel,
    fit_logistic,
    generate_synthetic_dataset,
    predict_label,
    predict_proba,
    train_test_split,
)
from engagekit.rng import MAX_SEED, _pcg64_permutation, _pcg64_random
from engagekit.simulator import UserState, run_timeline, simulate_session

from conftest import make_timeline_config

_LD = LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=0.0)
_RP = RetentionParams(a=1.0, b=1.0, c=1.0)
_FLOW = FlowParams(k=0.0)
_MODEL = RetentionModel(1.5, 8.0, -9.0, (0.5, 5.0), (0.29, 2.9))

# Each argument the rule covers, as (name, call with that argument set to v).
ARGUMENTS = [
    ("z", lambda v: sigmoid(v)),
    ("x", lambda v: logistic_difficulty(_LD, v)),
    ("e", lambda v: retention_probability(_RP, v, 1.0)),
    ("r", lambda v: retention_probability(_RP, 0.5, v)),
    ("engagement", lambda v: case_difficulty(v, 1.0)),
    ("reward", lambda v: case_difficulty(0.5, v)),
    ("skill", lambda v: flow_challenge(v, _FLOW)),
    ("engagement", lambda v: predict_proba(_MODEL, v, 1.0)),
    ("reward", lambda v: predict_proba(_MODEL, 0.5, v)),
    ("feature_means", lambda v: RetentionModel(0.0, 0.0, 0.0, (v, 0.0), (1.0, 1.0))),
    ("feature_means", lambda v: RetentionModel(0.0, 0.0, 0.0, (0.0, v), (1.0, 1.0))),
    ("feature_stds", lambda v: RetentionModel(0.0, 0.0, 0.0, (0.0, 0.0), (v, 1.0))),
    ("feature_stds", lambda v: RetentionModel(0.0, 0.0, 0.0, (0.0, 0.0), (1.0, v))),
]
ARGUMENT_IDS = [
    "sigmoid-z", "logistic_difficulty-x", "retention_probability-e", "retention_probability-r",
    "case_difficulty-engagement", "case_difficulty-reward", "flow_challenge-skill",
    "predict_proba-engagement", "predict_proba-reward",
    "feature_means-0", "feature_means-1", "feature_stds-0", "feature_stds-1",
]
NOT_NUMBERS = [None, "0.5", True, Decimal("0.5"), math.nan, math.inf, 10**400]
NOT_NUMBER_IDS = ["None", "str", "bool", "Decimal", "nan", "inf", "huge-int"]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize("name, call", ARGUMENTS, ids=ARGUMENT_IDS)
def test_every_argument_refuses_what_is_not_a_number(name, call, value):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(value)


@pytest.mark.parametrize("value", [5, [0.0, 1.0], (0.0, 1.0, 2.0), (0.0,), None],
                         ids=["int", "list", "3-tuple", "1-tuple", "None"])
@pytest.mark.parametrize("field", ["feature_means", "feature_stds"])
def test_scaler_fields_must_be_tuples_of_two(field, value):
    scaler = {"feature_means": (0.0, 0.0), "feature_stds": (1.0, 1.0), field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a tuple of two numbers, got "):
        RetentionModel(0.0, 0.0, 0.0, **scaler)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sigmoid(math.inf), "z must be finite, got inf"),
        (lambda: sigmoid(np.float32("nan")), "z must be finite, got nan"),
        (lambda: sigmoid(True), "z must be a number, got True"),
        (lambda: case_difficulty(0.5, "1"), "reward must be a number, got '1'"),
        (lambda: predict_proba(_MODEL, math.nan, 1.0), "engagement must be finite, got nan"),
        (lambda: predict_proba(_MODEL, 0.5, None), "reward must be a number, got None"),
        (lambda: predict_proba(_MODEL, 0.5, 1e308),
         "engagement 0.5 and reward 1e+308 overflow the model's logit"),
        (lambda: RetentionModel(0.0, 0.0, 0.0, (0.0, 0.0), (0.0, 1.0)),
         "feature_stds[0] must be > 0.0, got 0.0"),
        (lambda: RetentionModel(0.0, 0.0, 0.0, (10**400, 0.0), (1.0, 1.0)),
         "feature_means[0] must be finite, got an integer too large for a float"),
    ],
    ids=["inf", "float32-nan", "bool", "str", "predict-nan", "predict-None", "logit-overflow",
         "zero-std", "huge-mean"],
)
def test_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_scaler_accepts_numbers_that_are_not_floats():
    m = RetentionModel(0.0, 0.0, 0.0, (0, np.float64(0.5)), (Fraction(1, 2), np.int64(2)))
    assert m.scale(1.0, 1.0) == (2.0, 0.25)


# --- differential: the code the number rule replaced --------------------------

def old_finite(name, value):
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def old_predict_proba(m, engagement, reward):
    engagement = float(engagement)
    reward = float(reward)
    if not (math.isfinite(engagement) and math.isfinite(reward)):
        raise ValueError("engagement and reward must be finite")
    e, r = m.scale(engagement, reward)
    z = m.w_engagement * e + m.w_reward * r + m.bias
    if not math.isfinite(z):
        raise ValueError(f"engagement {engagement!r} and reward {reward!r} overflow the model's logit")
    return _sigmoid(z)


def outcome(call, *args):
    """The bits of call's result, or the message of its ValueError."""
    try:
        return struct.pack("<d", call(*args))
    except ValueError as err:
        return str(err)


MAX = 1.7976931348623157e308
finite_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, MAX, -MAX]),
    st.integers(min_value=-(2**1023), max_value=2**1023),
    st.sampled_from([2**1023, -(2**1023), int(MAX), -int(MAX), 2**64, -(2**63)]),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)
# Numbers the old code reported (non-finite, too large) as well as accepted.
numbers = st.one_of(
    finite_numbers,
    st.sampled_from([math.nan, math.inf, -math.inf, 2**1024, -(2**1024), 10**400,
                     np.float64("inf"), np.float32("-inf"), np.float64("nan")]),
)

KERNELS = [
    (lambda v: sigmoid(v), lambda v: _sigmoid(old_finite("z", v))),
    (lambda v: logistic_difficulty(_LD, v),
     lambda v: _LD.d_max * _sigmoid(old_finite("z", _LD.gamma * (old_finite("x", v) - _LD.x0)))),
    (lambda v: retention_probability(_RP, v, 0.25),
     lambda v: _sigmoid(old_finite("z", _RP.a * old_finite("e", v) + _RP.b * 0.25 - _RP.c))),
    (lambda v: retention_probability(_RP, 0.25, v),
     lambda v: _sigmoid(old_finite("z", _RP.a * 0.25 + _RP.b * old_finite("r", v) - _RP.c))),
    (lambda v: case_difficulty(v, 0.25),
     lambda v: _sigmoid(old_finite("z", old_finite("engagement", v) + 0.25 - 1.0))),
    (lambda v: case_difficulty(0.25, v),
     lambda v: _sigmoid(old_finite("z", 0.25 + old_finite("reward", v) - 1.0))),
    (lambda v: flow_challenge(v, FlowParams(k=0.5)), lambda v: old_finite("skill", v) + 0.5),
]


@given(numbers)
def test_kernels_match_the_old_checks_on_every_number(value):
    for new, old in KERNELS:
        assert outcome(new, value) == outcome(old, value)


@given(finite_numbers, finite_numbers)
def test_predict_proba_matches_the_old_checks_on_finite_numbers(engagement, reward):
    assert outcome(predict_proba, _MODEL, engagement, reward) == \
        outcome(old_predict_proba, _MODEL, engagement, reward)


# --- a record stores each checked number as a Python float --------------------

F32 = np.float32


def test_float32_difficulty_fields_give_the_kernel_the_engines_double():
    p = LogisticDifficultyParams(d_max=F32(0.9), gamma=F32(1.3), x0=F32(0.4))
    kernel = logistic_difficulty(p, 0.0)
    point = run_timeline(UserState(engagement=0.9, skill=0.0), make_timeline_config(steps=1, difficulty=p))[0]
    assert type(kernel) is float
    assert kernel == point.difficulty == 0.33556700381195664


def test_a_float32_learning_rate_fits_as_its_double():
    train = train_test_split(generate_synthetic_dataset(400, 0), 0.2, 1).train
    model = fit_logistic(train, FitConfig(learning_rate=F32(0.5), max_epochs=300))
    assert type(model.w_engagement) is float and model.w_engagement == 0.7423869370768515
    assert model == fit_logistic(train, FitConfig(learning_rate=0.5, max_epochs=300))
    json.dumps(dataclasses.asdict(model))


def test_a_float32_scaler_labels_a_row_by_its_doubles():
    m = RetentionModel(3.0, 7.0, -1.0, (F32(0.5), F32(5.0)), (F32(0.29), F32(2.9)))
    e, r = 0.0011428193144282783, 7.552245047236755
    assert predict_proba(m, e, r) == 0.4999999044773309
    assert predict_label(m, e, r) == 0


# A valid instance of every record with a number field; the test below
# replaces each number field of each one.
RECORDS = {
    RewardFrequencyParams: RewardFrequencyParams(r0=1.0, alpha=0.1),
    DiminishingRewardParams: DiminishingRewardParams(v0=10.0, beta=0.3),
    LogisticDifficultyParams: LogisticDifficultyParams(d_max=1.0, gamma=1.0, x0=0.5),
    FlowParams: FlowParams(k=0.5),
    RetentionParams: RetentionParams(a=0.5, b=0.5, c=1.5),
    EngagementDecayParams: EngagementDecayParams(e0=0.9, lam=0.1),
    UserState: UserState(engagement=0.9, skill=0.0),
    simulator.TimelineConfig: make_timeline_config(),
    FitConfig: FitConfig(),
    CaseStudySettings: CaseStudySettings(num_samples=1000, test_fraction=0.2),
    TimelineSettings: TimelineSettings(200, 0.0, 0.02, 0.3, 0.3, 2.0),
    RetentionModel: RetentionModel(1.5, 8.0, -9.0, (0.5, 5.0), (0.29, 2.9)),
    CaseStudyReport: CaseStudyReport(0.98, ConfusionMatrix(180, 3, 1, 16), 0.05, 1.5, 8.0, -9.0, 5000),
}
# Fields that the record's own check ties to its other fields; the
# property test below leaves them as they are.
TIED = {CaseStudyReport: {"accuracy"}}


def number_fields(cls):
    return [(name, spec) for name, spec in _specs(cls) if spec.kind == NUMBER]


def test_every_record_with_a_number_field_is_covered():
    records = {
        obj for module in (models, simulator, config, regression, case_study) for obj in vars(module).values()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type) and number_fields(obj)
    }
    assert records == set(RECORDS)


@functools.cache
def numbers_within(spec):
    """Numbers that spec admits, as a float, an int, an np.float64, an
    np.float32 or a Fraction."""
    lo, hi = (spec.ge if spec.ge is not None else spec.gt), (spec.le if spec.le is not None else spec.lt)
    bounds = dict(min_value=lo, max_value=hi, exclude_min=spec.gt is not None, exclude_max=spec.lt is not None)
    floats = st.floats(allow_nan=False, allow_infinity=False, **bounds)
    kinds = [
        floats,
        floats.map(np.float64),
        st.floats(width=32, allow_nan=False, allow_infinity=False, **bounds).map(F32),
        st.fractions(min_value=lo, max_value=hi, max_denominator=10**9),
        st.integers(-(2**1023) if lo is None else math.ceil(lo), 2**1023 if hi is None else math.floor(hi)),
    ]
    return st.one_of(kinds).filter(lambda v: spec.problem(v) is None)


def assert_stored(stored, value):
    assert type(stored) is float and repr(stored) == repr(float(value))
    if type(value) is float:
        assert stored is value  # the fast path stores nothing


@settings(deadline=None)
@given(st.data())
def test_a_record_stores_each_checked_number_as_a_float(data):
    for cls, base in RECORDS.items():
        drawn = {name: data.draw(numbers_within(spec), label=f"{cls.__name__}.{name}")
                 for name, spec in number_fields(cls) if name not in TIED.get(cls, ())}
        record = dataclasses.replace(base, **drawn)
        for name, value in drawn.items():
            assert_stored(getattr(record, name), value)
    means = data.draw(st.tuples(numbers_within(FINITE), numbers_within(FINITE)), label="feature_means")
    stds = data.draw(st.tuples(numbers_within(POSITIVE), numbers_within(POSITIVE)), label="feature_stds")
    model = dataclasses.replace(RECORDS[RetentionModel], feature_means=means, feature_stds=stds)
    for stored, value in zip(model.feature_means + model.feature_stds, means + stds):
        assert_stored(stored, value)


@pytest.mark.parametrize(
    "value, confusion",
    [(1, ConfusionMatrix(180, 0, 0, 0)), (np.float64(180 / 181), ConfusionMatrix(180, 0, 1, 0)),
     (Fraction(180, 181), ConfusionMatrix(180, 0, 1, 0))],
    ids=["int", "float64", "Fraction"],
)
def test_a_report_stores_its_accuracy_as_a_float(value, confusion):
    report = dataclasses.replace(RECORDS[CaseStudyReport], accuracy=value, confusion=confusion)
    assert_stored(report.accuracy, value)


NUMBER_FIELDS = [(cls, name) for cls in RECORDS for name, _ in number_fields(cls)]


@pytest.mark.parametrize("cls, name", NUMBER_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in NUMBER_FIELDS])
def test_a_bool_in_any_number_field_names_the_field(cls, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got True$"):
        dataclasses.replace(RECORDS[cls], **{name: True})


def mixed(lo, hi):
    """A number in [lo, hi] as a float, an int, an np.float64, an
    np.float32 or a Fraction."""
    floats = st.floats(lo, hi)
    kinds = [floats, floats.map(np.float64), floats.map(F32), floats.map(Fraction)]
    if math.ceil(lo) <= math.floor(hi):
        kinds.append(st.integers(math.ceil(lo), math.floor(hi)))
    return st.one_of(kinds)


mixed_states = st.builds(
    UserState,
    engagement=mixed(0.0, 1.0),
    skill=mixed(0.0, 1.0),
    cumulative_reward=mixed(0.0, 1e3),
    pending_reward_multiplier=mixed(1.0, 4.0),
)
mixed_configs = st.builds(
    make_timeline_config,
    steps=st.integers(min_value=1, max_value=60),
    diminishing=st.builds(DiminishingRewardParams, v0=mixed(1e-3, 100.0), beta=mixed(0.0, 2.0)),
    difficulty=st.builds(LogisticDifficultyParams, d_max=mixed(1e-3, 1.0), gamma=mixed(1e-3, 50.0),
                         x0=mixed(-2.0, 2.0)),
    retention=st.builds(RetentionParams, a=mixed(-5.0, 5.0), b=mixed(-5.0, 5.0), c=mixed(-5.0, 5.0)),
    decay=st.builds(EngagementDecayParams, e0=mixed(0.0, 1.0), lam=mixed(0.0, 3.0)),
    skill_gain=mixed(0.0, 0.9),
    engagement_boost=mixed(0.0, 2.0),
    intervention_threshold=st.sampled_from([0.0, 0, F32(0.0)]) | mixed(0.01, 0.9),
    intervention_reward_multiplier=mixed(1.0, 4.0),
    seed=st.integers(min_value=0, max_value=2**32),
)


def assert_same_double(engine, kernel):
    assert type(kernel) is float and repr(engine) == repr(kernel)


@settings(max_examples=200, deadline=None)
@given(mixed_states, mixed_configs)
def test_run_timeline_equals_the_kernels_on_records_of_any_number_type(initial, cfg):
    skill, n, pending = initial.skill, initial.interactions, initial.pending_reward_multiplier
    for point in run_timeline(initial, cfg):
        assert_same_double(point.difficulty, logistic_difficulty(cfg.difficulty, skill))
        reward = diminishing_reward_value(cfg.diminishing, n) * pending
        assert_same_double(point.reward_granted, reward)
        assert_same_double(point.retention_prob, retention_probability(cfg.retention, point.engagement, reward))
        skill, n = point.skill, n + 1
        pending = cfg.intervention_reward_multiplier if point.intervened else 1.0


# --- a record stores each checked integer as a Python int ---------------------

def integer_fields(cls):
    return [(name, spec) for name, spec in _specs(cls) if spec.kind == INTEGER]


# A valid instance of every record with an integer field: those of RECORDS
# that have one, and two records of integers only. The test below replaces
# each integer field of each one.
INTEGER_RECORDS = {
    **{cls: base for cls, base in RECORDS.items() if integer_fields(cls)},
    Seeds: Seeds(data=0, split=42, fit=7, sim=2025),
    ConfusionMatrix: ConfusionMatrix(180, 3, 1, 16),
}


def test_every_record_with_an_integer_field_is_covered():
    records = {
        obj for module in (models, simulator, config, regression, case_study) for obj in vars(module).values()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type) and integer_fields(obj)
    }
    assert records == set(INTEGER_RECORDS)


@functools.cache
def integers_within(spec):
    """Integers that spec admits, as an int, an np.int64, an np.uint8 or an
    np.uint64."""
    lo, hi = spec.ge, spec.le

    def upto(top):
        return st.integers(lo, top if hi is None else min(hi, top))

    return st.one_of(upto(2**100), upto(2**63 - 1).map(np.int64), upto(255).map(np.uint8),
                     upto(2**64 - 1).map(np.uint64))


def assert_stored_int(stored, value):
    assert type(stored) is int and stored == value
    if type(value) is int:
        assert stored is value  # the fast path stores nothing


@settings(deadline=None)
@given(st.data())
def test_a_record_stores_each_checked_integer_as_an_int(data):
    for cls, base in INTEGER_RECORDS.items():
        drawn = {name: data.draw(integers_within(spec), label=f"{cls.__name__}.{name}")
                 for name, spec in integer_fields(cls)}
        record = dataclasses.replace(base, **drawn)
        for name, value in drawn.items():
            assert_stored_int(getattr(record, name), value)


INTEGER_FIELDS = [(cls, name) for cls in INTEGER_RECORDS for name, _ in integer_fields(cls)]


@pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
@pytest.mark.parametrize("cls, name", INTEGER_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in INTEGER_FIELDS])
def test_a_bool_in_any_integer_field_names_the_field(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        dataclasses.replace(INTEGER_RECORDS[cls], **{name: value})


NUMPY_INTEGERS = [np.int64, np.uint8, np.uint64]


@pytest.mark.parametrize("numpy_int", NUMPY_INTEGERS)
@pytest.mark.parametrize("k", [0, 1, 7, 200])
def test_diminishing_reward_value_takes_a_numpy_count_as_its_int(k, numpy_int):
    p = DiminishingRewardParams(v0=10.0, beta=0.3)
    value = diminishing_reward_value(p, numpy_int(k))
    assert type(value) is float and value == diminishing_reward_value(p, k)


@pytest.mark.parametrize("numpy_int", NUMPY_INTEGERS)
@pytest.mark.parametrize("k", [1, 200])
@pytest.mark.parametrize("generate", [generate_synthetic_dataset, simulate_session])
def test_the_generators_take_a_numpy_count_as_its_int(generate, k, numpy_int):
    # They draw 2 * n and 3 * num_tasks doubles, which wrap around in uint8.
    assert generate(numpy_int(k), 3) == generate(k, 3)


@pytest.mark.parametrize("seed", [np.int64(2025), np.uint8(7), np.uint64(MAX_SEED)],
                         ids=["int64", "uint8", "uint64-max"])
def test_the_pure_draws_take_a_numpy_seed_as_its_int(seed):
    assert _pcg64_random(seed, 5) == _pcg64_random(int(seed), 5)
    assert _pcg64_permutation(seed, 9) == _pcg64_permutation(int(seed), 9)
