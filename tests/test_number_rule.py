"""The records' number rule, applied to kernel arguments, predict_proba's
observation and RetentionModel's scaler.

A number is a finite real (numpy scalars included), never a bool, and an
integer too large for a float is reported as such; ``_spec.FINITE`` states
this once. The differential tests hold the checked paths to the code they
replaced for every number that code accepted.
"""

import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from engagekit.models import (
    FlowParams,
    LogisticDifficultyParams,
    RetentionParams,
    _sigmoid,
    case_difficulty,
    flow_challenge,
    logistic_difficulty,
    retention_probability,
    sigmoid,
)
from engagekit.regression import RetentionModel, predict_proba

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
