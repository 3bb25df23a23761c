"""Differential tests: the gradient-descent fit against its allocating form.

The reference is the original epoch loop, kept here as it was: a masked,
branch-on-sign sigmoid that allocates its temporaries, and a loop that builds
z, p, the residuals and the gradient afresh each epoch. fit_logistic runs
every epoch through buffers it allocates once, a branch-free sigmoid, a
Python-float update of the three parameters and a Python-float stopping
test that calls the ddot only near the tolerance, so these tests pin the
arithmetic: the fitted models must be equal (==), not close, and the kernel
must reproduce the masked form bit for bit. The vectorised labels of
run_case_study are held to predict_label the same way.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from engagekit.regression import (
    Dataset,
    FitConfig,
    RetentionModel,
    _predict_labels,
    _sigmoid_vec,
    fit_logistic,
    generate_synthetic_dataset,
    loss_and_gradient,
    predict_label,
    predict_proba,
    train_test_split,
)


def reference_sigmoid_vec(z):
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_fit(train, cfg, gradients=None):
    """The original loop; gradients, if given, collects each epoch's (g_w, g_b)."""
    y = train.retention.astype(np.float64)
    raw = train.features()
    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    X = (raw - means) / stds
    w = np.zeros(2)
    b = 0.0
    epochs_used = 0
    for _ in range(cfg.max_epochs):
        p = reference_sigmoid_vec(X @ w + b)
        resid = p - y
        g_w = X.T @ resid / len(y)
        g_b = float(resid.mean())
        if gradients is not None:
            gradients.append((g_w, g_b))
        if math.sqrt(g_w @ g_w + g_b * g_b) < cfg.convergence_tol:
            break
        w -= cfg.learning_rate * g_w
        b -= cfg.learning_rate * g_b
        epochs_used += 1
    return RetentionModel(
        w_engagement=float(w[0]),
        w_reward=float(w[1]),
        bias=b,
        feature_means=(float(means[0]), float(means[1])),
        feature_stds=(float(stds[0]), float(stds[1])),
        epochs_used=epochs_used,
    )


def reference_loss_and_gradient(m, d):
    e, r = m.scale(d.engagement, d.reward)
    X = np.column_stack((e, r))
    y = d.retention.astype(np.float64)
    z = X @ np.array([m.w_engagement, m.w_reward]) + m.bias
    p = reference_sigmoid_vec(z)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    resid = p - y
    grad = np.array([
        float(np.mean(resid * X[:, 0])),
        float(np.mean(resid * X[:, 1])),
        float(np.mean(resid)),
    ])
    return loss, grad


def kernel(z):
    return _sigmoid_vec(z, np.empty_like(z), np.empty_like(z), np.empty(z.shape, dtype=bool))


def same_bits(a, b):
    # array_equal alone treats -0.0 == 0.0; the bit patterns must match too.
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def datasets(draw):
    """2-2000 rows, both classes present, labels either from a linear rule
    (separable, so the fit never converges) or drawn from a logistic model
    (overlapping classes, so a loose tolerance can stop it early)."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e3]))
    engagement = rng.random(n)
    reward = rng.random(n) * scale
    score = (engagement - 0.5) + (reward / scale - 0.5) * draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        labels = (score > np.median(score)).astype(np.int64)
    else:
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-4.0 * score))).astype(np.int64)
    labels[:2] = (0, 1)
    return Dataset(engagement, reward, labels)


def overlapping(n, seed):
    """n rows whose labels are drawn from a logistic model: the classes
    overlap, so the gradient never vanishes and a loose tolerance stops."""
    rng = np.random.default_rng(seed)
    engagement, reward = rng.random(n), rng.random(n) * 10.0
    score = (engagement - 0.5) + (reward / 10.0 - 0.5)
    return Dataset(engagement, reward, (rng.random(n) < 1.0 / (1.0 + np.exp(-4.0 * score))).astype(np.int64))


OVERLAPPING = overlapping(60, seed=3)
SEPARABLE = Dataset([0.1, 0.2, 0.3, 0.7, 0.8, 0.9], [1.0, 2.0, 3.0, 7.0, 8.0, 9.0], [0, 0, 0, 1, 1, 1])
# Fits the draws below reach only by chance: the stopping test passing at
# epoch 0 and mid-run, and a learning rate that pushes |z| past 745, where
# exp(-|z|) underflows and p is exactly 0 or 1. On separable data that
# shrinks the gradient to about 3e-271, whose squares underflow to 0, so
# the fit stops too.
STOPS_AT_EPOCH_0 = (OVERLAPPING, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1.0))
STOPS_MID_RUN = (OVERLAPPING, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=0.05))
SATURATES = (OVERLAPPING, FitConfig(learning_rate=3e3, max_epochs=30, convergence_tol=1e-9))
SATURATES_AND_STOPS = (SEPARABLE, FitConfig(learning_rate=1e3, max_epochs=50, convergence_tol=1e-9))
# A larger step saturates every row, so the residuals and the gradient are
# exactly 0.
ZERO_GRADIENT = (SEPARABLE, FitConfig(learning_rate=2e3, max_epochs=50, convergence_tol=1e-9))
# Tolerances whose square underflows (to a subnormal, or to 0, so that only
# a zero norm passes) or overflows: the stopping test has no band there.
TOL_SQUARE_SUBNORMAL = (OVERLAPPING, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e-170))
TOL_SQUARE_ZERO = (SEPARABLE, FitConfig(learning_rate=2e3, max_epochs=50, convergence_tol=5e-324))
TOL_SQUARE_INF = (OVERLAPPING, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e200))
TOL_MAX = (OVERLAPPING, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=sys.float_info.max))


def logits(m, d):
    e, r = m.scale(d.engagement, d.reward)
    return m.w_engagement * e + m.w_reward * r + m.bias


fit_configs = st.builds(
    FitConfig,
    learning_rate=st.floats(0.01, 3.0),
    max_epochs=st.integers(1, 400),
    convergence_tol=st.one_of(
        st.floats(1e-9, 1e-4),
        st.floats(1e-3, 0.5),
        st.floats(0.0, exclude_min=True, allow_infinity=False),  # all that POSITIVE allows
    ),
)


@settings(max_examples=150, deadline=None)
@given(datasets(), fit_configs)
@example(*STOPS_AT_EPOCH_0)
@example(*STOPS_MID_RUN)
@example(*SATURATES)
@example(*SATURATES_AND_STOPS)
@example(*ZERO_GRADIENT)
@example(*TOL_SQUARE_SUBNORMAL)
@example(*TOL_SQUARE_ZERO)
@example(*TOL_SQUARE_INF)
@example(*TOL_MAX)
def test_fit_equals_reference(train, cfg):
    assert fit_logistic(train, cfg) == reference_fit(train, cfg)


def test_fit_examples_reach_what_they_name():
    assert fit_logistic(*STOPS_AT_EPOCH_0).epochs_used == 0
    assert 0 < fit_logistic(*STOPS_MID_RUN).epochs_used < 400
    assert fit_logistic(*SATURATES).epochs_used == 30
    assert 0 < fit_logistic(*SATURATES_AND_STOPS).epochs_used < 50
    for train, cfg in (SATURATES, SATURATES_AND_STOPS):
        z = logits(fit_logistic(train, cfg), train)
        assert z.min() < -745.2 and z.max() > 745.2
        p = kernel(z)
        assert (p == 0.0).any() and (p == 1.0).any()
    for (train, cfg), zero in ((SATURATES_AND_STOPS, False), (ZERO_GRADIENT, True), (TOL_SQUARE_ZERO, True)):
        gradients = []
        model = reference_fit(train, cfg, gradients)
        assert fit_logistic(train, cfg).epochs_used == model.epochs_used < 50
        g_w, g_b = gradients[-1]
        g = [*g_w.tolist(), g_b]
        assert [x * x for x in g] == [0.0] * 3  # zero, or so small that the squares underflow
        assert (g == [0.0] * 3) is zero
    assert fit_logistic(*TOL_SQUARE_SUBNORMAL).epochs_used == 400
    assert fit_logistic(*TOL_SQUARE_INF).epochs_used == fit_logistic(*TOL_MAX).epochs_used == 0
    for _, cfg in (TOL_SQUARE_SUBNORMAL, TOL_SQUARE_ZERO, TOL_SQUARE_INF, TOL_MAX):
        square = cfg.convergence_tol * cfg.convergence_tol
        assert square < sys.float_info.min or square == math.inf


def test_stopping_test_keeps_the_ddot_norm():
    # g_w @ g_w runs through BLAS ddot, whose last bit can differ from
    # g0 * g0 + g1 * g1 in Python floats. Put the tolerance between the
    # two forms of the norm at the first epoch where they differ: the fit
    # must stop where the ddot form says, which the other form misses by one.
    train, cfg = STOPS_MID_RUN[0], FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e-9)
    gradients = []
    reference_fit(train, cfg, gradients)
    for epoch, (g_w, g_b) in enumerate(gradients):
        g0, g1 = g_w.tolist()
        ddot = math.sqrt(g_w @ g_w + g_b * g_b)
        python = math.sqrt(g0 * g0 + g1 * g1 + g_b * g_b)
        if ddot != python:
            break
    else:  # a BLAS without fused multiply-adds: the two forms are one
        pytest.skip("this BLAS's ddot rounds as Python floats do on every epoch")
    tight = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=max(ddot, python))
    model = fit_logistic(train, tight)
    assert model == reference_fit(train, tight)
    assert model.epochs_used == epoch + (ddot > python)


def test_tolerances_at_the_band_edges_agree():
    # The fit decides the stopping test in Python floats outside a band of
    # relative half-width 1e-12 around tol**2 (about 5e-13 on the norm) and
    # with the ddot inside it. Put the tolerance just inside and just
    # outside that band, and within a few ulps of the norm, at several
    # epochs: every fit must stop where the reference stops.
    train = STOPS_MID_RUN[0]
    gradients = []
    reference_fit(train, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e-9), gradients)
    offsets = [k * 2.0**-53 for k in range(-6, 7)] + [k * 1e-13 for k in (-8, -6, -5, -4, 4, 5, 6, 8)]
    for epoch in (0, 1, 8, 57, 399):
        g_w, g_b = gradients[epoch]
        norm = math.sqrt(g_w @ g_w + g_b * g_b)
        for offset in offsets:
            cfg = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=norm * (1.0 + offset))
            assert fit_logistic(train, cfg) == reference_fit(train, cfg), (epoch, offset)


def test_float32_tolerance_compares_as_numpy_does():
    # A Python float compared with a float32 is rounded to float32 first, so
    # a float32 tolerance just above the norm can still fail to stop the
    # fit. The reference stops where that comparison says; so must the fit.
    train = STOPS_MID_RUN[0]
    gradients = []
    reference_fit(train, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e-9), gradients)
    norms = [math.sqrt(g_w @ g_w + g_b * g_b) for g_w, g_b in gradients]
    # The first epoch whose norm float32 rounds up, by far more than the
    # band, to a new minimum: only that rounding keeps the fit going there.
    epoch = next(
        i for i in range(1, len(norms))
        if float(np.float32(norms[i])) > norms[i] * (1.0 + 1e-9) and min(norms[:i]) > float(np.float32(norms[i]))
    )
    cfg = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=np.float32(norms[epoch]))
    model = fit_logistic(train, cfg)
    assert model == reference_fit(train, cfg)
    assert model.epochs_used > epoch


def test_loose_tolerances_stop_early_and_agree():
    # The hypothesis runs above cover early stops only by chance; pin a few.
    train = Dataset([0.1, 0.4, 0.35, 0.8, 0.6, 0.2], [1.0, 3.0, 2.0, 9.0, 4.0, 5.0], [0, 0, 1, 1, 1, 0])
    stops = set()
    for tol in (0.5, 0.1, 0.05, 0.02, 1e-3, 1e-9):
        cfg = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=tol)
        model = fit_logistic(train, cfg)
        assert model == reference_fit(train, cfg)
        stops.add(model.epochs_used)
    assert {0, 400} < stops and len(stops) >= 4


def test_default_fit_at_8000_rows_equals_reference():
    data = generate_synthetic_dataset(8000, seed=11)
    train = train_test_split(data, 0.2, seed=12).train
    model = fit_logistic(train, FitConfig())
    assert model == reference_fit(train, FitConfig())
    assert model.epochs_used == 5000


WIDE = np.array([
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 36.0, -36.0, 37.0, -37.0, 709.0, -709.0,
    709.8, -709.8, 745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e300, -1e300, 1e308, -1e308,
    np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny, -np.finfo(float).tiny,
    5e-324, -5e-324, 1e-300, -1e-300, np.inf, -np.inf,
])


def test_kernel_matches_masked_form_on_wide_inputs():
    rng = np.random.default_rng(5)
    z = np.concatenate([WIDE] + [rng.standard_normal(100_000) * k for k in (1.0, 40.0, 800.0)])
    assert same_bits(kernel(z), reference_sigmoid_vec(z))


def test_kernel_signed_zero_inputs():
    z = np.array([0.0, -0.0])
    assert same_bits(kernel(z), np.array([0.5, 0.5]))
    assert same_bits(kernel(np.array([-745.2, -1e308, -np.inf])), np.zeros(3))


def test_kernel_bits_at_the_edges():
    tiny = np.finfo(float).tiny
    cases = [
        (0.0, 0.5), (-0.0, 0.5), (5e-324, 0.5), (-5e-324, 0.5), (tiny / 2, 0.5), (-tiny / 2, 0.5),
        (745.0, 1.0), (-745.0, 5e-324), (745.2, 1.0), (-745.2, 0.0), (np.inf, 1.0), (-np.inf, 0.0),
    ]
    z, expected = (np.array(column) for column in zip(*cases))
    assert same_bits(kernel(z), expected)
    # nan in, nan out: -|z| gives both signs of nan the same bits.
    p = kernel(np.array([np.nan, -np.nan]))
    assert np.isnan(p).all() and p.view(np.uint64)[0] == p.view(np.uint64)[1]


def test_kernel_writes_into_out_and_may_overwrite_z():
    z = np.linspace(-50.0, 50.0, 1001)
    expected = reference_sigmoid_vec(z)
    out = np.empty_like(z)
    assert _sigmoid_vec(z, out, np.empty_like(z), np.empty(z.shape, dtype=bool)) is out
    assert same_bits(out, expected)
    assert _sigmoid_vec(z, z, np.empty_like(z), np.empty(z.shape, dtype=bool)) is z
    assert same_bits(z, expected)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 300), elements=st.floats(allow_nan=False)))
def test_kernel_matches_masked_form(z):
    assert same_bits(kernel(z), reference_sigmoid_vec(z))


@settings(max_examples=100, deadline=None)
@given(datasets(), st.tuples(*[st.floats(-50.0, 50.0)] * 3))
def test_loss_and_gradient_equals_reference(d, weights):
    fitted = fit_logistic(d, FitConfig(max_epochs=50))
    for m in (fitted, RetentionModel(*weights, fitted.feature_means, fitted.feature_stds)):
        loss, grad = loss_and_gradient(m, d)
        ref_loss, ref_grad = reference_loss_and_gradient(m, d)
        assert loss == ref_loss
        assert same_bits(grad, ref_grad)


def scalar_labels(m, engagement, reward):
    return [predict_label(m, e, r) for e, r in zip(engagement.tolist(), reward.tolist())]


finite_weights = st.floats(-50.0, 50.0)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(RetentionModel, finite_weights, finite_weights, finite_weights,
              st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
              st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0))),
    st.integers(1, 500), st.integers(0, 2**32 - 1),
)
def test_predict_labels_equal_predict_label(m, n, seed):
    rng = np.random.default_rng(seed)
    engagement, reward = rng.random(n), rng.random(n) * 10.0
    labels = _predict_labels(m, engagement, reward)
    assert labels.dtype == np.int64
    assert labels.tolist() == scalar_labels(m, engagement, reward)


def test_predict_labels_equal_predict_label_on_a_fitted_model():
    split = train_test_split(generate_synthetic_dataset(2000, seed=7), 0.2, seed=8)
    m = fit_logistic(split.train, FitConfig(max_epochs=300))
    test = split.test
    assert _predict_labels(m, test.engagement, test.reward).tolist() == scalar_labels(m, test.engagement, test.reward)


def test_predict_labels_at_logits_next_to_zero():
    # The logit is the engagement itself here, so the rows walk z through
    # the region where exp(z) rounds to 1 and p is exactly 0.5, and out of it.
    m = RetentionModel(1.0, 0.0, 0.0, (0.0, 0.0), (1.0, 1.0))
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-16, -1e-16, 2.0**-53, -(2.0**-53), 2.0**-54, -(2.0**-54),
             math.nextafter(-(2.0**-54), -1.0), math.nextafter(-(2.0**-53), 0.0), -1e-12,
             math.nextafter(-1e-12, -1.0), -1e-11]
    z = np.concatenate([edges, -np.logspace(-18, -10, 2001), np.logspace(-18, -10, 201)])
    reward = np.zeros_like(z)
    assert logits(m, Dataset(z, reward, np.zeros(len(z), dtype=np.int64))).tolist() == z.tolist()
    assert _predict_labels(m, z, reward).tolist() == scalar_labels(m, z, reward)
    negative = z[z < 0.0].tolist()
    assert any(predict_proba(m, v, 0.0) == 0.5 for v in negative)
    assert any(predict_proba(m, v, 0.0) < 0.5 for v in negative if v > -1e-15)


def test_predict_labels_raise_as_predict_label_on_an_overflowing_logit():
    m = RetentionModel(1e308, 0.0, 0.0, (0.0, 0.0), (1.0, 1.0))
    engagement, reward = np.array([0.5, 10.0, -20.0]), np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError) as scalar:
        scalar_labels(m, engagement, reward)
    with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
        _predict_labels(m, engagement, reward)
