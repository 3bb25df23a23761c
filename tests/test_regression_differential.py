"""Differential tests: the gradient-descent fit against its allocating form.

The reference is the epoch loop in its plain form: a loop that builds z, p,
the residuals and the gradient afresh each epoch, with the sigmoid written
1 / (1 + exp(-z)) (exp_sigmoid_vec). fit_logistic runs every epoch through
buffers it allocates once and a Python-float update of the three
parameters, so these tests pin the arithmetic: the fitted models must be
equal (==) to the reference's, not close. Both loops stop on the gradient
norm taken in Python floats (python_norm), which no BLAS call rounds.

The original loop's masked, branch-on-sign sigmoid stays here as a second
reference (reference_sigmoid_vec): the exp form is within a few ulp of it,
so the fit stays within a stated bound of that loop, and on the packaged
default it gives the same weights bit for bit. A last test walks
predict_proba through the logits next to zero, where p meets 0.5.
"""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from engagekit.config import default_config_path, load_config
from engagekit.regression import (
    Dataset,
    FitConfig,
    RetentionModel,
    fit_logistic,
    generate_synthetic_dataset,
    loss_and_gradient,
    predict_proba,
    train_test_split,
)


def exp_sigmoid_vec(z):
    """The fit's sigmoid: exp(-z) overflows to inf below z = -709.78, and p is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def reference_sigmoid_vec(z):
    """The original loop's sigmoid, branching on the sign of z."""
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def python_norm(g_w, g_b):
    """The stopping test's norm: the gradient's squares summed in Python
    floats, in the order g0, g1, g_b."""
    g0, g1 = g_w.tolist()
    return math.sqrt(g0 * g0 + g1 * g1 + g_b * g_b)


def reference_fit(train, cfg, gradients=None, sigmoid=exp_sigmoid_vec):
    """The allocating loop; gradients, if given, collects each epoch's
    (g_w, g_b). With sigmoid=reference_sigmoid_vec it is the original loop."""
    y = train.retention.astype(np.float64)
    raw = train.features()
    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    X = (raw - means) / stds
    w = np.zeros(2)
    b = 0.0
    epochs_used = 0
    for _ in range(cfg.max_epochs):
        p = sigmoid(X @ w + b)
        resid = p - y
        g_w = X.T @ resid / len(y)
        g_b = float(resid.mean())
        if gradients is not None:
            gradients.append((g_w, g_b))
        if python_norm(g_w, g_b) < cfg.convergence_tol:
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
    p = exp_sigmoid_vec(z)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    resid = p - y
    grad = np.array([
        float(np.mean(resid * X[:, 0])),
        float(np.mean(resid * X[:, 1])),
        float(np.mean(resid)),
    ])
    return loss, grad


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
# p is exactly 0 or 1 in both sigmoids (in the fit's one already below
# z = -709.78, where exp(-z) overflows). On separable data that shrinks the gradient to about
# 3e-271, whose squares underflow to 0, so the fit stops too.
STOPS_AT_EPOCH_0 = (OVERLAPPING, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1.0))
STOPS_MID_RUN = (OVERLAPPING, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=0.05))
SATURATES = (OVERLAPPING, FitConfig(learning_rate=3e3, max_epochs=30, convergence_tol=1e-9))
SATURATES_AND_STOPS = (SEPARABLE, FitConfig(learning_rate=1e3, max_epochs=50, convergence_tol=1e-9))
# A larger step saturates every row, so the residuals and the gradient are
# exactly 0.
ZERO_GRADIENT = (SEPARABLE, FitConfig(learning_rate=2e3, max_epochs=50, convergence_tol=1e-9))
# Tolerances whose square underflows (to a subnormal, or to 0) or
# overflows. The stopping test compares the norm with tol itself, so only
# the norm's own squares can underflow or overflow; these pin that the
# fit's loop and the reference agree there too.
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


def original_fit(train, cfg):
    return reference_fit(train, cfg, sigmoid=reference_sigmoid_vec)


def assert_near_the_original_fit(train, cfg):
    """The fit stops within one epoch of the original loop, and its weights
    are within 1e-13 of that loop's, relative to its largest |weight|, once
    both run the same number of epochs."""
    fitted, original = fit_logistic(train, cfg), original_fit(train, cfg)
    assert abs(fitted.epochs_used - original.epochs_used) <= 1
    epochs = min(fitted.epochs_used, original.epochs_used)
    if fitted.epochs_used != original.epochs_used:
        if epochs == 0:
            return  # one of them stopped before its first update
        capped = replace(cfg, max_epochs=epochs)
        fitted, original = fit_logistic(train, capped), original_fit(train, capped)
    got = np.array([fitted.w_engagement, fitted.w_reward, fitted.bias])
    want = np.array([original.w_engagement, original.w_reward, original.bias])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=100, deadline=None)
@given(datasets(), fit_configs)
@example(*STOPS_AT_EPOCH_0)
@example(*STOPS_MID_RUN)
@example(*SATURATES)
@example(*SATURATES_AND_STOPS)
@example(*ZERO_GRADIENT)
def test_fit_is_near_the_original_fit(train, cfg):
    assert_near_the_original_fit(train, cfg)


def test_packaged_default_fit_equals_the_original_fit():
    cfg = load_config(default_config_path())
    data = generate_synthetic_dataset(cfg.case_study.num_samples, cfg.seeds.data)
    train = train_test_split(data, cfg.case_study.test_fraction, cfg.seeds.split).train
    model = fit_logistic(train, cfg.fit)
    assert model == original_fit(train, cfg.fit)
    assert model.epochs_used == cfg.fit.max_epochs


def test_fit_examples_reach_what_they_name():
    assert fit_logistic(*STOPS_AT_EPOCH_0).epochs_used == 0
    assert 0 < fit_logistic(*STOPS_MID_RUN).epochs_used < 400
    assert fit_logistic(*SATURATES).epochs_used == 30
    assert 0 < fit_logistic(*SATURATES_AND_STOPS).epochs_used < 50
    for train, cfg in (SATURATES, SATURATES_AND_STOPS):
        z = logits(fit_logistic(train, cfg), train)
        assert z.min() < -745.2 and z.max() > 745.2
        p = exp_sigmoid_vec(z)
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


def test_stopping_test_is_the_python_float_norm():
    # The fit stops at the first epoch whose Python-float norm is below tol,
    # on any BLAS. At an epoch k whose norm is a new running minimum, a
    # tolerance equal to that norm must let the fit run past k (the test is
    # strict), and the next double up must stop it at k.
    train, cfg = STOPS_MID_RUN[0], FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e-9)
    gradients = []
    reference_fit(train, cfg, gradients)
    norms = [python_norm(g_w, g_b) for g_w, g_b in gradients]
    minima = [k for k in range(len(norms)) if norms[k] < min(norms[:k], default=math.inf)]
    for k in (minima[0], minima[1], minima[len(minima) // 2], minima[-1]):
        at = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=norms[k])
        assert fit_logistic(train, at).epochs_used > k
        above = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=math.nextafter(norms[k], math.inf))
        assert fit_logistic(train, above).epochs_used == k
    # g_w @ g_w runs through BLAS ddot, whose last bit can differ from
    # g0 * g0 + g1 * g1 in Python floats. Where this BLAS gives such an
    # epoch, put the tolerance at the larger of the two norms: the fit stops
    # where the Python-float norm says, one epoch later if that norm is the
    # larger one.
    for epoch, (g_w, g_b) in enumerate(gradients):
        ddot = math.sqrt(g_w @ g_w + g_b * g_b)
        if ddot != norms[epoch]:
            tight = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=max(ddot, norms[epoch]))
            model = fit_logistic(train, tight)
            assert model == reference_fit(train, tight)
            assert model.epochs_used == epoch + (norms[epoch] > ddot)
            break


def test_tolerances_within_ulps_of_the_norm_agree():
    # Put the tolerance within a few ulps of the norm, and a few 1e-13
    # (relative) away from it, at several epochs: every fit must stop where
    # the reference stops.
    train = STOPS_MID_RUN[0]
    gradients = []
    reference_fit(train, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e-9), gradients)
    offsets = [k * 2.0**-53 for k in range(-6, 7)] + [k * 1e-13 for k in (-8, -6, -5, -4, 4, 5, 6, 8)]
    for epoch in (0, 1, 8, 57, 399):
        norm = python_norm(*gradients[epoch])
        for offset in offsets:
            cfg = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=norm * (1.0 + offset))
            assert fit_logistic(train, cfg) == reference_fit(train, cfg), (epoch, offset)


def test_float32_tolerance_compares_as_its_double():
    # FitConfig stores a float32 tolerance as the double it equals, so the
    # stopping test compares the norm with that double. Were the comparison
    # made in float32, the norm would round up to the tolerance at the
    # epoch chosen here and the fit would go on past it.
    train = STOPS_MID_RUN[0]
    gradients = []
    reference_fit(train, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=1e-9), gradients)
    norms = [python_norm(g_w, g_b) for g_w, g_b in gradients]
    # The first epoch whose norm float32 rounds up, by more than 1e-9
    # relative, to a new minimum: the double of that float32 stops the fit
    # there and at no earlier epoch.
    epoch = next(
        i for i in range(1, len(norms))
        if float(np.float32(norms[i])) > norms[i] * (1.0 + 1e-9) and min(norms[:i]) > float(np.float32(norms[i]))
    )
    tol = float(np.float32(norms[epoch]))
    cfg = FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=np.float32(norms[epoch]))
    assert type(cfg.convergence_tol) is float and cfg.convergence_tol == tol
    model = fit_logistic(train, cfg)
    assert model == fit_logistic(train, FitConfig(learning_rate=0.5, max_epochs=400, convergence_tol=tol))
    assert model == reference_fit(train, cfg)
    assert model.epochs_used == epoch


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
    assert_near_the_original_fit(train, FitConfig())


WIDE = np.array([
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 36.0, -36.0, 37.0, -37.0, 709.0, -709.0,
    709.8, -709.8, 745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e300, -1e300, 1e308, -1e308,
    np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny, -np.finfo(float).tiny,
    5e-324, -5e-324, 1e-300, -1e-300, np.inf, -np.inf,
])


def assert_within_ulps_of_the_branch_form(p, z):
    """p is within 4 ulp of the branch form's sigmoid of z, elementwise, or
    both are below the smallest normal double, where the exp form's overflow
    of exp(-z) (z < -709.78) gives 0 in place of the branch form's subnormal."""
    q = reference_sigmoid_vec(z)
    assert p.shape == q.shape and (p >= 0.0).all()
    ulps = np.abs(p.view(np.int64) - q.view(np.int64))  # both >= 0, so their bits order as their values
    assert ((ulps <= 4) | (np.maximum(p, q) < np.finfo(float).tiny)).all()


def exp_sigmoid_warning_nothing(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return exp_sigmoid_vec(z)


def test_exp_sigmoid_is_near_the_branch_form_on_wide_inputs():
    rng = np.random.default_rng(5)
    z = np.concatenate([WIDE] + [rng.standard_normal(100_000) * k for k in (1.0, 40.0, 800.0)])
    assert_within_ulps_of_the_branch_form(exp_sigmoid_warning_nothing(z), z)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 300), elements=st.floats(allow_nan=False)))
def test_exp_sigmoid_is_near_the_branch_form(z):
    assert_within_ulps_of_the_branch_form(exp_sigmoid_warning_nothing(z), z)


def test_exp_sigmoid_at_the_edges():
    p = exp_sigmoid_warning_nothing(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]))
    assert same_bits(p[:4], np.array([0.5, 0.5, 1.0, 0.0]))
    assert np.isnan(p[4:]).all()


def test_saturating_fits_warn_nothing():
    # exp(-z) overflows in the late epochs of these fits and in the loss at
    # the fitted weights; the fit and the loss keep the warning to themselves.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for train, cfg in (SATURATES, SATURATES_AND_STOPS, ZERO_GRADIENT):
            model = fit_logistic(train, cfg)
            assert logits(model, train).min() < -709.8
            loss_and_gradient(model, train)


@settings(max_examples=100, deadline=None)
@given(datasets(), st.tuples(*[st.floats(-50.0, 50.0)] * 3))
def test_loss_and_gradient_equals_reference(d, weights):
    fitted = fit_logistic(d, FitConfig(max_epochs=50))
    for m in (fitted, RetentionModel(*weights, fitted.feature_means, fitted.feature_stds)):
        loss, grad = loss_and_gradient(m, d)
        ref_loss, ref_grad = reference_loss_and_gradient(m, d)
        assert loss == ref_loss
        assert same_bits(grad, ref_grad)


def test_predict_proba_at_logits_next_to_zero():
    # The logit is the engagement itself here, so the rows walk z through
    # the region where exp(z) rounds to 1 and p is exactly 0.5, and out of it.
    m = RetentionModel(1.0, 0.0, 0.0, (0.0, 0.0), (1.0, 1.0))
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-16, -1e-16, 2.0**-53, -(2.0**-53), 2.0**-54, -(2.0**-54),
             math.nextafter(-(2.0**-54), -1.0), math.nextafter(-(2.0**-53), 0.0), -1e-12,
             math.nextafter(-1e-12, -1.0), -1e-11]
    z = np.concatenate([edges, -np.logspace(-18, -10, 2001), np.logspace(-18, -10, 201)])
    reward = np.zeros_like(z)
    assert logits(m, Dataset(z, reward, np.zeros(len(z), dtype=np.int64))).tolist() == z.tolist()
    negative = z[z < 0.0].tolist()
    assert any(predict_proba(m, v, 0.0) == 0.5 for v in negative)
    assert any(predict_proba(m, v, 0.0) < 0.5 for v in negative if v > -1e-15)
