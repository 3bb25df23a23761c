"""Retention prediction pipeline: data generation, fitting, evaluation.

Reproduces the learning-platform case study end to end with no ML library:
a synthetic engagement/reward dataset whose labels follow a linear
criterion, a seeded train/test split, full-batch gradient descent on the
logistic loss (features standardized internally, zero initialization), and
accuracy / confusion-matrix evaluation.

Everything is deterministic: the data seed, split seed, and fit config
reproduce bit-identical datasets, partitions, and weights.

Each epoch of the fit is a short, fixed run of numpy calls on buffers
allocated once per fit; on the default data a fit runs all its epochs, as
the classes are separable and gradient descent never meets its tolerance.
Three of the calls sum, each in an order that the call itself fixes: the
two BLAS gemv products (X @ w and X.T @ residuals, where OpenBLAS fuses
multiplies and adds) and the pairwise np.add.reduce of the residuals.
Those calls keep their form, since no ufunc or Python form gives their
bits. Every other step is elementwise. A single IEEE +, -, * or / rounds
to the same double in Python as in a numpy ufunc, so the gradient is
scaled and the three parameters are updated as Python floats, and the
fitted weights stay the doubles of the original allocating loop
(``tests/test_regression_differential.py`` holds them ==). The stopping
test takes the gradient norm from those Python floats too, and calls no
BLAS routine. The sigmoid keeps np.exp, which need not round as math.exp
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from ._spec import COUNT, FINITE, POSITIVE, POSITIVE_COUNT, UNIT_OPEN, record
from .config import FitConfig
from .models import _sigmoid
from .rng import _permutation, _raw_draws

__all__ = [
    "Dataset",
    "SplitPair",
    "RetentionModel",
    "FitConfig",
    "ConfusionMatrix",
    "FitError",
    "retention_criterion",
    "generate_synthetic_dataset",
    "train_test_split",
    "loss_and_gradient",
    "fit_logistic",
    "predict_proba",
    "predict_label",
    "accuracy",
    "confusion",
]

# Probabilities are clamped to [LOG_EPS, 1 - LOG_EPS] inside log terms only.
LOG_EPS = 1e-12


class FitError(ValueError):
    """Raised when a retention model cannot be fitted to the given data."""


_BOOLS = frozenset((bool, np.bool_))


def _non_number(values) -> str | None:
    """What in a column is not a number ("a bool", or the repr of the first
    such element), or None if every element is one.

    A number is a real, numpy scalars included, and not a bool (numpy would
    store True as 1, parse '0.1' and turn None into nan). A typed array's
    dtype answers without a pass over its elements; a list, a tuple or an
    object array is scanned by type at C speed, and a string or any other
    scalar is looked at alone.
    """
    dtype = getattr(values, "dtype", None)
    if dtype is not None and dtype != object:
        if dtype.kind in "iuf":
            return None
        if dtype.kind == "b":
            return "a bool"
        return repr(values.flat[0].item()) if values.size else f"dtype {dtype}"
    if isinstance(values, (str, bytes)):
        values = (values,)
    try:
        types = set(map(type, values))
    except TypeError:  # not iterable: a scalar
        values = (values,)
        types = {type(values[0])}
    if not _BOOLS.isdisjoint(types):
        return "a bool"
    bad = {t for t in types if not issubclass(t, Real)}
    return repr(next(v for v in values if type(v) in bad)) if bad else None


def _readonly(values, dtype) -> np.ndarray:
    """A read-only copy of values as a dtype array, made in one copy."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of (engagement, reward, retention label).

    Arrays share one length; every column holds numbers (not bools, strings
    or None), features are finite floats and labels are exactly 0 or 1.
    Instances are immutable after construction.
    """

    engagement: np.ndarray
    reward: np.ndarray
    retention: np.ndarray

    def __post_init__(self) -> None:
        for name in ("engagement", "reward", "retention"):
            got = _non_number(getattr(self, name))
            if got is not None:
                raise ValueError(f"{name} must hold numbers, got {got}")
        # Labels are checked as given: the int64 cast would turn 0.7 into 0.
        labels = np.asarray(self.retention)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("retention labels must be 0 or 1")
        e = _readonly(self.engagement, np.float64)
        r = _readonly(self.reward, np.float64)
        y = _readonly(labels, np.int64)
        object.__setattr__(self, "engagement", e)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "retention", y)
        if e.ndim != 1 or e.shape != r.shape or e.shape != y.shape:
            raise ValueError("engagement, reward, retention must be 1-d arrays of equal length")
        if len(e) == 0:
            raise ValueError("dataset must be non-empty")
        if not (np.isfinite(e).all() and np.isfinite(r).all()):
            raise ValueError("feature values must be finite")

    def __len__(self) -> int:
        return len(self.engagement)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.engagement, other.engagement)
            and np.array_equal(self.reward, other.reward)
            and np.array_equal(self.retention, other.retention)
        )

    @property
    def positive_rate(self) -> float:
        """Fraction of rows labeled 1."""
        return float(self.retention.mean())

    def features(self) -> np.ndarray:
        """(n, 2) array of [engagement, reward] columns."""
        return np.column_stack((self.engagement, self.reward))

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.engagement[indices], self.reward[indices], self.retention[indices])


@dataclass(frozen=True, eq=False)
class SplitPair:
    """Disjoint train/test partition of a source dataset, with the source
    row indices that produced each side."""

    train: Dataset
    test: Dataset
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_indices", _readonly(self.train_indices, np.int64))
        object.__setattr__(self, "test_indices", _readonly(self.test_indices, np.int64))


@record
class RetentionModel:
    """Fitted logistic-regression weights plus the feature scaler that the
    weights live in.

    Probabilities are sigmoid(w_engagement * e' + w_reward * r' + bias)
    where e', r' are the standardized features, by the scaler's two
    (engagement, reward) tuples: finite means, stds > 0. epochs_used
    records how many gradient updates the fit applied.
    """

    w_engagement: float = FINITE.field()
    w_reward: float = FINITE.field()
    bias: float = FINITE.field()
    feature_means: tuple[float, float]
    feature_stds: tuple[float, float]
    epochs_used: int = COUNT.field(0)

    def __post_init__(self) -> None:
        for name, spec in (("feature_means", FINITE), ("feature_stds", POSITIVE)):
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"{name} must be a tuple of two numbers, got {pair!r}")
            checked = (spec.check(f"{name}[0]", pair[0]), spec.check(f"{name}[1]", pair[1]))
            if checked[0] is not pair[0] or checked[1] is not pair[1]:
                object.__setattr__(self, name, checked)

    def scale(self, engagement, reward):
        """Map raw features into the model's standardized space."""
        (me, mr), (se, sr) = self.feature_means, self.feature_stds
        return (engagement - me) / se, (reward - mr) / sr


@record
class ConfusionMatrix:
    """2x2 counts with rows = true label, columns = predicted, order (0, 1)."""

    tn: int = COUNT.field()
    fp: int = COUNT.field()
    fn: int = COUNT.field()
    tp: int = COUNT.field()

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


def retention_criterion(engagement: float, reward: float) -> int:
    """Synthetic label rule: 1 iff 0.5*engagement + 0.5*reward > 5.

    Points exactly on the boundary get label 0 (strict inequality). Both
    arguments must be finite numbers; a bool is not one.
    """
    return int(0.5 * FINITE.check("engagement", engagement) + 0.5 * FINITE.check("reward", reward) > 5.0)


def generate_synthetic_dataset(n: int, seed: int) -> Dataset:
    """Draw n samples with engagement ~ U[0,1), reward ~ U[0,10).

    Labels follow :func:`retention_criterion`, which puts the positive class
    on one side of a linear boundary and yields a 5% positive rate in
    expectation. Deterministic given the seed.

    The 2n doubles come by ``rng``'s rule, without ``numpy.random`` where
    it allows: engagement is the first n and reward the next n, as two
    ``make_rng(seed).random(n)`` calls would give them. ``gen-data``
    writes these rows without building them here
    (``cli._synthetic_chunks``), in Python floats and without numpy where
    it can; ``tests/test_gen_data.py`` holds its file equal to this
    dataset's.
    """
    n = POSITIVE_COUNT.check("n", n)
    draws = np.asarray(_raw_draws(seed, 2 * n))
    engagement = draws[:n]
    reward = draws[n:] * 10.0
    retention = (0.5 * engagement + 0.5 * reward > 5.0).astype(np.int64)
    return Dataset(engagement, reward, retention)


def train_test_split(d: Dataset, test_fraction: float, seed: int) -> SplitPair:
    """Seeded uniform split: permute row indices, first round(fraction * N)
    become the test set, the rest the training set."""
    n = len(d)
    if n < 2:
        raise ValueError("dataset must have at least 2 rows to split")
    test_fraction = UNIT_OPEN.check("test_fraction", test_fraction)
    n_test = round(test_fraction * n)
    if n_test < 1 or n_test >= n:
        raise ValueError(
            f"test_fraction {test_fraction} leaves a degenerate split ({n_test} of {n} rows)"
        )
    perm = np.asarray(_permutation(seed, n))
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    return SplitPair(d.subset(train_idx), d.subset(test_idx), train_idx, test_idx)


def _sigmoid_vec(z: np.ndarray, out: np.ndarray, e: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Logistic of z, written into out and returned; allocates nothing.

    Branch-free: with e = exp(-|z|) the result is 1 / (1 + e) where z >= 0
    and e / (1 + e) elsewhere. On every input these are the doubles of the
    masked branch-on-sign form that models.sigmoid writes with math.exp,
    1 / (1 + exp(-z)) or exp(z) / (1 + exp(z)), computed with np.exp: -|z|
    (np.absolute, then np.negative, which only move the sign bit) is -z for
    z >= 0 and z otherwise, -0.0 included (a nan stays nan). Each call is
    elementwise (seven passes, no summation), so nothing here depends on
    BLAS. The masked copy costs little where few z are >= 0, as in the
    fit's mostly negative logits. e (float64) and mask (bool) are
    caller-supplied scratch buffers of z's shape; out may be z itself. out
    is passed positionally where numpy allows it, which parses faster.
    Scalar clamping to the open interval is not needed under the log-eps
    clamp the loss applies.
    """
    np.greater_equal(z, 0.0, mask)
    np.absolute(z, e)
    np.negative(e, e)
    np.exp(e, e)
    np.add(e, 1.0, out)
    np.copyto(e, 1.0, where=mask)
    return np.divide(e, out, out)


def loss_and_gradient(m: RetentionModel, d: Dataset) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its analytic gradient.

    Returns (loss, gradient) where gradient is d(loss)/d(w_engagement,
    w_reward, bias) evaluated on the dataset's standardized features. The
    probabilities inside the log terms are clamped to [1e-12, 1 - 1e-12].
    """
    X = np.column_stack(m.scale(d.engagement, d.reward))
    y = d.retention.astype(np.float64)
    z = X @ np.array([m.w_engagement, m.w_reward]) + m.bias
    p = _sigmoid_vec(z, np.empty_like(z), np.empty_like(z), np.empty(z.shape, dtype=bool))
    pc = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    resid = p - y
    grad = np.array([
        float(np.mean(resid * X[:, 0])),
        float(np.mean(resid * X[:, 1])),
        float(np.mean(resid)),
    ])
    return loss, grad


def fit_logistic(train: Dataset, cfg: FitConfig = FitConfig()) -> RetentionModel:
    """Fit retention weights by full-batch gradient descent.

    Features are standardized to zero mean and unit variance (the scaler is
    stored on the returned model), weights and bias start at zero, and
    updates run until the gradient norm drops below cfg.convergence_tol or
    cfg.max_epochs is reached.

    An epoch allocates nothing: it runs through buffers allocated once per
    fit, with the branch-free :func:`_sigmoid_vec` writing into them. The
    weights are the same doubles as those of the allocating form
    ``p = sigmoid(X @ w + b); g_w = X.T @ (p - y) / n; g_b = mean(p - y)``:

    - the calls that sum keep their form, because their order of summation
      (and OpenBLAS's fused multiply-adds) is part of the result:
      ``np.dot`` for both gemv products (the cblas_dgemv that ``@`` calls,
      with less overhead) and ``np.add.reduce`` for the bias gradient;
    - the 2-element tail is Python floats: ``g_w.tolist()``, then
      ``g0 /= n``, ``w0 -= lr * g0`` and so on, with the weights stored
      back into ``w`` for the next gemv. A single IEEE divide, multiply or
      subtract rounds to the same double in Python as in a numpy ufunc, and
      ``reduce(z).item() / n`` is the double ``np.add.reduce(z) / n`` was.

    The fit stops at the first epoch whose Python-float gradient norm
    ``math.sqrt(g0*g0 + g1*g1 + g_b*g_b)`` is below tol, before its update.

    Raises:
        FitError: if only one class is present or a feature is constant.
    """
    y = train.retention.astype(np.float64)
    if y.min() == y.max():
        raise FitError("training set contains a single class; boundary is undefined")
    raw = train.features()
    means = raw.mean(axis=0)
    stds = raw.std(axis=0)
    if (stds <= 0.0).any():
        raise FitError("a feature is constant; standardization is undefined")
    X = (raw - means) / stds

    # z holds X @ w + b, then the probabilities, then the residuals p - y.
    # w keeps the weights as an array for the gemv; w0, w1 and b are the
    # same doubles as Python floats. g_w holds X.T @ (p - y), which the
    # Python-float tail divides by n.
    n = len(y)
    Xt = X.T
    z, e = np.empty(n), np.empty(n)
    mask = np.empty(n, dtype=bool)
    g_w = np.empty(2)
    w = np.zeros(2)
    w0 = w1 = b = 0.0
    lr, tol = cfg.learning_rate, cfg.convergence_tol
    dot, add, subtract, reduce = np.dot, np.add, np.subtract, np.add.reduce
    sqrt = math.sqrt
    epochs_used = 0
    for _ in range(cfg.max_epochs):
        dot(X, w, z)
        add(z, b, z)
        _sigmoid_vec(z, z, e, mask)
        subtract(z, y, z)
        dot(Xt, z, g_w)
        gw0, gw1 = g_w.tolist()
        gw0 /= n
        gw1 /= n
        g_b = reduce(z).item() / n
        if sqrt(gw0 * gw0 + gw1 * gw1 + g_b * g_b) < tol:
            break
        w0 -= lr * gw0
        w1 -= lr * gw1
        b -= lr * g_b
        w[0] = w0
        w[1] = w1
        epochs_used += 1

    return RetentionModel(
        w_engagement=w0,
        w_reward=w1,
        bias=b,
        feature_means=(float(means[0]), float(means[1])),
        feature_stds=(float(stds[0]), float(stds[1])),
        epochs_used=epochs_used,
    )


def predict_proba(m: RetentionModel, engagement: float, reward: float) -> float:
    """Retention probability for one (engagement, reward) observation."""
    engagement = FINITE.check("engagement", engagement)
    reward = FINITE.check("reward", reward)
    e, r = m.scale(engagement, reward)
    z = m.w_engagement * e + m.w_reward * r + m.bias
    if not math.isfinite(z):
        raise ValueError(f"engagement {engagement!r} and reward {reward!r} overflow the model's logit")
    return _sigmoid(z)


def predict_label(m: RetentionModel, engagement: float, reward: float, threshold: float = 0.5) -> int:
    """Hard 0/1 prediction; probabilities at or above the threshold map to 1."""
    threshold = UNIT_OPEN.check("threshold", threshold)
    return 1 if predict_proba(m, engagement, reward) >= threshold else 0


def _check_paired(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    """Both sequences as arrays, after checking that they are 1-d, equally
    long and not empty, and hold numbers, not bools."""
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.shape != labs.shape or preds.ndim != 1:
        raise ValueError("predictions and labels must be 1-d sequences of equal length")
    if len(preds) == 0:
        raise ValueError("cannot evaluate empty prediction lists")
    # Checked as given: numpy would turn [True, 0.5] into [1.0, 0.5].
    for name, values in (("predictions", predictions), ("labels", labels)):
        got = _non_number(values)
        if got is not None:
            raise ValueError(f"{name} must hold numbers, got {got}")
    return preds, labs


def accuracy(predictions, labels) -> float:
    """Fraction of positions where prediction equals label."""
    preds, labs = _check_paired(predictions, labels)
    return float(np.mean(preds == labs))


def confusion(predictions, labels) -> ConfusionMatrix:
    """Binary confusion counts (rows true, columns predicted, order 0/1).

    Once both sides are checked to hold only 0 and 1, one counting pass over
    the cell index ``2 * label + prediction`` gives tn, fp, fn, tp in order.
    """
    preds, labs = _check_paired(predictions, labels)
    if not (np.isin(preds, (0, 1)).all() and np.isin(labs, (0, 1)).all()):
        raise ValueError("confusion requires binary 0/1 predictions and labels")
    cells = 2 * labs.astype(np.int64) + preds.astype(np.int64)
    tn, fp, fn, tp = np.bincount(cells, minlength=4).tolist()
    return ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)
