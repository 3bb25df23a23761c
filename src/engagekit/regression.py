"""Retention prediction pipeline: data generation, fitting, evaluation.

Reproduces the learning-platform case study end to end with no ML library:
a synthetic engagement/reward dataset whose labels follow a linear
criterion, a seeded train/test split, full-batch gradient descent on the
logistic loss (features standardized internally, zero initialization), and
accuracy / confusion-matrix evaluation.

Everything is deterministic: the data seed, split seed, and fit config
reproduce bit-identical datasets, partitions, and weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._spec import COUNT, FINITE, POSITIVE, POSITIVE_COUNT, UNIT_OPEN, check_fields
from .config import FitConfig
from .models import _finite, _sigmoid
from .rng import make_rng

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


def _holds_bools(values) -> bool:
    """Whether a column is, or holds, a bool (numpy would store it as 1).

    A numeric array's dtype answers without a pass over its elements; a
    list, a tuple or an object array is scanned, by type alone.
    """
    dtype = getattr(values, "dtype", None)
    if dtype is not None and dtype != object:
        return dtype == np.bool_
    try:
        return not _BOOLS.isdisjoint(map(type, values))
    except TypeError:  # not iterable: a scalar
        return type(values) in _BOOLS


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of (engagement, reward, retention label).

    Arrays share one length; features are finite floats, labels are exactly
    0 or 1, and no column holds a bool. Instances are immutable after
    construction.
    """

    engagement: np.ndarray
    reward: np.ndarray
    retention: np.ndarray

    def __post_init__(self) -> None:
        for name in ("engagement", "reward", "retention"):
            if _holds_bools(getattr(self, name)):
                raise ValueError(f"{name} must hold numbers, got a bool")
        # Labels are checked as given: the int64 cast would turn 0.7 into 0.
        labels = np.asarray(self.retention)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("retention labels must be 0 or 1")
        e = _readonly(np.asarray(self.engagement, dtype=np.float64))
        r = _readonly(np.asarray(self.reward, dtype=np.float64))
        y = _readonly(np.asarray(labels, dtype=np.int64))
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
        object.__setattr__(self, "train_indices", _readonly(np.asarray(self.train_indices, dtype=np.int64)))
        object.__setattr__(self, "test_indices", _readonly(np.asarray(self.test_indices, dtype=np.int64)))


@dataclass(frozen=True)
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
        check_fields(self)
        for name, spec in (("feature_means", FINITE), ("feature_stds", POSITIVE)):
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"{name} must be a tuple of two numbers, got {pair!r}")
            spec.check(f"{name}[0]", pair[0])
            spec.check(f"{name}[1]", pair[1])

    def scale(self, engagement, reward):
        """Map raw features into the model's standardized space."""
        (me, mr), (se, sr) = self.feature_means, self.feature_stds
        return (engagement - me) / se, (reward - mr) / sr


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts with rows = true label, columns = predicted, order (0, 1)."""

    tn: int = COUNT.field()
    fp: int = COUNT.field()
    fn: int = COUNT.field()
    tp: int = COUNT.field()

    __post_init__ = check_fields

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


def retention_criterion(engagement: float, reward: float) -> int:
    """Synthetic label rule: 1 iff 0.5*engagement + 0.5*reward > 5.

    Points exactly on the boundary get label 0 (strict inequality). Both
    arguments must be finite numbers; a bool is not one.
    """
    return int(0.5 * _finite("engagement", engagement) + 0.5 * _finite("reward", reward) > 5.0)


def generate_synthetic_dataset(n: int, seed: int) -> Dataset:
    """Draw n samples with engagement ~ U[0,1), reward ~ U[0,10).

    Labels follow :func:`retention_criterion`, which puts the positive class
    on one side of a linear boundary and yields a 5% positive rate in
    expectation. Deterministic given the seed.
    """
    POSITIVE_COUNT.check("n", n)
    rng = make_rng(seed)
    engagement = rng.random(n)
    reward = rng.random(n) * 10.0
    retention = (0.5 * engagement + 0.5 * reward > 5.0).astype(np.int64)
    return Dataset(engagement, reward, retention)


def train_test_split(d: Dataset, test_fraction: float, seed: int) -> SplitPair:
    """Seeded uniform split: permute row indices, first round(fraction * N)
    become the test set, the rest the training set."""
    n = len(d)
    if n < 2:
        raise ValueError("dataset must have at least 2 rows to split")
    UNIT_OPEN.check("test_fraction", test_fraction)
    n_test = round(test_fraction * n)
    if n_test < 1 or n_test >= n:
        raise ValueError(
            f"test_fraction {test_fraction} leaves a degenerate split ({n_test} of {n} rows)"
        )
    perm = make_rng(seed).permutation(n)
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    return SplitPair(d.subset(train_idx), d.subset(test_idx), train_idx, test_idx)


def _sigmoid_vec(z: np.ndarray, out: np.ndarray, e: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Logistic of z, written into out and returned; allocates nothing.

    Branch-free: with e = exp(-|z|) the result is 1 / (1 + e) where z >= 0
    and e / (1 + e) elsewhere. On every input these are the doubles of the
    masked branch-on-sign form that models.sigmoid writes with math.exp,
    1 / (1 + exp(-z)) or exp(z) / (1 + exp(z)), computed with np.exp: -|z|
    is -z for z >= 0 and z otherwise. e (float64) and mask (bool) are
    caller-supplied scratch buffers of z's shape; out may be z itself.
    Scalar clamping to the open interval is not needed under the log-eps
    clamp the loss applies.
    """
    np.greater_equal(z, 0.0, out=mask)
    np.copysign(z, -1.0, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=out)
    np.copyto(e, 1.0, where=mask)
    return np.divide(e, out, out=out)


def _scaled_design(m: RetentionModel, d: Dataset) -> np.ndarray:
    e, r = m.scale(d.engagement, d.reward)
    return np.column_stack((e, r))


def loss_and_gradient(m: RetentionModel, d: Dataset) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its analytic gradient.

    Returns (loss, gradient) where gradient is d(loss)/d(w_engagement,
    w_reward, bias) evaluated on the dataset's standardized features. The
    probabilities inside the log terms are clamped to [1e-12, 1 - 1e-12].
    """
    X = _scaled_design(m, d)
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
    iterates are the same doubles as those of the allocating form
    ``p = sigmoid(X @ w + b); g_w = X.T @ (p - y) / n; g_b = mean(p - y)``.

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
    # The same matmul calls as the allocating form, with out= added;
    # np.add.reduce(z) / n is the double z.mean() returns, without its
    # overhead.
    n = len(y)
    Xt = X.T
    z, e = np.empty(n), np.empty(n)
    mask = np.empty(n, dtype=bool)
    g_w = np.empty(2)
    w = np.zeros(2)
    b = 0.0
    lr = cfg.learning_rate
    epochs_used = 0
    for _ in range(cfg.max_epochs):
        np.matmul(X, w, out=z)
        z += b
        _sigmoid_vec(z, z, e, mask)
        z -= y
        np.matmul(Xt, z, out=g_w)
        g_w /= n
        g_b = float(np.add.reduce(z) / n)
        if math.sqrt(g_w @ g_w + g_b * g_b) < cfg.convergence_tol:
            break
        g_w *= lr
        w -= g_w
        b -= lr * g_b
        epochs_used += 1

    return RetentionModel(
        w_engagement=float(w[0]),
        w_reward=float(w[1]),
        bias=b,
        feature_means=(float(means[0]), float(means[1])),
        feature_stds=(float(stds[0]), float(stds[1])),
        epochs_used=epochs_used,
    )


def predict_proba(m: RetentionModel, engagement: float, reward: float) -> float:
    """Retention probability for one (engagement, reward) observation."""
    engagement = _finite("engagement", engagement)
    reward = _finite("reward", reward)
    e, r = m.scale(engagement, reward)
    z = m.w_engagement * e + m.w_reward * r + m.bias
    if not math.isfinite(z):
        raise ValueError(f"engagement {engagement!r} and reward {reward!r} overflow the model's logit")
    return _sigmoid(z)


def predict_label(m: RetentionModel, engagement: float, reward: float, threshold: float = 0.5) -> int:
    """Hard 0/1 prediction; probabilities at or above the threshold map to 1."""
    UNIT_OPEN.check("threshold", threshold)
    return 1 if predict_proba(m, engagement, reward) >= threshold else 0


def _check_paired(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.shape != labs.shape or preds.ndim != 1:
        raise ValueError("predictions and labels must be 1-d sequences of equal length")
    if len(preds) == 0:
        raise ValueError("cannot evaluate empty prediction lists")
    return preds, labs


def accuracy(predictions, labels) -> float:
    """Fraction of positions where prediction equals label."""
    preds, labs = _check_paired(predictions, labels)
    return float(np.mean(preds == labs))


def confusion(predictions, labels) -> ConfusionMatrix:
    """Binary confusion counts (rows true, columns predicted, order 0/1)."""
    preds, labs = _check_paired(predictions, labels)
    if not (np.isin(preds, (0, 1)).all() and np.isin(labs, (0, 1)).all()):
        raise ValueError("confusion requires binary 0/1 predictions and labels")
    return ConfusionMatrix(
        tn=int(np.sum((labs == 0) & (preds == 0))),
        fp=int(np.sum((labs == 0) & (preds == 1))),
        fn=int(np.sum((labs == 1) & (preds == 0))),
        tp=int(np.sum((labs == 1) & (preds == 1))),
    )
