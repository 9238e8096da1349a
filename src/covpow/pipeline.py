"""Supervised selection of the covariance power.

A deterministic full-batch logistic model is trained on vectorized window
covariance powers; the power (and optionally the window) is chosen to
maximize a product-over-sum score of train and validation specificity and
sensitivity, which zeroes out any candidate that cannot demonstrate both
classes. Split bookkeeping tokens make test-set leakage detectable.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .features import FeatureMatrix, LabeledSeries, WindowSpec, _window_covariances
from .spd import SpdStack, _as_array, _blockwise, _element, _power, _require_spd, _upper_rows

__all__ = [
    "SplitSpec",
    "Metrics",
    "LinearClassifier",
    "SelectionResult",
    "s3_score",
    "classification_metrics",
    "vectorize_feature",
    "train_linear_classifier",
    "split_dataset",
    "default_beta_grid",
    "select_beta",
    "evaluate",
]


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not f > 0 for f in fracs):
            raise DomainError(f"every split fraction must be positive, got {fracs}")
        if abs(sum(fracs) - 1) > 1e-9:
            raise DomainError(f"split fractions must sum to 1, got {sum(fracs)}")


@dataclass(frozen=True)
class Metrics:
    """Confusion counts plus derived rates; undefined rates stay None."""

    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: float | None
    specificity: float | None
    accuracy: float
    recall: float | None
    precision: float | None

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        total = tp + fp + tn + fn
        if total < 1:
            raise DomainError("metrics need at least one example")
        sen = tp / (tp + fn) if tp + fn > 0 else None
        spec = tn / (tn + fp) if tn + fp > 0 else None
        prec = tp / (tp + fp) if tp + fp > 0 else None
        return cls(
            tp=tp,
            fp=fp,
            tn=tn,
            fn=fn,
            sensitivity=sen,
            specificity=spec,
            accuracy=(tp + tn) / total,
            recall=sen,
            precision=prec,
        )


def classification_metrics(predictions, labels) -> Metrics:
    pred, lab = np.asarray(predictions), np.asarray(labels)
    if pred.shape != lab.shape or pred.ndim != 1 or pred.size < 1:
        raise DomainError(
            f"predictions and labels must be equal-length nonempty, got {pred.shape} vs {lab.shape}"
        )
    if not all(((a == 0) | (a == 1)).all() for a in (pred, lab)):
        raise DomainError("predictions and labels must be 0/1")
    tn, fp, fn, tp = np.bincount(2 * lab.astype(int) + pred.astype(int), minlength=4).tolist()
    return Metrics.from_counts(tp, fp, tn, fn)


def s3_score(spec_t: float, spec_v: float, sen_t: float, sen_v: float) -> float:
    """4 * product / sum of the four rates; zero-sum input scores 0.

    The arguments are sorted before folding so the result is exactly
    invariant under permutation, not just up to rounding.
    """
    vals = sorted((spec_t, spec_v, sen_t, sen_v))
    for v in vals:
        if not 0 <= v <= 1:
            raise DomainError(f"scores must lie in [0,1], got {v}")
    total = ((vals[0] + vals[1]) + vals[2]) + vals[3]
    if total == 0:
        return 0.0
    prod = ((vals[0] * vals[1]) * vals[2]) * vals[3]
    return 4 * prod / total


def s3_from_metrics(train: Metrics, val: Metrics) -> float:
    """Selection score from two metric sets; undefined rates zero it out."""
    parts = (train.specificity, val.specificity, train.sensitivity, val.sensitivity)
    if any(p is None for p in parts):
        return 0.0
    return s3_score(*parts)


def vectorize_feature(m) -> np.ndarray:
    """Upper-triangle vectorization with sqrt(2) off-diagonal scaling.

    Takes a (k, k) matrix, an (N, k, k) stack, or a wrapper's ``values``
    (SpdMatrix, SpdStack), and gives a vector or an (N, k(k+1)/2) design
    matrix in C order (`spd._upper_rows`), the diagonal first. The Euclidean
    inner product of two vectors equals the Frobenius one of their matrices.
    """
    a = _as_array(m)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    v = _upper_rows(a, diagonal=True)
    v[..., a.shape[-1] :] *= np.sqrt(2.0)
    return v


def _power_rows(stack: SpdStack, beta: float, index) -> np.ndarray:
    """``vectorize_feature(stack.power(beta))[index]``, without the whole power.

    `spd._blockwise` hands over the index a block at a time; each block's
    eigenpairs are gathered, powered by `spd._power` and vectorized, and the
    rows come back in the C order `vectorize_feature` builds. An error names
    window index[i] as ``stack.power`` does.
    """

    def rows(part):
        w, q = stack.eigenvalues[part], stack.eigenvectors[part]
        return (vectorize_feature(_power(w, q, beta, lambda i: _element(part[i]))[0]),)

    return _blockwise(rows, np.asarray(index, dtype=np.intp))[0]


@dataclass(frozen=True)
class LinearClassifier:
    """Logistic model over standardized feature vectors; bias is last."""

    weights: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    dim: int
    seen_tokens: tuple[str, ...]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """0/1 predictions for an (n, dim) design matrix of vectorized features."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DomainError(f"expected an (n, {self.dim}) design matrix, got shape {x.shape}")
        if not len(x):
            raise DomainError("no features to score")
        return (_design(x, self.feature_mean, self.feature_scale) @ self.weights >= 0).astype(int)


def _design(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The rows of x standardized by mean and scale, and a last bias column of 1."""
    z = np.ones((len(x), x.shape[1] + 1))
    np.divide(x - mean, scale, out=z[:, :-1])
    return z


def _labels_from(features: list[FeatureMatrix]) -> np.ndarray:
    if any(f.label is None for f in features):
        raise DomainError("features carry no labels")
    return np.array([f.label for f in features])


def train_linear_classifier(
    x: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-3,
    max_iter: int = 100,
    tol: float = 1e-8,
    seen_tokens: tuple[str, ...] = (),
) -> LinearClassifier:
    """Damped-Newton logistic regression with inverse-frequency class weights.

    Fits a finite (n, d) design matrix of vectorized features to n integer 0/1
    labels. The loss is a weighted mean, so duplicating every example leaves
    the fit unchanged; weights n/(2 n_c) rebalance classes without resampling.
    Deterministic: zero init, full batch, fixed backtracking schedule. The fit
    owns its layout: it reads x in C order, a copy if x is not.
    """
    x, lab = np.ascontiguousarray(x, dtype=float), np.asarray(labels)
    if x.ndim != 2 or lab.shape != (len(x),):
        raise DomainError(f"need one label per design row, got shapes {x.shape} and {lab.shape}")
    if not np.isfinite(x).all():
        raise DomainError("design matrix has non-finite entries")
    if lab.dtype.kind not in "iu" or ((lab | 1) != 1).any():  # some entry is neither 0 nor 1
        raise DomainError("labels must be 0/1")
    if len(lab) < 2:
        raise DomainError("need at least 2 training examples")
    for name, value in (("l2", l2), ("tol", tol)):
        if not 0 <= value < math.inf:  # also rejects NaN
            raise DomainError(f"{name} must be finite and nonnegative, got {value}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    n1 = int(lab.sum())
    n0 = len(lab) - n1
    if n0 == 0 or n1 == 0:
        raise DomainError("training data must contain both classes")

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    z = _design(x, mean, scale)
    y = 2.0 * lab - 1.0
    n = len(lab)
    sample_w = np.where(lab == 1, n / (2 * n1), n / (2 * n0))

    d = z.shape[1]
    reg = np.full(d, l2)
    reg[-1] = 0.0  # bias is not penalized
    hess_diag = reg + 1e-12
    w = np.zeros(d)

    def loss_grad(w):
        """Loss and gradient at w, and the per-sample weights of its Hessian."""
        margins = y * (z @ w)
        # log(1+exp(-m)) via logaddexp for overflow safety
        loss = float((sample_w * np.logaddexp(0.0, -margins)).sum() / n)
        loss += 0.5 * float(reg @ (w * w))
        p = 1.0 / (1.0 + np.exp(margins.clip(-500, 500)))
        grad = -(z.T @ (sample_w * p * y)) / n + reg * w
        return loss, grad, sample_w * p * (1.0 - p)

    loss, grad, curv = loss_grad(w)
    u = np.empty_like(z)  # one buffer for every step's sqrt(curvature)-scaled design
    for _ in range(max_iter):
        if math.sqrt(grad @ grad) <= tol:
            break
        # the Hessian only at a point that takes a step; u.T @ u is one
        # symmetric rank-k update, half a general product and exactly symmetric
        np.multiply(z, np.sqrt(curv)[:, None], out=u)
        hess = u.T @ u / n
        hess.ravel()[:: d + 1] += hess_diag
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"newton step failed: {exc}") from exc
        t = 1.0
        for _ in range(40):
            cand = w - t * step
            new_loss, new_grad, new_curv = loss_grad(cand)
            if new_loss <= loss - 1e-4 * t * float(grad @ step):
                stalled = new_loss >= loss
                w, loss, grad, curv = cand, new_loss, new_grad, new_curv
                break
            t /= 2
        else:
            break  # no descent direction left; accept current point
        if stalled:
            break  # the step left the loss where it was; at tol=0 the rest would too

    return LinearClassifier(
        weights=w,
        feature_mean=mean,
        feature_scale=scale,
        dim=x.shape[1],
        seen_tokens=tuple(seen_tokens),
    )


@dataclass(frozen=True)
class FeatureSplit:
    train_token: str
    val_token: str
    test_token: str
    train_idx: tuple[int, ...]
    val_idx: tuple[int, ...]
    test_idx: tuple[int, ...]


def _token(seed: int, role: str, indices) -> str:
    core = f"{seed}|{role}|{','.join(str(i) for i in indices)}"
    return hashlib.sha1(core.encode()).hexdigest()


def split_dataset(items: list, labels, split: SplitSpec) -> FeatureSplit:
    """Deterministic (optionally stratified) three-way split with tokens."""
    lab = np.asarray(labels)
    if lab.shape != (len(items),):
        raise DomainError("labels must match items")
    if not np.isin(lab, (0, 1)).all():
        raise DomainError("labels must be 0/1")
    rng = np.random.default_rng(split.seed)
    groups = [np.flatnonzero(lab == c) for c in (0, 1)] if split.stratified else [np.arange(len(items))]
    train_idx, val_idx, test_idx = [], [], []
    for idx in groups:
        if idx.size == 0:
            continue
        perm = rng.permutation(idx)
        n = perm.size
        n_train = int(round(split.train_frac * n))
        n_val = int(round(split.val_frac * n))
        n_train = min(n_train, n)
        n_val = min(n_val, n - n_train)
        train_idx.extend(perm[:n_train])
        val_idx.extend(perm[n_train : n_train + n_val])
        test_idx.extend(perm[n_train + n_val :])
    train_idx = tuple(sorted(int(i) for i in train_idx))
    val_idx = tuple(sorted(int(i) for i in val_idx))
    test_idx = tuple(sorted(int(i) for i in test_idx))
    return FeatureSplit(
        train_token=_token(split.seed, "train", train_idx),
        val_token=_token(split.seed, "val", val_idx),
        test_token=_token(split.seed, "test", test_idx),
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
    )


def default_beta_grid() -> list[float]:
    """33 uniform points on [-4, 4] with the zero power dropped."""
    grid = np.linspace(-4.0, 4.0, 33)
    return [float(b) for b in grid if b != 0.0]


@dataclass(frozen=True)
class SelectionResult:
    beta_star: float
    s3: float
    per_beta_table: list[dict]
    window_spec_star: WindowSpec
    classifier: LinearClassifier


def select_beta(
    dataset: LabeledSeries,
    beta_grid=None,
    window_grid=None,
    split: SplitSpec | None = None,
    l2: float = 1e-3,
    max_iter: int = 100,
    tol: float = 1e-8,
    ridge: float | None = None,
) -> SelectionResult:
    """Grid-search the covariance power (and window) on a train/val split.

    Window covariances are estimated and factored once per window spec, as
    one SPD stack. Each power's lambda_min is checked on every window of the
    stack, the test windows included: a power that is not positive definite
    on some window, even a test window, scores 0, carries an "error" in its
    table row and is never selected. Design rows are built a block of
    windows at a time, for the train and validation windows only; the
    classifier is fitted on the train rows and scored on the train and
    validation rows. The test windows are checked but get no rows, their
    labels go unused, and the test token is withheld from the result on
    purpose.
    """
    return _select_beta(
        dataset, beta_grid, window_grid, split, l2, max_iter, tol, ridge
    )[0]


def _select_beta(
    dataset,
    beta_grid=None,
    window_grid=None,
    split=None,
    l2=1e-3,
    max_iter=100,
    tol=1e-8,
    ridge=None,
):
    """select_beta, plus the window labels and SPD stack of the selected window spec."""
    if beta_grid is None:
        beta_grid = default_beta_grid()
    beta_grid = [float(b) for b in beta_grid]
    if not beta_grid:
        raise DomainError("beta grid is empty")
    if any(b == 0 or not np.isfinite(b) for b in beta_grid):
        raise DomainError("beta grid must contain finite nonzero values")
    if window_grid is None:
        window_grid = [WindowSpec(length=64, overlap=0.75)]
    if not window_grid:
        raise DomainError("window grid is empty")
    if split is None:
        split = SplitSpec(train_frac=0.6, val_frac=0.2, test_frac=0.2, seed=0)

    table: list[dict] = []
    best = None  # (key, row, classifier, window spec, labels, stack)
    first_error = None
    for wspec in window_grid:
        _, labels, stack = _window_covariances(dataset, wspec, ridge)
        if labels.min() == labels.max():
            raise DomainError("windowed dataset contains a single class")
        parts = split_dataset(list(range(len(labels))), labels, split)
        if not parts.train_idx or not parts.val_idx:
            raise DomainError("degenerate split: empty train or validation part")
        # the train then validation windows, the only ones that get design rows
        fit = np.array([*parts.train_idx, *parts.val_idx])
        n_train, y = len(parts.train_idx), labels[fit]
        for beta in beta_grid:
            row = {
                "beta": beta,
                "window_length": wspec.length,
                "window_overlap": wspec.overlap,
            }
            table.append(row)
            try:
                # every window, the test windows included, as stack.power(beta) checks it
                with np.errstate(over="ignore"):  # `_require_spd` names an overflow
                    _require_spd(stack.eigenvalues**beta)
                x = _power_rows(stack, beta, fit)
            except DomainError as exc:
                row.update(s3=0.0, train=None, val=None, error=str(exc))
                first_error = first_error or f"beta {beta} on {wspec}: {exc}"
                continue
            clf = train_linear_classifier(
                x[:n_train],
                y[:n_train],
                l2,
                max_iter,
                tol,
                seen_tokens=(parts.train_token, parts.val_token),
            )
            m_train = classification_metrics(clf.predict(x[:n_train]), y[:n_train])
            m_val = classification_metrics(clf.predict(x[n_train:]), y[n_train:])
            s3 = s3_from_metrics(m_train, m_val)
            row.update(s3=s3, train=metrics_to_dict(m_train), val=metrics_to_dict(m_val))
            key = (-s3, abs(beta), len(table))
            if best is None or key < best[0]:
                best = (key, row, clf, wspec, labels, stack)

    if best is None:
        raise DomainError(f"every power on the grid failed; the first was {first_error}")
    _, row, clf, wspec, labels, stack = best
    result = SelectionResult(
        beta_star=row["beta"],
        s3=row["s3"],
        per_beta_table=table,
        window_spec_star=wspec,
        classifier=clf,
    )
    return result, labels, stack


def evaluate(classifier: LinearClassifier, features: list[FeatureMatrix], token: str | None = None) -> Metrics:
    """Held-out metrics; refuses data whose token was visible in training."""
    _refuse_leak(classifier, token)
    x = np.array([vectorize_feature(f.matrix) for f in features])
    return _evaluate(classifier, x, _labels_from(features))


def _refuse_leak(classifier: LinearClassifier, token: str | None) -> None:
    if token is not None and token in classifier.seen_tokens:
        raise ConfigError(
            "split leak: this data split was visible during training/selection"
        )


def _evaluate(classifier: LinearClassifier, x: np.ndarray, labels, token: str | None = None) -> Metrics:
    """evaluate on a design matrix of vectorized features and their 0/1 labels."""
    _refuse_leak(classifier, token)
    if not len(labels):
        raise DomainError("test set is empty")
    return classification_metrics(classifier.predict(x), labels)


# ---------------------------------------------------------------------------
# serialization


def metrics_to_dict(m: Metrics) -> dict:
    return asdict(m)


def selection_to_dict(result: SelectionResult) -> dict:
    wspec = result.window_spec_star
    return {
        "beta_star": result.beta_star,
        "s3": result.s3,
        "window_length": wspec.length,
        "window_overlap": wspec.overlap,
        "per_beta_table": result.per_beta_table,
        "classifier": classifier_to_dict(result.classifier),
    }


def classifier_to_dict(clf: LinearClassifier) -> dict:
    return {
        "weights": [float(v) for v in clf.weights],
        "feature_mean": [float(v) for v in clf.feature_mean],
        "feature_scale": [float(v) for v in clf.feature_scale],
        "dim": clf.dim,
        "seen_tokens": list(clf.seen_tokens),
    }


def classifier_from_dict(rec: dict) -> LinearClassifier:
    return LinearClassifier(
        weights=np.asarray(rec["weights"], dtype=float),
        feature_mean=np.asarray(rec["feature_mean"], dtype=float),
        feature_scale=np.asarray(rec["feature_scale"], dtype=float),
        dim=int(rec["dim"]),
        seen_tokens=tuple(rec["seen_tokens"]),
    )


def write_selection_csv(result: SelectionResult, path) -> None:
    cols = [
        "beta",
        "window_length",
        "window_overlap",
        "s3",
        "train_sensitivity",
        "train_specificity",
        "train_accuracy",
        "val_sensitivity",
        "val_specificity",
        "val_accuracy",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in result.per_beta_table:
            flat = [
                repr(row["beta"]),
                row["window_length"],
                repr(row["window_overlap"]),
                repr(row["s3"]),
            ]
            for part in ("train", "val"):
                for key in ("sensitivity", "specificity", "accuracy"):
                    v = None if row[part] is None else row[part][key]
                    flat.append("" if v is None else repr(v))
            writer.writerow(flat)
