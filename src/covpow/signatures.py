"""Structural signatures from thresholded feature-matrix magnitudes.

Off-diagonal entry magnitudes of a recovered operator split into a low
cluster (non-edges plus leakage) and a high cluster (true edges). A
two-component 1D Gaussian mixture locates the split and the density
crossing between its means becomes the edge threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spd import _upper_rows

__all__ = [
    "GmmFit",
    "SupportMetrics",
    "ClassSignature",
    "fit_gmm_1d",
    "gmm_threshold",
    "extract_signature",
    "signature_from_matrix",
    "class_signatures",
    "support_recovery_metrics",
]


@dataclass(frozen=True)
class GmmFit:
    """Two-component 1D mixture, components sorted by mean."""

    weights: tuple[float, float]
    means: tuple[float, float]
    variances: tuple[float, float]
    log_likelihood: float
    iterations: int
    converged: bool
    ll_trace: tuple[float, ...]

    def __post_init__(self) -> None:
        if abs(sum(self.weights) - 1) > 1e-9:
            raise DomainError(f"mixture weights must sum to 1, got {self.weights}")
        if any(not 0 < w < 1 for w in self.weights):
            raise DomainError(f"mixture weights must lie in (0,1), got {self.weights}")
        if any(v <= 0 for v in self.variances):
            raise DomainError(f"variances must be positive, got {self.variances}")
        if self.means[0] > self.means[1]:
            raise DomainError("components must be sorted by mean")


def _log_normal_pdf(x: np.ndarray, mean, var) -> np.ndarray:
    return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)


def fit_gmm_1d(
    values, max_iter: int = 200, tol: float = 1e-8, seed: int = 0
) -> GmmFit:
    """EM fit of a two-component mixture to nonnegative scalars.

    Seeding picks the first center uniformly and the second proportional to
    squared distance from it. The M-step clips variances at 1e-8 * var(data),
    a constrained maximization, so the log-likelihood stays non-decreasing.
    """
    x = np.asarray(values, dtype=float).reshape(1, -1)
    _check_rows(x, [""])
    return _fit_gmm_rows(x, max_iter, tol, seed)[0]


def _check_rows(x: np.ndarray, names: list[str]) -> None:
    """Raise DomainError for the first row EM cannot fit, prefixed by its name."""
    if x.shape[1] < 4:
        raise DomainError(f"need at least 4 values, got {x.shape[1]}")
    bad = ~np.isfinite(x).all(axis=1) | (x < 0).any(axis=1)
    message = "values must be finite and nonnegative"
    if not bad.any():
        spread = np.ptp(x, axis=1)
        bad, message = spread == 0, "values have zero spread; nothing to separate"
    if not bad.any():  # EM sums up to n squared deviations, each at most spread^2
        with np.errstate(over="ignore", under="ignore"):
            square = spread**2
            bad = ~((square >= np.finfo(float).tiny) & (square * x.shape[1] < np.inf))
        message = "squared spread of the values overflows or underflows; rescale them"
    if bad.any():
        name = names[int(np.argmax(bad))]
        raise DomainError(f"{name}: {message}" if name else message)


def _seed_means(x: np.ndarray, seed: int) -> np.ndarray:
    """(B, 2) D^2-sampled starting means of the rows of a contiguous (B, n) array.

    A lone row draws from its own default_rng(seed): integers(n) picks the
    first center, and Generator.choice(n, p=dist2 / dist2.sum()) the second,
    as the searchsorted(side="right") of one random() in the normalized
    cumulative sum of p. All rows share seed and n, so they share both draws,
    and the count of cumulative entries <= u is that searchsorted.
    """
    rng = np.random.default_rng(seed)
    first = x[:, rng.integers(x.shape[1])]
    dist2 = (x - first[:, None]) ** 2
    cdf = (dist2 / dist2.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    second = (cdf <= rng.random()).sum(axis=1)
    return np.column_stack([first, x[np.arange(len(x)), second]])


def _fit_gmm_rows(x: np.ndarray, max_iter: int, tol: float, seed: int) -> list[GmmFit]:
    """fit_gmm_1d of each row of a checked (B, n) array, in one EM loop.

    Each row is seeded as a lone fit is and runs the same elementwise
    recurrences; the M-step's weighted sums are batched matmuls, which add in
    the order a lone fit does. A row leaves the loop when it converges,
    keeping its own iterates, so row i equals fit_gmm_1d(x[i]) bit for bit.
    The fit owns its layout: it reads x in C order, a copy if x is not.
    """
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise DomainError(f"tol must be finite and nonnegative, got {tol}")
    x = np.ascontiguousarray(x)  # reductions along a row then add as for one row
    rows = len(x)
    means, var = _seed_means(x, seed), x.var(axis=1, keepdims=True)
    floor = 1e-8 * var
    variances = np.maximum(var, floor).repeat(2, axis=1)
    weights = np.full((rows, 2), 0.5)

    # rows still iterating, and what each row leaves the loop with
    live, prev = np.arange(rows), np.full(rows, np.nan)
    final, trace = np.empty((3, rows, 2)), np.empty((rows, max_iter))
    iterations, converged = np.empty(rows, int), np.zeros(rows, bool)
    for it in range(1, max_iter + 1):
        # E-step in log space
        log_comp = np.log(weights)[:, :, None] + _log_normal_pdf(
            x[:, None, :], means[:, :, None], variances[:, :, None]
        )
        log_mix = np.logaddexp(log_comp[:, 0], log_comp[:, 1])
        resp = np.exp(log_comp - log_mix[:, None, :])
        ll = log_mix.sum(axis=1)
        # M-step with floors
        counts = np.maximum(resp.sum(axis=2), 1e-12)
        weights = counts / counts.sum(axis=1, keepdims=True)
        weights = np.clip(weights, 1e-12, 1 - 1e-12)
        weights = weights / weights.sum(axis=1, keepdims=True)
        means = (resp @ x[:, :, None])[:, :, 0] / counts
        dev2 = (x[:, None, :] - means[:, :, None]) ** 2
        variances = np.maximum((resp[:, :, None, :] @ dev2[..., None])[:, :, 0, 0] / counts, floor)
        trace[live, it - 1] = ll
        done = np.abs(ll - prev) <= tol * np.maximum(1.0, np.abs(ll))  # False on the first pass
        leave = done | (it == max_iter)
        if leave.any():
            out = live[leave]
            final[:, out] = weights[leave], means[leave], variances[leave]
            iterations[out], converged[out] = it, done[leave]
            live, x, floor, weights, means, variances, ll = (
                a[~leave] for a in (live, x, floor, weights, means, variances, ll)
            )
            if not live.size:
                break
        prev = ll

    order = np.argsort(final[1], axis=1, kind="stable")
    weights, means, variances = (np.take_along_axis(a, order, axis=1).tolist() for a in final)
    return [
        GmmFit(tuple(w), tuple(m), tuple(v), float(t[n - 1]), n, c, tuple(t[:n].tolist()))
        for w, m, v, t, n, c in zip(
            weights, means, variances, trace, iterations.tolist(), converged.tolist()
        )
    ]


def gmm_threshold(fit: GmmFit) -> float:
    """Point between the means where the weighted densities cross.

    Smallest crossing inside the open interval between the means; midpoint
    when the densities never cross there (possible with extreme weights).
    """
    (w1, w2), (m1, m2), (v1, v2) = fit.weights, fit.means, fit.variances
    if m1 == m2:
        raise DomainError("components have equal means; no threshold exists")
    if w1 == w2 and v1 == v2:
        return (m1 + m2) / 2
    # log w1 N(x|m1,v1) = log w2 N(x|m2,v2) as a quadratic in x
    a_coef = 0.5 / v1
    b_coef = 0.5 / v2
    k1 = math.log(w1) - 0.5 * math.log(2 * math.pi * v1)
    k2 = math.log(w2) - 0.5 * math.log(2 * math.pi * v2)
    quad = b_coef - a_coef
    lin = 2 * (a_coef * m1 - b_coef * m2)
    const = b_coef * m2**2 - a_coef * m1**2 + k1 - k2
    scale = max(abs(quad), abs(lin), abs(const), 1.0)
    roots = []
    if abs(quad) <= 1e-14 * scale:
        if lin != 0:
            roots = [-const / lin]
    else:
        disc = lin**2 - 4 * quad * const
        if disc >= 0:
            sq = math.sqrt(disc)
            roots = [(-lin - sq) / (2 * quad), (-lin + sq) / (2 * quad)]
    inside = sorted(r for r in roots if m1 < r < m2)
    if inside:
        return float(inside[0])
    return (m1 + m2) / 2


def offdiag_magnitudes(matrix) -> np.ndarray:
    """Strict upper triangle of |(A + A^T)/2|, the GMM's input; for a stack, one C-ordered
    row per matrix (`spd._upper_rows`), the layout `_fit_gmm_rows` reads without a copy."""
    a = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] < 2:
        raise DomainError(f"need a square matrix of dim >= 2, got shape {a.shape}")
    return _upper_rows(np.abs((a + np.swapaxes(a, -1, -2)) / 2), diagonal=False)


def extract_signature(feature, threshold: float) -> np.ndarray:
    """Binary adjacency: edge (i,j) iff |F_ij| >= threshold, i != j."""
    if threshold < 0:
        raise DomainError(f"threshold must be nonnegative, got {threshold}")
    mat = getattr(feature, "matrix", feature)
    a = np.asarray(getattr(mat, "values", mat), dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"need a square matrix, got shape {a.shape}")
    mag = np.abs((a + a.T) / 2)
    adj = (mag >= threshold).astype(int)
    np.fill_diagonal(adj, 0)
    return adj


def signature_from_matrix(
    matrix, max_iter: int = 200, tol: float = 1e-8, seed: int = 0
) -> tuple[np.ndarray, float, GmmFit]:
    """GMM-thresholded signature of one matrix: (adjacency, threshold, fit)."""
    fit = fit_gmm_1d(offdiag_magnitudes(matrix), max_iter=max_iter, tol=tol, seed=seed)
    threshold = gmm_threshold(fit)
    return extract_signature(matrix, threshold), threshold, fit


@dataclass(frozen=True)
class ClassSignature:
    label: int
    adjacency: np.ndarray
    threshold: float
    fit: GmmFit | None
    n_matrices: int


def class_signatures(
    matrices,
    labels,
    mode: str = "class-mean",
    max_iter: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
) -> dict[int, ClassSignature]:
    """Per-class structural signature of an (N, k, k) array of labeled matrices.

    class-mean (default): one GMM on the class-mean matrix. per-matrix: a GMM
    per matrix, class adjacency by per-edge majority vote (ties count as
    present), threshold reported as the per-matrix mean. Either way every
    GMM runs in one batched EM loop, and a matrix it cannot fit is named by
    its class (and, per matrix, its index in ``matrices``).
    """
    if mode not in ("class-mean", "per-matrix"):
        raise DomainError(f"unknown mode {mode!r}")
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or len(labels) != len(mats):
        raise DomainError(f"need an (N, k, k) array and N labels, got {mats.shape}, {len(labels)}")
    if any(c is None for c in labels):
        raise DomainError("every feature needs a class label")
    if not np.isin(labels, (0, 1)).all():
        raise DomainError("labels must be 0/1")
    lab = np.asarray(labels, dtype=int)
    classes = sorted(set(lab.tolist()))
    if mode == "class-mean":
        means = [np.mean(mats[lab == label], axis=0) for label in classes]
        mats, names = np.reshape(means, (-1, *mats.shape[1:])), [f"class {c}" for c in classes]
    else:
        names = [f"class {c}, matrix {i}" for i, c in enumerate(lab.tolist())]
    x = offdiag_magnitudes(mats)
    _check_rows(x, names)
    fits = _fit_gmm_rows(x, max_iter, tol, seed)
    thresholds = np.array([gmm_threshold(fit) for fit in fits])
    edges = np.abs((mats + mats.transpose(0, 2, 1)) / 2) >= thresholds[:, None, None]
    out = {}
    for j, label in enumerate(classes):
        in_class = lab == label
        if mode == "class-mean":
            adj, threshold, fit = edges[j].astype(int), float(thresholds[j]), fits[j]
        else:
            adj = (2 * edges[in_class].sum(axis=0) >= in_class.sum()).astype(int)
            threshold, fit = float(np.mean(thresholds[in_class])), None
        np.fill_diagonal(adj, 0)
        out[label] = ClassSignature(
            label=label, adjacency=adj, threshold=threshold, fit=fit, n_matrices=int(in_class.sum())
        )
    return out


@dataclass(frozen=True)
class SupportMetrics:
    precision: float | None
    recall: float | None
    f1: float | None
    hamming: float


def support_recovery_metrics(est_adj, true_adj) -> SupportMetrics:
    """Edge-set agreement over off-diagonal pairs; nonzero counts as an edge."""
    est = np.asarray(est_adj)
    true = np.asarray(true_adj)
    if est.shape != true.shape or est.ndim != 2 or est.shape[0] != est.shape[1]:
        raise DomainError(f"adjacency shapes differ: {est.shape} vs {true.shape}")
    n = est.shape[0]
    if n < 2:
        raise DomainError("need at least 2 nodes")
    e, t = _upper_rows(est, diagonal=False) != 0, _upper_rows(true, diagonal=False) != 0
    tp = int(np.sum(e & t))
    fp = int(np.sum(e & ~t))
    fn = int(np.sum(~e & t))
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    hamming = float(np.sum(e != t)) / len(e)
    return SupportMetrics(precision=precision, recall=recall, f1=f1, hamming=hamming)


# ---------------------------------------------------------------------------
# serialization


def gmm_to_dict(fit: GmmFit) -> dict:
    return {
        "weights": list(fit.weights),
        "means": list(fit.means),
        "variances": list(fit.variances),
        "log_likelihood": fit.log_likelihood,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def write_signature_csv(adjacency: np.ndarray, path) -> None:
    adj = np.asarray(adjacency)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        for i in range(adj.shape[0]):
            for j in range(i + 1, adj.shape[1]):
                if adj[i, j]:
                    writer.writerow([i, j])
