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


def _log_normal_pdf(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)


def fit_gmm_1d(
    values, max_iter: int = 200, tol: float = 1e-8, seed: int = 0
) -> GmmFit:
    """EM fit of a two-component mixture to nonnegative scalars.

    Seeding picks the first center uniformly and the second proportional to
    squared distance from it. The M-step clips variances at 1e-8 * var(data),
    a constrained maximization, so the log-likelihood stays non-decreasing.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size < 4:
        raise DomainError(f"need at least 4 values, got {x.size}")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise DomainError("values must be finite and nonnegative")
    spread = float(x.max() - x.min())
    if spread == 0:
        raise DomainError("values have zero spread; nothing to separate")

    rng = np.random.default_rng(seed)
    first = x[rng.integers(x.size)]
    dist2 = (x - first) ** 2
    second = x[rng.choice(x.size, p=dist2 / dist2.sum())]
    means = np.array([first, second])
    var_floor = 1e-8 * float(x.var())
    variances = np.full(2, max(float(x.var()), var_floor))
    weights = np.array([0.5, 0.5])

    trace = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # E-step in log space
        log_comp = np.stack(
            [
                np.log(weights[k]) + _log_normal_pdf(x, means[k], variances[k])
                for k in range(2)
            ]
        )
        log_mix = np.logaddexp(log_comp[0], log_comp[1])
        resp = np.exp(log_comp - log_mix)
        ll = float(log_mix.sum())
        # M-step with floors
        counts = resp.sum(axis=1)
        counts = np.maximum(counts, 1e-12)
        weights = counts / counts.sum()
        weights = np.clip(weights, 1e-12, 1 - 1e-12)
        weights = weights / weights.sum()
        means = (resp @ x) / counts
        variances = np.maximum(
            np.array([(resp[k] @ (x - means[k]) ** 2) / counts[k] for k in range(2)]),
            var_floor,
        )
        if trace and abs(ll - trace[-1]) <= tol * max(1.0, abs(ll)):
            trace.append(ll)
            converged = True
            break
        trace.append(ll)

    order = np.argsort(means, kind="stable")
    return GmmFit(
        weights=(float(weights[order[0]]), float(weights[order[1]])),
        means=(float(means[order[0]]), float(means[order[1]])),
        variances=(float(variances[order[0]]), float(variances[order[1]])),
        log_likelihood=trace[-1],
        iterations=iterations,
        converged=converged,
        ll_trace=tuple(trace),
    )


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
    """Strict upper-triangle absolute values, the GMM's input."""
    a = np.asarray(getattr(matrix, "values", matrix), dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise DomainError(f"need a square matrix of dim >= 2, got shape {a.shape}")
    iu = np.triu_indices(a.shape[0], k=1)
    return np.abs((a + a.T) / 2)[iu]


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
    present), threshold reported as the per-matrix mean.
    """
    if mode not in ("class-mean", "per-matrix"):
        raise DomainError(f"unknown mode {mode!r}")
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or len(labels) != len(mats):
        raise DomainError(f"need an (N, k, k) array and N labels, got {mats.shape}, {len(labels)}")
    if any(c is None for c in labels):
        raise DomainError("every feature needs a class label")
    lab = np.array([int(c) for c in labels], dtype=int)
    out = {}
    for label in sorted(set(lab.tolist())):
        group = mats[lab == label]
        if mode == "class-mean":
            adj, threshold, fit = signature_from_matrix(
                np.mean(group, axis=0), max_iter=max_iter, tol=tol, seed=seed
            )
        else:
            sigs = [signature_from_matrix(m, max_iter=max_iter, tol=tol, seed=seed) for m in group]
            votes = np.sum([adj for adj, _, _ in sigs], axis=0)
            adj = (2 * votes >= len(sigs)).astype(int)
            np.fill_diagonal(adj, 0)
            threshold, fit = float(np.mean([t for _, t, _ in sigs])), None
        out[label] = ClassSignature(
            label=label, adjacency=adj, threshold=threshold, fit=fit, n_matrices=len(group)
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
    iu = np.triu_indices(n, k=1)
    e = est[iu] != 0
    t = true[iu] != 0
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
