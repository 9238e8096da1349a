"""Affine-invariant Riemannian distance on SPD matrices.

Used to ask whether feature matrices from different classes live far apart
on the SPD manifold: the report compares within-class and between-class
pairwise distances. Distance is d(X, Y) = ||log(X^{-1/2} Y X^{-1/2})||_F,
the standard affine-invariant form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .spd import SpdMatrix, SpdStack

__all__ = [
    "IdentifiabilityReport",
    "air_distance",
    "pairwise_distance_matrix",
    "class_distance_stats",
    "distance_stats",
]


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Pairwise-distance summary; intra stats are None for singleton classes."""

    intra_mean: tuple[float | None, float | None]
    intra_variance: tuple[float | None, float | None]
    inter_mean: float
    inter_variance: float
    n_pairs: dict[str, int]
    separated: bool


def air_distance(x: SpdMatrix, y: SpdMatrix) -> float:
    if not isinstance(x, SpdMatrix) or not isinstance(y, SpdMatrix):
        raise DomainError("air_distance needs SPD matrices")
    if x.dim != y.dim:
        raise DomainError(f"dimension mismatch: {x.dim} vs {y.dim}")
    w, q = x.eigenvalues, x.eigenvectors
    inv_root = (q * w ** -0.5) @ q.T
    inner = inv_root @ y.values @ inv_root
    asym = np.max(np.abs(inner - inner.T))
    if asym > 1e-10 * max(1.0, np.max(np.abs(inner))):
        raise NumericalError(f"congruence result asymmetric by {asym}")
    eig = np.linalg.eigvalsh((inner + inner.T) / 2)
    if eig[0] <= 0:
        raise NumericalError(f"congruence result lost definiteness: {eig[0]}")
    return float(np.sqrt(np.sum(np.log(eig) ** 2)))


def _require_pairs(ok: np.ndarray, i: int, message) -> None:
    """Raise NumericalError for the first pair (i, i + 1 + j) whose ok[j] is False."""
    if not ok.all():
        j = int(np.argmin(ok))
        raise NumericalError(f"pair ({i}, {i + 1 + j}): {message(j)}")


def pairwise_distance_matrix(stack: SpdStack) -> np.ndarray:
    """Full symmetric AIR distance matrix of a stack, in stack order.

    Row i whitens every later matrix by X_i^{-1/2}, built from the stack's
    eigen-cache, and takes one batched ``eigvalsh``; each entry is the
    ``air_distance`` of its pair, with the same checks, and an error names
    the pair (i, j).
    """
    if not isinstance(stack, SpdStack):
        raise DomainError("pairwise_distance_matrix needs an SpdStack")
    w, q, values = stack.eigenvalues, stack.eigenvectors, stack.values
    n = len(stack)
    out = np.zeros((n, n))
    for i in range(n - 1):
        inv_root = (q[i] * w[i] ** -0.5) @ q[i].T
        inner = inv_root @ values[i + 1 :] @ inv_root
        inner_t = np.swapaxes(inner, 1, 2)
        asym = np.abs(inner - inner_t).max(axis=(1, 2))
        scale = np.maximum(1.0, np.abs(inner).max(axis=(1, 2)))
        _require_pairs(
            asym <= 1e-10 * scale, i, lambda j: f"congruence result asymmetric by {asym[j]}"
        )
        eig = np.linalg.eigvalsh((inner + inner_t) / 2)
        _require_pairs(
            eig[:, 0] > 0, i, lambda j: f"congruence result lost definiteness: {eig[j, 0]}"
        )
        out[i, i + 1 :] = out[i + 1 :, i] = np.sqrt(np.sum(np.log(eig) ** 2, axis=1))
    return out


def _class_indices(labels) -> tuple[np.ndarray, np.ndarray]:
    if any(c is None for c in labels):
        raise DomainError("every feature needs a class label")
    lab = np.array([int(c) for c in labels])
    if not np.isin(lab, (0, 1)).all():
        raise DomainError("labels must be 0/1")
    idx0, idx1 = np.flatnonzero(lab == 0), np.flatnonzero(lab == 1)
    if not idx0.size or not idx1.size:
        raise DomainError("both classes must be present")
    return idx0, idx1


def _bucket_stats(values: np.ndarray):
    if not values.size:
        return None, None
    return float(values.mean()), float(values.var())


def distance_stats(distances, labels) -> IdentifiabilityReport:
    """Pairwise distances bucketed by class membership.

    Each bucket lists its pairs in fixed index order (i < j within a class,
    class-0 index major between classes), so accumulation is deterministic.
    """
    idx0, idx1 = _class_indices(labels)
    d = np.asarray(distances, dtype=float)
    if d.shape != (len(labels), len(labels)):
        raise DomainError(f"distance matrix {d.shape} does not match {len(labels)} labels")
    intra = [d[np.ix_(idx, idx)][np.triu_indices(idx.size, k=1)] for idx in (idx0, idx1)]
    inter = d[np.ix_(idx0, idx1)].ravel()

    mean0, var0 = _bucket_stats(intra[0])
    mean1, var1 = _bucket_stats(intra[1])
    inter_mean, inter_var = _bucket_stats(inter)
    defined = [m for m in (mean0, mean1) if m is not None]
    return IdentifiabilityReport(
        intra_mean=(mean0, mean1),
        intra_variance=(var0, var1),
        inter_mean=inter_mean,
        inter_variance=inter_var,
        n_pairs={
            "intra_0": intra[0].size,
            "intra_1": intra[1].size,
            "inter": inter.size,
        },
        separated=bool(defined) and all(inter_mean > m for m in defined),
    )


def class_distance_stats(features: list) -> IdentifiabilityReport:
    """distance_stats of the pairwise AIR distances of labeled FeatureMatrix objects."""
    labels = [f.label for f in features]
    _class_indices(labels)  # fail before the quadratic distance work
    stack = SpdStack([f.matrix.values for f in features])
    return distance_stats(pairwise_distance_matrix(stack), labels)


def report_to_dict(report: IdentifiabilityReport) -> dict:
    return asdict(report)


def write_pairwise_csv(distances: np.ndarray, path) -> None:
    """The matrix as CSV under an m0,m1,... header, each value by repr, CRLF-terminated."""
    d = np.asarray(distances, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"m{j}" for j in range(d.shape[1])) + "\r\n")
        for row in d:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")
