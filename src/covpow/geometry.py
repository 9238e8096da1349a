"""Affine-invariant Riemannian distance on SPD matrices.

Used to ask whether feature matrices from different classes live far apart
on the SPD manifold: the report compares within-class and between-class
pairwise distances. Distance is d(X, Y) = ||log(X^{-1/2} Y X^{-1/2})||_F,
the standard affine-invariant form.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .errors import DomainError, NumericalError, frozen
from .features import _feature_labels
from .spd import SpdMatrix, SpdStack, _require

__all__ = [
    "IdentifiabilityReport",
    "air_distance",
    "pairwise_distance_matrix",
    "class_distance_stats",
    "distance_stats",
]


@frozen
class IdentifiabilityReport:
    """Pairwise-distance summary; intra stats are None for singleton classes."""

    intra_mean: tuple[float | None, float | None]
    intra_variance: tuple[float | None, float | None]
    inter_mean: float
    inter_variance: float
    n_pairs: dict[str, int]
    separated: bool


def air_distance(x: SpdMatrix, y: SpdMatrix) -> float:
    """d(x, y) by the row kernel of `pairwise_distance_matrix`; a failed check names pair (0, 1)."""
    if not isinstance(x, SpdMatrix) or not isinstance(y, SpdMatrix):
        raise DomainError("air_distance needs SPD matrices")
    if x.dim != y.dim:
        raise DomainError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return float(_air_row(x.eigenvalues, x.eigenvectors, y.values[None], 0)[0])


def _air_row(w: np.ndarray, q: np.ndarray, ys: np.ndarray, i: int) -> np.ndarray:
    """AIR distances from the matrix with eigenpairs (w, q) to each matrix of ys.

    Whitens ys by X^{-1/2} and takes one batched ``eigvalsh``. A congruence
    result asymmetric above 1e-10 relative or not positive definite raises
    NumericalError naming the pair (i, i + 1 + j) of ys[j].
    """
    inv_root = (q * w**-0.5) @ q.T
    inner = inv_root @ ys @ inv_root
    inner_t = np.swapaxes(inner, 1, 2)
    asym = np.abs(inner - inner_t).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(inner).max(axis=(1, 2)))
    pair = lambda j: f"pair ({i}, {i + 1 + j})"
    _require(asym <= 1e-10 * scale, NumericalError,
             lambda j: f"congruence result asymmetric by {asym[j]}", pair)
    eig = np.linalg.eigvalsh((inner + inner_t) / 2)
    _require(eig[:, 0] > 0, NumericalError,
             lambda j: f"congruence result lost definiteness: {eig[j, 0]}", pair)
    return np.sqrt(np.sum(np.log(eig) ** 2, axis=1))


def pairwise_distance_matrix(stack: SpdStack) -> np.ndarray:
    """Full symmetric AIR distance matrix of a stack, in stack order.

    Row i runs `_air_row` of X_i, from the stack's eigen-cache, against every
    later matrix, so each entry is the ``air_distance`` of its pair bit for
    bit, and an error names the pair (i, j).
    """
    if not isinstance(stack, SpdStack):
        raise DomainError("pairwise_distance_matrix needs an SpdStack")
    w, q, values = stack.eigenvalues, stack.eigenvectors, stack.values
    n = len(stack)
    out = np.zeros((n, n))
    for i in range(n - 1):
        out[i, i + 1 :] = out[i + 1 :, i] = _air_row(w[i], q[i], values[i + 1 :], i)
    return out


def _class_indices(labels) -> tuple[np.ndarray, np.ndarray]:
    lab = _feature_labels(labels)
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
    """An exactly symmetric matrix as CRLF CSV under m0,m1,..., each value by repr.

    Each distance is formatted once, in the row that holds it on or above the
    diagonal; column j's bytearray collects the cells below the diagonal as
    earlier rows are formatted and is freed once row j is written, so at most
    about n^2/4 cells are held.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError(f"need a square distance matrix, got shape {d.shape}")
    bits = d.view(np.uint64)  # tells -0.0 from 0.0, as repr does
    if not (bits == bits.T).all():
        i, j = np.argwhere(bits != bits.T)[0].tolist()
        raise DomainError(f"distance matrix is not exactly symmetric at ({i}, {j})")
    lower = [bytearray() for _ in range(len(d))]
    with open(path, "wb") as fh:
        fh.write(",".join(f"m{j}" for j in range(len(d))).encode() + b"\r\n")
        for i, row in enumerate(d):
            upper = ",".join(map(repr, row[i:].tolist())).encode()
            for col, cell in zip(lower[i + 1 :], upper.split(b",")[1:]):
                col += cell + b","
            fh.write(lower[i] + upper + b"\r\n")
            lower[i] = None
