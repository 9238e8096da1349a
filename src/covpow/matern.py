"""Gaussian Matern-type fields on weighted graphs.

A model is (graph, kappa, alpha, sigma); its population covariance is
sigma^2 * (kappa^2 D + L)^{-alpha}. Sampling pushes i.i.d. Gaussians through
the symmetric root of that covariance. The eigendecomposition of the
interaction operator is computed once at model construction and reused for
covariances, roots, and sampling.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, frozen
from .graphs import (
    NodePartition,
    WeightedGraph,
    graph_to_dict,
    interaction_operator,
)
from .spd import SpdMatrix, _checked_eigh, _sym_values

__all__ = [
    "MaternModel",
    "population_covariance",
    "sample_field",
    "observed_covariance",
]


def _nonzero_alpha(alpha: float) -> float:
    if not (math.isfinite(alpha) and alpha != 0):
        raise DomainError(f"alpha must be a nonzero real, got {alpha}")
    return alpha


@frozen
class MaternModel:
    """Field model on a graph: covariance sigma^2 * (kappa^2 D + L)^(-alpha).

    Negative alpha is the analytic extension (covariance is a positive power
    of the operator); alpha = 0 would make every graph look white and is
    rejected.
    """

    graph: WeightedGraph
    kappa: float
    alpha: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        _nonzero_alpha(self.alpha)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        op = interaction_operator(self.graph, self.kappa)
        w, q = _checked_eigh(_sym_values(op), positive=True, name="interaction operator")
        w.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "_op_eigenvalues", w)
        object.__setattr__(self, "_op_eigenvectors", q)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def op_eigenvalues(self) -> np.ndarray:
        return self._op_eigenvalues

    @property
    def op_eigenvectors(self) -> np.ndarray:
        return self._op_eigenvectors


def population_covariance(m: MaternModel) -> SpdMatrix:
    """Exact covariance sigma^2 * operator^(-alpha) from the cached spectrum."""
    try:
        with np.errstate(over="raise"):
            w = m.sigma**2 * m.op_eigenvalues ** (-m.alpha)
            w.dot(w)  # its squared Frobenius norm, which SPD validation takes
    except ArithmeticError:  # OverflowError from the float sigma, FloatingPointError from numpy
        raise DomainError(f"covariance out of float range at alpha {m.alpha}, sigma {m.sigma}")
    return SpdMatrix._from_eigh(w, m.op_eigenvectors)


def sample_field(m: MaternModel, n_samples: int, seed: int) -> np.ndarray:
    """Draw n_samples field realizations, one per row.

    Each row is root @ x with x ~ N(0, sigma^2 I) and root the symmetric
    operator^(-alpha/2). Draws come from numpy's default_rng (PCG64 with the
    ziggurat gaussian), so a seed pins the output across platforms.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    root = (m.op_eigenvectors * m.op_eigenvalues ** (-m.alpha / 2)) @ m.op_eigenvectors.T
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, m.n))
    return m.sigma * x @ root  # root is symmetric, so right-multiplying is fine


def observed_covariance(c: SpdMatrix, p: NodePartition) -> SpdMatrix:
    """Principal submatrix on the observed nodes; ``c`` itself when all are observed."""
    if c.dim != p.n:
        raise DomainError(f"covariance dim {c.dim} does not match partition n={p.n}")
    return c if len(p.observed) == c.dim else SpdMatrix(c.values[p._meshes[0]])


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(m: MaternModel) -> dict:
    return {
        "graph": graph_to_dict(m.graph),
        "kappa": float(m.kappa),
        "alpha": float(m.alpha),
        "sigma": float(m.sigma),
    }


def write_samples_csv(samples: np.ndarray, path) -> None:
    """One realization per row; repr floats so reads are bitwise."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise DomainError("samples must be a 2-d array")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"node{i}" for i in range(samples.shape[1])) + "\r\n")
        for row in samples:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")
