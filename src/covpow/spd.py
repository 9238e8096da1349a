"""Dense symmetric eigendecomposition and real matrix powers.

Three independent routes to X^{-beta} live here: the eigendecomposition
(production path), a Stieltjes integral quadrature for beta in (0,1), and a
Dunford-Taylor contour quadrature on a circle for any nonzero beta. The two
integral routes never touch the eigen path's factorization, so agreement
between them is a genuine cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .errors import DomainError, NumericalError

__all__ = [
    "SymMatrix",
    "SpdMatrix",
    "ContourSpec",
    "circular_contour",
    "sym_eigen",
    "spd_power_eig",
    "spd_power_stieltjes",
    "spd_power_contour",
    "spectral_norm",
    "lambda_min",
    "operator_norm",
    "matrix_to_json",
    "matrix_from_json",
    "write_matrix_csv",
    "read_matrix_csv",
]

_SYM_RTOL = 1e-10
_SPD_TOL = 1e-12


def _as_array(m) -> np.ndarray:
    return np.asarray(getattr(m, "values", m), dtype=float)


class SymMatrix:
    """Symmetric matrix, symmetrized on construction.

    Construction rejects inputs whose asymmetry exceeds 1e-10 relative in
    Frobenius norm; anything below is averaged away.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("matrix has non-finite entries")
        scale = np.linalg.norm(a)
        asym = np.linalg.norm(a - a.T)
        if asym > _SYM_RTOL * max(scale, 1e-300):
            raise DomainError(
                f"matrix is not symmetric: relative asymmetry {asym / max(scale, 1e-300):.3e}"
            )
        sym = (a + a.T) / 2
        sym.flags.writeable = False
        object.__setattr__(self, "_values", sym)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dim={self.dim})"


class SpdMatrix(SymMatrix):
    """Symmetric positive definite matrix with an eager eigen-cache.

    The eigendecomposition is computed once at construction (and validated),
    so repeated powering of the same matrix costs one matmul each.
    """

    __slots__ = ("_eigenvalues", "_eigenvectors")

    def __init__(self, values) -> None:
        super().__init__(values)
        w, q = sym_eigen(self)
        if w[0] <= _SPD_TOL:
            raise DomainError(
                f"matrix is not positive definite: lambda_min = {w[0]:.3e}"
            )
        w.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "_eigenvalues", w)
        object.__setattr__(self, "_eigenvectors", q)

    @classmethod
    def _from_eigh(cls, w: np.ndarray, q: np.ndarray) -> "SpdMatrix":
        """Build from a known eigendecomposition, skipping the re-solve.

        Internal fast path for power results whose spectrum is known exactly.
        """
        if np.min(w) <= _SPD_TOL:
            raise DomainError(
                f"matrix is not positive definite: lambda_min = {np.min(w):.3e}"
            )
        order = np.argsort(w)
        w = np.ascontiguousarray(w[order])
        q = np.ascontiguousarray(q[:, order])
        vals = (q * w) @ q.T
        vals = (vals + vals.T) / 2
        obj = cls.__new__(cls)
        vals.flags.writeable = False
        w.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(obj, "_values", vals)
        object.__setattr__(obj, "_eigenvalues", w)
        object.__setattr__(obj, "_eigenvectors", q)
        return obj

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors


@dataclass(frozen=True)
class ContourSpec:
    """Circle center/radius plus the clearance margin and node count."""

    center: float
    radius: float
    epsilon: float
    nodes: int = 256

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise DomainError("contour radius must be positive")
        if not self.epsilon > 0:
            raise DomainError("contour epsilon must be positive")
        if not self.center - self.radius > 0:
            raise DomainError("contour must avoid (-inf, 0]: need center - radius > 0")
        if int(self.nodes) != self.nodes or self.nodes < 8:
            raise DomainError("contour needs an integer node count >= 8")


def circular_contour(m: float, m_up: float, epsilon: float, nodes: int = 256) -> ContourSpec:
    """Circle enclosing [m, m_up] with clearance epsilon on each side."""
    if not 0 < m <= m_up:
        raise DomainError("need 0 < m <= m_up")
    if not 0 < epsilon < m:
        raise DomainError("epsilon must lie in (0, m)")
    center = (m + m_up) / 2
    radius = (m_up - m) / 2 + epsilon
    return ContourSpec(center=center, radius=radius, epsilon=epsilon, nodes=nodes)


def sym_eigen(x) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a SymMatrix.

    The factorization is validated: orthonormality to 1e-10 and
    reconstruction to 1e-8 relative, else NumericalError.
    """
    a = x.values if isinstance(x, SymMatrix) else SymMatrix(x).values
    w, q = np.linalg.eigh(a)
    n = a.shape[0]
    ortho = np.linalg.norm(q @ q.T - np.eye(n))
    if ortho > 1e-10:
        raise NumericalError(f"eigenvector orthonormality residual {ortho:.3e}")
    recon = np.linalg.norm((q * w) @ q.T - a)
    if recon > 1e-8 * max(np.linalg.norm(a), 1e-300):
        raise NumericalError(f"eigendecomposition reconstruction residual {recon:.3e}")
    return w.copy(), q.copy()


def spd_power_eig(x: SpdMatrix, beta: float) -> SpdMatrix:
    """X^beta through the cached eigendecomposition; beta = 0 gives I."""
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    if beta == 0:
        return SpdMatrix(np.eye(x.dim))
    w = x.eigenvalues**beta
    return SpdMatrix._from_eigh(w, x.eigenvectors)


def spd_power_stieltjes(x: SpdMatrix, beta: float, n_quad: int = 400) -> SpdMatrix:
    """X^{-beta} for beta in (0,1) by quadrature of the Stieltjes integral.

    The integral (sin(pi*beta)/pi) * int_0^inf lam^{-beta} (X + lam I)^{-1} dlam
    is mapped to (0,1) by lam = lambda_min(X) * t/(1-t). That substitution
    leaves the weight t^{-beta} (1-t)^{beta-1} times the analytic matrix
    factor ((1-t)X + lambda_min t I)^{-1}, so Gauss-Jacobi nodes for exactly
    that weight integrate the analytic part spectrally. Resolvents are LU
    solves, independent of the eigen path.
    """
    if not 0 < beta < 1:
        raise DomainError(f"stieltjes power needs beta in (0,1), got {beta}")
    if n_quad < 16:
        raise DomainError("n_quad must be >= 16")
    lam_min = float(x.eigenvalues[0])
    with np.errstate(invalid="ignore"):  # benign 0/0 in scipy's recurrence at k=1
        nodes, weights = roots_jacobi(n_quad, beta - 1.0, -beta)
    t = (nodes + 1.0) / 2.0
    # batched solve of ((1-t) X + lam_min t I) G = I across all nodes
    eye = np.eye(x.dim)
    pencils = (1.0 - t)[:, None, None] * x.values + (lam_min * t)[:, None, None] * eye
    resolvents = np.linalg.solve(pencils, np.broadcast_to(eye, pencils.shape))
    acc = np.einsum("k,kij->ij", weights, resolvents)
    out = np.sin(np.pi * beta) / np.pi * lam_min ** (1.0 - beta) * acc
    return SpdMatrix((out + out.T) / 2)


def spd_power_contour(x: SpdMatrix, beta: float, contour: ContourSpec) -> SpdMatrix:
    """X^{-beta} by the trapezoidal rule on a circular contour.

    Evaluates (1/2πi) ∮ z^{-beta} (zI - X)^{-1} dz with the principal branch
    of z^{-beta}. The node set is conjugate-symmetric, so the imaginary part
    cancels to rounding; a residual above 1e-8 is a genuine failure.
    """
    if beta == 0 or not np.isfinite(beta):
        raise DomainError("contour power needs a finite beta != 0")
    w = x.eigenvalues
    lo = contour.center - contour.radius
    hi = contour.center + contour.radius
    if w[0] <= lo or w[-1] >= hi:
        raise DomainError(
            f"contour (center {contour.center}, radius {contour.radius}) does not "
            f"enclose the spectrum [{w[0]:.6g}, {w[-1]:.6g}]"
        )
    n = int(contour.nodes)
    theta = 2 * np.pi * np.arange(n) / n
    ring = contour.radius * np.exp(1j * theta)
    z = contour.center + ring
    eye = np.eye(x.dim)
    pencils = z[:, None, None] * eye - x.values[None, :, :]
    resolvents = np.linalg.solve(pencils, np.broadcast_to(eye + 0j, pencils.shape))
    acc = np.einsum("k,kij->ij", ring * z ** (-beta), resolvents) / n
    imag_residual = float(np.max(np.abs(acc.imag)))
    if imag_residual > 1e-8:
        raise NumericalError(f"contour quadrature imaginary residual {imag_residual:.3e}")
    out = acc.real
    return SpdMatrix((out + out.T) / 2)


def spectral_norm(m) -> float:
    """max |eigenvalue| of a symmetric matrix."""
    a = m.values if isinstance(m, SymMatrix) else SymMatrix(m).values
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def lambda_min(m) -> float:
    a = m.values if isinstance(m, SymMatrix) else SymMatrix(m).values
    return float(np.linalg.eigvalsh(a)[0])


def operator_norm(block: np.ndarray) -> float:
    """Largest singular value; for the rectangular cross blocks."""
    b = np.asarray(block, dtype=float)
    if b.size == 0:
        return 0.0
    return float(np.linalg.norm(b, 2))


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(m) -> str:
    a = _as_array(m)
    return json.dumps(
        {"dim": a.shape[0], "rows": [[float(v) for v in row] for row in a]},
        sort_keys=True,
    )


def matrix_from_json(text: str) -> np.ndarray:
    rec = json.loads(text)
    a = np.asarray(rec["rows"], dtype=float)
    if a.shape != (rec["dim"], rec["dim"]):
        raise DomainError("matrix JSON rows do not match declared dim")
    return a


def write_matrix_csv(m, path) -> None:
    a = _as_array(m)
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    return np.asarray(a, dtype=float)
