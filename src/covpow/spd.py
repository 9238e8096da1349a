"""Dense symmetric eigendecomposition and real matrix powers.

Three independent routes to X^{-beta} live here: the eigendecomposition
(production path), a Stieltjes integral quadrature for beta in (0,1), and a
Dunford-Taylor contour quadrature on a circle for any nonzero beta. The two
integral routes never touch the eigen path's factorization, so agreement
between them is a genuine cross-check.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, NumericalError, frozen

__all__ = [
    "SymMatrix",
    "SpdMatrix",
    "SpdStack",
    "ContourSpec",
    "circular_contour",
    "sym_eigen",
    "spd_power_eig",
    "spd_power_stieltjes",
    "spd_power_contour",
    "spectral_norm",
    "lambda_min",
    "operator_norm",
]

_SYM_RTOL = 1e-10
_SPD_TOL = 1e-12
# matrices per step of every stack kernel: their temporaries stay this size, not the stack's
_BLOCK = 128


def _as_array(m) -> np.ndarray:
    """m, or its ``values``, as one float array; parts of mixed shapes raise DomainError."""
    m = getattr(m, "values", m)
    try:
        return np.asarray(m, dtype=float)
    except ValueError:
        shapes = sorted({np.shape(a) for a in m})
        if len(shapes) < 2:
            raise
        raise DomainError(f"cannot stack arrays of mixed shapes {shapes}") from None


@functools.lru_cache(maxsize=None)
def _upper_cells(k: int) -> np.ndarray:
    """Flat indices of a (k, k) matrix's diagonal, then of its strict upper triangle row by
    row; one array per k for the process, which `_upper_rows` alone reads and never writes."""
    return np.concatenate([np.arange(k) * (k + 1), np.flatnonzero(np.triu(np.ones((k, k)), 1))])


def _upper_rows(a: np.ndarray, diagonal: bool) -> np.ndarray:
    """The `_upper_cells` of a matrix, or C-ordered rows of them for a stack (diagonal if asked)."""
    k = a.shape[-1]
    return a.reshape(*a.shape[:-2], k * k).take(_upper_cells(k)[0 if diagonal else k :], axis=-1)


def _fro(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of a (k, k) matrix or of each matrix in an (N, k, k) stack."""
    if a.ndim == 2:  # the per-matrix hot path of SymMatrix and sym_eigen
        x = a.ravel(order="K")
        return np.sqrt(x.dot(x))  # what np.linalg.norm(a) computes
    return np.sqrt(np.einsum("nij,nij->n", a, a))


_element = "stack element {}".format  # how an error names matrix i of a stack


def _require(ok, exc, message, where=_element) -> None:
    """Raise exc for the first matrix whose entry in `ok` is False.

    `ok` holds one flag per matrix: a scalar for one matrix, a vector for a
    stack. `message(i)` formats the failure at position i; for a stack the
    error starts with `where(i)`, "stack element i" by default.
    """
    if ok.all() if ok.ndim else ok:
        return
    if not ok.ndim:
        raise exc(message(()))
    i = int(np.argmin(ok))
    raise exc(f"{where(i)}: {message(i)}")


def _square(values) -> np.ndarray:
    """A matrix, or a wrapper's ``values``, as a float array; rejects a non-square shape."""
    a = _as_array(values)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def _blockwise(kernel, *args):
    """``kernel(*args)``, a tuple of per-matrix arrays, run `_BLOCK` matrices at a time.

    The last argument is a (k, k) matrix, an (N, k, k) stack or an index
    vector of N matrices, and every argument has one entry per matrix. A
    matrix or at most `_BLOCK` entries go through in one call; more go block
    by block into preallocated outputs, so temporaries stay one block in size.
    """
    n = len(args[-1])
    if args[-1].ndim == 2 or n <= _BLOCK:
        return kernel(*args)
    outs = None
    for lo in range(0, n, _BLOCK):
        parts = kernel(*(a[lo : lo + _BLOCK] for a in args))
        if outs is None:
            outs = tuple(np.empty((n, *p.shape[1:]), p.dtype) for p in parts)
        for out, part in zip(outs, parts):
            out[lo : lo + _BLOCK] = part
    return outs


def _finite(a: np.ndarray) -> tuple:
    return (np.isfinite(a).all(axis=(-2, -1)),)


def _symmetric_parts(a: np.ndarray) -> tuple:
    at = a.swapaxes(-1, -2)
    return _fro(a - at), _fro(a), (a + at) / 2


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """Average of a matrix or (N, k, k) stack and its transpose, checked per matrix.

    Rejects non-finite entries and asymmetry above 1e-10 relative in
    Frobenius norm; anything below is averaged away.
    """
    (finite,) = _blockwise(_finite, a)
    _require(finite, DomainError, lambda i: "matrix has non-finite entries")
    asym, scale, sym = _blockwise(_symmetric_parts, a)
    _require(
        asym <= _SYM_RTOL * scale,
        DomainError,
        lambda i: "matrix is not symmetric: relative asymmetry "
        f"{asym[i] / max(scale[i], 1e-300):.3e}",
    )
    return sym


def _eigh_parts(sym: np.ndarray) -> tuple:
    """Eigenpairs, orthonormality and reconstruction residuals, and norms of sym."""
    w, q = np.linalg.eigh(sym)
    qt = q.swapaxes(-1, -2)
    ortho = _fro(q @ qt - np.eye(sym.shape[-1]))
    return w, q, ortho, _fro((q * w[..., None, :]) @ qt - sym), _fro(sym)


def _checked_eigh(sym: np.ndarray, positive: bool = False, name: str = "matrix"):
    """Eigenvalues (ascending) and eigenvectors of a `_symmetrized` stack.

    ``eigh`` factors a matrix, or a whole (N, k, k) stack `_BLOCK` matrices at
    a time. Per matrix: orthonormal eigenvectors to 1e-10 and reconstruction
    to 1e-8 relative (else NumericalError) and, when `positive`, the spectrum
    `_require_spd` accepts (else DomainError naming the matrix as `name`; so
    is a 0 x 0 matrix).
    """
    if positive and not sym.shape[-1]:
        raise DomainError(f"an SPD matrix must be at least 1 x 1, got shape {sym.shape}")
    w, q, ortho, recon, scale = _blockwise(_eigh_parts, sym)
    _require(
        ortho <= 1e-10,
        NumericalError,
        lambda i: f"eigenvector orthonormality residual {ortho[i]:.3e}",
    )
    _require(
        recon <= 1e-8 * scale,
        NumericalError,
        lambda i: f"eigendecomposition reconstruction residual {recon[i]:.3e}",
    )
    if positive:
        _require_spd(w, name=name)
    return w, q


def _require_spd(w: np.ndarray, where=_element, name: str = "matrix") -> None:
    """DomainError for the first matrix whose spectrum, a monotone row of w, is not
    SPD: lambda_min at most 1e-12, or a lambda_max that a power overflowed to inf."""
    lo, hi = np.minimum(w[..., 0], w[..., -1]), np.maximum(w[..., 0], w[..., -1])
    low = lambda i: f"{name} is not positive definite: lambda_min = {lo[i]:.3e}"
    _require(lo > _SPD_TOL, DomainError, low, where)
    _require(hi < np.inf, DomainError, lambda i: f"{name} overflows: lambda_max = {hi[i]}", where)


def _sym_values(m) -> np.ndarray:
    """A SymMatrix's own values, else m as a square matrix, symmetrized and checked."""
    return m.values if isinstance(m, SymMatrix) else _symmetrized(_square(m))


def _compose(w: np.ndarray, q: np.ndarray, where=_element):
    """(values, ascending w, q) of the SPD matrix or stack with eigenpairs (w, q).

    Each row of w must be monotone, as a positive multiple of a power of an
    ascending spectrum is. `_require_spd` checks each row (errors name the
    element by `where`); a descending row is reversed with the columns of
    its q, so a matrix comes out the same alone or in a stack. Then
    reconstructs (q * w) @ q^T and symmetrizes.
    """
    _require_spd(w, where)
    down = w[..., :1] > w[..., -1:]
    if down.all():
        w, q = np.ascontiguousarray(w[..., ::-1]), np.ascontiguousarray(q[..., ::-1])
    elif down.any():  # a stack with rows that tie throughout: those stay as they are
        w, q = np.where(down, w[..., ::-1], w), np.where(down[..., None], q[..., ::-1], q)
    (values,) = _blockwise(_reconstructed, w, q)
    return values, w, q


def _reconstructed(w: np.ndarray, q: np.ndarray) -> tuple:
    vals = (q * w[..., None, :]) @ q.swapaxes(-1, -2)
    return ((vals + vals.swapaxes(-1, -2)) / 2,)


def _power(w: np.ndarray, q: np.ndarray, beta: float, where=_element):
    """`_compose` of X^beta from X's ascending eigenpairs; beta = 0 gives I exactly."""
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    if beta == 0:
        eye = np.tile(np.eye(w.shape[-1]), (*w.shape[:-1], 1, 1))
        return eye, np.ones_like(w), eye
    with np.errstate(over="ignore"):  # `_compose` names the matrix whose power overflows
        w = w**beta
    return _compose(w, q, where)


class SymMatrix:
    """Symmetric matrix, symmetrized on construction.

    Construction rejects inputs whose asymmetry exceeds 1e-10 relative in
    Frobenius norm; anything below is averaged away.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        sym = _symmetrized(_square(values))
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
        sym = _symmetrized(_square(values))
        self._set(sym, *_checked_eigh(sym, positive=True))

    def _set(self, values: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
        for arr in (values, w, q):
            arr.flags.writeable = False
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_eigenvalues", w)
        object.__setattr__(self, "_eigenvectors", q)

    @classmethod
    def _from_eigh(cls, w: np.ndarray, q: np.ndarray) -> "SpdMatrix":
        """Build from a known eigendecomposition, skipping the re-solve.

        Internal fast path for power results whose spectrum is known exactly;
        w must be monotone, as `_compose` says.
        """
        obj = cls.__new__(cls)
        obj._set(*_compose(w, q))
        return obj

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors


class SpdStack:
    """N SPD matrices of one size: the (N, k, k) values and their eigenpairs.

    Validated ``eigh`` calls on `_BLOCK` matrices at a time replace N SpdMatrix
    constructions; every power X_i^beta of every matrix then costs batched
    matmuls, again a block at a time, and is again a stack. Like SpdMatrix, a
    stack keeps its symmetrized values and an ascending spectrum, all three
    read-only and not reassignable. Errors name the stack index of the
    offending matrix.
    """

    __slots__ = ("_values", "_eigenvalues", "_eigenvectors")

    def __init__(self, matrices) -> None:
        a = _as_array(matrices)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DomainError(f"expected an (N, k, k) stack, got shape {a.shape}")
        sym = _symmetrized(a)
        self._set(sym, *_checked_eigh(sym, positive=True))

    @classmethod
    def _from_owned(cls, a: np.ndarray) -> "SpdStack":
        """``SpdStack(a)`` for a float (N, k, k) array that no one else reads.

        `a` is overwritten with its symmetrized values and kept, so no second
        stack is alive while ``eigh`` runs.
        """
        a[...] = _symmetrized(a)
        out = cls.__new__(cls)
        out._set(a, *_checked_eigh(a, positive=True))
        return out

    def _set(self, values: np.ndarray, w: np.ndarray, q: np.ndarray) -> None:
        for arr in (values, w, q):
            arr.flags.writeable = False
        self._values, self._eigenvalues, self._eigenvectors = values, w, q

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenvectors

    def __len__(self) -> int:
        return self.values.shape[0]

    def power(self, beta: float) -> "SpdStack":
        """X_i^beta of every matrix, each equal to ``spd_power_eig`` of it; beta = 0 gives I."""
        out = SpdStack.__new__(SpdStack)
        out._set(*_power(self.eigenvalues, self.eigenvectors, beta))
        return out


@frozen
class ContourSpec:
    """Circle center/radius plus the node count."""

    center: float
    radius: float
    nodes: int = 256

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise DomainError("contour radius must be positive")
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
    return ContourSpec(center=center, radius=radius, nodes=nodes)


def sym_eigen(x) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a SymMatrix.

    The factorization is validated: orthonormality to 1e-10 and
    reconstruction to 1e-8 relative, else NumericalError.
    """
    return _checked_eigh(_sym_values(x))


def spd_power_eig(x: SpdMatrix, beta: float) -> SpdMatrix:
    """X^beta through the cached eigendecomposition; beta = 0 gives I."""
    out = SpdMatrix.__new__(SpdMatrix)
    out._set(*_power(x.eigenvalues, x.eigenvectors, beta))
    return out


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
    from scipy.special import roots_jacobi  # here: it costs more than all of covpow's import
    lam_min = float(x.eigenvalues[0])
    # scipy's recurrence divides by an exact 0 at k=1 (0/0 or tiny/0); np.where drops the term
    with np.errstate(invalid="ignore", divide="ignore"):
        nodes, weights = roots_jacobi(n_quad, beta - 1.0, -beta)
    t = (nodes + 1.0) / 2.0
    # batched solve of ((1-t) X + lam_min t I) G = I across all nodes
    eye = np.eye(x.dim)
    pencils = (1.0 - t)[:, None, None] * x.values + (lam_min * t)[:, None, None] * eye
    try:
        resolvents = np.linalg.solve(pencils, np.broadcast_to(eye, pencils.shape))
    except np.linalg.LinAlgError as exc:  # cond(X) past 1/eps: pencils near X are singular
        raise DomainError(f"stieltjes power: a resolvent pencil is singular: {exc}") from None
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
    return float(np.abs(np.linalg.eigvalsh(_sym_values(m))).max())


def lambda_min(m) -> float:
    return float(np.linalg.eigvalsh(_sym_values(m))[0])


def operator_norm(block: np.ndarray) -> float:
    """Largest singular value; for the rectangular cross blocks."""
    b = np.asarray(block, dtype=float)
    if b.size == 0:
        return 0.0
    return float(np.linalg.svd(b, compute_uv=False).max())  # what norm(b, 2) computes


# ---------------------------------------------------------------------------
# serialization


def write_matrix_csv(m, path) -> None:
    a = _as_array(m)
    with open(path, "w") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """The matrix of a CSV file; a missing or unparsable file raises DomainError naming it."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as exc:
        raise DomainError(f"{path}: cannot read a matrix: {exc}") from None
