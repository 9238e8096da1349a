"""Weighted interaction graphs, node partitions, and derived operators.

The adjacency A is dense, exactly symmetric, nonnegative, with a zero
diagonal. From it we build the Laplacian L = D - A, the interaction operator
kappa^2*D + L, and the shifted operator I - kappa^2*D - L whose spectral
radius decides model validity.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .spd import _square

__all__ = [
    "WeightedGraph",
    "NodePartition",
    "laplacian",
    "interaction_operator",
    "abar",
    "sample_inhomogeneous_er",
    "partition_blocks",
    "observed_a_min",
    "scale_cross_block",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph held as a dense adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"adjacency must be square, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise DomainError("adjacency has non-finite entries")
        if not (a == a.T).all():
            raise DomainError("adjacency must be exactly symmetric")
        if (a < 0).any():
            raise DomainError("adjacency entries must be nonnegative")
        if a.diagonal().any():
            raise DomainError("adjacency diagonal must be zero")
        object.__setattr__(self, "adjacency", _frozen(a))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def edges(self) -> list[tuple[int, int, float]]:
        """Upper-triangle edge list, (i, j, weight) with i < j."""
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return [(int(a), int(b), float(self.adjacency[a, b])) for a, b in zip(i, j)]

    @classmethod
    def from_edges(cls, n: int, edges) -> "WeightedGraph":
        a = np.zeros((n, n))
        for i, j, w in edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise DomainError(f"edge ({i},{j}) out of range for n={n}")
            a[i, j] = a[j, i] = float(w)
        return cls(a)


def _increasing(idx: tuple[int, ...]) -> bool:
    """Strictly increasing, that is sorted and duplicate-free."""
    return all(map(operator.lt, idx, idx[1:]))


@dataclass(frozen=True)
class NodePartition:
    """Observed node set S and its latent complement, both kept sorted."""

    observed: tuple[int, ...]
    latent: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        obs = tuple(map(int, self.observed))
        lat = tuple(map(int, self.latent))
        if not obs:
            raise DomainError("observed set must be non-empty")
        if not (_increasing(obs) and _increasing(lat)):
            raise DomainError("partition index lists must be sorted and duplicate-free")
        if not set(obs).isdisjoint(lat):
            raise DomainError("observed and latent sets must be disjoint")
        # n distinct indices cover 0..n-1 exactly when all lie in [0, n)
        n = len(obs) + len(lat)
        if min(obs[:1] + lat[:1]) < 0 or max(obs[-1:] + lat[-1:]) >= n:
            raise DomainError("partition must cover 0..n-1 without gaps")
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "latent", lat)

    @classmethod
    def from_observed(cls, n: int, observed) -> "NodePartition":
        seen = set(map(int, observed))
        obs = sorted(seen)
        if obs and (obs[0] < 0 or obs[-1] >= n):
            raise DomainError(f"observed indices out of range for n={n}")
        return cls(tuple(obs), tuple(i for i in range(n) if i not in seen))

    @property
    def n(self) -> int:
        return len(self.observed) + len(self.latent)

    @functools.cached_property
    def _meshes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """np.ix_ meshes of the (S,S), (S,S'), (S',S) and (S',S') blocks, read-only."""
        s, sp = list(self.observed), list(self.latent)
        meshes = (np.ix_(s, s), np.ix_(s, sp), np.ix_(sp, s), np.ix_(sp, sp))
        for mesh in meshes:
            for arr in mesh:
                arr.flags.writeable = False
        return meshes


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Graph Laplacian L = D - A with D = diag(A 1)."""
    return np.diag(g.degrees()) - g.adjacency


def interaction_operator(g: WeightedGraph, kappa: float) -> np.ndarray:
    """kappa^2*D + L; positive definite when every degree is positive."""
    if not 0 < kappa < math.inf:  # also rejects NaN
        raise DomainError(f"kappa must be positive, got {kappa}")
    d = g.degrees()
    # kappa^2*diag(d) + laplacian(g) bit for bit, signed zeros included
    return np.diag(kappa**2 * d + d) - g.adjacency


def abar(g: WeightedGraph, kappa: float) -> tuple[np.ndarray, bool]:
    """Shifted operator I - kappa^2*D - L plus a validity flag.

    The flag is True when the spectral radius is strictly below 1; an invalid
    graph is reported, never rejected.
    """
    op = interaction_operator(g, kappa)
    a = np.eye(g.n) - op
    a = (a + a.T) / 2  # the subtraction is already symmetric; keep it bitwise so
    rho = float(np.abs(np.linalg.eigvalsh(a)).max())
    return a, rho < 1.0


def sample_inhomogeneous_er(
    n_obs: int,
    n_lat: int,
    p_obs: float,
    p_lat: float,
    p_cross: float,
    weight_low: float = 0.5,
    weight_high: float = 1.5,
    target_rho: float = 0.95,
    seed: int = 0,
) -> tuple[WeightedGraph, NodePartition]:
    """Inhomogeneous Erdos-Renyi graph with an observed/latent block structure.

    Edges inside the observed block, inside the latent block, and across the
    two are drawn independently with their own probabilities; weights are
    uniform on [weight_low, weight_high]. The adjacency is then rescaled by a
    single global factor, when one exists, so that the shifted operator at
    kappa=1 has spectral radius <= target_rho. Degenerate draws for which no
    global factor can achieve that (empty graph, isolated node, spectral
    spread too wide) are returned unscaled; downstream validity flags catch
    them.
    """
    if n_obs < 1:
        raise DomainError("n_obs must be >= 1")
    if n_lat < 0 or n_obs + n_lat < 2:
        raise DomainError("need at least 2 nodes in total")
    for name, p in (("p_obs", p_obs), ("p_lat", p_lat), ("p_cross", p_cross)):
        if not 0 <= p <= 1:
            raise DomainError(f"{name} must lie in [0,1], got {p}")
    if not 0 < weight_low <= weight_high:
        raise DomainError("need 0 < weight_low <= weight_high")
    if not 0 < target_rho < 1:
        raise DomainError("target_rho must lie in (0,1)")

    n = n_obs + n_lat
    rng = np.random.default_rng(seed)
    prob = np.empty((n, n))
    prob[:n_obs, :n_obs] = p_obs
    prob[n_obs:, n_obs:] = p_lat
    prob[:n_obs, n_obs:] = p_cross
    prob[n_obs:, :n_obs] = p_cross

    u = rng.random((n, n))
    w = rng.uniform(weight_low, weight_high, (n, n))
    upper = ~np.tri(n, dtype=bool)  # strictly above the diagonal
    a = np.where(upper & (u < prob), w, 0.0)
    a = a + a.T

    a = _rescale_for_target_rho(a, target_rho)
    part = NodePartition.from_observed(n, range(n_obs))
    return WeightedGraph(a), part


def _rescale_for_target_rho(a: np.ndarray, target_rho: float) -> np.ndarray:
    """Globally scale A so rho(I - D - L) <= target_rho when feasible.

    Scaling A by gamma scales the kappa=1 interaction operator linearly, so
    its eigenvalues mu become gamma*mu and the constraint is a gamma interval
    [(1-t)/mu_min, (1+t)/mu_max]. We take the feasible gamma closest to 1.
    """
    deg = a.sum(axis=1)
    op = np.diag(2 * deg) - a  # kappa=1: D + (D - A)
    mu = np.linalg.eigvalsh((op + op.T) / 2)
    mu_min, mu_max = float(mu[0]), float(mu[-1])
    rho_now = max(abs(1 - mu_min), abs(1 - mu_max))
    if rho_now <= target_rho:
        return a
    if mu_min <= 0:
        return a  # isolated node or empty graph: no global factor can help
    lo = (1 - target_rho) / mu_min * (1 + 1e-9)
    hi = (1 + target_rho) / mu_max * (1 - 1e-9)
    if lo > hi:
        return a
    gamma = min(max(1.0, lo), hi)
    return a * gamma


def partition_blocks(
    m: np.ndarray, p: NodePartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four blocks of a square matrix under the (S, S') ordering."""
    m = _square(m)
    if m.shape[0] != p.n:
        raise DomainError(f"matrix dim {m.shape[0]} does not match partition n={p.n}")
    ss, s_sp, sp_s, sp_sp = p._meshes
    return m[ss], m[s_sp], m[sp_s], m[sp_sp]


def observed_a_min(g: WeightedGraph, p: NodePartition) -> float | None:
    """Smallest positive off-diagonal weight inside the observed block.

    None when the observed block has no edges; gates that need this value
    report a not-applicable status in that case.
    """
    return _positive_min(partition_blocks(g.adjacency, p)[0])


def _positive_min(a_s: np.ndarray) -> float | None:
    """observed_a_min of an already cut observed block of a WeightedGraph.

    The graph's diagonal is zero, so the positive entries are the positive
    off-diagonal ones, each counted twice, which leaves their minimum as is.
    """
    pos = a_s[a_s > 0]
    return float(pos.min()) if pos.size else None


def scale_cross_block(g: WeightedGraph, p: NodePartition, factor: float) -> WeightedGraph:
    """Rescale only the observed/latent cross block of the adjacency.

    Verification plumbing: gated batches need cross weights far below the
    within-block scale, which a single weight range cannot express.
    """
    if factor < 0:
        raise DomainError("cross-block scale factor must be nonnegative")
    _, s_sp, sp_s, _ = p._meshes
    a = np.array(g.adjacency)
    a[s_sp] *= factor
    a[sp_s] *= factor
    return WeightedGraph(a)


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g: WeightedGraph) -> str:
    rec = {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges()]}
    return json.dumps(rec, sort_keys=True)

