"""Structural consistency of powered covariance blocks.

Powering the observed covariance block and observing the powered covariance
do not commute; their gap is the commutation error. Whenever the off-diagonal
oscillation of that error stays below half the smallest observed interaction
weight, one threshold still separates connected from disconnected node pairs,
so the observed block's fractional inverse power remains structurally
faithful. Two sufficient gates certify this a priori from the shifted
operator alone, for the power matched to the field smoothness, beta =
1/alpha: a fractional-power form (that power in (0,1)) and a contour form
(positive smoothness). The contour formulas take any nonzero power, but at
other powers the population power need not share the graph's support, so a
small commutation error certifies nothing there and no gate is handed out.
Both read that operator only through its spectral radius and smallest
eigenvalue, so every gate function takes those two scalars as a
ShiftSpectrum, as graphs.abar returns them, or a matrix it factors once;
certified_gates decides which gates apply, and shrink_to_gate scales a cross
block down until the strongest one admits it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .errors import DomainError, frozen
from .graphs import NodePartition, ShiftSpectrum, WeightedGraph, _min_weight, _rho_lam, abar
from .graphs import observed_a_min, partition_blocks, scale_cross_block
from .matern import MaternModel, observed_covariance, population_covariance
from .spd import (
    SpdMatrix,
    SymMatrix,
    _square,
    circular_contour,
    operator_norm,
    spd_power_contour,
    spd_power_eig,
    spd_power_stieltjes,
    spectral_norm,
)

__all__ = [
    "FractionalGate",
    "ContourGate",
    "StructureCheck",
    "ConsistencyReport",
    "osc",
    "commutation_error",
    "is_structurally_consistent",
    "consistency_threshold",
    "beta_integral_constant",
    "fractional_gate",
    "delta_norm_bound_fractional",
    "contour_gate",
    "default_epsilon_grid",
    "best_contour_gate",
    "certified_gates",
    "shrink_to_gate",
    "verify_instance",
]


@frozen
class FractionalGate:
    """Sufficient condition on the cross-block norm, fractional-power form.

    stability bounds the Neumann interaction term away from 1, control folds
    in the oscillation threshold, and the gate is their minimum. theta_bound
    is the certified upper bound on the interaction term at the given
    cross-block norm.
    """

    prefactor: float
    stability: float
    control: float
    gate: float
    theta_bound: float
    satisfied: bool


@frozen
class ContourGate:
    """Sufficient condition on the cross-block norm, contour form."""

    epsilon: float
    spectrum_low: float
    spectrum_high: float
    radius: float
    magnitude: float
    contour_constant: float
    amplification: float
    stability: float
    control: float
    gate: float
    theta_bound: float
    satisfied: bool


@frozen
class StructureCheck:
    """Outcome of comparing estimator entries against the true support."""

    status: str  # consistent | inconsistent | not_applicable
    consistent: bool | None
    margin: float | None


@frozen
class ConsistencyReport:
    """One instance's commutation error, structure verdict, gates and norm bound."""

    beta: float
    delta_spectral_norm: float
    delta_osc: float | None
    threshold: float | None
    cross_norm: float
    empirically_consistent: bool | None
    margin: float | None
    gate_fractional: FractionalGate | None
    gate_contour: ContourGate | None
    bound_fractional: float | None
    notes: str


def osc(m) -> float:
    """Spread of the off-diagonal entries: max minus min, ignoring the diagonal."""
    a = _square(m)
    if a.shape[0] < 2:
        raise DomainError("oscillation needs at least a 2x2 matrix")
    mask = ~np.eye(a.shape[0], dtype=bool)
    vals = a[mask]
    return float(vals.max() - vals.min())


def commutation_error(
    c: SpdMatrix, p: NodePartition, beta: float, method: str = "eig"
) -> SymMatrix:
    """Power-then-observe minus observe-then-power, on the observed block.

    method selects how both matrix powers are computed: "eig" (default),
    "stieltjes" (power in (0,1) only), or "contour". The integral methods are
    cross-checks; they share no factorization with the eigen path.
    """
    if beta == 0 or not math.isfinite(beta):
        raise DomainError("commutation error needs a finite beta != 0")
    c_s = observed_covariance(c, p)
    power_s = _minus_power(c_s, beta, method)
    return SymMatrix(power_s - _minus_power(c, beta, method)[p._meshes[0]])


_MAX_CONTOUR_NODES = 16384


def _minus_power(x: SpdMatrix, beta: float, method: str) -> np.ndarray:
    """X^(-beta) by one of commutation_error's methods.

    The contour route's trapezoid error decays like exp(-N / cond) on its
    circle (Trefethen & Weideman 2014), so it takes N = cond * ln(1e12) nodes,
    rounded up to a multiple of 8, and refuses more than _MAX_CONTOUR_NODES.
    """
    if method == "eig":
        return spd_power_eig(x, -beta).values
    if method == "stieltjes":
        return spd_power_stieltjes(x, beta).values
    if method == "contour":
        lo, hi = float(x.eigenvalues[0]), float(x.eigenvalues[-1])
        nodes = 8 * math.ceil(hi / lo * math.log(1e12) / 8)
        if nodes > _MAX_CONTOUR_NODES:
            raise DomainError(
                f"contour route needs {nodes} nodes for condition number {hi / lo:.6g}, "
                f"over its limit of {_MAX_CONTOUR_NODES}"
            )
        spec = circular_contour(lo, hi, 0.5 * lo, nodes=nodes)
        return spd_power_contour(x, beta, spec).values
    raise DomainError(f"unknown power method {method!r}")


def is_structurally_consistent(est, truth_s: WeightedGraph, beta: float) -> StructureCheck:
    """Does one threshold on the estimator split connected from disconnected pairs?

    For positive powers the structural entries appear negated (the operator
    off-diagonal is minus the adjacency), so the comparison flips sign there;
    negative powers are read raw. Needs at least one pair of each kind.
    """
    a = np.asarray(getattr(est, "values", est), dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"estimator must be square, got shape {a.shape}")
    if a.shape[0] != truth_s.n:
        raise DomainError(
            f"estimator dim {a.shape[0]} does not match observed graph n={truth_s.n}"
        )
    n = a.shape[0]
    off = ~np.eye(n, dtype=bool)
    connected = off & (truth_s.adjacency > 0)
    disconnected = off & (truth_s.adjacency == 0)
    if not connected.any() or not disconnected.any():
        return StructureCheck(status="not_applicable", consistent=None, margin=None)
    vals = -a if beta > 0 else a
    margin = float(vals[connected].min() - vals[disconnected].max())
    ok = margin > 0
    return StructureCheck(
        status="consistent" if ok else "inconsistent", consistent=ok, margin=margin
    )


def consistency_threshold(a_min: float, sigma: float, beta: float) -> float:
    """Oscillation budget below which structure survives: a_min/(2 sigma^(2 beta))."""
    if a_min is None or not a_min > 0:
        raise DomainError("a_min must be a positive weight (observed block has edges)")
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    try:
        return a_min / (2 * sigma ** (2 * beta))
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"consistency threshold out of float range at sigma {sigma}, beta {beta}")


def beta_integral_constant(beta: float) -> float:
    """Value of int_0^inf t^(-beta) (1+t)^(-3) dt for beta in (0,1).

    Closed form Gamma(1-beta) Gamma(2+beta) / 2; the fractional bound's
    scalar core.
    """
    if not 0 < beta < 1:
        raise DomainError(f"constant defined for beta in (0,1), got {beta}")
    return math.gamma(1 - beta) * math.gamma(2 + beta) / 2


def _spectrum(shift) -> ShiftSpectrum:
    """The ShiftSpectrum every gate function reads, refused unless rho < 1."""
    if not isinstance(shift, ShiftSpectrum):
        raise DomainError(f"gates read a ShiftSpectrum, got {type(shift).__name__}")
    if not shift.rho < 1:
        raise DomainError(f"shifted operator spectral radius must be < 1, got {shift.rho}")
    return shift


def _fractional_form(shift, beta: float) -> tuple[float, float]:
    """(h, s): the fractional bound's prefactor and its Neumann stability radius."""
    spec = _spectrum(shift)
    if not 0 < beta < 1:
        raise DomainError(f"fractional bound needs beta in (0,1), got {beta}")
    core = 2 * beta_integral_constant(beta)  # Gamma(1-b) Gamma(2+b)
    try:
        h = (
            math.sin(math.pi * beta)
            / math.pi
            * core
            * (1 - spec.lam) ** (2 / beta + 1)
            / (2 * beta**2 * (1 - spec.rho) ** (2 / beta + 2))
        )
        return h, beta * (1 - spec.rho) ** (1 + 1 / beta) / (1 - spec.lam) ** (1 / beta)
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"fractional bound out of float range at beta {beta}, rho {spec.rho}")


def _check_gate_inputs(a_min: float, cross_norm: float) -> None:
    """The a_min and cross_norm checks of both gates, in the same order."""
    if a_min is None or not a_min > 0:
        raise DomainError("gate needs a positive a_min")
    if cross_norm < 0:
        raise DomainError("cross_norm must be nonnegative")


def fractional_gate(shift, beta: float, a_min: float, cross_norm: float) -> FractionalGate:
    """Evaluate the fractional-form gate at a given cross-block norm."""
    _check_gate_inputs(a_min, cross_norm)
    h, s = _fractional_form(shift, beta)
    c = s * math.sqrt(a_min / (4 * s**2 * h + a_min))
    g = min(s, c)
    return FractionalGate(
        prefactor=h,
        stability=s,
        control=c,
        gate=g,
        theta_bound=_pow(cross_norm / s, 2),
        satisfied=bool(cross_norm < g),
    )


def delta_norm_bound_fractional(shift, beta: float, sigma: float, cross_norm: float) -> float:
    """Certified upper bound on the commutation-error spectral norm.

    Valid only under the stability condition cross_norm < s; outside it the
    Neumann argument breaks down and the bound is vacuous.
    """
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    if cross_norm < 0:
        raise DomainError("cross_norm must be nonnegative")
    h, s = _fractional_form(shift, beta)
    if cross_norm >= s:
        raise DomainError(
            f"cross_norm {cross_norm:.6g} >= stability {s:.6g}: bound is vacuous"
        )
    theta = (cross_norm / s) ** 2
    return h / (sigma ** (2 * beta) * (1 - theta)) * cross_norm**2


def _contour_form(shift, alpha: float, sigma: float) -> tuple[float, float, float]:
    """The covariance spectrum's enclosure [low, high] and the amplification factor.

    low is exact (the covariance eigenvalue map is monotone) and high, from the
    spectral radius, an envelope; amp turns an adjacency cross norm into a covariance one.
    """
    spec = _spectrum(shift)
    if not alpha > 0:
        raise DomainError("spectral interval is defined for alpha > 0")
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    try:
        low = sigma**2 * (1 - spec.lam) ** (-alpha)
        high = sigma**2 * (1 - spec.rho) ** (-alpha)
        if not 0 < low <= high:
            raise DomainError(f"need 0 < low <= high, got [{low}, {high}]")
        return low, high, sigma**2 * alpha * (1 - spec.rho) ** (-alpha - 1)
    except OverflowError:
        raise DomainError(f"contour bound out of float range at alpha {alpha}, sigma {sigma}")


def contour_gate(
    shift,
    alpha: float,
    beta: float,
    sigma: float,
    epsilon: float,
    a_min: float,
    cross_norm: float,
) -> ContourGate:
    """Evaluate the contour-form gate at a given clearance epsilon."""
    return best_contour_gate(shift, alpha, beta, sigma, a_min, cross_norm, [epsilon])


_STEPS = np.arange(20.0)
_STEPS.flags.writeable = False


def default_epsilon_grid(m: float) -> np.ndarray:
    """Twenty log-spaced clearance candidates inside (0, m).

    Bit for bit np.geomspace(0.01 * m, 0.99 * m, 20), spelled out as numpy's
    own linspace-then-power arithmetic to skip its general-case overhead.
    """
    if not m > 0:
        raise DomainError("spectrum lower bound must be positive")
    if not 0.01 * m > 0:
        raise DomainError(f"spectrum lower bound {m:.6g} is too small for a clearance grid")
    lo, hi = np.log10(0.01 * m), np.log10(0.99 * m)
    y = _STEPS * ((hi - lo) / 19) + lo
    y[-1] = hi
    grid = np.power(10.0, y)
    grid[0], grid[-1] = 0.01 * m, 0.99 * m
    return grid


def _pow(x: float, y: float) -> float:
    """x ** y for x > 0, with an overflow read as inf."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def best_contour_gate(
    shift,
    alpha: float,
    beta: float,
    sigma: float,
    a_min: float,
    cross_norm: float,
    epsilon_grid=None,
) -> ContourGate:
    """Contour gate maximized over a clearance grid; ties keep the first.

    Every clearance is evaluated in one pass on Python floats, formula by
    formula, so the best one's fields equal contour_gate at that clearance
    bit for bit. epsilon_grid=None takes default_epsilon_grid. A power that
    overflows reads inf, as np.float_power would give, where Python's float
    ** raises OverflowError: each clearance takes its three powers with bare
    **, and only a clearance where one of them overflows recomputes all three
    through _pow, so every field equals a loop of _pow calls bit for bit.
    """
    if epsilon_grid is not None:
        grid = list(map(float, epsilon_grid))
        if not grid:
            raise DomainError("epsilon grid is empty")
    if beta == 0 or not math.isfinite(beta):
        raise DomainError("contour gate needs a finite beta != 0")
    _check_gate_inputs(a_min, cross_norm)
    m, m_up, amp = _contour_form(shift, alpha, sigma)
    if epsilon_grid is None:
        grid = default_epsilon_grid(m).tolist()
    for eps in grid:  # a subnormal m can round a default clearance up to m
        if not 0 < eps < m:
            raise DomainError(f"epsilon must lie in (0, {m:.6g}), got {eps}")
    half_spread, scale = (m_up - m) / 2, _pow(sigma, 2 * beta)
    best = None
    for eps in grid:
        base = m - eps if beta >= 0 else m_up + eps
        try:  # bare ** on the common path; only an overflowing clearance pays for _pow
            magnitude, cube, square = base**-beta, eps**-3, eps**2
        except OverflowError:
            magnitude, cube, square = _pow(base, -beta), _pow(eps, -3), _pow(eps, 2)
        radius = half_spread + eps
        k_const = radius * cube * magnitude
        s_eps = eps / amp if amp else math.inf  # amp underflows to 0 at a subnormal sigma
        c_eps = s_eps * math.sqrt(a_min / (4 * square * scale * k_const + a_min))
        g_eps = c_eps if c_eps < s_eps else s_eps  # min(s_eps, c_eps), ties and NaN alike
        if best is None or g_eps > best[0]:
            best = (g_eps, eps, radius, magnitude, k_const, s_eps, c_eps)
    gate, epsilon, radius, magnitude, k_const, s_eps, c_eps = best
    return ContourGate(
        epsilon=epsilon,
        spectrum_low=m,
        spectrum_high=m_up,
        radius=radius,
        magnitude=magnitude,
        contour_constant=k_const,
        amplification=amp,
        stability=s_eps,
        control=c_eps,
        gate=gate,
        theta_bound=_pow(amp * cross_norm / epsilon, 2),
        satisfied=bool(cross_norm < gate),
    )


def certified_gates(
    shift,
    alpha: float,
    beta: float,
    sigma: float,
    a_min: float,
    cross_norm: float,
) -> tuple[FractionalGate | None, ContourGate | None]:
    """Every gate that applies to (alpha, beta); None for one that does not.

    Both gates need the power matched to the field smoothness, beta =
    1/alpha; the fractional gate also needs beta in (0,1), the contour gate
    alpha > 0.
    """
    spec = _spectrum(shift)
    frac = cont = None
    if abs(beta * alpha - 1) <= 1e-9:
        if 0 < beta < 1:
            frac = fractional_gate(spec, beta, a_min, cross_norm)
        if alpha > 0:
            cont = best_contour_gate(spec, alpha, beta, sigma, a_min, cross_norm)
    return frac, cont


def shrink_to_gate(
    graph: WeightedGraph,
    part: NodePartition,
    kappa: float,
    alpha: float,
    beta: float,
    sigma: float,
    target_fraction: float,
) -> WeightedGraph:
    """Shrink the cross block until the strongest certified gate admits it.

    Each step recomputes the gates, since shrinking changes the degrees, and
    stops once the cross-block norm is 0 or below target_fraction of the
    strongest gate. Raises DomainError when target_fraction is not in (0, 1],
    a node has only cross-block edges, no gate applies, or 80 steps do not suffice.
    """
    if not 0 < target_fraction <= 1:  # also rejects NaN
        raise DomainError(f"gate_target_fraction must lie in (0, 1], got {target_fraction}")
    blocks = partition_blocks(graph.adjacency, part)
    in_block = np.concatenate([blocks[0].sum(axis=1), blocks[3].sum(axis=1)])
    if in_block.min() <= 0 and operator_norm(blocks[1]) > 0:
        raise DomainError(
            "a node is held up only by cross-block edges; shrinking the cross "
            "block to pass the gate would isolate it"
        )
    a_min = observed_a_min(graph, part)
    if a_min is None:
        raise DomainError("observed block has no edges; nothing to gate against")
    for _ in range(80):
        # one eigvalsh serves the validity check and every gate
        spec, valid = abar(graph, kappa)
        cross = operator_norm(partition_blocks(graph.adjacency, part)[1])
        if not valid:
            raise DomainError("graph invalid while gating (spectral radius >= 1)")
        if cross == 0:
            return graph
        gates = certified_gates(spec, alpha, beta, sigma, a_min, cross)
        if gates == (None, None):
            raise DomainError(
                "gate_target_fraction needs an applicable gate: beta = 1/alpha with "
                f"alpha > 0, got alpha={alpha}, beta={beta}"
            )
        gate = max(g.gate for g in gates if g is not None)
        if cross < target_fraction * gate:
            return graph
        graph = scale_cross_block(graph, part, min(0.5, 0.5 * target_fraction * gate / cross))
    raise DomainError("cross block did not pass the gate after 80 shrink steps")


def verify_instance(
    model: MaternModel,
    p: NodePartition,
    beta: float | None = None,
    method: str = "eig",
) -> ConsistencyReport:
    """Full empirical-versus-certified consistency check on one instance.

    Computes the exact commutation error from the population covariance,
    checks structural consistency of the powered observed block against the
    true observed subgraph, and evaluates whichever gates apply. Both
    require the power to match the field smoothness, beta = 1/alpha; the
    fractional gate also requires beta in (0,1), the contour gate alpha > 0.
    """
    notes: list[str] = []
    if beta is None:
        beta = 1 / model.alpha
        notes.append("beta defaulted to 1/alpha")
    if beta == 0 or not math.isfinite(beta):
        raise DomainError("beta must be a finite nonzero real")

    c = population_covariance(model)
    c_s = observed_covariance(c, p)
    # the eig route's observed power doubles as the structure estimator
    est = spd_power_eig(c_s, -beta).values
    power_s = est if method == "eig" else _minus_power(c_s, beta, method)
    delta = SymMatrix(power_s - _minus_power(c, beta, method)[p._meshes[0]])
    delta_norm = spectral_norm(delta)
    n_obs = len(p.observed)
    delta_osc = osc(delta) if n_obs >= 2 else None
    if n_obs < 2:
        notes.append("observed block has one node; oscillation undefined")

    adj_s, cross, _, _ = partition_blocks(model.graph.adjacency, p)
    cross_norm = operator_norm(cross)
    truth_s = WeightedGraph(adj_s)
    a_min = _min_weight(adj_s)  # observed_a_min, read off the block already sliced

    threshold = None
    if a_min is not None:
        threshold = consistency_threshold(a_min, model.sigma, beta)
    else:
        notes.append("observed block has no edges; threshold and gates not applicable")

    check = is_structurally_consistent(est, truth_s, beta)
    if check.status == "not_applicable":
        notes.append("structure check not applicable: need both pair kinds in the observed block")

    # the shifted operator I - (kappa^2 D + L) has eigenvalues 1 - w, w ascending
    spec = ShiftSpectrum(*_rho_lam(1 - model.op_eigenvalues[::-1]))
    gate_frac = gate_cont = bound_frac = None
    if not spec.rho < 1:
        notes.append("shifted operator spectral radius >= 1; gates not applicable")
    elif a_min is not None:
        gate_frac, gate_cont = certified_gates(
            spec, model.alpha, beta, model.sigma, a_min, cross_norm
        )
        if gate_frac is None:
            notes.append("fractional gate needs beta = 1/alpha in (0,1)")
        elif cross_norm < gate_frac.stability:
            bound_frac = delta_norm_bound_fractional(spec, beta, model.sigma, cross_norm)
        if gate_cont is None:
            notes.append("contour gate needs beta = 1/alpha with alpha > 0")

    return ConsistencyReport(
        beta=float(beta),
        delta_spectral_norm=delta_norm,
        delta_osc=delta_osc,
        threshold=threshold,
        cross_norm=cross_norm,
        empirically_consistent=check.consistent,
        margin=check.margin,
        gate_fractional=gate_frac,
        gate_contour=gate_cont,
        bound_fractional=bound_frac,
        notes="; ".join(notes),
    )


def report_to_dict(report: ConsistencyReport) -> dict:
    return asdict(report)


def report_to_json(report: ConsistencyReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)
