import json
import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.linalg import fractional_matrix_power
from scipy.special import gammaln

from covpow import consistency
from covpow.consistency import (
    ConsistencyReport,
    ContourGate,
    FractionalGate,
    best_contour_gate,
    beta_integral_constant,
    certified_gates,
    commutation_error,
    consistency_threshold,
    contour_gate,
    default_epsilon_grid,
    delta_norm_bound_fractional,
    fractional_gate,
    is_structurally_consistent,
    osc,
    report_to_json,
    shrink_to_gate,
    verify_instance,
)
from covpow.errors import DomainError
from covpow.graphs import (
    NodePartition,
    ShiftSpectrum,
    WeightedGraph,
    _rho_lam,
    abar,
    interaction_operator,
    observed_a_min,
    partition_blocks,
    sample_inhomogeneous_er,
    scale_cross_block,
)
from covpow.matern import MaternModel, observed_covariance, population_covariance
from covpow.spd import SpdMatrix, operator_norm, spd_power_eig, spectral_norm


def _spectrum_of(shift: np.ndarray) -> ShiftSpectrum:
    """The ShiftSpectrum of a shifted operator written out as a symmetric matrix."""
    return ShiftSpectrum(*_rho_lam(np.linalg.eigvalsh(shift)))


def er_instance(
    seed, n_obs=7, n_lat=5, alpha=2.0, sigma=1.0, kappa=1.0, p_cross=0.3, target_rho=0.95
):
    g, p = sample_inhomogeneous_er(
        n_obs, n_lat, 0.6, 0.6, p_cross, seed=seed, target_rho=target_rho
    )
    if not np.all(g.degrees() > 0):
        return None
    return MaternModel(graph=g, kappa=kappa, alpha=alpha, sigma=sigma), p


def gated_instance(seed, alpha=2.0, sigma=1.0, target_frac=0.6):
    """Shrink the cross block until the fractional gate is satisfied."""
    inst = er_instance(seed, alpha=alpha, sigma=sigma)
    if inst is None:
        return None
    model, p = inst
    beta = 1 / alpha
    adj_s = partition_blocks(model.graph.adjacency, p)[0]
    off = adj_s[~np.eye(adj_s.shape[0], dtype=bool)]
    if not (off > 0).any() or (off == 0).sum() == 0:
        return None
    graph = model.graph
    for _ in range(60):
        shift, valid = abar(graph, model.kappa)
        cross = operator_norm(partition_blocks(graph.adjacency, p)[1])
        if not valid or cross == 0:
            return None
        a_min = float(off[off > 0].min())
        gate = fractional_gate(shift, beta, a_min, cross)
        if cross < target_frac * gate.gate:
            return MaternModel(graph=graph, kappa=model.kappa, alpha=alpha, sigma=sigma), p
        graph = scale_cross_block(graph, p, min(0.5, 0.5 * target_frac * gate.gate / cross))
    return None


class TestOsc:
    def test_three_by_three_example(self):
        m = np.array([[1.0, 2.0, 5.0], [3.0, 4.0, 6.0], [7.0, 8.0, 9.0]])
        assert osc(m) == 6.0

    def test_flat_shift_and_diagonal_invariance_exact(self):
        m = np.array([[1.0, 2.0, 5.0], [3.0, 4.0, 6.0], [7.0, 8.0, 9.0]])
        shifted = m + 10.0 * np.ones((3, 3)) + np.diag([3.0, -8.0, 100.0])
        assert osc(shifted) == 6.0

    def test_flat_shift_invariance_randomized(self):
        # dyadic entries (multiples of 1/64) make every sum exact in binary64,
        # so the invariance can be asserted with == rather than a tolerance
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = rng.integers(-640, 640, (n, n)) / 64
            b = float(rng.integers(-3200, 3200)) / 64
            d = rng.integers(-640, 640, n) / 64
            assert osc(m + b * np.ones((n, n)) + np.diag(d)) == osc(m)

    def test_identity_is_zero(self):
        assert osc(np.eye(4)) == 0.0

    def test_needs_two_nodes(self):
        with pytest.raises(DomainError):
            osc(np.array([[3.0]]))

    def test_osc_below_twice_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            assert osc(m) <= 2 * spectral_norm(m) + 1e-12

    def test_offdiag_entries_below_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            off = np.abs(m[~np.eye(n, dtype=bool)]).max()
            assert off <= spectral_norm(m) + 1e-12


class TestCommutationError:
    def test_full_observation_exactly_zero(self):
        model, _ = er_instance(3, p_cross=0.4)
        c = population_covariance(model)
        p_all = NodePartition.from_observed(model.n, range(model.n))
        delta = commutation_error(c, p_all, 0.5)
        assert_array_equal(delta.values, np.zeros((model.n, model.n)))

    def test_block_diagonal_is_zero(self):
        inst = er_instance(5, p_cross=0.0)
        model, p = inst
        c = population_covariance(model)
        delta = commutation_error(c, p, 1 / model.alpha)
        assert spectral_norm(delta) <= 1e-10

    def test_matches_independent_implementation(self):
        model, p = er_instance(7, n_obs=3, n_lat=1, alpha=2.0)
        beta = 1 / model.alpha
        c = population_covariance(model)
        delta = commutation_error(c, p, beta).values
        s = list(p.observed)
        c_s = c.values[np.ix_(s, s)]
        oracle = fractional_matrix_power(c_s, -beta) - fractional_matrix_power(
            c.values, -beta
        )[np.ix_(s, s)]
        assert np.max(np.abs(delta - np.real(oracle))) <= 1e-9

    def test_integral_methods_agree_with_eig(self):
        # keep the covariance well conditioned so default node counts converge
        model, p = er_instance(9, target_rho=0.6)
        c = population_covariance(model)
        d_eig = commutation_error(c, p, 0.5, method="eig").values
        d_sti = commutation_error(c, p, 0.5, method="stieltjes").values
        d_con = commutation_error(c, p, 0.5, method="contour").values
        assert np.max(np.abs(d_sti - d_eig)) <= 1e-8
        assert np.max(np.abs(d_con - d_eig)) <= 1e-8

    def test_contour_method_negative_beta(self):
        model, p = er_instance(11, target_rho=0.6)
        c = population_covariance(model)
        d_eig = commutation_error(c, p, -1.5, method="eig").values
        d_con = commutation_error(c, p, -1.5, method="contour").values
        assert np.max(np.abs(d_con - d_eig)) <= 1e-8

    def test_rejects_zero_beta_and_bad_method(self):
        model, p = er_instance(3)
        c = population_covariance(model)
        with pytest.raises(DomainError):
            commutation_error(c, p, 0.0)
        with pytest.raises(DomainError):
            commutation_error(c, p, 0.5, method="pade")
        with pytest.raises(DomainError):
            commutation_error(c, p, 1.5, method="stieltjes")


class TestStructureCheck:
    def test_exact_recovery_full_observability(self):
        model, _ = er_instance(13)
        op = (
            model.kappa**2 * np.diag(model.graph.degrees())
            + np.diag(model.graph.degrees())
            - model.graph.adjacency
        )
        est = model.sigma ** (-2 / model.alpha) * op
        check = is_structurally_consistent(est, model.graph, beta=1 / model.alpha)
        assert check.status == "consistent"
        assert check.margin > 0

    def test_not_applicable_when_observed_block_empty(self):
        truth = WeightedGraph(np.zeros((3, 3)))
        check = is_structurally_consistent(np.eye(3), truth, beta=0.5)
        assert check.status == "not_applicable"
        assert check.consistent is None

    def test_not_applicable_when_complete(self):
        truth = WeightedGraph(np.ones((3, 3)) - np.eye(3))
        check = is_structurally_consistent(np.eye(3), truth, beta=0.5)
        assert check.status == "not_applicable"

    def test_noise_below_half_margin_keeps_structure(self):
        truth = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0)])
        est = -truth.adjacency
        rng = np.random.default_rng(3)
        noise = rng.uniform(-0.4, 0.4, (4, 4))
        noise = (noise + noise.T) / 2
        check = is_structurally_consistent(est + noise, truth, beta=0.5)
        assert check.status == "consistent"

    def test_violation_detected(self):
        truth = WeightedGraph.from_edges(4, [(0, 1, 1.0)])
        est = -np.asarray(truth.adjacency)
        est = est.copy()
        est[2, 3] = est[3, 2] = -1.0  # disconnected pair as strong as a real edge
        check = is_structurally_consistent(est, truth, beta=0.5)
        assert check.status == "inconsistent"
        assert check.margin <= 0

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(4)
        for seed in range(50):
            n = int(rng.integers(3, 8))
            adj = np.where(rng.random((n, n)) < 0.4, rng.uniform(0.5, 1.5, (n, n)), 0.0)
            adj = np.triu(adj, 1)
            adj = adj + adj.T
            truth = WeightedGraph(adj)
            est = rng.standard_normal((n, n))
            beta = float(rng.choice([-1.0, 0.5, 2.0]))
            check = is_structurally_consistent(est, truth, beta)
            conn, disc = [], []
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    v = -est[i, j] if beta > 0 else est[i, j]
                    (conn if adj[i, j] > 0 else disc).append(v)
            if not conn or not disc:
                assert check.status == "not_applicable"
            else:
                margin = min(conn) - max(disc)
                assert check.margin == pytest.approx(margin, abs=1e-15)
                assert check.consistent == (margin > 0)

    def test_negative_beta_reads_raw_entries(self):
        truth = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
        est = np.array([[0.0, 5.0, 0.1], [5.0, 0.0, 0.2], [0.1, 0.2, 0.0]])
        check = is_structurally_consistent(est, truth, beta=-1.0)
        assert check.status == "consistent"


class TestThreshold:
    def test_examples(self):
        assert consistency_threshold(1.0, 1.0, 0.5) == 0.5
        assert consistency_threshold(1.0, 1.0, -3.0) == 0.5
        assert consistency_threshold(0.4, 1.0, 0.5) == pytest.approx(0.2)
        assert consistency_threshold(1.0, 2.0, 1.0) == pytest.approx(1 / 8)

    def test_rejects_missing_a_min(self):
        with pytest.raises(DomainError):
            consistency_threshold(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            consistency_threshold(None, 1.0, 0.5)


class TestBetaIntegralConstant:
    def test_half_matches_quadrature(self):
        want, _ = quad(lambda t: t**-0.5 * (1 + t) ** -3, 0, np.inf)
        got = beta_integral_constant(0.5)
        assert abs(got - want) <= 1e-8 * abs(want)
        assert abs(got - 3 * np.pi / 8) <= 1e-12

    def test_random_betas_match_quadrature(self):
        rng = np.random.default_rng(5)
        for beta in rng.uniform(0.05, 0.95, 10):
            want, _ = quad(lambda t: t**-beta * (1 + t) ** -3, 0, np.inf)
            assert abs(beta_integral_constant(beta) - want) <= 1e-8 * abs(want)

    def test_domain(self):
        for beta in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                beta_integral_constant(beta)


def _prefactor(shift, beta):
    """The fractional bound's prefactor h, as the fractional gate reports it."""
    return fractional_gate(shift, beta, a_min=1.0, cross_norm=0.0).prefactor


class TestFractionalBound:
    def test_zero_shift_closed_form(self):
        for beta in (0.25, 0.5, 0.75):
            want = (
                math.sin(math.pi * beta)
                * math.gamma(1 - beta)
                * math.gamma(2 + beta)
                / (2 * math.pi * beta**2)
            )
            zero = _spectrum_of(np.zeros((3, 3)))
            assert _prefactor(zero, beta) == pytest.approx(want, rel=1e-12)

    def test_grows_as_radius_approaches_one(self):
        vals = [
            _prefactor(_spectrum_of(np.diag([r, -0.1])), 0.5) for r in np.linspace(0.2, 0.95, 12)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_unstable_shift(self):
        with pytest.raises(DomainError, match="spectral radius must be < 1"):
            _prefactor(_spectrum_of(np.diag([1.2, 0.0])), 0.5)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_defined_for_beta_in_the_unit_interval(self, beta):
        message = f"^fractional bound needs beta in \\(0,1\\), got {beta}$"
        for call in (
            lambda: _prefactor(_spectrum_of(np.zeros((3, 3))), beta),
            lambda: delta_norm_bound_fractional(_spectrum_of(np.zeros((3, 3))), beta, 1.0, 0.0),
        ):
            with pytest.raises(DomainError, match=message):
                call()


class TestFractionalGate:
    def test_zero_cross_always_satisfied(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = rng.uniform(-0.8, 0.8, 4)
            gate = fractional_gate(_spectrum_of(np.diag(d)), 0.5, a_min=0.7, cross_norm=0.0)
            assert gate.satisfied
            assert gate.gate > 0
            assert gate.theta_bound == 0.0

    def test_control_below_stability(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = rng.uniform(-0.9, 0.9, 5)
            beta = float(rng.uniform(0.1, 0.9))
            a_min = float(rng.uniform(0.1, 2.0))
            gate = fractional_gate(_spectrum_of(np.diag(d)), beta, a_min, 0.0)
            assert gate.control <= gate.stability + 1e-15

    def test_dual_implementation_agreement(self):
        # same formulas, independently coded via logs and a rearranged root
        rng = np.random.default_rng(8)
        for _ in range(30):
            d = rng.uniform(-0.9, 0.9, 6)
            beta = float(rng.uniform(0.1, 0.9))
            a_min = float(rng.uniform(0.1, 2.0))
            cross = float(rng.uniform(0.0, 0.5))
            gate = fractional_gate(_spectrum_of(np.diag(d)), beta, a_min, cross)
            rho = np.max(np.abs(d))
            lam = np.min(d)
            h2 = (
                np.sin(np.pi * beta)
                / np.pi
                * np.exp(gammaln(1 - beta) + gammaln(2 + beta))
                * np.exp(
                    (2 / beta + 1) * np.log1p(-lam)
                    - (2 / beta + 2) * np.log1p(-rho)
                )
                / (2 * beta**2)
            )
            s2 = np.exp(
                np.log(beta)
                + (1 + 1 / beta) * np.log1p(-rho)
                - (1 / beta) * np.log1p(-lam)
            )
            c2 = s2 / np.sqrt(1 + 4 * s2**2 * h2 / a_min)
            assert gate.prefactor == pytest.approx(h2, rel=1e-12)
            assert gate.stability == pytest.approx(s2, rel=1e-12)
            assert gate.control == pytest.approx(c2, rel=1e-12)
            assert gate.gate == pytest.approx(min(s2, c2), rel=1e-12)
            assert gate.theta_bound == pytest.approx((cross / s2) ** 2, rel=1e-12)


class TestDeltaNormBound:
    def test_zero_cross_is_zero(self):
        assert delta_norm_bound_fractional(_spectrum_of(np.diag([0.3, -0.2])), 0.5, 1.0, 0.0) == 0.0

    def test_monotone_in_cross(self):
        shift = _spectrum_of(np.diag([0.3, -0.2]))
        s = fractional_gate(shift, 0.5, 1.0, 0.0).stability
        vals = [
            delta_norm_bound_fractional(shift, 0.5, 1.0, x)
            for x in np.linspace(0, 0.95 * s, 10)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_vacuous_above_stability(self):
        shift = _spectrum_of(np.diag([0.3, -0.2]))
        s = fractional_gate(shift, 0.5, 1.0, 0.0).stability
        with pytest.raises(DomainError):
            delta_norm_bound_fractional(shift, 0.5, 1.0, 1.1 * s)

    def test_bound_holds_on_gated_instances(self):
        checked = 0
        seed = 0
        while checked < 60 and seed < 400:
            seed += 1
            inst = gated_instance(seed)
            if inst is None:
                continue
            model, p = inst
            beta = 1 / model.alpha
            shift, _ = abar(model.graph, model.kappa)
            cross = operator_norm(partition_blocks(model.graph.adjacency, p)[1])
            bound = delta_norm_bound_fractional(shift, beta, model.sigma, cross)
            c = population_covariance(model)
            empirical = spectral_norm(commutation_error(c, p, beta))
            assert empirical <= bound
            checked += 1
        assert checked == 60


class TestSpectralInterval:
    """The contour gate's spectrum_low and spectrum_high enclose the covariance spectrum."""

    def test_invariants(self):
        for spec, sigma, message in (
            # lam above rho is no operator's spectrum: the lower end passes the upper
            (ShiftSpectrum(0.1, 0.5), 1.0, "need 0 < low <= high, got [4.0, 1.2345679012345678]"),
            # sigma**2 underflows, and with it both ends
            (ShiftSpectrum(0.5, -0.4), 1e-200, "need 0 < low <= high, got [0.0, 0.0]"),
        ):
            with pytest.raises(DomainError) as exc:
                best_contour_gate(spec, 2.0, 0.5, sigma, 0.7, 0.0)
            assert str(exc.value) == message

    def test_encloses_covariance_spectrum(self):
        for seed in range(20):
            inst = er_instance(seed, alpha=1.5, sigma=1.2)
            if inst is None:
                continue
            model, _ = inst
            shift, valid = abar(model.graph, model.kappa)
            if not valid:
                continue
            gate = best_contour_gate(shift, model.alpha, 0.5, model.sigma, 0.7, 0.0)
            eigs = population_covariance(model).eigenvalues
            assert eigs[0] >= gate.spectrum_low - 1e-12
            assert eigs[-1] <= gate.spectrum_high + 1e-12
            # lower end is exact, not just an envelope
            assert eigs[0] == pytest.approx(gate.spectrum_low, rel=1e-9)

    def test_requires_positive_alpha(self):
        for alpha in (-1.0, math.nan):
            with pytest.raises(DomainError, match="^spectral interval is defined for alpha > 0$"):
                best_contour_gate(_spectrum_of(np.zeros((2, 2))), alpha, 0.5, 1.0, 0.7, 0.0)


class TestAmplification:
    def test_covariance_cross_block_controlled(self):
        hits = 0
        for seed in range(40):
            inst = er_instance(seed, alpha=2.5, sigma=0.8)
            if inst is None:
                continue
            model, p = inst
            shift, valid = abar(model.graph, model.kappa)
            if not valid:
                continue
            amp = best_contour_gate(shift, model.alpha, 0.5, model.sigma, 0.7, 0.0).amplification
            c = population_covariance(model).values
            c_cross = operator_norm(partition_blocks(c, p)[1])
            a_cross = operator_norm(partition_blocks(model.graph.adjacency, p)[1])
            assert c_cross <= amp * a_cross + 1e-12
            hits += 1
        assert hits >= 20

    def test_requires_positive_alpha(self):
        with pytest.raises(DomainError, match="^spectral interval is defined for alpha > 0$"):
            best_contour_gate(_spectrum_of(np.zeros((2, 2))), 0.0, 0.5, 1.0, 0.7, 0.0)


class TestResolventBound:
    def test_schur_bound_holds(self):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(4, 10))
            k = int(rng.integers(2, n - 1))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            c = (q * rng.uniform(0.5, 3.0, n)) @ q.T
            s, sp = list(range(k)), list(range(k, n))
            # shrink the cross block to keep the interaction term below 1
            tau = 0.2
            c[np.ix_(s, sp)] *= tau
            c[np.ix_(sp, s)] *= tau
            eigs = np.linalg.eigvalsh(c)
            if eigs[0] <= 1e-10:
                continue
            c_s = c[np.ix_(s, s)]
            c_sp = c[np.ix_(sp, sp)]
            cross = np.linalg.norm(c[np.ix_(s, sp)], 2)
            theta = cross**2 / (
                np.linalg.eigvalsh(c_s)[0] * np.linalg.eigvalsh(c_sp)[0]
            )
            if theta >= 1:
                continue
            for lam in (0.1, 1.0, 10.0):
                full_inv = np.linalg.inv(c + lam * np.eye(n))
                r = np.linalg.inv(c_s + lam * np.eye(k)) - full_inv[np.ix_(s, s)]
                got = np.linalg.norm(r, 2)
                bound = cross**2 / ((1 - theta) * (eigs[0] + lam) ** 3)
                assert got <= bound + 1e-12
            checked += 1
        assert checked >= 30


class TestCrossBlockPowerBound:
    def test_power_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(4, 10))
            k = int(rng.integers(1, n))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            s, sp = list(range(k)), list(range(k, n))
            norm_m = np.linalg.norm(m, 2)
            cross_norm = np.linalg.norm(m[np.ix_(s, sp)], 2) if sp else 0.0
            mk = np.eye(n)
            for kk in range(1, 9):
                mk = mk @ m
                if not sp:
                    continue
                got = np.linalg.norm(mk[np.ix_(s, sp)], 2)
                assert got <= kk * norm_m ** (kk - 1) * cross_norm + 1e-9

    def test_equality_witness_at_k_one(self):
        # pure cross-block matrix: within-blocks are zero
        b = np.array([[1.0, 2.0], [0.5, -1.0]])
        m = np.zeros((4, 4))
        m[:2, 2:] = b
        m[2:, :2] = b.T
        got = np.linalg.norm(m[:2, 2:], 2)
        assert got == pytest.approx(1 * np.linalg.norm(b, 2), abs=1e-15)


class TestContourGate:
    def test_zero_cross_satisfied_and_theta_zero(self):
        shift = _spectrum_of(np.diag([0.4, -0.3]))
        gate = contour_gate(shift, 2.0, 0.5, 1.0, epsilon=0.2, a_min=0.7, cross_norm=0.0)
        assert gate.satisfied
        assert gate.theta_bound == 0.0
        assert gate.gate > 0

    def test_epsilon_domain(self):
        shift = _spectrum_of(np.diag([0.4, -0.3]))
        m = _spectrum_low(shift, 2.0, 1.0)
        for eps in (0.0, m, 2 * m):
            with pytest.raises(DomainError):
                contour_gate(shift, 2.0, 0.5, 1.0, eps, 0.7, 0.0)

    def test_requires_positive_alpha_and_nonzero_beta(self):
        shift = _spectrum_of(np.diag([0.4, -0.3]))
        with pytest.raises(DomainError):
            contour_gate(shift, -2.0, 0.5, 1.0, 0.1, 0.7, 0.0)
        with pytest.raises(DomainError):
            contour_gate(shift, 2.0, 0.0, 1.0, 0.1, 0.7, 0.0)

    def test_negative_beta_uses_upper_end(self):
        shift = _spectrum_of(np.diag([0.4, -0.3]))
        m_up = (1 - 0.4) ** -2.0  # sigma**2 (1 - rho)**(-alpha) at sigma 1, alpha 2
        gate = contour_gate(shift, 2.0, -1.0, 1.0, 0.1, 0.7, 0.0)
        assert gate.magnitude == pytest.approx(m_up + 0.1, rel=1e-12)

    def test_dual_implementation_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = rng.uniform(-0.8, 0.8, 5)
            alpha = float(rng.uniform(0.5, 3.0))
            beta = float(rng.choice([-1.5, 0.5, 2.0]))
            sigma = float(rng.uniform(0.5, 2.0))
            a_min = float(rng.uniform(0.2, 1.5))
            cross = float(rng.uniform(0.0, 0.3))
            rho, lam = np.max(np.abs(d)), np.min(d)
            m = sigma**2 * (1 - lam) ** -alpha
            m_up = sigma**2 * (1 - rho) ** -alpha
            eps = float(rng.uniform(0.05, 0.95)) * m
            gate = contour_gate(_spectrum_of(np.diag(d)), alpha, beta, sigma, eps, a_min, cross)
            radius = (m_up - m) / 2 + eps
            z = (m - eps) ** -beta if beta >= 0 else (m_up + eps) ** -beta
            k = radius * z / eps**3
            amp = sigma**2 * alpha * (1 - rho) ** (-alpha - 1)
            s_eps = eps / amp
            c_eps = s_eps / np.sqrt(1 + 4 * eps**2 * sigma ** (2 * beta) * k / a_min)
            assert gate.spectrum_low == pytest.approx(m, rel=1e-12)
            assert gate.spectrum_high == pytest.approx(m_up, rel=1e-12)
            assert gate.contour_constant == pytest.approx(k, rel=1e-12)
            assert gate.stability == pytest.approx(s_eps, rel=1e-12)
            assert gate.control == pytest.approx(c_eps, rel=1e-12)
            assert gate.gate == pytest.approx(min(s_eps, c_eps), rel=1e-12)
            assert gate.theta_bound == pytest.approx((amp * cross / eps) ** 2, rel=1e-12)

    def test_grid_maximization_reproducible(self):
        shift = _spectrum_of(np.diag([0.5, -0.4, 0.1]))
        alpha, beta, sigma, a_min, cross = 2.0, 0.5, 1.0, 0.7, 0.01
        best = best_contour_gate(shift, alpha, beta, sigma, a_min, cross)
        m = _spectrum_low(shift, alpha, sigma)
        grid = default_epsilon_grid(m)
        gates = [
            contour_gate(shift, alpha, beta, sigma, float(e), a_min, cross) for e in grid
        ]
        by_hand = max(gates, key=lambda g: g.gate)
        assert best == by_hand
        assert all(np.isfinite(g.gate) and g.gate > 0 for g in gates)


def _scalar_contour_gate(shift, alpha, beta, sigma, eps, a_min, cross):
    """The contour gate at one clearance, formula by formula on Python floats.

    This is the per-clearance evaluation best_contour_gate used to loop over;
    the grid evaluation must reproduce it bit for bit.
    """
    rho, lam = shift.rho, shift.lam
    m = sigma**2 * (1 - lam) ** (-alpha)
    m_up = sigma**2 * (1 - rho) ** (-alpha)
    if not 0 < eps < m:
        raise DomainError(f"epsilon must lie in (0, {m:.6g}), got {eps}")
    radius = (m_up - m) / 2 + eps
    magnitude = (m - eps) ** (-beta) if beta >= 0 else (m_up + eps) ** (-beta)
    k_const = radius * eps**-3 * magnitude
    amp = sigma**2 * alpha * (1 - rho) ** (-alpha - 1)
    s_eps = eps / amp
    c_eps = s_eps * math.sqrt(a_min / (4 * eps**2 * sigma ** (2 * beta) * k_const + a_min))
    g_eps = min(s_eps, c_eps)
    theta = (amp * cross / eps) ** 2
    return ContourGate(
        eps, m, m_up, radius, magnitude, k_const, amp, s_eps, c_eps, g_eps, theta, cross < g_eps
    )


def _scalar_best_contour_gate(shift, alpha, beta, sigma, a_min, cross, grid):
    gates = [_scalar_contour_gate(shift, alpha, beta, sigma, e, a_min, cross) for e in grid]
    return max(gates, key=lambda gate: gate.gate)  # ties keep the first


def _spectrum_low(shift, alpha, sigma):
    return sigma**2 * (1 - shift.lam) ** (-alpha)


# diagonal shifted operators of 2 to 6 nodes, each as its spectrum
_diag_spectra = st.lists(st.floats(-0.95, 0.95), min_size=2, max_size=6).map(
    lambda d: _spectrum_of(np.diag(d))
)
_clearance_fracs = st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6)
_contour_params = dict(
    shift=_diag_spectra,
    alpha=st.floats(0.25, 3.0),
    beta=st.floats(-2.0, 2.0).filter(lambda b: abs(b) >= 0.05),
    sigma=st.floats(0.5, 2.0),
    a_min=st.floats(0.05, 2.0),
    cross=st.floats(0.0, 2.0),
)


class TestContourGrid:
    """best_contour_gate evaluates the whole clearance grid in one float pass,
    each clearance formula by formula as _scalar_contour_gate does."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**_contour_params, fracs=_clearance_fracs, repeats=st.lists(st.integers(0, 5)))
    def test_every_field_matches_the_scalar_formula(
        self, shift, alpha, beta, sigma, a_min, cross, fracs, repeats
    ):
        m = _spectrum_low(shift, alpha, sigma)
        grid = [f * m for f in fracs] + [fracs[i % len(fracs)] * m for i in repeats]
        got = best_contour_gate(shift, alpha, beta, sigma, a_min, cross, grid)
        want = _scalar_best_contour_gate(shift, alpha, beta, sigma, a_min, cross, grid)
        assert repr(got) == repr(want)
        for eps in grid[:2]:
            args = (shift, alpha, beta, sigma, eps, a_min, cross)
            assert repr(contour_gate(*args)) == repr(_scalar_contour_gate(*args))

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(**_contour_params)
    def test_default_grid_matches_the_scalar_formula(self, shift, alpha, beta, sigma, a_min, cross):
        grid = default_epsilon_grid(_spectrum_low(shift, alpha, sigma)).tolist()
        got = best_contour_gate(shift, alpha, beta, sigma, a_min, cross)
        want = _scalar_best_contour_gate(shift, alpha, beta, sigma, a_min, cross, grid)
        assert repr(got) == repr(want)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        **_contour_params,
        fracs=_clearance_fracs,
        bad=st.lists(
            st.one_of(st.floats(-1.0, 0.0), st.floats(1.0, 3.0), st.just(math.nan)), min_size=1
        ),
        at=st.integers(0, 6),
    )
    def test_first_clearance_outside_the_spectrum_is_named(
        self, shift, alpha, beta, sigma, a_min, cross, fracs, bad, at
    ):
        m = _spectrum_low(shift, alpha, sigma)
        grid = [f * m for f in fracs]
        grid[at:at] = [b * m for b in bad]
        with pytest.raises(DomainError) as want:
            _scalar_best_contour_gate(shift, alpha, beta, sigma, a_min, cross, grid)
        with pytest.raises(DomainError) as got:
            best_contour_gate(shift, alpha, beta, sigma, a_min, cross, np.array(grid))
        assert str(got.value) == str(want.value)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(m=st.one_of(st.floats(1e-12, 1e12), st.floats(-12.0, 12.0).map(lambda e: 10.0**e)))
    def test_default_grid_is_geomspace_bit_for_bit(self, m):
        want = np.geomspace(0.01 * m, 0.99 * m, 20)
        assert default_epsilon_grid(m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", [[], (), np.array([])])
    def test_empty_grid_rejected_before_other_checks(self, grid):
        shift = _spectrum_of(np.diag([0.5, -0.4]))
        with pytest.raises(DomainError, match="^epsilon grid is empty$"):
            best_contour_gate(shift, 2.0, 0.5, 1.0, 0.7, 0.0, grid)
        with pytest.raises(DomainError, match="^epsilon grid is empty$"):
            best_contour_gate(shift, 2.0, 0.0, 1.0, -1.0, -1.0, grid)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_ties_keep_the_first_clearance(self):
        # the contour constant overflows to inf at these clearances, so every
        # gate is exactly 0 and the first clearance wins
        shift, alpha, beta, sigma, a_min = _spectrum_of(np.diag([0.99, -0.4])), 3.0, 0.5, 1.0, 0.7
        grid = [3e-102, 1e-102, 2e-102]
        got = best_contour_gate(shift, alpha, beta, sigma, a_min, 0.0, grid)
        want = _scalar_best_contour_gate(shift, alpha, beta, sigma, a_min, 0.0, grid)
        assert got.gate == 0.0 and got.epsilon == 3e-102
        assert repr(got) == repr(want)


def _numpy_best_contour_gate(shift, alpha, beta, sigma, a_min, cross, grid):
    """The grid as one numpy pass, where an overflowing power reads inf.

    np.float_power matches Python's float ** bit for bit where ** does not
    overflow, and gives inf where ** raises OverflowError.
    """
    rho, lam = shift.rho, shift.lam
    m = sigma**2 * (1 - lam) ** (-alpha)
    m_up = sigma**2 * (1 - rho) ** (-alpha)
    amp = sigma**2 * alpha * (1 - rho) ** (-alpha - 1)
    eps = np.array(grid, dtype=float)
    with np.errstate(all="ignore"):
        radius = (m_up - m) / 2 + eps
        magnitude = np.float_power(m - eps if beta >= 0 else m_up + eps, -beta)
        k_const = radius * np.float_power(eps, -3) * magnitude
        s_eps = eps / amp
        spread = 4 * np.float_power(eps, 2) * sigma ** (2 * beta) * k_const
        c_eps = s_eps * np.sqrt(a_min / (spread + a_min))
        g_eps = np.where(c_eps < s_eps, c_eps, s_eps)
        i = int(g_eps.argmax())
        theta = float(np.float_power(amp * cross / eps[i], 2))
    fields = (radius, magnitude, k_const, s_eps, c_eps, g_eps)
    radius, magnitude, k_const, s_eps, c_eps, gate = (f[i].item() for f in fields)
    return ContourGate(
        eps[i].item(), m, m_up, radius, magnitude, k_const, amp, s_eps, c_eps, gate, theta,
        cross < gate,
    )


class TestContourOverflow:
    """Where Python's float ** overflows, the float pass reads inf as numpy does."""

    SHIFT = _spectrum_of(np.diag([0.99, -0.4]))

    @pytest.mark.parametrize(
        "grid", [[1e-104], [1e-104, 3e-102], [0.2, 1e-104], [1e-110, 1e-105, 1e-104]]
    )
    def test_overflowing_clearance_gives_inf_fields_and_a_zero_gate(self, grid):
        # (1e-104) ** -3 overflows: ** raises OverflowError, np.float_power
        # gives inf; no RuntimeWarning either, which this suite turns into errors
        args = (self.SHIFT, 3.0, 0.5, 1.0, 0.7, 0.1)
        with pytest.raises(OverflowError):
            _scalar_contour_gate(*args[:4], 1e-104, *args[4:])
        got = best_contour_gate(*args, grid)
        assert repr(got) == repr(_numpy_best_contour_gate(*args, grid))
        if 0.2 not in grid:
            assert got.gate == 0.0 and got.epsilon == grid[0]
            assert got.contour_constant == math.inf

    def test_overflowing_magnitude(self):
        # a negative beta raises m_up + eps to a large positive power
        args = (self.SHIFT, 3.0, -200.0, 1.0, 0.7, 0.1)
        grid = [1e-3, 0.2]
        got = best_contour_gate(*args, grid)
        assert got.magnitude == math.inf
        assert repr(got) == repr(_numpy_best_contour_gate(*args, grid))

    def test_amplification_underflowing_to_zero(self):
        # sigma**2 * alpha underflows while the spectrum's lower end does not:
        # every stability reads eps / 0 = inf, as in numpy
        args = (self.SHIFT, 1e-10, 0.5, 1e-160, 0.7, 0.1)
        alpha, sigma = args[1], args[3]
        grid = default_epsilon_grid(_spectrum_low(self.SHIFT, alpha, sigma)).tolist()
        got = best_contour_gate(*args)
        assert got.amplification == 0.0
        assert got.stability == math.inf
        assert repr(got) == repr(_numpy_best_contour_gate(*args, grid))

    def test_subnormal_spectrum_has_no_default_grid(self):
        # 0.01 * m underflows to 0, so no clearance grid fits inside (0, m)
        args = (self.SHIFT, 1.0, 0.5, 1e-161, 0.7, 0.1)
        with pytest.raises(DomainError, match="is too small for a clearance grid"):
            best_contour_gate(*args)


def _pow_ref(x, y):
    try:
        return x**y
    except OverflowError:
        return math.inf


def _pow_loop_best_contour_gate(spec, alpha, beta, sigma, a_min, cross, grid):
    """Reference for best_contour_gate's clearance loop: one overflow-guarded call per
    power and min per clearance. The enclosure (m, m_up, amp) comes from _contour_form."""
    m, m_up, amp = consistency._contour_form(spec, alpha, sigma)
    half_spread, scale = (m_up - m) / 2, _pow_ref(sigma, 2 * beta)
    best = None
    for eps in grid:
        radius = half_spread + eps
        magnitude = _pow_ref(m - eps if beta >= 0 else m_up + eps, -beta)
        k_const = radius * _pow_ref(eps, -3) * magnitude
        s_eps = eps / amp if amp else math.inf
        c_eps = s_eps * math.sqrt(a_min / (4 * _pow_ref(eps, 2) * scale * k_const + a_min))
        g_eps = min(s_eps, c_eps)
        if best is None or g_eps > best[0]:
            best = (g_eps, eps, radius, magnitude, k_const, s_eps, c_eps)
    gate, epsilon, radius, magnitude, k_const, s_eps, c_eps = best
    return ContourGate(
        epsilon, m, m_up, radius, magnitude, k_const, amp, s_eps, c_eps, gate,
        _pow_ref(amp * cross / epsilon, 2), cross < gate,
    )


class TestContourPowLoop:
    """The bare-** clearance loop equals the _pow loop field by field, overflows included."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        rho=st.floats(0.0, 0.99),
        lam_frac=st.floats(-1.0, 1.0),
        # a tiny alpha with a sigma whose square is subnormal underflows amp to 0
        alpha=st.one_of(st.floats(0.25, 3.0), st.floats(1e-12, 1e-9)),
        sigma=st.one_of(st.floats(0.5, 2.0), st.floats(1e-160, 1e-155)),
        # large |beta| overflows the magnitude (m - eps) ** -beta or (m_up + eps) ** -beta
        beta=st.one_of(
            st.floats(-2.0, 2.0).filter(lambda b: abs(b) >= 0.05),
            st.floats(300.0, 1500.0),
            st.floats(-1500.0, -300.0),
        ),
        a_min=st.floats(0.05, 2.0),
        cross=st.floats(0.0, 2.0),
        # clearances from just below m down to 330 decades below it, where eps ** -3 overflows
        decades=st.lists(st.floats(0.005, 330.0), min_size=1, max_size=6),
    )
    @example(0.5, 0.0, 2.0, 1.0, 0.5, 0.7, 0.1, [110.0, 0.3])  # eps ** -3 overflows
    @example(0.5, -1.0, 3.0, 2.0, -1500.0, 0.7, 0.1, [0.3, 1.0])  # magnitude overflows
    @example(0.5, 0.0, 1e-10, 1e-160, 0.5, 0.7, 0.1, [0.3, 2.0])  # amp underflows to 0
    def test_every_field_equals_the_pow_loop(
        self, rho, lam_frac, alpha, sigma, beta, a_min, cross, decades
    ):
        spec = ShiftSpectrum(rho=rho, lam=lam_frac * rho)
        try:
            m = consistency._contour_form(spec, alpha, sigma)[0]
        except DomainError:
            assume(False)
        grid = [eps for eps in (m * 10.0**-d for d in decades) if 0 < eps < m]
        assume(grid)
        got = best_contour_gate(spec, alpha, beta, sigma, a_min, cross, grid)
        want = _pow_loop_best_contour_gate(spec, alpha, beta, sigma, a_min, cross, grid)
        for f in fields(ContourGate):
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name

    def test_examples_reach_every_overflow_branch(self):
        # one clearance in each example's regime takes the branch the example is named for
        spec = ShiftSpectrum(rho=0.5, lam=0.0)
        m = consistency._contour_form(spec, 2.0, 1.0)[0]
        got = best_contour_gate(spec, 2.0, 0.5, 1.0, 0.7, 0.1, [m * 1e-110])
        assert got.contour_constant == math.inf and got.gate == 0.0
        spec = ShiftSpectrum(rho=0.5, lam=-0.5)
        m = consistency._contour_form(spec, 3.0, 2.0)[0]
        assert best_contour_gate(spec, 3.0, -1500.0, 2.0, 0.7, 0.1, [m / 2]).magnitude == math.inf
        spec = ShiftSpectrum(rho=0.5, lam=0.0)
        m = consistency._contour_form(spec, 1e-10, 1e-160)[0]
        got = best_contour_gate(spec, 1e-10, 0.5, 1e-160, 0.7, 0.1, [m / 2])
        assert got.amplification == 0.0 and got.stability == math.inf


def _scalar_fractional_hs(shift, beta):
    """(h, s) of the fractional form, formula by formula on Python floats."""
    rho, lam = shift.rho, shift.lam
    core = 2 * (math.gamma(1 - beta) * math.gamma(2 + beta) / 2)
    h = (
        math.sin(math.pi * beta)
        / math.pi
        * core
        * (1 - lam) ** (2 / beta + 1)
        / (2 * beta**2 * (1 - rho) ** (2 / beta + 2))
    )
    s = beta * (1 - rho) ** (1 + 1 / beta) / (1 - lam) ** (1 / beta)
    return h, s


_fractional_params = dict(
    shift=_diag_spectra,
    beta=st.floats(0.05, 0.95),
    sigma=st.floats(0.5, 2.0),
    a_min=st.floats(0.05, 2.0),
    cross_frac=st.floats(0.0, 1.5),
)


class TestGateFormulaPins:
    """Every gate quantity equals its formula written out on Python floats, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(**_fractional_params)
    def test_fractional_form(self, shift, beta, sigma, a_min, cross_frac):
        h, s = _scalar_fractional_hs(shift, beta)
        cross = cross_frac * s
        c = s * math.sqrt(a_min / (4 * s**2 * h + a_min))
        g = min(s, c)
        want = FractionalGate(h, s, c, g, (cross / s) ** 2, cross < g)
        assert repr(fractional_gate(shift, beta, a_min, cross)) == repr(want)
        if cross < s:
            theta = (cross / s) ** 2
            bound = h / (sigma ** (2 * beta) * (1 - theta)) * cross**2
            got = delta_norm_bound_fractional(shift, beta, sigma, cross)
            assert repr(got) == repr(bound)
        else:
            with pytest.raises(DomainError, match="bound is vacuous"):
                delta_norm_bound_fractional(shift, beta, sigma, cross)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(shift=_diag_spectra, alpha=st.floats(0.25, 3.0), sigma=st.floats(0.5, 2.0))
    def test_contour_form_scalars(self, shift, alpha, sigma):
        rho, lam = shift.rho, shift.lam
        low, high = sigma**2 * (1 - lam) ** (-alpha), sigma**2 * (1 - rho) ** (-alpha)
        amp = sigma**2 * alpha * (1 - rho) ** (-alpha - 1)
        gate = best_contour_gate(shift, alpha, 0.5, sigma, 0.7, 0.0)
        got = (gate.spectrum_low, gate.spectrum_high, gate.amplification)
        assert repr(got) == repr((low, high, amp))


class TestCertifiedGates:
    SHIFT = _spectrum_of(np.array([[0.3, 0.2, 0.0], [0.2, -0.4, 0.1], [0.0, 0.1, 0.5]]))

    @pytest.mark.parametrize(
        "alpha, beta, fractional, contour",
        [
            (2.0, 0.5, True, True),
            (2.0, 0.9, False, False),  # power not matched to the smoothness
            (0.5, 2.0, False, True),  # matched, but beta outside (0,1)
            (-2.0, -0.5, False, False),
        ],
    )
    def test_selection_rule(self, alpha, beta, fractional, contour):
        sigma, a_min, cross = 1.2, 0.7, 0.01
        frac, cont = certified_gates(self.SHIFT, alpha, beta, sigma, a_min, cross)
        if fractional:
            assert frac == fractional_gate(self.SHIFT, beta, a_min, cross)
        else:
            assert frac is None
        if contour:
            assert cont == best_contour_gate(self.SHIFT, alpha, beta, sigma, a_min, cross)
        else:
            assert cont is None

    def test_unstable_spectrum_rejected(self):
        # the spectrum is plain data, as abar reports an invalid graph; every
        # gate function refuses it, and refuses a matrix by its type
        calls = (
            lambda shift: fractional_gate(shift, 0.5, 0.7, 0.0),
            lambda shift: delta_norm_bound_fractional(shift, 0.5, 1.0, 0.0),
            lambda shift: contour_gate(shift, 2.0, 0.5, 1.0, 0.1, 0.7, 0.0),
            lambda shift: best_contour_gate(shift, 2.0, 0.5, 1.0, 0.7, 0.0),
            lambda shift: certified_gates(shift, 2.0, 0.5, 1.0, 0.7, 0.0),
        )
        unstable = "shifted operator spectral radius must be < 1, got 1.0"
        for shift, message in (
            (ShiftSpectrum(rho=1.0, lam=-0.2), unstable),
            (np.diag([0.5, -0.2]), "gates read a ShiftSpectrum, got ndarray"),
        ):
            for call in calls:
                with pytest.raises(DomainError) as exc:
                    call(shift)
                assert str(exc.value) == message


_cross_norms = st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6).map(sorted)


def _assert_monotone_in_cross_norm(gates, crosses):
    """gate, stability and control ignore cross_norm; theta_bound grows with it."""
    first = gates[0]
    for gate, cross in zip(gates, crosses):
        assert (gate.gate, gate.stability, gate.control) == (
            first.gate,
            first.stability,
            first.control,
        )
        assert gate.satisfied == (cross < gate.gate)
    assert all(a.theta_bound <= b.theta_bound for a, b in zip(gates, gates[1:]))


class TestGateProperties:
    @settings(derandomize=True, deadline=None)
    @given(
        shift=_diag_spectra,
        beta=st.floats(0.05, 0.95),
        a_min=st.floats(0.05, 2.0),
        crosses=_cross_norms,
    )
    def test_fractional_gate_monotone_in_cross_norm(self, shift, beta, a_min, crosses):
        gates = [fractional_gate(shift, beta, a_min, c) for c in crosses]
        _assert_monotone_in_cross_norm(gates, crosses)

    @settings(derandomize=True, deadline=None)
    @given(
        shift=_diag_spectra,
        alpha=st.floats(0.25, 3.0),
        beta=st.floats(-2.0, 2.0).filter(lambda b: abs(b) >= 0.05),
        sigma=st.floats(0.5, 2.0),
        eps_frac=st.floats(0.05, 0.95),
        a_min=st.floats(0.05, 2.0),
        crosses=_cross_norms,
    )
    def test_contour_gate_monotone_in_cross_norm(
        self, shift, alpha, beta, sigma, eps_frac, a_min, crosses
    ):
        eps = eps_frac * _spectrum_low(shift, alpha, sigma)
        gates = [contour_gate(shift, alpha, beta, sigma, eps, a_min, c) for c in crosses]
        _assert_monotone_in_cross_norm(gates, crosses)


class TestShrinkToGate:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
        fraction=st.floats(0.35, 0.85),
        sigma=st.floats(0.7, 1.4),
        start=st.sampled_from([1.0, 0.1, 0.01, 0.001]),
    )
    def test_only_the_cross_block_shrinks_below_the_gate(
        self, seed, alpha, fraction, sigma, start
    ):
        # the acceptance-03 draw, its cross block started at or below the
        # gate too; the gate is recomputed from the shifted matrix
        g, p = sample_inhomogeneous_er(7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=seed)
        g = scale_cross_block(g, p, start)
        beta = 1 / alpha
        try:
            got = shrink_to_gate(g, p, 1.0, alpha, beta, sigma, fraction)
        except DomainError:
            return
        before, after = partition_blocks(g.adjacency, p), partition_blocks(got.adjacency, p)
        assert after[0].tobytes() == before[0].tobytes()
        assert after[3].tobytes() == before[3].tobytes()
        cross = operator_norm(after[1])
        if cross == 0:
            return
        shift, valid = abar(got, 1.0)
        assert valid
        off = before[0][~np.eye(len(p.observed), dtype=bool)]
        a_min = float(off[off > 0].min())
        gates = [best_contour_gate(shift, alpha, beta, sigma, a_min, cross).gate]
        if 0 < beta < 1:
            gates.append(fractional_gate(shift, beta, a_min, cross).gate)
        assert cross < fraction * max(gates)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n_obs=st.integers(3, 12),
        n_lat=st.integers(1, 8),
        p_in=st.tuples(st.floats(0.5, 0.95), st.floats(0.5, 0.95)),
        p_cross=st.floats(0.05, 0.5),
        kappa=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
        alpha=st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0]),
        sigma=st.floats(0.3, 3.0),
        fraction=st.sampled_from([0.9, 0.99, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_satisfied_gate_certifies_beyond_one_family(
        self, n_obs, n_lat, p_in, p_cross, kappa, alpha, sigma, fraction, seed
    ):
        # graphs of 4 to 20 nodes with their own edge densities, not only the
        # 7+4-node acceptance draw at kappa 1; a draw the sampler leaves
        # invalid at this kappa, or with a node held up by cross edges alone,
        # cannot be gated
        g, p = sample_inhomogeneous_er(n_obs, n_lat, *p_in, p_cross, seed=seed)
        params = dict(kappa=kappa, alpha=alpha, sigma=sigma)
        try:
            g = shrink_to_gate(g, p, beta=1 / alpha, target_fraction=fraction, **params)
            model = MaternModel(graph=g, **params)
        except DomainError:
            return
        report = verify_instance(model, p)
        gates = [gate for gate in (report.gate_fractional, report.gate_contour) if gate is not None]
        assert any(gate.satisfied for gate in gates)
        # None: the observed block lacks one pair kind, so there is no verdict
        assert report.empirically_consistent is not False
        if report.bound_fractional is not None:
            # the bound is exactly 0 for an empty cross block, where the computed
            # error is rounding on the scale of the population power's norm
            scale = sigma ** (-2 / alpha) * model.op_eigenvalues.max()
            assert report.delta_spectral_norm <= report.bound_fractional + 1e-12 * scale

    def test_fraction_one_is_accepted_and_leaves_a_satisfied_gate(self):
        g, p = sample_inhomogeneous_er(7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=3)
        got = shrink_to_gate(g, p, 1.0, 2.0, 0.5, 1.0, 1.0)
        report = verify_instance(MaternModel(got, kappa=1.0, alpha=2.0, sigma=1.0), p)
        gates = (report.gate_fractional, report.gate_contour)
        assert any(gate is not None and gate.satisfied for gate in gates)

    def test_a_cross_block_that_does_not_shrink_fails_after_80_steps(self, monkeypatch):
        # seed 3 takes two real steps; a scale that changes nothing never ends
        g, p = sample_inhomogeneous_er(7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=3)
        steps = []
        monkeypatch.setattr(consistency, "scale_cross_block", lambda g, p, f: steps.append(f) or g)
        with pytest.raises(DomainError, match="^cross block did not pass the gate after 80 shrink"):
            shrink_to_gate(g, p, 1.0, 2.0, 0.5, 1.0, 0.5)
        assert len(steps) == 80

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_non_finite_kappa_rejected_like_matern(self, kappa):
        # a non-finite kappa is named as the fault, not reported as an
        # invalid graph or passed on as inf and nan operator entries
        g, p = sample_inhomogeneous_er(7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=3)
        message = f"^kappa must be positive, got {kappa}$"
        for call in (
            lambda: interaction_operator(g, kappa),
            lambda: abar(g, kappa),
            lambda: shrink_to_gate(g, p, kappa, 2.0, 0.5, 1.0, 0.5),
            lambda: MaternModel(g, kappa=kappa, alpha=2.0, sigma=1.0),
        ):
            with pytest.raises(DomainError, match=message):
                call()


class TestGatePathCallCounts:
    """The numpy calls the gate path replaced stay replaced."""

    @staticmethod
    def counted(calls, name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    def test_shrink_run_meshes_each_partition_once(self, monkeypatch):
        # seed 3 of the acceptance-03 draw takes two shrink steps
        g, p = sample_inhomogeneous_er(7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=3)
        calls = Counter()
        for module, name in ((np, "ix_"), (np, "geomspace"), (consistency, "certified_gates")):
            monkeypatch.setattr(module, name, self.counted(calls, name, getattr(module, name)))
        shrink_to_gate(g, p, 1.0, 2.0, 0.5, 1.0, 0.5)
        assert calls["certified_gates"] >= 2
        # the meshes are views of one index array per set, without np.ix_, and
        # no contour gate calls geomspace
        assert calls["ix_"] == 0 and calls["geomspace"] == 0

    def test_eig_route_powers_the_observed_block_once(self, monkeypatch):
        model, p = gated_instance(23)
        dims = Counter()

        def counted(x, beta, _real=consistency.spd_power_eig):
            dims[x.dim] += 1
            return _real(x, beta)

        monkeypatch.setattr(consistency, "spd_power_eig", counted)
        verify_instance(model, p, method="eig")
        assert dims == {len(p.observed): 1, model.n: 1}


def _acceptance_step(seed, alpha=2.0, sigma=1.1):
    """One acceptance-03 shrink step through public functions.

    abar's spectrum, the shifted operator as a matrix, and the gate inputs.
    """
    g, p = sample_inhomogeneous_er(7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=seed)
    spec, valid = abar(g, 1.0)
    assert valid
    a_min = observed_a_min(g, p)
    cross = operator_norm(partition_blocks(g.adjacency, p)[1])
    matrix = np.eye(g.n) - interaction_operator(g, 1.0)
    return spec, matrix, (alpha, 1 / alpha, sigma, a_min, cross)


def _gates_of(shift, alpha, beta, sigma, a_min, cross):
    """Every gate function's result on one shifted operator, as one repr."""
    frac = fractional_gate(shift, beta, a_min, cross) if 0 < beta < 1 else None
    bound = None
    if frac is not None and cross < frac.stability:
        bound = delta_norm_bound_fractional(shift, beta, sigma, cross)
    best = best_contour_gate(shift, alpha, beta, sigma, a_min, cross)
    at_half = contour_gate(shift, alpha, beta, sigma, best.spectrum_low / 2, a_min, cross)
    gates = certified_gates(shift, alpha, beta, sigma, a_min, cross)
    return repr((frac, bound, best, at_half, gates))


class TestShiftInputs:
    """Every gate function gives on abar's spectrum what it gives on a fresh
    factorization of the shifted operator matrix."""

    # acceptance-03 draws whose shifted operator is valid (many are not)
    SEEDS = [1, 2, 3, 5, 8, 9, 10, 11, 14, 15, 17, 18]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("alpha", [2.0, 0.5, 1.0, 3.0])
    def test_spectrum_and_matrix_give_the_same_gates(self, seed, alpha, monkeypatch):
        spec, matrix, args = _acceptance_step(seed, alpha)
        calls = Counter()

        def counted(*a, _real=np.linalg.eigvalsh, **kw):
            calls["eigvalsh"] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        from_spectrum = _gates_of(spec, *args)
        # the gates never factor again what abar already factored
        assert not calls
        assert _gates_of(_spectrum_of(matrix), *args) == from_spectrum


_SHIFT = _spectrum_of(np.diag([0.4, -0.3]))
_TRUTH = WeightedGraph.from_edges(3, [(0, 1, 1.0)])


def _shrink(edges, observed, target_fraction=0.5, n=4):
    g = WeightedGraph.from_edges(n, edges)
    p = NodePartition.from_observed(n, observed)
    return shrink_to_gate(g, p, 1.0, 2.0, 0.5, 1.0, target_fraction)


def _verify(beta):
    model, p = er_instance(3)
    return verify_instance(model, p, beta=beta)


class TestInputChecks:
    """Each input check of the gate functions raises DomainError with its own message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: is_structurally_consistent(np.ones(3), _TRUTH, 0.5),
             "estimator must be square, got shape (3,)"),
            (lambda: is_structurally_consistent(np.eye(2), _TRUTH, 0.5),
             "estimator dim 2 does not match observed graph n=3"),
            (lambda: consistency_threshold(1.0, 0.0, 0.5), "sigma must be positive"),
            (lambda: fractional_gate(_SHIFT, 0.5, 0.0, 0.0), "gate needs a positive a_min"),
            (lambda: fractional_gate(_SHIFT, 0.5, None, 0.0), "gate needs a positive a_min"),
            (lambda: fractional_gate(_SHIFT, 0.5, 0.7, -1.0), "cross_norm must be nonnegative"),
            (lambda: delta_norm_bound_fractional(_SHIFT, 0.5, 0.0, 0.0), "sigma must be positive"),
            (lambda: delta_norm_bound_fractional(_SHIFT, 0.5, 1.0, -1.0),
             "cross_norm must be nonnegative"),
            (lambda: best_contour_gate(_SHIFT, 2.0, 0.5, 1.0, 0.0, 0.0),
             "gate needs a positive a_min"),
            (lambda: best_contour_gate(_SHIFT, 2.0, 0.5, 1.0, 0.7, -1.0),
             "cross_norm must be nonnegative"),
            (lambda: best_contour_gate(_SHIFT, 2.0, 0.5, -1.0, 0.7, 0.0), "sigma must be positive"),
            (lambda: default_epsilon_grid(0.0), "spectrum lower bound must be positive"),
            (lambda: default_epsilon_grid(math.nan), "spectrum lower bound must be positive"),
            # the observed node 0 has no edge at all, and so no a_min
            (lambda: _shrink([(2, 3, 0.3)], [0]),
             "observed block has no edges; nothing to gate against"),
            # degree-2 nodes at kappa 1 put the operator's top eigenvalue past 2
            (lambda: _shrink([(0, 1, 1.0), (2, 3, 1.0), (0, 2, 0.5)], [0, 1]),
             "graph invalid while gating (spectral radius >= 1)"),
            *[
                (lambda f=f: _shrink([(0, 1, 0.3), (2, 3, 0.3), (0, 2, 0.1)], [0, 1], f),
                 f"gate_target_fraction must lie in (0, 1], got {f}")
                # above 1 the shrink could stop with every gate unsatisfied
                for f in (0.0, -0.5, math.nan, math.inf, 1.5, 10.0)
            ],
            (lambda: _verify(0.0), "beta must be a finite nonzero real"),
            (lambda: _verify(math.inf), "beta must be a finite nonzero real"),
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


class TestVerifyInstance:
    def test_full_observability(self):
        model, _ = er_instance(15)
        p_all = NodePartition.from_observed(model.n, range(model.n))
        report = verify_instance(model, p_all)
        assert report.delta_spectral_norm == 0.0
        assert report.empirically_consistent is True
        assert report.beta == pytest.approx(1 / model.alpha)

    def test_block_diagonal_delta_vanishes(self):
        model, p = er_instance(17, p_cross=0.0)
        report = verify_instance(model, p)
        assert report.delta_spectral_norm <= 1e-10
        assert report.cross_norm == 0.0

    def test_gated_instance_is_consistent(self):
        inst = gated_instance(23)
        assert inst is not None
        model, p = inst
        report = verify_instance(model, p)
        assert report.gate_fractional is not None
        assert report.gate_fractional.satisfied
        assert report.empirically_consistent is True
        assert report.bound_fractional is not None
        assert report.delta_spectral_norm <= report.bound_fractional

    def test_osc_norm_invariant(self):
        for seed in (19, 21, 25):
            inst = er_instance(seed)
            if inst is None:
                continue
            model, p = inst
            report = verify_instance(model, p)
            assert report.delta_osc <= 2 * report.delta_spectral_norm + 1e-12

    def test_mismatched_beta_gets_no_gate(self):
        notes = (
            "fractional gate needs beta = 1/alpha in (0,1); "
            "contour gate needs beta = 1/alpha with alpha > 0"
        )
        model, p = er_instance(27)
        report = verify_instance(model, p, beta=0.9)  # alpha = 2, so 1/alpha = 0.5
        assert report.gate_fractional is None and report.gate_contour is None
        assert report.notes == notes
        # a negative alpha (beta = 1/alpha = -1) admits neither gate either
        model, p = er_instance(27, alpha=-1.0)
        report = verify_instance(model, p)
        assert report.gate_fractional is None and report.gate_contour is None
        assert report.notes == f"beta defaulted to 1/alpha; {notes}"

    def test_no_gate_claims_the_inconsistent_instance_at_beta_minus_2(self):
        # the contour formulas read satisfied here, with delta_osc 2.3e-5
        # against a threshold of 0.195, although thresholding fails: the
        # population power C^2 need not share the graph's support
        g, p = sample_inhomogeneous_er(
            7, 3, p_obs=0.5526306847481507, p_lat=0.7960367633281018,
            p_cross=0.4777630479251497, seed=98199196,
        )
        g = scale_cross_block(g, p, 0.0017080237656136926)
        model = MaternModel(graph=g, kappa=1.0, alpha=1.0, sigma=1.5408816142918003)
        report = verify_instance(model, p, beta=-2.0)
        assert report.empirically_consistent is False
        assert report.margin == pytest.approx(-0.479, abs=5e-4)
        assert report.gate_fractional is None and report.gate_contour is None
        spec, _ = abar(g, 1.0)
        a_min = observed_a_min(g, p)
        assert best_contour_gate(spec, 1.0, -2.0, model.sigma, a_min, report.cross_norm).satisfied
        # at the matched power the same instance is consistent, and gated
        report = verify_instance(model, p)
        assert report.empirically_consistent is True
        assert report.margin == pytest.approx(0.029, abs=5e-4)
        assert report.gate_contour.satisfied

    def test_zero_cross_block_leaves_twice_the_threshold(self):
        # no cross edges, no commutation error: at beta = 1/alpha the observed
        # power is sigma^(-2 beta) (kappa^2 D_S + L_S), whose entries sit a
        # whole smallest weight apart, twice the threshold
        rng = np.random.default_rng(5)
        ratios = []
        for seed in range(250):
            kappa = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
            sigma = float(rng.uniform(0.5, 2.0))
            n_obs, n_lat = int(rng.integers(3, 10)), int(rng.integers(1, 6))
            g, p = sample_inhomogeneous_er(n_obs, n_lat, 0.6, 0.6, 0.3, seed=seed)
            g = scale_cross_block(g, p, 0.0)
            try:
                model = MaternModel(graph=g, kappa=kappa, alpha=alpha, sigma=sigma)
            except DomainError:  # an isolated node
                continue
            report = verify_instance(model, p)
            if report.margin is not None:
                ratios.append(report.margin / report.threshold)
        assert len(ratios) > 120
        assert_allclose(ratios, 2.0, rtol=0, atol=1e-12)

    def test_report_serializes(self):
        model, p = er_instance(29)
        report = verify_instance(model, p)
        rec = json.loads(report_to_json(report))
        assert rec["beta"] == report.beta
        assert rec["gate_contour"]["satisfied"] == report.gate_contour.satisfied

    def test_single_observed_node_osc_undefined(self):
        g, _ = sample_inhomogeneous_er(2, 4, 1.0, 0.7, 0.5, seed=31)
        model = MaternModel(graph=g, kappa=1.0, alpha=2.0, sigma=1.0)
        p = NodePartition.from_observed(6, [0])
        report = verify_instance(model, p)
        assert report.delta_osc is None
        assert "oscillation undefined" in report.notes

    def test_factors_each_matrix_once(self, monkeypatch):
        model, p = gated_instance(23)
        calls = Counter()
        for name in ("eigh", "eigvalsh"):

            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = verify_instance(model, p)
        assert report.gate_fractional is not None and report.gate_contour is not None
        # one eigh for the observed block, one eigvalsh for the norm of delta
        assert calls == {"eigh": 1, "eigvalsh": 1}


class TestVerifyRoutes:
    """The integral routes of verify_instance against its eig route."""

    # 7+5-node draws at alpha 2 (beta 0.5), covariance condition numbers up to about 42
    INSTANCES = [inst for inst in map(er_instance, range(40)) if inst is not None]

    @pytest.mark.parametrize("method, rtol", [("stieltjes", 1e-10), ("contour", 1e-7)])
    def test_route_matches_eig(self, method, rtol):
        assert len(self.INSTANCES) == 39
        changed = ("delta_spectral_norm", "delta_osc")
        same = [f.name for f in fields(ConsistencyReport) if f.name not in changed]
        for model, p in self.INSTANCES:
            want = verify_instance(model, p)
            got = verify_instance(model, p, method=method)
            assert abs(got.delta_spectral_norm - want.delta_spectral_norm) <= (
                rtol * want.delta_spectral_norm
            )
            for name in same:
                assert getattr(got, name) == getattr(want, name), name

    def test_contour_node_count_is_bounded(self):
        c = SpdMatrix(np.diag([1.0, 2.0, 1e4]))
        p = NodePartition.from_observed(3, [0, 1])
        with pytest.raises(DomainError, match=r"needs 276312 nodes for condition number 10000,"):
            commutation_error(c, p, 0.5, method="contour")


class TestVerifyInstanceOracles:
    """verify_instance agrees with the public functions it stands in for."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 10_000), p_obs=st.floats(0.0, 1.0))
    def test_a_min_is_observed_a_min(self, seed, p_obs):
        # verify_instance reads a_min off the observed block it already cut
        g, p = sample_inhomogeneous_er(6, 4, p_obs, 0.6, 0.3, seed=seed)
        assume(np.all(g.degrees() > 0))
        a_min = observed_a_min(g, p)
        a_s = partition_blocks(g.adjacency, p)[0]
        upper = a_s[np.triu_indices_from(a_s, k=1)]
        assert a_min == (upper[upper > 0].min() if (upper > 0).any() else None)
        report = verify_instance(MaternModel(graph=g, kappa=1.0, alpha=2.0, sigma=1.3), p)
        if a_min is None:
            assert report.threshold is None and report.gate_contour is None
        else:
            assert report.threshold == consistency_threshold(a_min, 1.3, report.beta)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        kappa=st.floats(0.8, 1.5),
        alpha=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_report_matches_its_oracles(self, seed, kappa, alpha):
        g, p = sample_inhomogeneous_er(6, 4, 0.6, 0.6, 0.3, seed=seed)
        assume(np.all(g.degrees() > 0))
        sigma = 1.1
        model = MaternModel(graph=g, kappa=kappa, alpha=alpha, sigma=sigma)
        report = verify_instance(model, p)
        beta = report.beta

        c = population_covariance(model)
        assert report.delta_spectral_norm == spectral_norm(commutation_error(c, p, beta))
        est = spd_power_eig(observed_covariance(c, p), -beta)
        truth_s = WeightedGraph(partition_blocks(g.adjacency, p)[0])
        assert report.margin == is_structurally_consistent(est, truth_s, beta).margin
        full = NodePartition.from_observed(g.n, range(g.n))
        assert observed_covariance(c, full) is c

        shift, valid = abar(g, kappa)
        a_min = observed_a_min(g, p)
        if not valid or a_min is None:
            assert report.gate_fractional is None and report.gate_contour is None
            return
        want = certified_gates(shift, alpha, beta, sigma, a_min, report.cross_norm)
        for got, gate in zip((report.gate_fractional, report.gate_contour), want):
            assert (got is None) == (gate is None)
            if gate is None:
                continue
            assert got.satisfied == gate.satisfied
            for f in fields(gate):
                if f.name != "satisfied":
                    assert_allclose(getattr(got, f.name), getattr(gate, f.name), rtol=1e-9)
