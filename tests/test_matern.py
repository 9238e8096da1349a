import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from covpow.errors import DomainError
from covpow.graphs import (
    NodePartition,
    WeightedGraph,
    interaction_operator,
    sample_inhomogeneous_er,
)
from covpow.matern import (
    MaternModel,
    model_to_dict,
    observed_covariance,
    population_covariance,
    sample_field,
    write_samples_csv,
)
from covpow.spd import SpdMatrix, SpdStack, spd_power_eig, spectral_norm


def two_node_model(alpha=1.0, sigma=1.0, kappa=1.0):
    g = WeightedGraph(np.array([[0.0, 0.5], [0.5, 0.0]]))
    return MaternModel(graph=g, kappa=kappa, alpha=alpha, sigma=sigma)


def er_model(seed=0, alpha=2.0, sigma=1.5, kappa=0.8, n_obs=5, n_lat=5):
    g, p = sample_inhomogeneous_er(n_obs, n_lat, 0.6, 0.6, 0.4, seed=seed)
    if not np.all(g.degrees() > 0):
        raise AssertionError("test graph draw has an isolated node; pick another seed")
    return MaternModel(graph=g, kappa=kappa, alpha=alpha, sigma=sigma), p


class TestMaternModel:
    def test_rejects_bad_parameters(self):
        g = WeightedGraph(np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(DomainError):
            MaternModel(graph=g, kappa=0.0, alpha=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            MaternModel(graph=g, kappa=1.0, alpha=0.0, sigma=1.0)
        with pytest.raises(DomainError):
            MaternModel(graph=g, kappa=1.0, alpha=1.0, sigma=-1.0)

    def test_rejects_singular_operator(self):
        # graph with an isolated node: row of zeros in kappa^2 D + L
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(DomainError):
            MaternModel(graph=g, kappa=1.0, alpha=1.0, sigma=1.0)

    def test_operator_spectrum_cached(self):
        m = two_node_model()
        assert_allclose(m.op_eigenvalues, [0.5, 1.5], atol=1e-14)


class TestPopulationCovariance:
    def test_two_node_closed_form(self):
        c = population_covariance(two_node_model())
        assert_allclose(c.values, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-12)

    def test_negative_alpha_gives_operator(self):
        m = two_node_model(alpha=-1.0)
        assert_allclose(
            population_covariance(m).values, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12
        )

    @pytest.mark.parametrize("alpha", [-1.5, 0.5, 2.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_is_the_stack_power_of_the_operator_bit_for_bit(self, alpha, sigma):
        # sigma^2 is a power of two, so scaling the spectrum by it is exact
        m, _ = er_model(seed=3, alpha=alpha, sigma=sigma)
        c = population_covariance(m)
        op = interaction_operator(m.graph, m.kappa)
        want = SpdStack([op]).power(-alpha)
        assert_array_equal(c.values, sigma**2 * want.values[0])
        assert_array_equal(c.eigenvalues, sigma**2 * want.eigenvalues[0])
        assert_array_equal(c.eigenvectors, want.eigenvectors[0])
        lone = spd_power_eig(SpdMatrix(op), -alpha)
        assert_array_equal(c.values, sigma**2 * lone.values)

    def test_sigma_doubling_quadruples(self):
        c1 = population_covariance(two_node_model(sigma=1.0)).values
        c2 = population_covariance(two_node_model(sigma=2.0)).values
        assert_allclose(c2, 4 * c1, atol=1e-12)

    def test_structural_recovery_full_observability(self):
        m, _ = er_model(seed=3, alpha=2.0, sigma=1.5)
        c = population_covariance(m)
        got = spd_power_eig(c, -1 / m.alpha).values
        want = m.sigma ** (-2 / m.alpha) * (
            m.kappa**2 * np.diag(m.graph.degrees())
            + np.diag(m.graph.degrees())
            - m.graph.adjacency
        )
        assert spectral_norm(got - want) <= 1e-8
        # off-diagonal is a rescaled negative of the adjacency
        off = got - np.diag(np.diag(got))
        assert_allclose(
            off, -m.sigma ** (-2 / m.alpha) * m.graph.adjacency, atol=1e-8
        )

    def test_lambda_min_mapping(self):
        # lambda_min(C) = sigma^2 (1 - lambda_min(shift))^(-alpha) for alpha > 0
        m, _ = er_model(seed=5, alpha=1.7, sigma=0.9)
        c = population_covariance(m)
        shift = np.eye(m.n) - (
            m.kappa**2 * np.diag(m.graph.degrees())
            + np.diag(m.graph.degrees())
            - m.graph.adjacency
        )
        lam_min_shift = np.linalg.eigvalsh(shift)[0]
        want = m.sigma**2 * (1 - lam_min_shift) ** (-m.alpha)
        got = c.eigenvalues[0]
        assert abs(got - want) <= 1e-9 * abs(want)


class TestSampleField:
    def test_seed_determinism(self):
        m, _ = er_model(seed=1)
        assert_array_equal(sample_field(m, 10, seed=42), sample_field(m, 10, seed=42))
        assert not np.array_equal(sample_field(m, 10, 42), sample_field(m, 10, 43))

    def test_shape_and_precondition(self):
        m = two_node_model()
        assert sample_field(m, 7, seed=0).shape == (7, 2)
        with pytest.raises(DomainError):
            sample_field(m, 0, seed=0)

    def test_monte_carlo_convergence_two_node(self):
        m = two_node_model()
        y = sample_field(m, 200000, seed=7)
        emp = y.T @ y / y.shape[0]
        want = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        rel = spectral_norm(emp - want) / spectral_norm(want)
        assert rel <= 0.02

    def test_error_decays_over_decades(self):
        m, _ = er_model(seed=2, n_obs=4, n_lat=4)
        want = population_covariance(m).values
        errs = []
        for n_samples in (100, 1000, 10000, 100000):
            y = sample_field(m, n_samples, seed=11)
            emp = y.T @ y / n_samples
            errs.append(spectral_norm(emp - want))
        assert errs == sorted(errs, reverse=True)


class TestObservedCovariance:
    def test_full_observation_is_identity_map(self):
        m, _ = er_model(seed=4)
        c = population_covariance(m)
        p = NodePartition.from_observed(m.n, range(m.n))
        assert_array_equal(observed_covariance(c, p).values, c.values)

    def test_diagonal_case(self):
        c = SpdMatrix(np.diag([1.0, 2.0, 3.0]))
        p = NodePartition.from_observed(3, [0, 2])
        assert_array_equal(observed_covariance(c, p).values, np.diag([1.0, 3.0]))

    def test_row_col_selection(self):
        m, p = er_model(seed=6)
        c = population_covariance(m)
        s = list(p.observed)
        got = observed_covariance(c, p).values
        assert_array_equal(got, c.values[np.ix_(s, s)])

    def test_dimension_mismatch(self):
        c = SpdMatrix(np.eye(3))
        with pytest.raises(DomainError):
            observed_covariance(c, NodePartition.from_observed(4, [0, 1]))


class TestModelIo:
    def test_dict_round_trip(self):
        m, _ = er_model(seed=8)
        rec = json.loads(json.dumps(model_to_dict(m)))
        graph = WeightedGraph.from_edges(rec["graph"]["n"], rec["graph"]["edges"])
        m2 = MaternModel(graph=graph, kappa=rec["kappa"], alpha=rec["alpha"], sigma=rec["sigma"])
        assert_array_equal(m2.graph.adjacency, m.graph.adjacency)
        assert (m2.kappa, m2.alpha, m2.sigma) == (m.kappa, m.alpha, m.sigma)

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 2)])
    def test_samples_csv_needs_a_matrix(self, tmp_path, shape):
        with pytest.raises(DomainError) as exc:
            write_samples_csv(np.zeros(shape), tmp_path / "samples.csv")
        assert str(exc.value) == "samples must be a 2-d array"

    def test_samples_csv_round_trip_bitwise(self, tmp_path):
        m, _ = er_model(seed=9)
        y = sample_field(m, 5, seed=1)
        path = tmp_path / "samples.csv"
        write_samples_csv(y, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(f"node{i}" for i in range(y.shape[1]))
        assert_array_equal(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2), y)
