import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covpow import graphs
from covpow.errors import DomainError
from covpow.graphs import (
    NodePartition,
    ShiftSpectrum,
    WeightedGraph,
    _rho_lam,
    abar,
    graph_to_dict,
    interaction_operator,
    laplacian,
    observed_a_min,
    partition_blocks,
    sample_inhomogeneous_er,
    scale_cross_block,
)


def two_node(w=1.0):
    return WeightedGraph(np.array([[0.0, w], [w, 0.0]]))


def triangle():
    a = np.ones((3, 3)) - np.eye(3)
    return WeightedGraph(a)


class TestWeightedGraph:
    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            WeightedGraph(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            WeightedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainError):
            WeightedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            WeightedGraph(np.array([[0.0, np.nan], [np.nan, 0.0]]))

    def test_adjacency_is_read_only(self):
        g = two_node()
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5.0

    def test_degrees_and_edges(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 0.5)])
        assert_allclose(g.degrees(), [2.0, 2.5, 0.5])
        assert g.edges() == [(0, 1, 2.0), (1, 2, 0.5)]

    def test_degrees_are_summed_once_and_read_only(self):
        g, _ = sample_inhomogeneous_er(7, 4, 0.5, 0.5, 0.15, seed=3)
        assert g.degrees() is g.degrees()
        assert g.degrees().tobytes() == g.adjacency.sum(axis=1).tobytes()
        with pytest.raises(ValueError):
            g.degrees()[0] = 5.0

    @pytest.mark.parametrize("node", [0, 2])
    def test_an_overflowing_degree_names_its_node(self, node):
        # every weight is finite, but two of them sum past the float maximum
        edges = [(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1), (node, 4, 1e308), (node, 5, 1e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError) as exc:
                WeightedGraph.from_edges(6, edges)
        assert str(exc.value) == f"degree of node {node} overflows the float range"

    def test_sampler_refuses_an_overflowing_degree_before_rescaling(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="^degree of node 0 overflows the float range$"):
                sample_inhomogeneous_er(4, 2, 1.0, 1.0, 1.0, weight_low=1e307, weight_high=1e308)

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            WeightedGraph.from_edges(2, [(0, 2, 1.0)])
        with pytest.raises(DomainError):
            WeightedGraph.from_edges(2, [(1, 1, 1.0)])


class TestNodePartition:
    def test_from_observed(self):
        p = NodePartition.from_observed(4, [2, 0])
        assert p.observed == (0, 2)
        assert p.latent == (1, 3)
        assert p.n == 4

    def test_rejects_empty_observed(self):
        with pytest.raises(DomainError):
            NodePartition(observed=(), latent=(0, 1))

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            NodePartition(observed=(0, 1), latent=(1, 2))

    def test_rejects_gap(self):
        with pytest.raises(DomainError):
            NodePartition(observed=(0, 3), latent=(1,))

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            NodePartition(observed=(1, 0), latent=())

    def test_all_observed_is_fine(self):
        p = NodePartition.from_observed(3, range(3))
        assert p.latent == ()

    @pytest.mark.parametrize("observed", [[5], [-1], [0, 3]])
    def test_observed_index_out_of_range(self, observed):
        with pytest.raises(DomainError) as exc:
            NodePartition.from_observed(3, observed)
        assert str(exc.value) == "observed indices out of range for n=3"


# Each construction fault with the message it raises; a list is in check order,
# so with several faults the first one's message comes out.
_ADJACENCY_FAULTS = {
    "non-finite": "adjacency has non-finite entries",
    "asymmetric": "adjacency must be exactly symmetric",
    "negative": "adjacency entries must be nonnegative",
    "diagonal": "adjacency diagonal must be zero",
}
_PARTITION_FAULTS = {
    "unsorted": "partition index lists must be sorted and duplicate-free",
    "duplicate": "partition index lists must be sorted and duplicate-free",
    "overlapping": "observed and latent sets must be disjoint",
    "gap": "partition must cover 0..n-1 without gaps",
}


def _fault_sets(faults):
    return st.lists(st.sampled_from(list(faults)), min_size=1, max_size=2, unique=True)


class TestCheckOrder:
    """With one or two faults, construction raises the first fault's message."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n=st.integers(3, 8),
        faults=_fault_sets(_ADJACENCY_FAULTS),
        seed=st.integers(0, 2**32 - 1),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_adjacency_fault_precedence(self, n, faults, seed, bad):
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.5), k=1)
        a = a + a.T
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]  # three distinct ones
        (i, j), (k, l), (p, q) = (pairs[t] for t in rng.choice(len(pairs), 3, replace=False))
        if "non-finite" in faults:
            a[i, j] = a[j, i] = bad
        if "negative" in faults:
            a[p, q] = a[q, p] = -rng.uniform(0.5, 2.0)
        if "asymmetric" in faults:
            a[k, l] += rng.uniform(0.1, 1.0)  # one entry only
        if "diagonal" in faults:
            d = int(rng.integers(n))
            a[d, d] = rng.uniform(0.5, 2.0)
        first = min(faults, key=list(_ADJACENCY_FAULTS).index)
        with pytest.raises(DomainError) as err:
            WeightedGraph(a)
        assert str(err.value) == _ADJACENCY_FAULTS[first]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        layout=st.lists(st.booleans(), min_size=3, max_size=10).filter(any),
        faults=_fault_sets(_PARTITION_FAULTS),
        extra=st.integers(0, 3),
    )
    def test_partition_fault_precedence(self, layout, faults, extra):
        n = len(layout)
        obs = [i for i in range(n) if layout[i]]
        lat = [i for i in range(n) if not layout[i]]
        # applied in the reverse of check order, so that no fault undoes an earlier one
        if "gap" in faults:
            top = obs if obs[-1] == n - 1 else lat
            top[-1] = n + extra
        if "overlapping" in faults:
            lat = sorted(lat + [obs[0]])
        if "duplicate" in faults:
            obs.insert(0, obs[0])
        if "unsorted" in faults:
            longer = obs if len(set(obs)) >= 2 else lat
            longer[0], longer[-1] = longer[-1], longer[0]
        first = min(faults, key=list(_PARTITION_FAULTS).index)
        with pytest.raises(DomainError) as err:
            NodePartition(observed=tuple(obs), latent=tuple(lat))
        assert str(err.value) == _PARTITION_FAULTS[first]


class TestOperators:
    def test_two_node_laplacian(self):
        assert_array_equal(laplacian(two_node()), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_laplacian(self):
        expected = 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        assert_array_equal(laplacian(triangle()), expected)

    def test_interaction_operator_two_node(self):
        # w = 0.5, kappa = 1: D = L = 0.5*[[1,-1],[-1,1]] shifted, sum is known
        op = interaction_operator(two_node(0.5), kappa=1.0)
        assert_allclose(op, [[1.0, -0.5], [-0.5, 1.0]])

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), kappa=st.sampled_from([1.0, 0.7, 1.3, 1e-3, 40.0]))
    def test_interaction_operator_is_its_definition_bit_for_bit(self, seed, kappa):
        # the degrees are summed once; signed zeros must match too
        g, _ = sample_inhomogeneous_er(7, 4, 0.5, 0.5, 0.15, seed=seed)
        got = interaction_operator(g, kappa)
        want = kappa**2 * np.diag(g.degrees()) + laplacian(g)
        assert got.tobytes() == want.tobytes()
        assert_array_equal(np.signbit(got), np.signbit(want))

    def test_interaction_operator_rejects_nonpositive_kappa(self):
        for kappa in (0.0, -1.0):
            with pytest.raises(DomainError):
                interaction_operator(two_node(), kappa)

    def test_interaction_operator_refuses_an_overflowing_kappa_by_name(self):
        # Python's float ** raises OverflowError at 1e200 ** 2
        with pytest.raises(DomainError, match=r"^kappa 1e\+200 squared overflows"):
            interaction_operator(two_node(), 1e200)
        with pytest.raises(DomainError, match="^kappa"):
            abar(two_node(), 1e200)

    @pytest.mark.parametrize(
        "graph, kappa, node",
        [
            # degree 1e308 is finite, but D + L doubles it on the diagonal
            (two_node(1e308), 1.0, 0),
            # kappa^2 * d overflows where d alone does not: first at node 1, whose
            # degree is below node 2's
            (WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1e109), (2, 3, 1e110)]),
             1e100, 1),
        ],
    )
    def test_interaction_operator_refuses_an_overflowing_diagonal_by_node(
        self, graph, kappa, node
    ):
        with pytest.raises(DomainError, match=f"^interaction operator diagonal .* at node {node} "):
            interaction_operator(graph, kappa)
        with pytest.raises(DomainError, match=f"at node {node} "):
            abar(graph, kappa)

    @pytest.mark.parametrize("kappa", [1e154, 1.3407807929942596e154, 1e-200])
    def test_interaction_operator_near_the_float_edge_is_its_definition(self, kappa):
        # kappa^2 just below the float maximum, and one that underflows to 0
        got = interaction_operator(two_node(0.5), kappa)
        want = kappa**2 * np.diag(two_node(0.5).degrees()) + laplacian(two_node(0.5))
        assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), kappa=st.sampled_from([1.0, 0.7, 1.3, 1e-3, 40.0]))
    def test_abar_is_the_shifted_operator_spectrum(self, seed, kappa):
        # bit for bit, and the flag reads the same eigenvalues
        g, _ = sample_inhomogeneous_er(7, 4, 0.5, 0.5, 0.15, seed=seed)
        spec, valid = abar(g, kappa)
        ev = np.linalg.eigvalsh(np.eye(g.n) - interaction_operator(g, kappa))
        assert repr(spec) == repr(ShiftSpectrum(*_rho_lam(ev)))
        assert valid == (np.abs(ev).max() < 1)

    def test_abar_two_node(self):
        # I - (D + L) = [[0, 0.5], [0.5, 0]], with eigenvalues -0.5 and 0.5
        spec, valid = abar(two_node(0.5), kappa=1.0)
        assert spec == ShiftSpectrum(rho=0.5, lam=-0.5)
        assert valid

    def test_abar_empty_graph_is_invalid(self):
        g = WeightedGraph(np.zeros((2, 2)))
        spec, valid = abar(g, kappa=1.0)
        assert spec == ShiftSpectrum(rho=1.0, lam=1.0)
        assert not valid

    def test_abar_spectrum_overflowing_to_inf_is_invalid(self):
        # a finite operator whose smallest eigenvalue, about -1.8e308, rounds to -inf
        a = np.full((3, 3), 6e307)
        np.fill_diagonal(a, 0.0)
        spec, valid = abar(WeightedGraph(a), kappa=1e-3)
        assert spec.rho == math.inf and spec.lam == -math.inf
        assert not valid

    def test_laplacian_annihilates_constants(self):
        g, _ = sample_inhomogeneous_er(6, 6, 0.5, 0.5, 0.3, seed=7)
        ones = np.ones(g.n)
        assert np.max(np.abs(laplacian(g) @ ones)) <= 1e-12

    def test_laplacian_is_psd(self):
        g, _ = sample_inhomogeneous_er(6, 6, 0.5, 0.5, 0.3, seed=11)
        assert np.linalg.eigvalsh(laplacian(g))[0] >= -1e-12


class TestPartitionBlocks:
    def test_three_by_three_nontrivial_split(self):
        m = np.arange(1.0, 10.0).reshape(3, 3)
        p = NodePartition.from_observed(3, [0, 2])
        ss, s_sp, sp_s, sp_sp = partition_blocks(m, p)
        assert_array_equal(ss, [[1.0, 3.0], [7.0, 9.0]])
        assert_array_equal(s_sp, [[2.0], [8.0]])
        assert_array_equal(sp_s, [[4.0, 6.0]])
        assert_array_equal(sp_sp, [[5.0]])

    def test_blocks_reassemble(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5))
        p = NodePartition.from_observed(5, [0, 2, 4])
        ss, s_sp, sp_s, sp_sp = partition_blocks(m, p)
        idx = list(p.observed) + list(p.latent)
        rebuilt = np.block([[ss, s_sp], [sp_s, sp_sp]])
        assert_array_equal(rebuilt, m[np.ix_(idx, idx)])

    def test_dimension_mismatch_rejected(self):
        p = NodePartition.from_observed(3, [0])
        with pytest.raises(DomainError):
            partition_blocks(np.zeros((4, 4)), p)


# an observed-node mask over 2..8 nodes with at least one observed node
_layouts = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
)


class TestCachedMeshes:
    """Block indexing through a partition's cached meshes equals np.ix_ indexing."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(layout=_layouts, seed=st.integers(0, 2**32 - 1), factor=st.floats(0.0, 2.0))
    def test_blocks_and_cross_scaling_match_ix(self, layout, seed, factor):
        n = len(layout)
        s = [i for i in range(n) if layout[i]]
        sp = [i for i in range(n) if not layout[i]]
        p = NodePartition.from_observed(n, s)
        rng = np.random.default_rng(seed)
        # the second matrix and the second graph index an already-cached partition
        for m in (rng.standard_normal((n, n)), rng.standard_normal((n, n))):
            want = (m[np.ix_(s, s)], m[np.ix_(s, sp)], m[np.ix_(sp, s)], m[np.ix_(sp, sp)])
            for got, block in zip(partition_blocks(m, p), want):
                assert got.shape == block.shape and got.tobytes() == block.tobytes()
        for _ in range(2):
            a = np.triu(rng.uniform(0.0, 2.0, (n, n)), k=1)
            a = a + a.T
            want = a.copy()
            want[np.ix_(s, sp)] *= factor
            want[np.ix_(sp, s)] *= factor
            got = scale_cross_block(WeightedGraph(a), p, factor).adjacency
            assert got.tobytes() == want.tobytes()
        assert not any(arr.flags.writeable for mesh in p._meshes for arr in mesh)


    @pytest.mark.parametrize(
        "n, observed", [(5, [0, 2, 3]), (4, [1]), (3, [0, 1, 2]), (6, [0, 1, 2, 3, 4])]
    )
    def test_meshes_equal_ix(self, n, observed):
        # (3, [0, 1, 2]) leaves the latent set empty, whose meshes stay intp
        p = NodePartition.from_observed(n, observed)
        s, sp = list(p.observed), list(p.latent)
        want = (np.ix_(s, s), np.ix_(s, sp), np.ix_(sp, s), np.ix_(sp, sp))
        assert len(p._meshes) == 4
        for got_mesh, want_mesh in zip(p._meshes, want):
            assert len(got_mesh) == 2
            for got, arr in zip(got_mesh, want_mesh):
                assert got.dtype == arr.dtype == np.intp
                assert got.shape == arr.shape
                assert_array_equal(got, arr)
                assert not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0


class TestErSampler:
    def test_draws_of_one_shape_share_one_partition(self):
        _, p1 = sample_inhomogeneous_er(7, 4, 0.5, 0.5, 0.15, seed=1)
        _, p2 = sample_inhomogeneous_er(7, 4, 0.5, 0.5, 0.15, seed=2, weight_high=2.0)
        assert p1 is p2

    @pytest.mark.parametrize(
        "shape", [(6, 5, 0.5, 0.5, 0.15), (7, 3, 0.5, 0.5, 0.15), (7, 4, 0.5, 0.5, 0.2)]
    )
    def test_a_draw_of_another_shape_gets_its_own_partition(self, shape):
        _, p = sample_inhomogeneous_er(7, 4, 0.5, 0.5, 0.15, seed=1)
        _, other = sample_inhomogeneous_er(*shape, seed=1)
        assert other is not p
        assert other == NodePartition.from_observed(shape[0] + shape[1], range(shape[0]))

    def test_cached_layout_is_read_only(self):
        part, upper, prob = graphs._draw_layout(7, 4, 0.5, 0.5, 0.15)
        assert upper.tobytes() == (~np.tri(11, dtype=bool)).tobytes()
        assert prob[0, 0] == prob[7, 7] == 0.5 and prob[0, 7] == prob[7, 0] == 0.15
        arrays = [upper, prob, *(arr for mesh in part._meshes for arr in mesh)]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert graphs._draw_layout(7, 4, 0.5, 0.5, 0.15)[0] is part

    def test_deterministic_in_seed(self):
        g1, _ = sample_inhomogeneous_er(5, 5, 0.4, 0.4, 0.2, seed=3)
        g2, _ = sample_inhomogeneous_er(5, 5, 0.4, 0.4, 0.2, seed=3)
        assert_array_equal(g1.adjacency, g2.adjacency)

    def test_distinct_seeds_differ(self):
        g1, _ = sample_inhomogeneous_er(8, 8, 0.5, 0.5, 0.5, seed=0)
        g2, _ = sample_inhomogeneous_er(8, 8, 0.5, 0.5, 0.5, seed=1)
        assert not np.array_equal(g1.adjacency, g2.adjacency)

    def test_zero_probabilities_give_empty_graph(self):
        g, p = sample_inhomogeneous_er(3, 2, 0.0, 0.0, 0.0, seed=0)
        assert_array_equal(g.adjacency, np.zeros((5, 5)))
        assert p.observed == (0, 1, 2)
        assert p.latent == (3, 4)

    def test_zero_cross_gives_block_diagonal(self):
        g, p = sample_inhomogeneous_er(6, 6, 1.0, 1.0, 0.0, seed=2)
        _, s_sp, sp_s, _ = partition_blocks(g.adjacency, p)
        assert_array_equal(s_sp, np.zeros((6, 6)))
        assert_array_equal(sp_s, np.zeros((6, 6)))

    def test_dense_draw_hits_target_rho(self):
        g, _ = sample_inhomogeneous_er(6, 6, 1.0, 1.0, 1.0, seed=5, target_rho=0.9)
        _, valid = abar(g, kappa=1.0)
        assert valid
        a_sym = np.eye(12) - interaction_operator(g, 1.0)
        rho = np.max(np.abs(np.linalg.eigvalsh(a_sym)))
        assert rho <= 0.9 + 1e-9

    def test_weight_ratio_preserved_by_rescale(self):
        # a single global factor cannot change max/min weight ratio
        g, _ = sample_inhomogeneous_er(
            6, 6, 1.0, 1.0, 1.0, weight_low=0.5, weight_high=1.5, seed=9
        )
        w = g.adjacency[g.adjacency > 0]
        assert w.max() / w.min() <= 3.0 + 1e-12

    def test_cross_edge_frequency_matches_p_cross(self):
        # 1000 seeds x 400 cross slots, Binomial(400000, 0.2): 3 sigma ~ 759
        p_cross = 0.2
        count = 0
        for seed in range(1000):
            g, p = sample_inhomogeneous_er(20, 20, 0.3, 0.3, p_cross, seed=seed)
            cross = partition_blocks(g.adjacency, p)[1]
            count += int(np.count_nonzero(cross))
        mean = 400 * 1000 * p_cross
        sigma = np.sqrt(400 * 1000 * p_cross * (1 - p_cross))
        assert abs(count - mean) <= 3 * sigma

    def test_precondition_violations(self):
        with pytest.raises(DomainError):
            sample_inhomogeneous_er(0, 5, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            sample_inhomogeneous_er(1, 0, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            sample_inhomogeneous_er(3, 3, 1.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            sample_inhomogeneous_er(3, 3, 0.5, 0.5, 0.5, weight_low=0.0)
        with pytest.raises(DomainError):
            sample_inhomogeneous_er(3, 3, 0.5, 0.5, 0.5, weight_low=2.0, weight_high=1.0)
        with pytest.raises(DomainError):
            sample_inhomogeneous_er(3, 3, 0.5, 0.5, 0.5, target_rho=1.0)


class TestObservedHelpers:
    def test_observed_a_min(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 0.3), (0, 2, 0.7), (2, 3, 0.1)])
        p = NodePartition.from_observed(4, [0, 1, 2])
        assert observed_a_min(g, p) == 0.3

    def test_observed_a_min_rejects_a_partition_of_another_size(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
        p = NodePartition.from_observed(4, [0, 1])
        with pytest.raises(DomainError, match=r"^matrix dim 3 does not match partition n=4$"):
            observed_a_min(g, p)

    def test_observed_a_min_none_without_edges(self):
        g = WeightedGraph.from_edges(3, [(0, 2, 1.0)])
        p = NodePartition.from_observed(3, [0, 1])
        assert observed_a_min(g, p) is None

    def test_scale_cross_block(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
        p = NodePartition.from_observed(4, [0, 1])
        h = scale_cross_block(g, p, 0.5)
        assert h.adjacency[1, 2] == 1.0
        assert h.adjacency[0, 1] == 1.0  # within-block untouched
        assert h.adjacency[2, 3] == 4.0
        assert_array_equal(h.adjacency, h.adjacency.T)

    def test_scale_cross_block_zero_disconnects(self):
        g, p = sample_inhomogeneous_er(5, 5, 0.8, 0.8, 0.8, seed=1)
        h = scale_cross_block(g, p, 0.0)
        _, s_sp, _, _ = partition_blocks(h.adjacency, p)
        assert_array_equal(s_sp, np.zeros_like(s_sp))

    def test_scale_cross_block_rejects_negative(self):
        g, p = sample_inhomogeneous_er(3, 3, 0.5, 0.5, 0.5, seed=0)
        with pytest.raises(DomainError):
            scale_cross_block(g, p, -1.0)


class TestSerialization:
    def test_json_round_trip_bitwise(self):
        g, _ = sample_inhomogeneous_er(5, 5, 0.6, 0.6, 0.4, seed=4)
        rec = json.loads(json.dumps(graph_to_dict(g)))
        h = WeightedGraph.from_edges(rec["n"], rec["edges"])
        assert_array_equal(g.adjacency, h.adjacency)

    def test_json_keeps_isolated_nodes(self):
        g = WeightedGraph.from_edges(5, [(0, 1, 1.0)])
        rec = graph_to_dict(g)
        assert rec["n"] == 5

    def test_json_schema(self):
        rec = graph_to_dict(two_node(0.75))
        assert rec == {"n": 2, "edges": [[0, 1, 0.75]]}
