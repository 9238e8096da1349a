"""GMM thresholding, signature extraction, and support-recovery tests."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpow.consistency import fractional_gate
from covpow.errors import DomainError
from covpow.graphs import (
    abar,
    partition_blocks,
    sample_inhomogeneous_er,
    scale_cross_block,
)
from covpow.matern import MaternModel, population_covariance
from covpow.signatures import (
    GmmFit,
    _fit_gmm_rows,
    _seed_means,
    class_signatures,
    extract_signature,
    fit_gmm_1d,
    gmm_threshold,
    gmm_to_dict,
    offdiag_magnitudes,
    signature_from_matrix,
    support_recovery_metrics,
    write_signature_csv,
)
from covpow.spd import SpdMatrix, operator_norm, spd_power_eig


def two_cluster_values(seed=0, n_per=200, lo=0.05, hi=0.95, width=0.01):
    rng = np.random.default_rng(seed)
    low = np.abs(rng.normal(lo, width, n_per))
    high = np.abs(rng.normal(hi, width, n_per))
    return np.concatenate([low, high])


def symmetric_fit(m1=0.2, m2=0.8, var=0.01, w=0.5):
    return GmmFit(
        weights=(w, 1 - w),
        means=(m1, m2),
        variances=(var, var),
        log_likelihood=0.0,
        iterations=1,
        converged=True,
        ll_trace=(0.0,),
    )


SPREAD_OUT_OF_RANGE = [[0, 1, 2, 1e160, 1e160], [0, 1e-300, 2e-300, 3e-300, 5e-300]]


class TestFitGmm:
    def test_separated_clusters_recovered(self):
        fit = fit_gmm_1d(two_cluster_values(seed=1))
        assert abs(fit.means[0] - 0.05) <= 0.02
        assert abs(fit.means[1] - 0.95) <= 0.02
        assert fit.converged
        assert abs(sum(fit.weights) - 1) <= 1e-9

    def test_log_likelihood_monotone(self):
        for seed in range(10):
            fit = fit_gmm_1d(two_cluster_values(seed=seed), tol=1e-12)
            trace = np.array(fit.ll_trace)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_same_seed_identical(self):
        vals = two_cluster_values(seed=3)
        a = fit_gmm_1d(vals, seed=7)
        b = fit_gmm_1d(vals, seed=7)
        assert a == b

    def test_weights_track_cluster_sizes(self):
        rng = np.random.default_rng(4)
        vals = np.concatenate(
            [np.abs(rng.normal(0.1, 0.01, 300)), np.abs(rng.normal(0.9, 0.01, 100))]
        )
        fit = fit_gmm_1d(vals)
        assert abs(fit.weights[0] - 0.75) <= 0.05

    def test_variance_floor_respected(self):
        vals = np.concatenate([np.full(100, 0.1), np.full(100, 0.9), [0.100001, 0.899999]])
        fit = fit_gmm_1d(vals)
        floor = 1e-8 * vals.var()
        assert fit.variances[0] >= floor
        assert fit.variances[1] >= floor

    def test_rejects_degenerate_input(self):
        with pytest.raises(DomainError):
            fit_gmm_1d([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(DomainError):
            fit_gmm_1d([0.1, 0.9, 0.5])
        with pytest.raises(DomainError):
            fit_gmm_1d([0.1, -0.2, 0.5, 0.9])


    def test_rejects_max_iter_below_one(self):
        with pytest.raises(DomainError, match="max_iter must be >= 1"):
            fit_gmm_1d(two_cluster_values(), max_iter=0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        # a negative or NaN tol ran EM to max_iter; an infinite one stopped it at once
        with pytest.raises(DomainError, match="^tol must be finite and nonnegative, got"):
            fit_gmm_1d(two_cluster_values(), tol=tol)

    @pytest.mark.parametrize("values", SPREAD_OUT_OF_RANGE)
    def test_rejects_squared_spread_out_of_float_range(self, values):
        # the D^2 seeding and the variance square the spread: 1e320 overflows, 2.5e-599 is 0
        with pytest.raises(DomainError, match="^squared spread of the values overflows"):
            fit_gmm_1d(values)


class TestBatchedEm:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        n=st.integers(9, 30),
        rows=st.lists(
            st.tuples(st.integers(0, 10_000), st.floats(0.0, 3.0), st.floats(1e-3, 1.0)),
            min_size=1,
            max_size=8,
        ),
        max_iter=st.integers(5, 40),
        tol=st.floats(1e-13, 1e-10),
        seed=st.integers(0, 99),
    )
    def test_each_row_equals_its_lone_fit(self, n, rows, max_iter, tol, seed):
        # two clusters a gap apart converge at differing iterations; the
        # last row, squares spread over [0, 1], needs more than 40, so it hits
        # max_iter
        x = []
        for row_seed, gap, width in rows:
            rng = np.random.default_rng(row_seed)
            x.append(np.abs(rng.normal(0.1, width, n) + gap * (np.arange(n) >= n // 2)))
        x.append(np.linspace(0.0, 1.0, n) ** 2)
        x = np.array(x)
        fits = _fit_gmm_rows(x, max_iter, tol, seed)
        assert not fits[-1].converged and fits[-1].iterations == max_iter
        for row, fit in zip(x, fits):
            lone = fit_gmm_1d(row, max_iter=max_iter, tol=tol, seed=seed)
            assert repr(fit) == repr(lone)  # repr tells every float64 apart


class TestSeeding:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        n=st.integers(4, 30),
        rows=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 30), st.booleans()),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 99),
    )
    def test_means_equal_a_generator_choice_per_row(self, n, rows, seed):
        # each row: a leading run of zeros, then values that tie when rounded;
        # both leave runs of equal steps in the choice's cumulative sum
        x = []
        for row_seed, zeros, rounded in rows:
            row = np.random.default_rng(row_seed).uniform(0.0, 1.0, n)
            row[: min(zeros, n - 2)] = 0.0
            x.append(np.round(row, 1) if rounded else row)
        x = np.array([row for row in x if np.ptp(row) > 0])
        if not len(x):
            x = np.linspace(0.0, 1.0, n)[None]
        expected = []
        for row in x:
            rng = np.random.default_rng(seed)
            first = row[rng.integers(n)]
            dist2 = (row - first) ** 2
            expected.append((first, row[rng.choice(n, p=dist2 / dist2.sum())]))
        assert _seed_means(x, seed).tobytes() == np.array(expected).tobytes()


class TestThreshold:
    def test_symmetric_components_midpoint(self):
        fit = symmetric_fit(m1=0.2, m2=0.8)
        assert gmm_threshold(fit) == 0.5

    def test_separated_fit_threshold_in_band(self):
        fit = fit_gmm_1d(two_cluster_values(seed=5))
        t = gmm_threshold(fit)
        assert 0.2 < t < 0.8

    def test_matches_bisection_oracle(self):
        fit = fit_gmm_1d(two_cluster_values(seed=6))
        (w1, w2), (m1, m2), (v1, v2) = fit.weights, fit.means, fit.variances

        def gap(x):
            # compare log densities: raw densities underflow between
            # well-separated sharp clusters
            l1 = np.log(w1) - 0.5 * np.log(2 * np.pi * v1) - (x - m1) ** 2 / (2 * v1)
            l2 = np.log(w2) - 0.5 * np.log(2 * np.pi * v2) - (x - m2) ** 2 / (2 * v2)
            return l1 - l2

        lo, hi = m1, m2
        assert gap(lo) > 0 and gap(hi) < 0
        for _ in range(200):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs(gmm_threshold(fit) - (lo + hi) / 2) <= 1e-8

    def test_wider_high_variance_moves_threshold_down(self):
        narrow = symmetric_fit(m1=0.2, m2=0.8, var=0.01)
        wide = GmmFit(
            weights=(0.5, 0.5),
            means=(0.2, 0.8),
            variances=(0.01, 0.04),
            log_likelihood=0.0,
            iterations=1,
            converged=True,
            ll_trace=(0.0,),
        )
        assert gmm_threshold(wide) < gmm_threshold(narrow)

    def test_equal_means_rejected(self):
        fit = GmmFit(
            weights=(0.5, 0.5),
            means=(0.5, 0.5),
            variances=(0.01, 0.02),
            log_likelihood=0.0,
            iterations=1,
            converged=True,
            ll_trace=(0.0,),
        )
        with pytest.raises(DomainError):
            gmm_threshold(fit)

    def test_threshold_between_means(self):
        for seed in range(10):
            fit = fit_gmm_1d(two_cluster_values(seed=seed))
            t = gmm_threshold(fit)
            assert fit.means[0] < t < fit.means[1]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.tuples(st.integers(2, 80), st.integers(2, 80)),
        centers=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
        widths=st.tuples(st.floats(1e-3, 2.0), st.floats(1e-3, 2.0)),
        fit_seed=st.integers(0, 100),
    )
    def test_threshold_between_means_property(self, seed, sizes, centers, widths, fit_seed):
        rng = np.random.default_rng(seed)
        x = np.abs(
            np.concatenate([rng.normal(c, w, n) for c, w, n in zip(centers, widths, sizes)])
        )
        fit = fit_gmm_1d(x, seed=fit_seed)
        t = gmm_threshold(fit)
        assert fit.means[0] < t < fit.means[1]


class TestExtractSignature:
    def test_zero_threshold_complete_graph(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0.1, 1.0, (4, 4))
        m = (m + m.T) / 2
        adj = extract_signature(m, 0.0)
        expected = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
        assert np.array_equal(adj, expected)

    def test_above_max_empty_graph(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(0.1, 1.0, (4, 4))
        m = (m + m.T) / 2
        iu = np.triu_indices(4, k=1)
        adj = extract_signature(m, np.abs(m[iu]).max() * 1.01)
        assert adj.sum() == 0

    def test_symmetry_and_no_self_loops(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        adj = extract_signature(m, 0.5)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)

    def test_exact_recovery_from_inverse_power(self):
        # off-diagonal of C^{-1/alpha} is -sigma^{-2/alpha} * A, so any
        # threshold strictly between 0 and the smallest scaled weight keeps
        # exactly the true support
        for seed in range(10):
            graph, _ = sample_inhomogeneous_er(
                5, 3, p_obs=0.5, p_lat=0.5, p_cross=0.4, seed=seed
            )
            model = MaternModel(graph=graph, kappa=1.0, alpha=2.0, sigma=1.3)
            cov = population_covariance(model)
            recovered = spd_power_eig(cov, -1.0 / model.alpha)
            weights = graph.adjacency[graph.adjacency > 0]
            a_min = weights.min()
            scale = model.sigma ** (-2.0 / model.alpha)
            adj = extract_signature(recovered, 0.5 * scale * a_min)
            assert np.array_equal(adj, (graph.adjacency > 0).astype(int))

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            extract_signature(np.eye(2), -0.1)

    def test_offdiag_magnitudes_content(self):
        m = np.array([[1.0, -2.0, 3.0], [-2.0, 1.0, -4.0], [3.0, -4.0, 1.0]])
        assert np.array_equal(offdiag_magnitudes(m), [2.0, 3.0, 4.0])
        assert offdiag_magnitudes(m).flags.c_contiguous
        # one C-ordered row per matrix of a stack, the layout `_fit_gmm_rows` reads
        for n in (1, 127, 128, 129, 300):
            scale = np.arange(1.0, n + 1)
            rows = offdiag_magnitudes(scale[:, None, None] * m)
            assert rows.flags.c_contiguous
            assert np.array_equal(rows, scale[:, None] * [2.0, 3.0, 4.0])


class TestSupportMetrics:
    def test_perfect_recovery(self):
        truth = np.zeros((4, 4), dtype=int)
        truth[0, 1] = truth[1, 0] = 1
        truth[2, 3] = truth[3, 2] = 1
        m = support_recovery_metrics(truth, truth)
        assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0
        assert m.hamming == 0.0

    def test_empty_estimate(self):
        truth = np.zeros((4, 4), dtype=int)
        truth[0, 1] = truth[1, 0] = 1
        m = support_recovery_metrics(np.zeros((4, 4), dtype=int), truth)
        assert m.precision is None
        assert m.recall == 0.0
        assert m.f1 is None

    def test_one_extra_one_missing(self):
        # 5-node truth with 4 edges; estimate drops one and adds one
        truth = np.zeros((5, 5), dtype=int)
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 4)):
            truth[i, j] = truth[j, i] = 1
        est = truth.copy()
        est[3, 4] = est[4, 3] = 0
        est[0, 4] = est[4, 0] = 1
        m = support_recovery_metrics(est, truth)
        assert m.precision == 0.75
        assert m.recall == 0.75
        assert abs(m.hamming - 2 / 10) <= 1e-15

    def test_weighted_truth_binarized(self):
        truth = np.zeros((3, 3))
        truth[0, 1] = truth[1, 0] = 0.7
        est = np.zeros((3, 3), dtype=int)
        est[0, 1] = est[1, 0] = 1
        m = support_recovery_metrics(est, truth)
        assert m.f1 == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            support_recovery_metrics(np.zeros((3, 3)), np.zeros((4, 4)))


class TestEndToEnd:
    def recovered_observed(self, seed):
        # gate the instance first: shrink the cross block until the
        # commutation error is provably below the separation margin
        graph, part = sample_inhomogeneous_er(
            7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=seed
        )
        if graph.degrees().min() <= 0:
            return None, None  # isolated node, operator singular
        alpha, kappa, sigma = 2.0, 1.0, 1.0
        adj_s = graph.adjacency[np.ix_(part.observed, part.observed)]
        off = adj_s[~np.eye(adj_s.shape[0], dtype=bool)]
        if not (off > 0).any() or (off == 0).sum() == 0:
            return None, None  # need both edge and non-edge pairs
        a_min = float(off[off > 0].min())
        for _ in range(60):
            shift, valid = abar(graph, kappa)
            blocks = partition_blocks(graph.adjacency, part)
            cross = operator_norm(blocks[1])
            if not valid or cross == 0:
                return None, None
            gate = fractional_gate(shift, 1 / alpha, a_min, cross)
            if cross < 0.6 * gate.gate:
                break
            graph = scale_cross_block(
                graph, part, min(0.5, 0.3 * gate.gate / cross)
            )
        else:
            return None, None
        if graph.degrees().min() < 1e-8:
            return None, None  # latent node held up only by the shrunk cross block
        model = MaternModel(graph=graph, kappa=kappa, alpha=alpha, sigma=sigma)
        cov = population_covariance(model)
        s = part.observed
        cov_s = SpdMatrix(cov.values[np.ix_(s, s)])
        recovered = spd_power_eig(cov_s, -1.0 / model.alpha)
        truth = (graph.adjacency[np.ix_(s, s)] > 0).astype(int)
        return recovered, truth

    def test_gmm_signature_recovers_sparse_observed_support(self):
        hits = 0
        total = 0
        for seed in range(30):
            recovered, truth = self.recovered_observed(seed)
            if recovered is None:
                continue
            iu = np.triu_indices(truth.shape[0], k=1)
            n_edges = int(truth[iu].sum())
            if n_edges == 0 or n_edges == len(iu[0]):
                continue  # GMM needs both clusters present
            total += 1
            adj, threshold, fit = signature_from_matrix(recovered, seed=seed)
            m = support_recovery_metrics(adj, truth)
            if m.f1 == 1.0:
                hits += 1
        assert total >= 15
        assert hits / total >= 0.9

    def test_class_mean_mode(self):
        rng = np.random.default_rng(5)
        base0 = np.eye(4)
        base0[0, 1] = base0[1, 0] = 0.9
        base1 = np.eye(4)
        base1[0, 2] = base1[2, 0] = 0.9
        mats, labels = [], []
        for label, base in ((0, base0), (1, base1)):
            for _ in range(5):
                noise = 0.01 * rng.uniform(0, 1, (4, 4))
                noise = (noise + noise.T) / 2
                np.fill_diagonal(noise, 0)
                mats.append(SpdMatrix(base + noise + 0.5 * np.eye(4)).values)
                labels.append(label)
        sigs = class_signatures(np.array(mats), labels, mode="class-mean")
        assert set(sigs) == {0, 1}
        assert sigs[0].adjacency[0, 1] == 1 and sigs[0].adjacency[0, 2] == 0
        assert sigs[1].adjacency[0, 2] == 1 and sigs[1].adjacency[0, 1] == 0
        assert sigs[0].n_matrices == 5
        assert sigs[0].fit is not None

    def test_per_matrix_mode_majority(self):
        strong = np.eye(3) + 0.8 * (np.ones((3, 3)) - np.eye(3))
        mats = np.array([SpdMatrix(strong).values] * 6)
        with pytest.raises(DomainError):
            # all off-diagonal magnitudes equal: zero spread
            class_signatures(mats, [0, 0, 0, 1, 1, 1], mode="per-matrix")

    def test_per_matrix_mode_equals_a_fit_per_matrix(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(24, 5, 12))
        mats = a @ a.transpose(0, 2, 1) / 12 + 0.1 * np.eye(5)
        labels = rng.integers(0, 2, len(mats))
        # max_iter 20 leaves some fits unconverged
        sigs = class_signatures(mats, labels, mode="per-matrix", max_iter=20, seed=3)
        for label in (0, 1):
            per = [signature_from_matrix(m, max_iter=20, seed=3) for m in mats[labels == label]]
            votes = np.sum([adj for adj, _, _ in per], axis=0)
            adj = (2 * votes >= len(per)).astype(int)
            np.fill_diagonal(adj, 0)
            assert np.array_equal(sigs[label].adjacency, adj)
            assert sigs[label].threshold == float(np.mean([t for _, t, _ in per]))
            assert sigs[label].n_matrices == len(per)

    def test_error_names_the_class_and_matrix(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 4, 8))
        mats = a @ a.transpose(0, 2, 1) / 8 + 0.1 * np.eye(4)
        labels = [0, 0, 0, 1, 1, 1]
        mats[3] = np.diag(np.diag(mats[3]))
        with pytest.raises(DomainError, match="^class 1, matrix 3: values have zero spread"):
            class_signatures(mats, labels, mode="per-matrix")
        mats[4:] = [np.diag(np.diag(m)) for m in mats[4:]]
        with pytest.raises(DomainError, match="^class 1: values have zero spread"):
            class_signatures(mats, labels, mode="class-mean")

    @pytest.mark.parametrize("values", SPREAD_OUT_OF_RANGE)
    def test_squared_spread_out_of_range_names_the_matrix(self, values):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(6, 4, 8))
        mats = a @ a.transpose(0, 2, 1) / 8 + 0.1 * np.eye(4)
        labels = [0, 0, 0, 1, 1, 1]
        sigs = class_signatures(mats, labels, mode="per-matrix")
        bad = np.zeros((4, 4))
        bad[np.triu_indices(4, k=1)] = [*values, values[1]]
        mats[4] = bad + bad.T
        with pytest.raises(DomainError, match="^class 1, matrix 4: squared spread"):
            class_signatures(mats, labels, mode="per-matrix")
        # the rows the check passes fit as before, alone or in a batch
        keep = [0, 1, 2, 3, 5]
        again = class_signatures(mats[keep], [labels[i] for i in keep], mode="per-matrix")
        assert repr(again[0]) == repr(sigs[0])
        x = offdiag_magnitudes(mats[keep])
        assert x.flags.c_contiguous
        for row, fit in zip(x, _fit_gmm_rows(x, 200, 1e-8, 0)):
            assert repr(fit) == repr(fit_gmm_1d(row))

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            class_signatures(np.empty((0, 2, 2)), [], mode="median")


def _fit(weights=(0.5, 0.5), means=(0.0, 1.0), variances=(1.0, 1.0)):
    return GmmFit(weights, means, variances, 0.0, 1, True, ())


class TestInputChecks:
    """Each input check no other test reaches raises DomainError with its own message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: _fit(weights=(0.3, 0.3)), "mixture weights must sum to 1, got (0.3, 0.3)"),
            (lambda: _fit(weights=(1.0, 0.0)), "mixture weights must lie in (0,1), got (1.0, 0.0)"),
            (lambda: _fit(variances=(0.0, 1.0)), "variances must be positive, got (0.0, 1.0)"),
            (lambda: _fit(means=(1.0, 0.0)), "components must be sorted by mean"),
            (lambda: offdiag_magnitudes(np.ones(3)),
             "need a square matrix of dim >= 2, got shape (3,)"),
            (lambda: offdiag_magnitudes(np.ones((1, 1))),
             "need a square matrix of dim >= 2, got shape (1, 1)"),
            (lambda: extract_signature(np.ones((2, 3)), 0.5),
             "need a square matrix, got shape (2, 3)"),
            (lambda: class_signatures(np.ones((2, 3, 3)), [0]),
             "need an (N, k, k) array and N labels, got (2, 3, 3), 1"),
            (lambda: class_signatures(np.ones((2, 3, 3)), [0, None]),
             "every feature needs a class label"),
            (lambda: class_signatures(np.ones((2, 3, 3)), [0, 0.5]), "labels must be 0/1"),
            (lambda: support_recovery_metrics(np.zeros((1, 1)), np.zeros((1, 1))),
             "need at least 2 nodes"),
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


class TestSerialization:
    def test_gmm_dict_fields(self):
        fit = fit_gmm_1d(two_cluster_values(seed=9))
        d = gmm_to_dict(fit)
        assert set(d) == {
            "weights",
            "means",
            "variances",
            "log_likelihood",
            "iterations",
            "converged",
        }
        json.dumps(d)

    def test_edge_csv_round_trip(self, tmp_path):
        adj = np.zeros((5, 5), dtype=int)
        for i, j in ((0, 1), (1, 4), (2, 3)):
            adj[i, j] = adj[j, i] = 1
        path = tmp_path / "sig.csv"
        write_signature_csv(adj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["src", "dst"], ["0", "1"], ["1", "4"], ["2", "3"]]
