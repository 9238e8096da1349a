"""AIR metric oracles and class-separation report tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpow.errors import DomainError, NumericalError
from covpow.features import FeatureMatrix, LabeledSeries, WindowSpec, power_features, empirical_covariance, sliding_windows
from covpow.geometry import (
    air_distance,
    class_distance_stats,
    distance_stats,
    pairwise_distance_matrix,
    report_to_dict,
    write_pairwise_csv,
)
from covpow.graphs import sample_inhomogeneous_er
from covpow.matern import MaternModel, sample_field
from covpow.pipeline import select_beta
from covpow.spd import SpdMatrix, SpdStack


def random_spd(rng, n, cond_low=1.0, cond_high=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lo = rng.uniform(0.1, 1.0)
    hi = lo * rng.uniform(cond_low, cond_high)
    w = rng.uniform(lo, hi, n)
    return SpdMatrix((q * w) @ q.T)


def feature(mat, label):
    return FeatureMatrix(matrix=mat, label=label)


def stack_of(feats):
    return SpdStack([f.matrix.values for f in feats])


class TestAirDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = random_spd(rng, 4)
            assert air_distance(x, x) <= 1e-12

    def test_scalar_multiple_closed_form(self):
        # d(I, aI) = sqrt(n) * |log a|
        x = SpdMatrix(np.eye(2))
        y = SpdMatrix(4.0 * np.eye(2))
        assert abs(air_distance(x, y) - np.sqrt(2) * np.log(4)) <= 1e-9

    def test_scalar_multiples_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = float(rng.uniform(0.2, 5.0))
            b = float(rng.uniform(0.2, 5.0))
            x = SpdMatrix(a * np.eye(n))
            y = SpdMatrix(b * np.eye(n))
            expected = np.sqrt(n) * abs(np.log(b / a))
            assert abs(air_distance(x, y) - expected) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = random_spd(rng, 5)
            y = random_spd(rng, 5)
            assert abs(air_distance(x, y) - air_distance(y, x)) <= 1e-9

    def test_congruence_invariance(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 6))
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            g = rng.standard_normal((n, n))
            if np.linalg.cond(g) > 50:
                continue
            xg = SpdMatrix(g @ x.values @ g.T)
            yg = SpdMatrix(g @ y.values @ g.T)
            d0 = air_distance(x, y)
            assert abs(air_distance(xg, yg) - d0) <= 1e-8 * max(1.0, d0)
            checked += 1

    def test_inversion_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            xi = SpdMatrix(np.linalg.inv(x.values))
            yi = SpdMatrix(np.linalg.inv(y.values))
            d0 = air_distance(x, y)
            assert abs(air_distance(xi, yi) - d0) <= 1e-8 * max(1.0, d0)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            x, y, z = (random_spd(rng, n) for _ in range(3))
            assert air_distance(x, z) <= air_distance(x, y) + air_distance(y, z) + 1e-8

    def test_positive_for_distinct(self):
        x = SpdMatrix(np.eye(3))
        y = SpdMatrix(np.diag([1.0, 1.0, 2.0]))
        assert air_distance(x, y) > 0.1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            air_distance(SpdMatrix(np.eye(2)), SpdMatrix(np.eye(3)))

    def test_rejects_raw_arrays(self):
        with pytest.raises(DomainError):
            air_distance(np.eye(2), np.eye(2))


class TestPairwiseMatrix:
    def test_shape_symmetry_zero_diagonal(self):
        rng = np.random.default_rng(6)
        feats = [feature(random_spd(rng, 3), i % 2) for i in range(5)]
        d = pairwise_distance_matrix(stack_of(feats))
        assert d.shape == (5, 5)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = [feature(random_spd(rng, 3), 0) for _ in range(4)]
        d = pairwise_distance_matrix(stack_of(feats))
        path = tmp_path / "pairwise.csv"
        write_pairwise_csv(d, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back, d)


def per_value_csv(d: np.ndarray) -> bytes:
    """The pairwise CSV with every cell formatted on its own."""
    lines = [",".join(f"m{j}" for j in range(d.shape[1]))]
    lines += [",".join(map(repr, row.tolist())) for row in d]
    return "".join(line + "\r\n" for line in lines).encode()


class TestPairwiseCsv:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(n=st.integers(0, 12), data=st.data())
    def test_bytes_equal_a_per_value_writer(self, tmp_path_factory, n, data):
        iu = np.triu_indices(n)
        value = st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-5, 0.1, 1e16]), st.floats(0.0, 1e300)
        )
        d = np.zeros((n, n))
        d[iu] = data.draw(st.lists(value, min_size=iu[0].size, max_size=iu[0].size))
        d.T[iu] = d[iu]
        path = tmp_path_factory.getbasetemp() / "pairwise.csv"
        write_pairwise_csv(d, path)
        assert path.read_bytes() == per_value_csv(d)

    @pytest.mark.parametrize(
        "d, match",
        [
            (np.zeros((2, 3)), r"need a square distance matrix, got shape \(2, 3\)"),
            (np.zeros(4), r"need a square distance matrix, got shape \(4,\)"),
            (np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, np.nextafter(3.0, 4.0), 0.0]]),
             r"not exactly symmetric at \(1, 2\)"),
            (np.array([[0.0, -0.0], [0.0, 0.0]]), r"not exactly symmetric at \(0, 1\)"),
        ],
    )
    def test_rejects_a_matrix_that_is_not_exactly_symmetric(self, tmp_path, d, match):
        with pytest.raises(DomainError, match=match):
            write_pairwise_csv(d, tmp_path / "pairwise.csv")
        assert not (tmp_path / "pairwise.csv").exists()


class TestClassStats:
    @pytest.mark.parametrize("labels", [[0, 2], [0, -1]])
    def test_labels_outside_0_1_rejected(self, labels):
        with pytest.raises(DomainError) as exc:
            distance_stats(np.zeros((2, 2)), labels)
        assert str(exc.value) == "labels must be 0/1"

    def test_identical_classes_not_separated(self):
        m = SpdMatrix(np.eye(2))
        feats = [feature(m, 0), feature(m, 0), feature(m, 1), feature(m, 1)]
        report = class_distance_stats(feats)
        assert report.intra_mean == (0.0, 0.0)
        assert report.inter_mean == 0.0
        assert report.separated is False

    def test_scalar_closed_forms(self):
        # class 0 = {I}, class 1 = {4I, 9I}, 2 dims
        feats = [
            feature(SpdMatrix(np.eye(2)), 0),
            feature(SpdMatrix(4.0 * np.eye(2)), 1),
            feature(SpdMatrix(9.0 * np.eye(2)), 1),
        ]
        report = class_distance_stats(feats)
        root2 = np.sqrt(2)
        assert report.intra_mean[0] is None
        assert abs(report.intra_mean[1] - root2 * np.log(9 / 4)) <= 1e-9
        expected_inter = root2 * (np.log(4) + np.log(9)) / 2
        assert abs(report.inter_mean - expected_inter) <= 1e-9
        assert report.n_pairs == {"intra_0": 0, "intra_1": 1, "inter": 2}
        # inter mean 2.53 exceeds the only defined intra mean 1.15
        assert report.separated is True

    def test_pair_counts(self):
        rng = np.random.default_rng(8)
        feats = [feature(random_spd(rng, 3), 0) for _ in range(3)]
        feats += [feature(random_spd(rng, 3), 1) for _ in range(4)]
        report = class_distance_stats(feats)
        assert report.n_pairs == {"intra_0": 3, "intra_1": 6, "inter": 12}

    def test_separated_flag_on_shifted_classes(self):
        rng = np.random.default_rng(9)
        feats = [
            feature(SpdMatrix(np.eye(3) + 0.01 * np.diag(rng.uniform(0, 1, 3))), 0)
            for _ in range(5)
        ]
        feats += [
            feature(SpdMatrix(50 * np.eye(3) + 0.01 * np.diag(rng.uniform(0, 1, 3))), 1)
            for _ in range(5)
        ]
        report = class_distance_stats(feats)
        assert report.separated is True
        assert report.inter_mean > report.intra_mean[0]
        assert report.inter_mean > report.intra_mean[1]

    def test_variances_are_population_style(self):
        feats = [
            feature(SpdMatrix(np.eye(2)), 0),
            feature(SpdMatrix(2 * np.eye(2)), 0),
            feature(SpdMatrix(np.eye(2)), 1),
            feature(SpdMatrix(3 * np.eye(2)), 1),
        ]
        report = class_distance_stats(feats)
        d = pairwise_distance_matrix(stack_of(feats))
        inter = [d[0, 2], d[0, 3], d[1, 2], d[1, 3]]
        assert abs(report.inter_variance - np.var(inter)) <= 1e-12

    def test_distance_stats_buckets_follow_index_order(self):
        rng = np.random.default_rng(12)
        labels = [1, 0, 0, 1, 0, 1, 1]
        feats = [feature(random_spd(rng, 3), c) for c in labels]
        d = pairwise_distance_matrix(stack_of(feats))
        report = distance_stats(d, labels)
        idx0 = [i for i, c in enumerate(labels) if c == 0]
        idx1 = [i for i, c in enumerate(labels) if c == 1]
        intra1 = [d[a, b] for k, a in enumerate(idx1) for b in idx1[k + 1 :]]
        inter = [d[i, j] for i in idx0 for j in idx1]
        assert report.intra_mean[1] == np.mean(intra1)
        assert report.inter_variance == np.var(inter)
        assert report == class_distance_stats(feats)
        with pytest.raises(DomainError):
            distance_stats(d[:-1, :-1], labels)
        with pytest.raises(DomainError):
            distance_stats(d, [0] * 7)

    def test_single_class_rejected(self):
        m = SpdMatrix(np.eye(2))
        with pytest.raises(DomainError):
            class_distance_stats([feature(m, 0), feature(m, 0)])

    def test_unlabeled_rejected(self):
        m = SpdMatrix(np.eye(2))
        with pytest.raises(DomainError):
            class_distance_stats(
                [feature(m, 0), FeatureMatrix(matrix=m, label=None)]
            )

    def test_report_json(self):
        feats = [
            feature(SpdMatrix(np.eye(2)), 0),
            feature(SpdMatrix(4 * np.eye(2)), 1),
            feature(SpdMatrix(9 * np.eye(2)), 1),
        ]
        rec = json.loads(json.dumps(report_to_dict(class_distance_stats(feats)), sort_keys=True))
        assert rec["n_pairs"]["inter"] == 2
        assert rec["intra_mean"][0] is None


class TestBatchedRows:
    """The batched AIR rows against the per-pair oracle."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 7), dim=st.integers(1, 5))
    def test_rows_equal_air_distance_and_are_congruence_invariant(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        mats = [random_spd(rng, dim) for _ in range(n)]
        d = pairwise_distance_matrix(SpdStack([m.values for m in mats]))
        assert d.shape == (n, n)
        assert np.array_equal(d, d.T)
        assert not np.diag(d).any()
        for i in range(n):
            for j in range(i + 1, n):
                ref = air_distance(mats[i], mats[j])
                assert d[i, j] == ref
        # a congruence G with singular values in [0.5, 2]
        u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        g = (u * rng.uniform(0.5, 2.0, dim)) @ v.T
        dg = pairwise_distance_matrix(SpdStack([g @ m.values @ g.T for m in mats]))
        assert np.all(np.abs(dg - d) <= 1e-8 * np.maximum(1.0, d))

    def test_failed_check_names_the_pair(self, monkeypatch):
        rng = np.random.default_rng(13)
        stack = SpdStack([random_spd(rng, 3).values for _ in range(5)])
        eigvalsh = np.linalg.eigvalsh

        def lost_definiteness(a):
            eig = eigvalsh(a)
            if len(eig) == 4:  # the first row: pairs (0, 1) .. (0, 4)
                eig[2, 0] = -1.0
            return eig

        monkeypatch.setattr(np.linalg, "eigvalsh", lost_definiteness)
        with pytest.raises(NumericalError, match=r"pair \(0, 3\): .*lost definiteness"):
            pairwise_distance_matrix(stack)

    def test_rejects_a_list(self):
        with pytest.raises(DomainError):
            pairwise_distance_matrix([SpdMatrix(np.eye(2))] * 2)


class TestMaternFeatureSeparation:
    def test_two_class_features_separated_at_selected_beta(self):
        # two structurally different random fields, windowed draws as a series
        g0, _ = sample_inhomogeneous_er(5, 3, p_obs=0.9, p_lat=0.3, p_cross=0.3, seed=20)
        g1, _ = sample_inhomogeneous_er(5, 3, p_obs=0.2, p_lat=0.8, p_cross=0.6, seed=21)
        m0 = MaternModel(graph=g0, kappa=1.0, alpha=1.0, sigma=1.0)
        m1 = MaternModel(graph=g1, kappa=1.0, alpha=1.0, sigma=1.0)
        t = 256
        x0 = sample_field(m0, t, seed=1)
        x1 = sample_field(m1, t, seed=2)
        series = LabeledSeries(
            samples=np.vstack([x0, x1]),
            labels=np.concatenate([np.zeros(t, dtype=int), np.ones(t, dtype=int)]),
        )
        spec = WindowSpec(length=32, overlap=0.5)
        result = select_beta(series, beta_grid=[-1.0, 0.5, 1.0], window_grid=[spec])
        windows = sliding_windows(series, spec)
        feats = [
            power_features(
                empirical_covariance(w.samples), result.beta_star, label=w.label
            )
            for w in windows
        ]
        report = class_distance_stats(feats)
        assert report.separated is True
