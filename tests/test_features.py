import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covpow import features
from covpow.errors import DomainError
from covpow.features import (
    FeatureMatrix,
    LabeledSeries,
    WindowSpec,
    _window_covariances,
    _window_index,
    empirical_covariance,
    extract_features,
    power_features,
    read_feature_archive,
    read_series_csv,
    sliding_windows,
    write_feature_archive,
    write_series_csv,
)
from covpow.spd import _BLOCK, SpdMatrix, SpdStack, write_matrix_csv


def make_series(t=100, channels=3, seed=0, label_frac=0.3):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((t, channels))
    labels = (rng.random(t) < label_frac).astype(int)
    return LabeledSeries(samples=samples, labels=labels)


class TestLabeledSeries:
    def test_validation(self):
        with pytest.raises(DomainError):
            LabeledSeries(samples=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(DomainError):
            LabeledSeries(samples=np.zeros((5, 2)), labels=np.zeros(4, dtype=int))
        with pytest.raises(DomainError):
            LabeledSeries(samples=np.zeros((5, 2)), labels=np.full(5, 2))
        with pytest.raises(DomainError, match=r"nonempty 2-d array, got \(5, 0\)$"):
            LabeledSeries(samples=np.zeros((5, 0)), labels=np.zeros(5, dtype=int))

    def test_properties(self):
        s = make_series(t=50, channels=4)
        assert s.length == 50
        assert s.channels == 4


class TestWindowSpec:
    def test_stride_examples(self):
        assert WindowSpec(length=256, overlap=0.75).stride == 64
        assert WindowSpec(length=100, overlap=0.0).stride == 100

    def test_rejects_zero_stride(self):
        with pytest.raises(DomainError):
            WindowSpec(length=3, overlap=0.9)

    def test_integral_float_length_is_stored_as_an_int(self):
        # a float length once passed here and then failed as a numpy IndexError
        spec = WindowSpec(length=64.0, overlap=0.5)
        assert type(spec.length) is int and spec == WindowSpec(64, 0.5)
        starts, _ = _window_index(make_series(t=200, channels=2), spec)
        assert starts.tolist() == [0, 32, 64, 96, 128]

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            WindowSpec(length=64.5)
        with pytest.raises(DomainError):
            WindowSpec(length=0, overlap=0.0)
        with pytest.raises(DomainError):
            WindowSpec(length=10, overlap=1.0)
        with pytest.raises(DomainError):
            WindowSpec(length=10, overlap=-0.1)


class TestSlidingWindows:
    def test_documented_count(self):
        series = make_series(t=1000, channels=2)
        wins = sliding_windows(series, WindowSpec(length=256, overlap=0.75))
        assert len(wins) == 12
        assert wins[0].start == 0
        assert wins[1].start == 64
        assert all(w.stop - w.start == 256 for w in wins)
        assert wins[-1].stop <= 1000

    def test_exact_fit_single_window(self):
        series = make_series(t=64)
        wins = sliding_windows(series, WindowSpec(length=64, overlap=0.5))
        assert len(wins) == 1

    def test_tiling_without_overlap(self):
        series = make_series(t=120)
        wins = sliding_windows(series, WindowSpec(length=30, overlap=0.0))
        assert len(wins) == 4
        assert [w.start for w in wins] == [0, 30, 60, 90]

    def test_length_exceeds_series(self):
        series = make_series(t=10)
        with pytest.raises(DomainError):
            sliding_windows(series, WindowSpec(length=11))

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = int(rng.integers(10, 400))
            length = int(rng.integers(2, t + 1))
            overlap = float(rng.uniform(0, 0.9))
            spec = WindowSpec(length=length, overlap=overlap)
            series = make_series(t=t, channels=1, seed=int(rng.integers(1e6)))
            wins = sliding_windows(series, spec)
            starts = []
            pos = 0
            while pos + length <= t:
                starts.append(pos)
                pos += spec.stride
            assert [w.start for w in wins] == starts

    def test_window_samples_are_views_of_series(self):
        series = make_series(t=40, channels=2)
        wins = sliding_windows(series, WindowSpec(length=10, overlap=0.5))
        w = wins[2]
        assert_array_equal(w.samples, series.samples[w.start : w.stop])


    def test_exact_tie_votes_the_event_class(self):
        series = LabeledSeries(samples=np.zeros((2, 1)), labels=[0, 1])
        (window,) = sliding_windows(series, WindowSpec(length=2))
        assert window.label == 1


def old_window_loop(labels, t, spec):
    """The per-window loop that the window index replaced, kept as the oracle."""
    count = (t - spec.length) // spec.stride + 1
    starts = [i * spec.stride for i in range(count)]
    votes = [int(2 * labels[s : s + spec.length].sum() >= spec.length) for s in starts]
    return starts, votes


@st.composite
def labeled_windowing(draw):
    """A label series of length 1..300 and a window spec that fits it.

    Half the series are random labels; the other half alternate runs of one
    length, and windows are often short and even, so that many tie exactly.
    """
    t = draw(st.integers(1, 300))
    run, first = draw(st.integers(1, 12)), draw(st.integers(0, 1))
    if draw(st.booleans()):
        labels = (np.arange(t) // run + first) % 2
    else:
        labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, t)
    even = st.sampled_from([2, 2 * run, 4 * run]).filter(lambda n: n <= t)
    length = draw(st.integers(1, t) | even)
    overlap = draw(st.floats(0.0, 0.95, exclude_max=True))
    assume(int(round(length * (1 - overlap))) >= 1)
    return labels, WindowSpec(length=length, overlap=overlap)


class TestWindowIndex:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=labeled_windowing())
    def test_matches_the_per_window_loop(self, case):
        labels, spec = case
        series = LabeledSeries(samples=np.zeros((labels.size, 1)), labels=labels)
        want_starts, want_votes = old_window_loop(labels, labels.size, spec)
        starts, votes = _window_index(series, spec)
        assert starts.tolist() == want_starts
        assert votes.tolist() == want_votes
        wins = sliding_windows(series, spec)
        assert [(w.start, w.stop, w.label) for w in wins] == [
            (s, s + spec.length, y) for s, y in zip(want_starts, want_votes)
        ]


class TestEmpiricalCovariance:
    def test_zero_channels_rejected(self):
        with pytest.raises(DomainError, match="nonempty 2-d block"):
            empirical_covariance(np.empty((5, 0)))

    def test_constant_window_with_ridge(self):
        window = np.ones((8, 3))
        cov = empirical_covariance(window, ridge=0.1)
        assert_allclose(cov.values, 0.1 * np.eye(3), atol=1e-15)

    def test_rank_deficient_rejected_without_ridge(self):
        window = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DomainError):
            empirical_covariance(window, ridge=0.0)
        cov = empirical_covariance(window, ridge=0.01)
        assert_allclose(cov.values, [[1.01, 0.0], [0.0, 0.01]], atol=1e-15)

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(2)
        window = rng.standard_normal((50, 4))
        got = empirical_covariance(window, ridge=0.0).values
        mean = window.mean(axis=0)
        want = sum(np.outer(r - mean, r - mean) for r in window) / 50
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_default_ridge_scales_with_variance(self):
        rng = np.random.default_rng(3)
        window = rng.standard_normal((40, 3))
        base = empirical_covariance(window, ridge=0.0).values
        with_default = empirical_covariance(window).values
        ridge = (with_default - base)[0, 0]
        trace = np.trace(base)
        assert ridge == pytest.approx(1e-6 * trace / 3, rel=1e-9)


def per_window_covariance(w, ridge):
    """The per-window formula the batched covariances replaced, kept as the oracle."""
    centered = w - w.mean(axis=0, keepdims=True)
    if ridge is None:
        trace = float(np.sum(centered * centered) / centered.shape[0])
        ridge = 1e-6 * trace / centered.shape[1]
    cov = centered.T @ centered / w.shape[0]
    return cov + ridge * np.eye(w.shape[1])


class Unvalidated:
    """Stands in for SpdMatrix and SpdStack so that the raw arithmetic shows
    at every scale; the absolute SPD floor rejects data scaled by 1e-6."""

    def __init__(self, values):
        self.values = np.asarray(values)

    @classmethod
    def _from_owned(cls, values):  # the raw stack `_window_covariances` hands SpdStack
        return cls(values)


class TestWindowCovariances:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.sampled_from([1, 127, 128, 129, 257]),  # around the 128-window blocks
        channels=st.integers(1, 5),
        extra=st.integers(2, 12),
        overlap=st.sampled_from([0.0, 0.5, 0.75]),
        log_scale=st.floats(-6.0, 6.0),
        ridge=st.sampled_from([None, 0.0, 0.25, 3e-7]),
    )
    def test_bitwise_equal_to_the_per_window_formula(
        self, seed, count, channels, extra, overlap, log_scale, ridge
    ):
        rng = np.random.default_rng(seed)
        spec = WindowSpec(length=channels + extra, overlap=overlap)
        t = spec.length + (count - 1) * spec.stride
        scale = 10.0**log_scale
        samples = (rng.standard_normal((t, channels)) + rng.uniform(-3, 3, channels)) * scale
        series = LabeledSeries(samples=samples, labels=rng.integers(0, 2, t))
        with mock.patch.object(features, "SpdStack", Unvalidated), mock.patch.object(
            features, "SpdMatrix", Unvalidated
        ):
            starts, labels, stack = _window_covariances(series, spec, ridge)
            assert len(starts) == len(labels) == count == len(stack.values)
            for start, got in zip(starts, stack.values):
                window = samples[start : start + spec.length]
                want = per_window_covariance(window, ridge)
                assert got.tobytes() == want.tobytes()
                assert empirical_covariance(window, ridge).values.tobytes() == want.tobytes()

    def test_validated_stack_keeps_the_same_bits(self):
        series = make_series(t=300, channels=4, seed=7)
        spec = WindowSpec(length=16, overlap=0.5)
        starts, _, stack = _window_covariances(series, spec)
        want = np.array([per_window_covariance(series.samples[s : s + 16], None) for s in starts])
        assert stack.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "count, length", [(2048, 16), (803, 64)]  # the second is the shape of acceptance 07
    )
    def test_peak_memory_is_the_kept_arrays_plus_a_few_blocks(self, count, length):
        k = 12
        spec = WindowSpec(length=length, overlap=0.75)
        t = length + (count - 1) * spec.stride
        series = make_series(t=t, channels=k, seed=8)
        tracemalloc.start()
        try:
            _, _, stack = _window_covariances(series, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stack) == count
        kept = stack.values.nbytes + stack.eigenvalues.nbytes + stack.eigenvectors.nbytes
        # a raw copy of the covariances kept while eigh runs would add a whole
        # stack, count / 128 blocks
        assert peak <= kept + 8 * _BLOCK * k * k * 8

    def test_negative_ridge_raises_before_any_window(self):
        series = make_series(t=300, channels=4, seed=7)
        spec = WindowSpec(length=16, overlap=0.5)

        def no_window(*args):
            raise AssertionError("a window was computed")

        with mock.patch.object(features, "_covariances", no_window), mock.patch.object(
            features, "_window_index", no_window
        ):
            for ridge in (-1e-9, -1.0, np.nan, np.inf, -np.inf):
                for call in (
                    lambda: _window_covariances(series, spec, ridge),
                    lambda: empirical_covariance(series.samples[:16], ridge),
                ):
                    with pytest.raises(
                        DomainError, match=f"^ridge must be finite and nonnegative, got {ridge}$"
                    ):
                        call()


class TestPowerFeatures:
    def test_identity_powers(self):
        cov = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
        assert_allclose(power_features(cov, 1.0).matrix.values, cov.values, atol=1e-12)
        assert_array_equal(power_features(cov, 0.0).matrix.values, np.eye(2))

    def test_known_inverse(self):
        cov = SpdMatrix([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        assert_allclose(
            power_features(cov, -1.0).matrix.values,
            [[1.0, -0.5], [-0.5, 1.0]],
            atol=1e-12,
        )

    def test_round_trip_through_reciprocal_power(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cov = SpdMatrix((q * rng.uniform(0.5, 3.0, 4)) @ q.T)
        for beta in (0.5, -2.0, 3.0):
            once = power_features(cov, beta).matrix
            back = power_features(once, 1 / beta).matrix.values
            rel = np.linalg.norm(back - cov.values) / np.linalg.norm(cov.values)
            assert rel <= 1e-9

    def test_provenance_carried(self):
        cov = SpdMatrix(np.eye(2))
        feat = power_features(cov, 0.5, label=1)
        assert feat.label == 1


class TestExtractFeatures:
    def test_every_feature_is_spd_and_ordered(self):
        series = make_series(t=300, channels=4, seed=9)
        labels, ranges, stack = extract_features(
            series, WindowSpec(length=50, overlap=0.5), beta=0.5
        )
        assert len(labels) == len(ranges) == len(stack) == 11
        assert isinstance(stack, SpdStack)
        assert ranges == [(25 * i, 25 * i + 50) for i in range(11)]

    def test_channel_restriction(self):
        series = make_series(t=120, channels=5, seed=10)
        _, _, stack = extract_features(series, WindowSpec(length=40), beta=1.0, channels=[0, 3])
        assert stack.values.shape[1:] == (2, 2)

    @pytest.mark.parametrize("channels", [[0, 0], [2, 1, 2]])
    def test_repeated_channel_rejected(self, channels):
        series = make_series(t=120, channels=3, seed=10)
        with pytest.raises(DomainError, match=f"^channel index {channels[-1]} is repeated$"):
            extract_features(series, WindowSpec(length=20), beta=1.0, channels=channels)

    def test_labels_follow_majority(self):
        samples = np.zeros((20, 2)) + np.random.default_rng(11).standard_normal((20, 2))
        labels = np.array([0] * 10 + [1] * 10)
        series = LabeledSeries(samples=samples, labels=labels)
        labels, _, _ = extract_features(series, WindowSpec(length=10), beta=1.0)
        assert labels == [0, 1]


def _archive_with_a_3x3(tmp):
    """Read a 2x2 archive whose second matrix file holds a 3x3 matrix."""
    stack = SpdStack([np.eye(2), 2 * np.eye(2)])
    write_feature_archive([0, 1], [(0, 4), (4, 8)], stack, 1.0, tmp, {})
    write_matrix_csv(np.eye(3), tmp / "feature_00001.csv")
    read_feature_archive(tmp)


class TestInputChecks:
    """Each input check no other test reaches raises DomainError with its own message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda tmp: LabeledSeries(np.array([[0.0], [np.nan]]), np.zeros(2)),
             "samples contain non-finite values"),
            (lambda tmp: LabeledSeries(np.array([[0.0], [np.inf]]), np.zeros(2)),
             "samples contain non-finite values"),
            # these used to be truncated to 0 and 1
            (lambda tmp: LabeledSeries(np.zeros((4, 1)), [0.5, 0.9, 1.0, 1.7]),
             "labels must be 0 or 1"),
            (lambda tmp: LabeledSeries(np.zeros((2, 1)), [0, 0.5]), "labels must be 0 or 1"),
            (_archive_with_a_3x3,
             "{tmp}/feature_00001.csv: shape (3, 3) differs from {tmp}/feature_00000.csv: (2, 2)"),
        ],
    )
    def test_message(self, tmp_path, call, message):
        with pytest.raises(DomainError) as exc:
            call(tmp_path)
        assert str(exc.value) == message.format(tmp=tmp_path)


class TestSerialization:
    def test_series_csv_round_trip(self, tmp_path):
        series = make_series(t=30, channels=3, seed=12)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert_array_equal(back.samples, series.samples)
        assert_array_equal(back.labels, series.labels)

    def test_series_csv_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DomainError):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "body, where",
        [
            ("0,1.5,2.0,0\n1,abc,3.0,1\n", "line 3: cannot parse 'abc' as a number"),
            ("0,1.5,2.0,2.0\n", "line 2: cannot parse '2.0' as an integer label"),
            ("0,1.5,2.0,0\n1,1.5,2.0,1.5\n", "line 3: cannot parse '1.5' as an integer label"),
            ("0,1.5,2.0,0\n1,1.5,1\n", "line 3: expected 4 cells, got 3"),
            ("0,1.5,2.0,0,1\n", "line 2: expected 4 cells, got 5"),
            # cells Python's int() and float() take but numpy's parse rules do not
            ("0,1.5,2.0,0\n1,1.5,2.0,\u0661\n", "line 3: cannot parse '\u0661' as an integer label"),
            ("0,1.5,2.0,0\n1,1.5,2.0,\uff11\n", "line 3: cannot parse '\uff11' as an integer label"),
            ("0,1.5,2.0,1_0\n", "line 2: cannot parse '1_0' as an integer label"),
            ("0,1.5,2.0,0\n1,\u0661.5,2.0,1\n", "line 3: cannot parse '\u0661.5' as a number"),
            ("0,1.5,1_0.5,0\n", "line 2: cannot parse '1_0.5' as a number"),
            ("0,1.5,2.0,0\n \n1,1.5,2.0,1\n", "line 3: expected 4 cells, got 1"),
        ],
    )
    def test_series_csv_bad_cell_names_the_line(self, tmp_path, body, where):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch0,ch1,label\n" + body)
        with pytest.raises(DomainError, match=where):
            read_series_csv(path)

    def test_series_csv_samples_parse_like_float(self, tmp_path):
        path = tmp_path / "s.csv"
        cells = ["0.1", "1e-300", "-2.5e+17", "0.30000000000000004", "7"]
        path.write_text(
            "t,ch0,label\n" + "".join(f"{t},{c},{t % 2}\n" for t, c in enumerate(cells))
        )
        back = read_series_csv(path)
        assert back.samples[:, 0].tolist() == [float(c) for c in cells]
        assert back.labels.tolist() == [0, 1, 0, 1, 0]

    def test_feature_archive_round_trip(self, tmp_path):
        series = make_series(t=100, channels=3, seed=13)
        labels, ranges, stack = extract_features(series, WindowSpec(length=25), beta=0.5)
        adir = tmp_path / "archive"
        write_feature_archive(labels, ranges, stack, 0.5, adir, meta={"beta": 0.5})
        back_labels, back_ranges, back = read_feature_archive(adir)
        assert back_labels == labels
        assert back_ranges == ranges
        assert back.values.tobytes() == stack.values.tobytes()

    def test_feature_archive_takes_array_labels_and_ranges(self, tmp_path):
        series = make_series(t=100, channels=3, seed=13)
        starts, labels, stack = _window_covariances(series, WindowSpec(length=25))
        ranges = np.stack([starts, starts + 25], axis=1)
        as_lists = (labels.tolist(), [tuple(r) for r in ranges.tolist()])
        for name, (lab, spans) in {"arrays": (labels, ranges), "lists": as_lists}.items():
            write_feature_archive(lab, spans, stack, 0.5, tmp_path / name, meta={"beta": 0.5})
        manifest = (tmp_path / "arrays" / "manifest.json").read_bytes()
        assert manifest == (tmp_path / "lists" / "manifest.json").read_bytes()
        assert read_feature_archive(tmp_path / "arrays")[:2] == as_lists
