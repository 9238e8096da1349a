"""Selection-score, metrics, classifier, split, and grid-search tests."""

import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpow import pipeline
from covpow.errors import ConfigError, DomainError, NumericalError
from covpow.features import (
    FeatureMatrix,
    LabeledSeries,
    WindowSpec,
    _window_covariances,
    empirical_covariance,
    power_features,
    sliding_windows,
)
from covpow.pipeline import (
    LinearClassifier,
    Metrics,
    SplitSpec,
    classification_metrics,
    classifier_from_dict,
    classifier_to_dict,
    default_beta_grid,
    evaluate,
    metrics_to_dict,
    s3_from_metrics,
    _power_rows,
    s3_score,
    select_beta,
    selection_to_dict,
    split_dataset,
    train_linear_classifier,
    vectorize_feature,
    write_selection_csv,
)
from covpow.spd import _BLOCK, SpdMatrix, SpdStack


def spd_feature(diag, label):
    return FeatureMatrix(matrix=SpdMatrix(np.diag(np.asarray(diag, dtype=float))), label=label)


def design(feats):
    """The design matrix and labels of a feature list, vectorized as one stack."""
    x = vectorize_feature(np.array([f.matrix.values for f in feats]))
    return x, np.array([f.label for f in feats])


def two_class_series(seed=0, t=512, corr=0.9, scale=2.0):
    """Class 0 iid channels, class 1 strongly correlated and rescaled."""
    rng = np.random.default_rng(seed)
    k = 3
    half = t // 2
    c0 = np.eye(k)
    c1 = scale * (corr * np.ones((k, k)) + (1 - corr) * np.eye(k))
    root0 = np.linalg.cholesky(c0)
    root1 = np.linalg.cholesky(c1)
    x0 = rng.standard_normal((half, k)) @ root0.T
    x1 = rng.standard_normal((t - half, k)) @ root1.T
    samples = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(t - half, dtype=int)])
    return LabeledSeries(samples=samples, labels=labels)


# ---------------------------------------------------------------------------
# selection score


class TestS3Score:
    def test_all_ones_scores_one(self):
        assert s3_score(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_any_zero_scores_zero(self):
        assert s3_score(0.0, 1.0, 1.0, 1.0) == 0.0
        assert s3_score(1.0, 1.0, 0.0, 1.0) == 0.0

    def test_all_halves(self):
        # 4 * (1/16) / 2 = 1/8
        assert s3_score(0.5, 0.5, 0.5, 0.5) == 0.125

    def test_zero_sum_defined_as_zero(self):
        assert s3_score(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            s3_score(1.1, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            s3_score(0.5, -0.1, 0.5, 0.5)

    def test_exact_permutation_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            vals = rng.uniform(0, 1, 4)
            ref = s3_score(*vals)
            for perm in itertools.permutations(vals):
                assert s3_score(*perm) == ref

    def test_range_on_grid(self):
        grid = np.round(np.arange(0.0, 1.0 + 1e-12, 0.05), 10)
        for vals in itertools.product(grid, repeat=4):
            s = s3_score(*vals)
            assert 0.0 <= s <= 1.0

    def test_monotone_in_each_argument(self):
        base = (0.6, 0.7, 0.8, 0.5)
        ref = s3_score(*base)
        bumped = (0.9, 0.7, 0.8, 0.5)
        assert s3_score(*bumped) > ref


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_perfect_predictions(self):
        m = classification_metrics([1, 0, 1], [1, 0, 1])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 0, 1, 0)
        assert m.sensitivity == 1.0
        assert m.specificity == 1.0
        assert m.accuracy == 1.0
        assert m.precision == 1.0
        assert m.recall == m.sensitivity

    def test_all_negative_predictions(self):
        m = classification_metrics([0, 0, 0], [1, 0, 1])
        assert (m.tp, m.fp, m.tn, m.fn) == (0, 0, 1, 2)
        assert m.sensitivity == 0.0
        assert m.specificity == 1.0
        assert m.accuracy == pytest.approx(1 / 3)
        assert m.precision is None

    def test_no_positive_labels_sensitivity_undefined(self):
        m = classification_metrics([0, 1], [0, 0])
        assert m.sensitivity is None
        assert m.recall is None
        assert m.specificity == 0.5
        assert m.precision == 0.0

    def test_derived_consistent_with_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pred = rng.integers(0, 2, n)
            lab = rng.integers(0, 2, n)
            m = classification_metrics(pred, lab)
            assert m.tp + m.fp + m.tn + m.fn == n
            assert abs(m.accuracy - (m.tp + m.tn) / n) <= 1e-12
            if m.sensitivity is not None:
                assert abs(m.sensitivity - m.tp / (m.tp + m.fn)) <= 1e-12
            if m.specificity is not None:
                assert abs(m.specificity - m.tn / (m.tn + m.fp)) <= 1e-12
            if m.precision is not None:
                assert abs(m.precision - m.tp / (m.tp + m.fp)) <= 1e-12

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            classification_metrics([0, 1], [0, 1, 1])

    def test_counts_equal_the_four_masked_sums(self):
        rng = np.random.default_rng(11)
        for n in range(1, 51):
            pred = rng.integers(0, 2, n)
            lab = rng.integers(0, 2, n)
            m = classification_metrics(pred, lab)
            counts = (m.tp, m.fp, m.tn, m.fn)
            cells = ((1, 1), (1, 0), (0, 0), (0, 1))
            assert counts == tuple(int(np.sum((pred == p) & (lab == y))) for p, y in cells)
            assert all(type(c) is int for c in counts)

    def test_rejects_non_binary(self):
        for bad in (2, -1, 0.5):
            for pred, lab in (([0, bad], [0, 1]), ([0, 1], [bad, 1])):
                with pytest.raises(DomainError, match="^predictions and labels must be 0/1$"):
                    classification_metrics(pred, lab)

    def test_s3_zero_when_rate_undefined(self):
        good = classification_metrics([1, 0], [1, 0])
        no_pos = classification_metrics([0, 0], [0, 0])
        assert no_pos.sensitivity is None
        assert s3_from_metrics(good, no_pos) == 0.0
        assert s3_from_metrics(good, good) == 1.0


# ---------------------------------------------------------------------------
# vectorization


class TestVectorize:
    def test_small_oracle(self):
        v = vectorize_feature(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(v, [1.0, 3.0, 2.0 * np.sqrt(2.0)], atol=1e-15)

    def test_dimension(self):
        k = 5
        v = vectorize_feature(np.eye(k))
        assert v.shape == (k * (k + 1) // 2,)

    def test_frobenius_inner_product_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            a = rng.standard_normal((k, k))
            a = a + a.T
            b = rng.standard_normal((k, k))
            b = b + b.T
            direct = float(np.sum(a * b))
            via_vec = float(vectorize_feature(a) @ vectorize_feature(b))
            assert abs(direct - via_vec) <= 1e-10 * max(1.0, abs(direct))

    def test_accepts_spd_wrapper(self):
        m = SpdMatrix(np.diag([2.0, 5.0]))
        v = vectorize_feature(m)
        assert np.allclose(v, [2.0, 5.0, 0.0])

    def test_rejects_non_square(self):
        for shape in [(2, 3), (4, 2, 3), (3,), (2, 2, 2, 2)]:
            with pytest.raises(DomainError, match="^expected a square matrix or a stack of them"):
                vectorize_feature(np.ones(shape))

    def test_stack_rows_equal_each_matrix_vectorized(self):
        mats = gram_stack(5, 3, seed=1)
        want = np.array([vectorize_feature(m) for m in mats])
        assert_exact(vectorize_feature(mats), want)
        assert_exact(vectorize_feature(SpdStack(mats)), vectorize_feature(SpdStack(mats).values))
        # C order for one matrix and for stacks of any block count, the layout fits read
        assert vectorize_feature(mats[0]).flags.c_contiguous
        for n in (1, 127, 128, 129, 300):
            rows = vectorize_feature(gram_stack(n, 4, seed=n))
            assert rows.shape == (n, 10) and rows.flags.c_contiguous

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 10_000),
        channels=st.integers(1, 6),
        length=st.integers(8, 40),
        beta=st.floats(-4.0, 4.0),
    )
    def test_stacked_design_matches_per_window_features(self, seed, channels, length, beta):
        rng = np.random.default_rng(seed)
        series = LabeledSeries(
            samples=rng.standard_normal((120, channels)) * rng.uniform(0.1, 10.0, channels),
            labels=rng.integers(0, 2, 120),
        )
        spec = WindowSpec(length=length, overlap=0.5)
        _, _, stack = _window_covariances(series, spec)
        covs = [empirical_covariance(w.samples) for w in sliding_windows(series, spec)]
        want = np.array([vectorize_feature(power_features(c, beta).matrix) for c in covs])
        got = vectorize_feature(stack.power(beta))
        assert got.shape == want.shape
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert err.max() <= 1e-12


def gram_stack(n, dim, seed):
    a = np.random.default_rng(seed).standard_normal((n, dim, 2 * dim))
    return a @ a.swapaxes(1, 2) / (2 * dim) + 0.1 * np.eye(dim)


def assert_exact(got, want):
    """Equal bit for bit: same shape, dtype and bytes."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestPowerRows:
    """A power's design rows, built `_BLOCK` windows at a time."""

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("beta", [-2.25, 0.5, 3.0])
    def test_equal_the_rows_of_the_whole_power(self, n, beta):
        stack = SpdStack(gram_stack(n, 4, seed=n))
        want = vectorize_feature(stack.power(beta))
        assert_exact(_power_rows(stack, beta, np.arange(n)), want)
        index = np.random.default_rng(0).permutation(n)[: max(1, n - 3)].tolist()
        rows = _power_rows(stack, beta, index)
        assert_exact(rows, want[index])
        # C order in one block or many: a fit's column means depend on the layout
        assert rows.flags.c_contiguous

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        n=st.sampled_from([1, 127, 128, 129, 300]),
        k=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        tied=st.integers(0, 3),
        beta=st.floats(-4.0, 4.0).filter(lambda b: abs(b) >= 1e-3),
    )
    def test_blocks_of_gathered_eigenpairs_give_the_rows_of_the_power(
        self, n, k, seed, tied, beta
    ):
        rng = np.random.default_rng(seed)
        mats = gram_stack(n, k, seed=seed)
        # c * I: a tied spectrum, which `_compose` must not reverse beside reversed rows
        for i in rng.choice(n, size=min(tied, n), replace=False):
            mats[i] = rng.uniform(0.5, 2.0) * np.eye(k)
        stack = SpdStack(mats)
        whole = vectorize_feature(stack.power(beta))
        assert_exact(_power_rows(stack, beta, np.arange(n)), whole)
        index = rng.permutation(n)[: rng.integers(1, n + 1)]
        assert_exact(_power_rows(stack, beta, index), whole[index])
        assert_exact(_power_rows(stack, beta, index.tolist()), whole[index])

    def test_failing_power_names_the_same_window(self):
        mats = gram_stack(300, 3, seed=3)
        mats[200] = np.diag([1e-4, 1.0, 2.0])
        stack = SpdStack(mats)
        with pytest.raises(DomainError) as whole:
            stack.power(4.0)
        assert str(whole.value).startswith("stack element 200: ")
        # window 200 sits at position 13 of the second block of this index map
        for index in (np.arange(300), [7, *range(60, 290)]):
            with pytest.raises(DomainError) as rows:
                _power_rows(stack, 4.0, index)
            assert str(rows.value) == str(whole.value)

    def test_peak_memory_is_the_kept_arrays_plus_a_few_blocks(self):
        n, k = 2048, 12
        covs = gram_stack(n, k, seed=4)
        block = _BLOCK * k * k * covs.itemsize

        def traced_peak(build):
            tracemalloc.start()
            try:
                kept = build()
                return tracemalloc.get_traced_memory()[1], kept
            finally:
                tracemalloc.stop()

        peak, stack = traced_peak(lambda: SpdStack(covs))
        kept = stack.values.nbytes + stack.eigenvalues.nbytes + stack.eigenvectors.nbytes
        # a whole-stack build peaked near twice what it keeps
        assert peak <= kept + 8 * block
        index = np.arange(n)
        peak, x = traced_peak(lambda: _power_rows(stack, -1.5, index))
        # the whole powered stack, which this no longer builds, is itself 16 blocks
        assert peak <= x.nbytes + 8 * block


# ---------------------------------------------------------------------------
# classifier


class TestTrainClassifier:
    def separable(self, n_per=20, seed=0):
        """Design matrix and labels of two well-separated classes of 2x2 diagonal matrices."""
        rng = np.random.default_rng(seed)
        feats = []
        for label, base in ((0, 1.0), (1, 6.0)):
            for _ in range(n_per):
                d = base + rng.uniform(-0.3, 0.3, 2)
                feats.append(spd_feature(d, label))
        return design(feats)

    def test_separable_train_accuracy_one(self):
        x, lab = self.separable()
        clf = train_linear_classifier(x, lab, l2=1e-6)
        m = classification_metrics(clf.predict(x), lab)
        assert m.accuracy == 1.0

    @pytest.mark.parametrize(
        "labels",
        [None, [0, 1, 2, 1], [0, 1, 0.5, 1], [0, 1, None, 1], [0.0, 1.0, 0.0, 1.0],
         [0, 1, 1], [[0, 1, 0, 1]]],
        ids=["none", "two", "half", "none-entry", "float", "short", "2-d"],
    )
    def test_bad_labels_rejected(self, labels):
        # unchecked, these reach the Newton fit as a TypeError or are silently cast
        x, _ = self.separable(n_per=2)
        with pytest.raises(DomainError, match="^(labels must be 0/1|need one label per design row)"):
            train_linear_classifier(x, labels)

    @pytest.mark.parametrize(
        "key, value",
        [("l2", -1e-3), ("l2", float("nan")), ("l2", float("inf")),
         ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf"))],
    )
    def test_bad_l2_or_tol_rejected(self, key, value):
        # a NaN l2 used to score every power 0; a negative or NaN tol ran to max_iter
        with pytest.raises(DomainError, match=f"^{key} must be finite and nonnegative, got"):
            train_linear_classifier(*self.separable(n_per=5), **{key: value})

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        # such a fit used to return zero weights, so every power scored s3 = 0
        message = f"^max_iter must be >= 1, got {max_iter}$"
        with pytest.raises(DomainError, match=message):
            train_linear_classifier(*self.separable(n_per=5), max_iter=max_iter)
        with pytest.raises(DomainError, match=message):
            select_beta(two_class_series(seed=1), beta_grid=[0.5], max_iter=max_iter)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_design_rejected(self, bad):
        # one inf entry used to give all-zero weights
        x, lab = self.separable(n_per=5)
        x[3, 1] = bad
        with pytest.raises(DomainError, match="^design matrix has non-finite entries$"):
            train_linear_classifier(x, lab)

    def test_failed_newton_step_is_a_numerical_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="^newton step failed: Singular matrix$"):
            train_linear_classifier(*self.separable(n_per=5))

    def test_zero_l2_and_tol_accepted(self):
        clf = train_linear_classifier(*self.separable(n_per=5), l2=0.0, tol=0.0)
        assert np.isfinite(clf.weights).all()

    def test_single_class_rejected(self):
        x, lab = design([spd_feature([1.0, 2.0], 1) for _ in range(4)])
        with pytest.raises(DomainError, match="^training data must contain both classes$"):
            train_linear_classifier(x, lab)

    def test_fit_depends_only_on_the_values_of_its_rows(self):
        # the same rows in C order, in Fortran order and as a strided view; column
        # means summed in stride order once moved the weights' last bits
        x = vectorize_feature(gram_stack(300, 5, seed=7))
        lab = np.random.default_rng(7).integers(0, 2, len(x))
        wide = np.zeros((len(x), 2 * x.shape[1]))
        wide[:, ::2] = x
        fits = [
            json.dumps(classifier_to_dict(train_linear_classifier(rows, lab)))
            for rows in (np.ascontiguousarray(x), np.asfortranarray(x), wide[:, ::2])
        ]
        assert fits[1] == fits[0] and fits[2] == fits[0]

    def test_duplication_invariance(self):
        x, lab = self.separable(n_per=10, seed=3)
        clf_once = train_linear_classifier(x, lab, l2=1e-3)
        clf_twice = train_linear_classifier(np.vstack([x, x]), np.concatenate([lab, lab]), l2=1e-3)
        x = self.separable(n_per=5, seed=9)[0]

        def decide(clf):
            z = (x - clf.feature_mean) / clf.feature_scale
            return np.column_stack([z, np.ones(len(x))]) @ clf.weights

        assert np.max(np.abs(decide(clf_once) - decide(clf_twice))) <= 1e-9

    def test_converges_to_stationary_point(self):
        # rebuild the documented loss and check its gradient at the optimum
        x, lab = self.separable(n_per=15, seed=5)
        l2 = 1e-2
        clf = train_linear_classifier(x, lab, l2=l2, tol=1e-10)
        z = np.column_stack(
            [(x - clf.feature_mean) / clf.feature_scale, np.ones(len(x))]
        )
        y = 2.0 * lab - 1.0
        n1 = lab.sum()
        n0 = len(lab) - n1
        sw = np.where(lab == 1, len(lab) / (2 * n1), len(lab) / (2 * n0))
        reg = np.full(z.shape[1], l2)
        reg[-1] = 0.0
        p = 1.0 / (1.0 + np.exp(y * (z @ clf.weights)))
        grad = -(z.T @ (sw * p * y)) / len(lab) + reg * clf.weights
        assert np.linalg.norm(grad) <= 1e-6

    def test_line_search_halves_and_never_ascends_at_zero_tol(self, monkeypatch):
        # tol=0 (the select key "tol") runs Newton past the default tol's stop,
        # until a step leaves the loss unchanged; rounding there makes some
        # full steps fail the Armijo test
        calls = Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(np, "logaddexp", counted("loss", np.logaddexp))
        l2 = 1e-3
        halvings = []
        for seed in range(5):
            x, lab = self.separable(n_per=8, seed=seed)
            before = calls.copy()
            clf = train_linear_classifier(x, lab, l2=l2, tol=0.0)
            done = calls - before
            # one loss at the start, then one per line-search trial; each
            # Newton step solves once and each failed trial halves the step
            halvings.append(done["loss"] - 1 - done["solve"])
            again = train_linear_classifier(x, lab, l2=l2, tol=0.0)
            assert again.weights.tobytes() == clf.weights.tobytes()

            z = np.column_stack([(x - clf.feature_mean) / clf.feature_scale, np.ones(len(x))])
            y = 2.0 * lab - 1.0
            n1 = lab.sum()
            sw = np.where(lab == 1, len(lab) / (2 * n1), len(lab) / (2 * (len(lab) - n1)))
            reg = np.full(z.shape[1], l2)
            reg[-1] = 0.0

            def loss(w):
                margins = y * (z @ w)
                return float(np.mean(sw * np.logaddexp(0.0, -margins))) + 0.5 * float(
                    reg @ (w * w)
                )

            assert loss(clf.weights) <= loss(np.zeros_like(clf.weights))
        assert max(halvings) >= 1, halvings

    def test_gradient_matches_finite_differences(self):
        # the analytic gradient used by Newton must match the loss it claims
        rng = np.random.default_rng(2)
        x, lab = self.separable(n_per=8, seed=2)
        mean, scale = x.mean(axis=0), x.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        z = np.column_stack([(x - mean) / scale, np.ones(len(x))])
        y = 2.0 * lab - 1.0
        n1 = lab.sum()
        sw = np.where(lab == 1, len(lab) / (2 * n1), len(lab) / (2 * (len(lab) - n1)))
        l2 = 0.05
        reg = np.full(z.shape[1], l2)
        reg[-1] = 0.0

        def loss(w):
            margins = y * (z @ w)
            return float(np.mean(sw * np.logaddexp(0.0, -margins))) + 0.5 * float(
                reg @ (w * w)
            )

        def grad(w):
            p = 1.0 / (1.0 + np.exp(y * (z @ w)))
            return -(z.T @ (sw * p * y)) / len(lab) + reg * w

        w = rng.standard_normal(z.shape[1]) * 0.5
        g = grad(w)
        h = 1e-6
        for i in range(len(w)):
            e = np.zeros_like(w)
            e[i] = h
            fd = (loss(w + e) - loss(w - e)) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))

    def test_dimension_mismatch_rejected(self):
        clf = train_linear_classifier(*self.separable(n_per=4))
        bad = design([spd_feature([1.0, 2.0, 3.0], 0)])[0]
        message = r"^expected an \(n, 3\) design matrix, got shape \({}\)$"
        for x, shape in ((bad, "1, 6"), (bad[0, :3], "3,"), (1.0, "")):
            with pytest.raises(DomainError, match=message.format(shape)):
                clf.predict(x)

    def test_round_trip_through_dict(self):
        clf = train_linear_classifier(*self.separable(n_per=6, seed=1), seen_tokens=("tok-a",))
        back = classifier_from_dict(classifier_to_dict(clf))
        assert np.array_equal(back.weights, clf.weights)
        assert np.array_equal(back.feature_mean, clf.feature_mean)
        assert back.seen_tokens == ("tok-a",)
        probe = self.separable(n_per=3, seed=4)[0]
        assert np.array_equal(back.predict(probe), clf.predict(probe))


# ---------------------------------------------------------------------------
# splits


class TestSplitDataset:
    def test_fraction_validation(self):
        with pytest.raises(DomainError):
            SplitSpec(train_frac=0.5, val_frac=0.5, test_frac=0.1)
        with pytest.raises(DomainError):
            SplitSpec(train_frac=0.0, val_frac=0.5, test_frac=0.5)

    def test_disjoint_cover(self):
        items = list(range(100))
        labels = np.tile([0, 1], 50)
        parts = split_dataset(items, labels, SplitSpec(0.6, 0.2, 0.2, seed=1))
        all_idx = sorted(parts.train_idx + parts.val_idx + parts.test_idx)
        assert all_idx == items

    def test_stratified_preserves_balance(self):
        items = list(range(100))
        labels = np.tile([0, 1], 50)
        parts = split_dataset(items, labels, SplitSpec(0.6, 0.2, 0.2, seed=2))
        train_labels = labels[list(parts.train_idx)]
        assert train_labels.sum() == 30
        assert len(parts.train_idx) == 60

    def test_determinism_and_token_distinctness(self):
        items = list(range(40))
        labels = np.tile([0, 1], 20)
        a = split_dataset(items, labels, SplitSpec(0.5, 0.25, 0.25, seed=5))
        b = split_dataset(items, labels, SplitSpec(0.5, 0.25, 0.25, seed=5))
        assert a.train_idx == b.train_idx
        assert a.train_token == b.train_token
        assert len({a.train_token, a.val_token, a.test_token}) == 3
        c = split_dataset(items, labels, SplitSpec(0.5, 0.25, 0.25, seed=6))
        assert c.train_token != a.train_token


# ---------------------------------------------------------------------------
# grid search


_SPEC = WindowSpec(length=32, overlap=0.5)
_UNIT_CLASSIFIER = LinearClassifier(np.zeros(2), np.zeros(1), np.ones(1), 1, ())


class TestInputChecks:
    """Each input check no other test reaches raises DomainError with its own message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Metrics.from_counts(0, 0, 0, 0), "metrics need at least one example"),
            (lambda: _UNIT_CLASSIFIER.predict(np.empty((0, 1))), "no features to score"),
            (lambda: evaluate(_UNIT_CLASSIFIER, [spd_feature([1.0], 0), spd_feature([2.0], None)]),
             "features carry no labels"),
            (lambda: train_linear_classifier(np.array([[1.0], [2.0]]), np.array([0, 2])),
             "labels must be 0/1"),
            (lambda: train_linear_classifier(np.array([[1.0]]), np.array([0])),
             "need at least 2 training examples"),
            (lambda: split_dataset([0, 1, 2], [0, 1], SplitSpec(0.6, 0.2, 0.2)),
             "labels must match items"),
            (lambda: split_dataset([0, 1, 2], [0, 0.5, 1], SplitSpec(0.6, 0.2, 0.2)),
             "labels must be 0/1"),
            (lambda: evaluate(_UNIT_CLASSIFIER, [spd_feature([1.0], 0), spd_feature([2.0], 0.5)]),
             "predictions and labels must be 0/1"),
            (lambda: select_beta(two_class_series(seed=1), window_grid=[]), "window grid is empty"),
            # about 15 windows a class leave no validation window at 2%
            (lambda: select_beta(
                two_class_series(seed=1), window_grid=[_SPEC], split=SplitSpec(0.9, 0.02, 0.08)
            ), "degenerate split: empty train or validation part"),
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message


class TestSelectBeta:
    def test_default_grid(self):
        grid = default_beta_grid()
        assert len(grid) == 32
        assert 0.0 not in grid
        assert grid[0] == -4.0 and grid[-1] == 4.0
        steps = np.diff(np.sort(grid + [0.0]))
        assert np.allclose(steps, 0.25)

    def test_singleton_grid(self):
        series = two_class_series(seed=1)
        spec = WindowSpec(length=32, overlap=0.5)
        result = select_beta(series, beta_grid=[0.5], window_grid=[spec])
        assert result.beta_star == 0.5
        assert len(result.per_beta_table) == 1
        assert result.window_spec_star == spec
        # no window grid: one spec of 64 samples at 0.75 overlap
        result = select_beta(series, beta_grid=[0.5])
        assert result.window_spec_star == WindowSpec(length=64, overlap=0.75)
        assert len(result.per_beta_table) == 1

    def test_selected_beats_identity_power(self):
        series = two_class_series(seed=2)
        spec = WindowSpec(length=32, overlap=0.5)
        result = select_beta(
            series, beta_grid=[-1.0, -0.5, 0.5, 1.0, 2.0], window_grid=[spec]
        )
        s3_at_one = next(
            row["s3"] for row in result.per_beta_table if row["beta"] == 1.0
        )
        assert result.s3 >= s3_at_one
        assert result.s3 > 0.8

    def test_tie_breaks_toward_smaller_magnitude(self):
        # constant series per class makes every power classify identically
        series = two_class_series(seed=3)
        spec = WindowSpec(length=32, overlap=0.5)
        result = select_beta(series, beta_grid=[2.0, -1.0, 1.0], window_grid=[spec])
        ties = [
            row["beta"]
            for row in result.per_beta_table
            if row["s3"] == result.s3
        ]
        assert abs(result.beta_star) == min(abs(b) for b in ties)

    def test_bitwise_determinism(self):
        series = two_class_series(seed=4)
        spec = WindowSpec(length=32, overlap=0.5)
        kwargs = dict(beta_grid=[0.5, 1.0, -1.0], window_grid=[spec])
        a = select_beta(series, **kwargs)
        b = select_beta(series, **kwargs)
        assert json.dumps(selection_to_dict(a), sort_keys=True) == json.dumps(
            selection_to_dict(b), sort_keys=True
        )

    def test_zero_tol_stops_when_a_step_leaves_the_loss_unchanged(self, monkeypatch):
        # without a stop on an unchanged loss, tol=0 runs each fit to max_iter (300 solves)
        solves = Counter()
        real_solve = np.linalg.solve

        def solve(a, b):
            solves[tol] += 1
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        kwargs = dict(beta_grid=[0.5, 1.0, -1.0], window_grid=[WindowSpec(32, 0.5)])
        results = {}
        for tol in (0.0, 1e-8):
            results[tol] = select_beta(two_class_series(seed=0), tol=tol, **kwargs)
        assert solves[1e-8] < solves[0.0] < 2 * solves[1e-8]
        assert results[0.0].beta_star == results[1e-8].beta_star
        assert np.allclose(results[0.0].classifier.weights, results[1e-8].classifier.weights)

    def test_rejects_zero_power_and_empty_grid(self):
        series = two_class_series(seed=5)
        with pytest.raises(DomainError):
            select_beta(series, beta_grid=[0.0])
        with pytest.raises(DomainError):
            select_beta(series, beta_grid=[])

    def test_single_class_windows_rejected(self):
        rng = np.random.default_rng(0)
        series = LabeledSeries(
            samples=rng.standard_normal((128, 2)), labels=np.zeros(128, dtype=int)
        )
        with pytest.raises(DomainError):
            select_beta(series, beta_grid=[1.0], window_grid=[WindowSpec(16)])

    def test_test_token_absent_from_artifacts(self):
        series = two_class_series(seed=6)
        spec = WindowSpec(length=32, overlap=0.5)
        split = SplitSpec(0.6, 0.2, 0.2, seed=7)
        result = select_beta(series, beta_grid=[1.0], window_grid=[spec], split=split)
        from covpow.features import empirical_covariance, sliding_windows

        windows = sliding_windows(series, spec)
        labels = np.array([w.label for w in windows])
        parts = split_dataset(list(range(len(windows))), labels, split)
        blob = json.dumps(selection_to_dict(result), sort_keys=True)
        assert parts.test_token not in blob
        assert parts.train_token in result.classifier.seen_tokens

    def test_permutation_null_stays_below_true_score(self):
        series = two_class_series(seed=8, t=512)
        spec = WindowSpec(length=32, overlap=0.5)
        grid = [-1.0, 0.5, 1.0, 2.0]
        true_s3 = select_beta(series, beta_grid=grid, window_grid=[spec]).s3
        assert true_s3 > 0.85
        rng = np.random.default_rng(99)
        nulls = []
        for _ in range(20):
            shuffled = LabeledSeries(
                samples=series.samples, labels=rng.permutation(series.labels)
            )
            nulls.append(
                select_beta(shuffled, beta_grid=grid, window_grid=[spec]).s3
            )
        assert max(nulls) < true_s3


def logistic_gradient(x, lab, l2, clf):
    """The fit's loss gradient at its weights, formed with the fit's own operations."""
    z = np.column_stack([(x - clf.feature_mean) / clf.feature_scale, np.ones(len(x))])
    y = 2.0 * lab - 1.0
    n, n1 = len(lab), int(lab.sum())
    sample_w = np.where(lab == 1, n / (2 * n1), n / (2 * (n - n1)))
    reg = np.full(z.shape[1], l2)
    reg[-1] = 0.0
    p = 1.0 / (1.0 + np.exp(np.clip(y * (z @ clf.weights), -500, 500)))
    return -(z.T @ (sample_w * p * y)) / n + reg * clf.weights


class TestNewtonStep:
    def test_symmetric_hessian_and_every_fit_stops_on_the_gradient(self, monkeypatch):
        hessians_symmetric = []
        real_solve = np.linalg.solve

        def solve(a, b):
            hessians_symmetric.append(bool((a == a.T).all()))
            return real_solve(a, b)

        fits = []
        real_fit = pipeline.train_linear_classifier

        def fit(x, lab, l2, max_iter, tol, seen_tokens):
            before = len(hessians_symmetric)
            clf = real_fit(x, lab, l2, max_iter, tol, seen_tokens)
            fits.append((x, lab, l2, max_iter, tol, clf, len(hessians_symmetric) - before))
            return clf

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(pipeline, "train_linear_classifier", fit)
        select_beta(two_class_series(seed=0), window_grid=[WindowSpec(32, 0.5)])
        assert len(fits) == 32
        assert all(hessians_symmetric)
        # the scale-then-general-product Hessian this replaced also took 310 steps
        assert len(hessians_symmetric) == 310
        for x, lab, l2, max_iter, tol, clf, steps in fits:
            assert steps < max_iter
            assert np.linalg.norm(logistic_gradient(x, lab, l2, clf)) <= tol


class TestSelectBetaFailedPowers:
    """A power that is not SPD on some window loses its grid point, not the run."""

    @staticmethod
    def near_singular_series():
        # 8-sample windows of 6 channels: high powers of the smallest
        # eigenvalues fall below the SPD tolerance on some windows
        rng = np.random.default_rng(0)
        return LabeledSeries(rng.standard_normal((400, 6)), np.repeat([0, 1], 200))

    def test_failed_power_scores_zero_and_is_never_selected(self, tmp_path):
        result = select_beta(self.near_singular_series(), window_grid=[WindowSpec(8, 0.0)])
        table = result.per_beta_table
        failed = [row for row in table if "error" in row]
        assert [row["beta"] for row in failed] == [3.5, 3.75, 4.0]
        for row in failed:
            assert row["s3"] == 0.0
            assert "not positive definite" in row["error"]
        assert result.beta_star not in {row["beta"] for row in failed}
        keys = {"beta", "window_length", "window_overlap", "s3", "train", "val"}
        assert all(set(row) == keys for row in table if "error" not in row)
        assert len(table) == 32

        rec = json.loads(json.dumps(selection_to_dict(result)))
        assert rec["per_beta_table"][-1]["error"] == failed[-1]["error"]
        path = tmp_path / "table.csv"
        write_selection_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[4:] == [
            "train_sensitivity",
            "train_specificity",
            "train_accuracy",
            "val_sensitivity",
            "val_specificity",
            "val_accuracy",
        ]
        assert lines[-1].split(",")[3:] == ["0.0"] + [""] * 6

    def test_every_power_failing_names_the_window_spec(self):
        with pytest.raises(DomainError, match=r"WindowSpec\(length=8, overlap=0.0\)"):
            select_beta(
                self.near_singular_series(),
                beta_grid=[3.5, 4.0],
                window_grid=[WindowSpec(8, 0.0)],
            )

    def test_all_failing_on_one_window_spec_falls_back_to_another(self):
        result = select_beta(
            self.near_singular_series(),
            beta_grid=[4.0],
            window_grid=[WindowSpec(8, 0.0), WindowSpec(40, 0.5)],
        )
        assert result.window_spec_star == WindowSpec(40, 0.5)
        assert "error" in result.per_beta_table[0]
        assert "error" not in result.per_beta_table[1]
        assert selection_to_dict(result)["window_length"] == 40

    def test_a_power_that_overflows_scores_zero_with_its_error(self):
        # the quick-start series of the README scaled by 1e70: its covariances
        # near 1e140 overflow at beta 4, which once scored as a silent 0
        rng = np.random.default_rng(0)
        a = rng.standard_normal((600, 4))
        b = rng.standard_normal((600, 4)) @ np.diag([1.0, 2.0, 0.5, 1.5])
        series = LabeledSeries(1e70 * np.vstack([a, b]), np.repeat([0, 1], 600))
        result = select_beta(
            series, beta_grid=[-1.0, 1.0, 4.0], window_grid=[WindowSpec(50, 0.5)],
            split=SplitSpec(0.6, 0.2, 0.2, seed=0),
        )
        low, ok, high = result.per_beta_table
        assert low["error"].startswith("stack element 0: matrix is not positive definite")
        assert "error" not in ok and result.beta_star == 1.0
        assert high["s3"] == 0.0 and high["train"] is None
        assert high["error"] == "stack element 0: matrix overflows: lambda_max = inf"


class TestSelectBetaFitRows:
    """select builds rows for its train and validation windows only."""

    def test_table_and_classifiers_equal_a_loop_over_the_whole_stack(self, monkeypatch):
        series = TestSelectBetaFailedPowers.near_singular_series()
        spec, split = WindowSpec(8, 0.0), SplitSpec(0.5, 0.3, 0.2, seed=4)
        grid = [-2.0, -0.5, 0.75, 1.5, 3.75, 4.0]
        fitted = []
        real_fit = pipeline.train_linear_classifier

        def fit(*args, **kwargs):
            fitted.append(real_fit(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(pipeline, "train_linear_classifier", fit)
        result = select_beta(series, beta_grid=grid, window_grid=[spec], split=split)
        monkeypatch.undo()

        # the reference: every window's rows, then the train and validation rows picked out
        _, labels, stack = _window_covariances(series, spec)
        parts = split_dataset(list(range(len(labels))), labels, split)
        train, val = list(parts.train_idx), list(parts.val_idx)
        table, want = [], []
        for beta in grid:
            row = {"beta": beta, "window_length": 8, "window_overlap": 0.0}
            table.append(row)
            try:
                x = vectorize_feature(stack.power(beta))
            except DomainError as exc:
                row.update(s3=0.0, train=None, val=None, error=str(exc))
                continue
            clf = train_linear_classifier(
                x[train], labels[train], seen_tokens=(parts.train_token, parts.val_token)
            )
            m_train = classification_metrics(clf.predict(x[train]), labels[train])
            m_val = classification_metrics(clf.predict(x[val]), labels[val])
            row.update(
                s3=s3_from_metrics(m_train, m_val),
                train=metrics_to_dict(m_train),
                val=metrics_to_dict(m_val),
            )
            want.append((beta, clf))
        assert sum("error" in row for row in table) == 2
        assert result.per_beta_table == table
        assert len(fitted) == len(want) == 4
        for got, (_, clf) in zip(fitted, want):
            assert json.dumps(classifier_to_dict(got)) == json.dumps(classifier_to_dict(clf))
            for name in ("weights", "feature_mean", "feature_scale"):
                assert_exact(getattr(got, name), getattr(clf, name))
        betas = [beta for beta, _ in want]
        assert result.classifier is fitted[betas.index(result.beta_star)]

    def test_a_power_failing_on_a_test_window_only_still_scores_zero(self):
        spec, split = WindowSpec(16, 0.0), SplitSpec(0.6, 0.2, 0.2, seed=5)
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((640, 3))
        series_labels = np.repeat([0, 1], 320)  # 20 windows of each class
        parts = split_dataset(list(range(40)), np.repeat([0, 1], 20), split)
        bad = parts.test_idx[0]
        # lambda_min near 1e-6 on this window: its 4th power is below the SPD floor
        samples[16 * bad : 16 * (bad + 1), 0] *= 1e-3
        series = LabeledSeries(samples, series_labels)
        result = select_beta(series, beta_grid=[1.0, 4.0], window_grid=[spec], split=split)
        ok, failed = result.per_beta_table
        assert "error" not in ok and result.beta_star == 1.0
        assert failed["s3"] == 0.0 and failed["train"] is None and failed["val"] is None
        assert failed["error"].startswith(f"stack element {bad}: matrix is not positive definite")
        _, labels, stack = _window_covariances(series, spec)
        assert labels.tolist() == [0] * 20 + [1] * 20
        with pytest.raises(DomainError) as whole:
            stack.power(4.0)
        assert failed["error"] == str(whole.value)
        # every other window passes at this power, so only the test window failed it
        assert len(_power_rows(stack, 4.0, [i for i in range(40) if i != bad])) == 39


# ---------------------------------------------------------------------------
# held-out evaluation


class TestEvaluate:
    def build(self, seed=0):
        series = two_class_series(seed=seed)
        spec = WindowSpec(length=32, overlap=0.5)
        split = SplitSpec(0.6, 0.2, 0.2, seed=seed)
        result = select_beta(series, beta_grid=[1.0], window_grid=[spec], split=split)
        from covpow.features import empirical_covariance, sliding_windows

        windows = sliding_windows(series, spec)
        labels = np.array([w.label for w in windows])
        parts = split_dataset(list(range(len(windows))), labels, split)
        test_feats = [
            power_features(
                empirical_covariance(windows[i].samples),
                result.beta_star,
                label=int(labels[i]),
            )
            for i in parts.test_idx
        ]
        return result, parts, test_feats

    def test_held_out_evaluation_works(self):
        result, parts, test_feats = self.build(seed=10)
        m = evaluate(result.classifier, test_feats, token=parts.test_token)
        assert m.tp + m.fp + m.tn + m.fn == len(test_feats)
        assert m.accuracy > 0.7

    def test_leaked_token_rejected(self):
        result, parts, test_feats = self.build(seed=11)
        with pytest.raises(ConfigError):
            evaluate(result.classifier, test_feats, token=parts.train_token)
        with pytest.raises(ConfigError):
            evaluate(result.classifier, test_feats, token=parts.val_token)

    def test_empty_test_set_rejected(self):
        result, _, _ = self.build(seed=12)
        with pytest.raises(DomainError):
            evaluate(result.classifier, [])

    def test_training_data_scores_perfectly_when_separable(self):
        feats = []
        rng = np.random.default_rng(1)
        for label, base in ((0, 1.0), (1, 8.0)):
            for _ in range(12):
                feats.append(
                    FeatureMatrix(
                        matrix=SpdMatrix(
                            np.diag(base + rng.uniform(-0.2, 0.2, 2))
                        ),
                        label=label,
                    )
                )
        clf = train_linear_classifier(*design(feats), l2=1e-6)
        m = evaluate(clf, feats)
        assert m.accuracy == 1.0


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_metrics_dict_round_trip_values(self):
        m = classification_metrics([1, 0, 1, 1], [1, 0, 0, 1])
        d = metrics_to_dict(m)
        assert d["tp"] == 2 and d["fp"] == 1 and d["tn"] == 1 and d["fn"] == 0
        assert d["recall"] == d["sensitivity"]
        json.dumps(d)  # must be JSON clean

    def test_selection_csv_shape(self, tmp_path):
        series = two_class_series(seed=13)
        result = select_beta(
            series,
            beta_grid=[0.5, 1.0],
            window_grid=[WindowSpec(length=32, overlap=0.5)],
        )
        path = tmp_path / "table.csv"
        write_selection_csv(result, path)
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 3
        header = rows[0].split(",")
        assert header[0] == "beta"
        assert "val_sensitivity" in header

    def test_selection_json_contains_table(self):
        series = two_class_series(seed=14)
        result = select_beta(
            series,
            beta_grid=[1.0],
            window_grid=[WindowSpec(length=32, overlap=0.5)],
        )
        rec = json.loads(json.dumps(selection_to_dict(result)))
        assert rec["beta_star"] == 1.0
        assert len(rec["per_beta_table"]) == 1
        assert "classifier" in rec
