import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covpow.errors import DomainError, NumericalError
from covpow.spd import (
    ContourSpec,
    SpdMatrix,
    SpdStack,
    SymMatrix,
    _BLOCK,
    _fro,
    circular_contour,
    lambda_min,
    operator_norm,
    read_matrix_csv,
    spd_power_contour,
    spd_power_eig,
    spd_power_stieltjes,
    spectral_norm,
    sym_eigen,
    write_matrix_csv,
)


def random_spd(dim, seed, lo=0.5, hi=4.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = rng.uniform(lo, hi, dim)
    return SpdMatrix((q * w) @ q.T)


def rotated_diag(eigs, seed=0):
    eigs = np.asarray(eigs, dtype=float)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    return SpdMatrix((q * eigs) @ q.T)


class TestSymMatrix:
    def test_tiny_asymmetry_is_averaged_away(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        m = SymMatrix(a)
        assert_array_equal(m.values, m.values.T)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(DomainError):
            SymMatrix(np.array([[1.0, 0.5], [0.6, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(DomainError):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            SymMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_values_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0


class TestSpdMatrix:
    def test_known_spectrum(self):
        x = SpdMatrix([[1.0, -0.5], [-0.5, 1.0]])
        assert_allclose(x.eigenvalues, [0.5, 1.5], atol=1e-14)

    def test_eigenvectors_orthonormal(self):
        x = random_spd(8, seed=0)
        assert_allclose(x.eigenvectors @ x.eigenvectors.T, np.eye(8), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_singular(self):
        with pytest.raises(DomainError):
            SpdMatrix(np.zeros((3, 3)))

    def test_rejects_zero_by_zero(self):
        with pytest.raises(DomainError, match=r"at least 1 x 1, got shape \(0, 0\)"):
            SpdMatrix(np.empty((0, 0)))

    def test_eigenvalues_ascending(self):
        x = random_spd(6, seed=1)
        assert np.all(np.diff(x.eigenvalues) >= 0)


class TestContourSpec:
    def test_circular_contour_geometry(self):
        c = circular_contour(1.0, 3.0, 0.5, nodes=64)
        assert c.center == 2.0
        assert c.radius == 1.5  # half the spread plus the clearance
        assert c.nodes == 64

    def test_validation(self):
        with pytest.raises(DomainError):
            ContourSpec(center=1.0, radius=0.0)
        with pytest.raises(DomainError):
            ContourSpec(center=1.0, radius=1.5)  # dips below zero
        with pytest.raises(DomainError):
            ContourSpec(center=2.0, radius=0.5, nodes=4)

    def test_circular_contour_validation(self):
        with pytest.raises(DomainError):
            circular_contour(3.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            circular_contour(1.0, 3.0, 1.0)  # epsilon not < m
        with pytest.raises(DomainError):
            circular_contour(0.0, 3.0, 0.1)


class TestSymEigen:
    def test_reconstructs(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 7))
        a = (a + a.T) / 2
        w, q = sym_eigen(SymMatrix(a))
        assert_allclose((q * w) @ q.T, a, atol=1e-10)
        assert np.all(np.diff(w) >= 0)


class TestPowerEig:
    def test_zero_power_is_exact_identity(self):
        x = random_spd(5, seed=3)
        assert_array_equal(spd_power_eig(x, 0.0).values, np.eye(5))

    def test_diagonal_square_root(self):
        x = SpdMatrix(np.diag([4.0, 9.0]))
        assert_allclose(spd_power_eig(x, 0.5).values, np.diag([2.0, 3.0]), atol=1e-12)

    def test_known_inverse(self):
        x = SpdMatrix([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        assert_allclose(
            spd_power_eig(x, -1.0).values, [[1.0, -0.5], [-0.5, 1.0]], atol=1e-12
        )

    def test_semigroup(self):
        x = random_spd(6, seed=4)
        for a, b in [(0.5, 0.5), (-0.3, 1.3), (2.0, -0.7)]:
            lhs = spd_power_eig(x, a).values @ spd_power_eig(x, b).values
            rhs = spd_power_eig(x, a + b).values
            assert_allclose(lhs, rhs, atol=1e-9)

    def test_inverse_multiplies_to_identity(self):
        x = random_spd(6, seed=5)
        assert_allclose(
            spd_power_eig(x, -1.0).values @ x.values, np.eye(6), atol=1e-10
        )

    def test_result_carries_correct_eigen_cache(self):
        x = random_spd(4, seed=6)
        y = spd_power_eig(x, 2.0)
        assert_allclose(y.eigenvalues, np.sort(x.eigenvalues**2), atol=1e-12)

    def test_rejects_nonfinite_beta(self):
        with pytest.raises(DomainError):
            spd_power_eig(random_spd(3, seed=0), np.nan)
        with pytest.raises(DomainError, match="^beta must be finite$"):
            SpdStack(spd_stack_values(2, 3, seed=0)).power(np.inf)


class TestPowerStieltjes:
    def test_scalar_inverse_square_root(self):
        x = SpdMatrix([[4.0]])
        got = spd_power_stieltjes(x, 0.5, n_quad=200).values[0, 0]
        assert abs(got - 0.5) <= 1e-6

    def test_matches_eig_route(self):
        x = random_spd(8, seed=7)
        for beta in (0.25, 0.5, 0.75):
            got = spd_power_stieltjes(x, beta).values
            want = spd_power_eig(x, -beta).values
            assert np.linalg.norm(got - want, 2) <= 1e-8

    def test_high_condition_stress(self):
        # condition number 1e4; the quadrature must stay within 1e-5
        x = rotated_diag(np.geomspace(1e-2, 1e2, 12), seed=8)
        for beta in (0.25, 0.5, 0.75):
            got = spd_power_stieltjes(x, beta, n_quad=400).values
            want = spd_power_eig(x, -beta).values
            rel = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
            assert rel <= 1e-5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_warning_across_the_beta_range(self):
        # scipy's Jacobi recurrence divides by an exact 0 at k=1 for 27 of
        # these betas (1/3, 0.2 and 0.1 among them); the term is dropped, and
        # the divide warning must not escape as an error
        x = random_spd(4, seed=10)
        for beta in np.linspace(0.01, 0.99, 99).tolist():
            got = spd_power_stieltjes(x, beta).values
            want = spd_power_eig(x, -beta).values
            assert np.linalg.norm(got - want, 2) <= 1e-8 * np.linalg.norm(want, 2)

    def test_domain_checks(self):
        x = random_spd(3, seed=9)
        for beta in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                spd_power_stieltjes(x, beta)
        with pytest.raises(DomainError):
            spd_power_stieltjes(x, 0.5, n_quad=8)


class TestPowerContour:
    def test_identity_any_power(self):
        x = SpdMatrix(np.eye(3))
        spec = ContourSpec(center=1.0, radius=0.5, nodes=64)
        assert_allclose(spd_power_contour(x, 2.0, spec).values, np.eye(3), atol=1e-8)

    def test_negative_beta_recovers_matrix(self):
        x = SpdMatrix(np.diag([1.0, 3.0]))
        spec = circular_contour(1.0, 3.0, 0.5, nodes=128)
        assert_allclose(spd_power_contour(x, -1.0, spec).values, x.values, atol=1e-8)

    def test_matches_eig_route(self):
        x = random_spd(8, seed=10)
        m, m_up = x.eigenvalues[0], x.eigenvalues[-1]
        spec = circular_contour(m, m_up, 0.5 * m, nodes=256)
        for beta in (0.5, -0.5, 1.0, 2.0):
            got = spd_power_contour(x, beta, spec).values
            want = spd_power_eig(x, -beta).values
            rel = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
            assert rel <= 1e-8

    def test_node_count_convergence_at_condition_100(self):
        x = rotated_diag(np.geomspace(1.0, 100.0, 10), seed=11)
        want = spd_power_eig(x, -0.5).values
        errs = {}
        for nodes in (256, 4096):
            spec = circular_contour(1.0, 100.0, 0.5, nodes=nodes)
            got = spd_power_contour(x, 0.5, spec).values
            errs[nodes] = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
        assert errs[4096] <= 1e-7
        assert errs[256] > 1e-3  # too few nodes for this eccentricity

    def test_rejects_contour_missing_spectrum(self):
        x = SpdMatrix([[1.0, -0.5], [-0.5, 1.0]])  # spectrum {0.5, 1.5}
        with pytest.raises(DomainError):
            spd_power_contour(x, 0.5, ContourSpec(center=10.0, radius=1.0))
        with pytest.raises(DomainError):
            # top eigenvalue 1.5 sits outside center 1.0, radius 0.45
            spd_power_contour(x, 0.5, ContourSpec(center=1.0, radius=0.45))

    def test_rejects_zero_beta(self):
        x = SpdMatrix(np.eye(2))
        with pytest.raises(DomainError):
            spd_power_contour(x, 0.0, ContourSpec(center=1.0, radius=0.5))

    def test_imaginary_residual_is_a_numerical_error(self, monkeypatch):
        # resolvents times i are not conjugate-symmetric over the nodes, so
        # the quadrature keeps an imaginary part the size of X^-beta itself
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 1j * real_solve(a, b))
        x = SpdMatrix([[1.0, -0.5], [-0.5, 1.0]])
        with pytest.raises(NumericalError, match="^contour quadrature imaginary residual"):
            spd_power_contour(x, 0.5, circular_contour(0.5, 1.5, 0.25))


class TestNorms:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(["C", "F", "T", "strided"]),
    )
    def test_fro_of_a_matrix_is_linalg_norm(self, shape, seed, layout):
        a = np.random.default_rng(seed).standard_normal(shape)
        a = {"C": a, "F": np.asfortranarray(a), "T": a.T, "strided": a[::2, ::-1]}[layout]
        assert _fro(a).tobytes() == np.linalg.norm(a).tobytes()

    def test_spectral_norm_known(self):
        assert abs(spectral_norm(SymMatrix([[1.0, -0.5], [-0.5, 1.0]])) - 1.5) <= 1e-14
        # a shifted operator: plain arrays are accepted too
        assert abs(spectral_norm(np.array([[0.0, 0.5], [0.5, 0.0]])) - 0.5) <= 1e-14

    def test_lambda_min_known(self):
        assert abs(lambda_min(np.array([[1.0, -0.5], [-0.5, 1.0]])) - 0.5) <= 1e-14

    def test_operator_norm_rectangular(self):
        assert operator_norm(np.array([[2.0], [0.0]])) == 2.0
        rng = np.random.default_rng(12)
        for shape in ((3, 5), (5, 3), (1, 4), (7, 4)):
            b = rng.standard_normal(shape)
            assert operator_norm(b) == np.linalg.norm(b, 2)  # bit for bit

    def test_operator_norm_empty(self):
        assert operator_norm(np.zeros((0, 3))) == 0.0


class TestMatrixIo:
    def test_csv_round_trip_bitwise(self, tmp_path):
        x = random_spd(4, seed=14).values
        path = tmp_path / "m.csv"
        write_matrix_csv(x, path)
        assert_array_equal(read_matrix_csv(path), x)

    def test_csv_one_by_one(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(np.array([[2.5]]), path)
        got = read_matrix_csv(path)
        assert got.shape == (1, 1)
        assert got[0, 0] == 2.5


def spd_stack_values(n, dim, seed, lo=0.5, hi=4.0):
    return np.array([random_spd(dim, seed=seed + i, lo=lo, hi=hi).values for i in range(n)])


def gram_stack(n, dim, seed):
    """n well-conditioned SPD matrices, a @ a.T / dim + I."""
    a = np.random.default_rng(seed).standard_normal((n, dim, dim))
    return a @ a.swapaxes(1, 2) / dim + np.eye(dim)


def rel_err(a, b):
    """Largest per-matrix Frobenius error of a against b, relative to b."""
    return float(np.max(np.linalg.norm(a - b, axis=(-2, -1)) / np.linalg.norm(b, axis=(-2, -1))))


class TestSpdStack:
    def test_one_eigh_matches_per_matrix_factorization(self):
        # past 128 matrices a stack is built and powered a block at a time
        assert _BLOCK == 128
        for mats in (spd_stack_values(6, 4, seed=20), gram_stack(129, 4, 21), gram_stack(300, 4, 22)):
            stack = SpdStack(mats)
            powered = stack.power(-1.5)
            assert len(stack) == len(mats)
            for i, m in enumerate(mats):
                single = SpdMatrix(m)
                assert_array_equal(stack.values[i], single.values)
                assert_array_equal(stack.eigenvalues[i], single.eigenvalues)
                assert_array_equal(stack.eigenvectors[i], single.eigenvectors)
                assert_array_equal(powered.values[i], spd_power_eig(single, -1.5).values)

    @pytest.mark.parametrize("beta", [-2.5, -2.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.75, 3.0])
    def test_power_matches_spd_power_eig(self, beta):
        # random spectra, the identity, a scaled identity and repeated eigenvalues,
        # whose powers can tie exactly
        repeated = [rotated_diag(eigs, seed=s).values for s, eigs in
                    enumerate([[0.7, 0.7, 1.9], [1.3, 1.3, 1.3], [2.0, 0.5, 2.0]])]
        mats = np.concatenate(
            [spd_stack_values(5, 3, seed=30), [np.eye(3), 2.5 * np.eye(3)], repeated]
        )
        stack = SpdStack(mats)
        singles = [spd_power_eig(SpdMatrix(m), beta) for m in mats]
        powered = stack.power(beta)
        for i, single in enumerate(singles):
            assert_array_equal(powered.values[i], single.values)
            assert_array_equal(powered.eigenvalues[i], single.eigenvalues)  # ascending
            assert_array_equal(powered.eigenvectors[i], single.eigenvectors)

    def test_values_and_eigenpairs_are_read_only(self):
        # as for SpdMatrix: a reassigned field would leave the other two
        # describing other matrices
        stack = SpdStack(spd_stack_values(3, 2, seed=23))
        for name in ("values", "eigenvalues", "eigenvectors"):
            with pytest.raises(AttributeError):
                setattr(stack, name, np.zeros_like(getattr(stack, name)))
            with pytest.raises(ValueError):
                getattr(stack, name)[0] = 0.0
        with pytest.raises(AttributeError):
            SpdMatrix(np.eye(2)).values = np.zeros((2, 2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            SpdStack(np.eye(3))
        with pytest.raises(DomainError):
            SpdStack(np.zeros((2, 3, 4)))
        with pytest.raises(DomainError, match=r"at least 1 x 1, got shape \(3, 0, 0\)"):
            SpdStack(np.empty((3, 0, 0)))

    def test_power_losing_definiteness_names_the_matrix(self):
        mats = spd_stack_values(4, 3, seed=40)
        mats[2] = np.diag([1e-4, 1.0, 2.0])
        stack = SpdStack(mats)
        with pytest.raises(DomainError, match="stack element 2: .*not positive definite"):
            stack.power(4.0)

    def test_power_that_overflows_names_the_matrix(self):
        # 1e100 ** 4 is inf: its power once came back as inf and nan entries
        big = np.diag([1e100, 1.0])
        with pytest.raises(DomainError, match=r"^stack element 1: matrix overflows: lambda_max = inf$"):
            SpdStack(np.stack([np.eye(2), big])).power(4.0)
        with pytest.raises(DomainError, match=r"^matrix overflows: lambda_max = inf$"):
            spd_power_eig(SpdMatrix(big), 4.0)
        assert spd_power_eig(SpdMatrix(big), 2.0).eigenvalues[-1] == 1e100**2


class TestStackBlocks:
    def test_first_failing_check_wins_across_blocks(self):
        # every check runs over the whole stack before the next one starts, so
        # a later block's earlier check names its element, not block 0's
        mats = gram_stack(301, 3, seed=61)
        mats[5] = np.diag([-1.0, 1.0, 2.0])
        with pytest.raises(DomainError, match="stack element 5: .*not positive definite"):
            SpdStack(mats)
        asym = mats.copy()
        asym[260, 0, 2] += 0.1
        with pytest.raises(DomainError, match="stack element 260: matrix is not symmetric"):
            SpdStack(asym)
        mats[300, 1, 1] = np.inf
        with pytest.raises(DomainError, match="stack element 300: matrix has non-finite"):
            SpdStack(mats)


class TestStackProperties:
    """Invariances of the stacked power, and that its checks are sym_eigen's."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        c=st.floats(1e-3, 1e3),
        beta=st.floats(-3.0, 3.0).filter(lambda b: abs(b) > 1e-3),
    )
    def test_scale_equivariance(self, seed, c, beta):
        mats = spd_stack_values(3, 4, seed=seed)
        got = SpdStack(c * mats).power(beta).values
        assert rel_err(got, c**beta * SpdStack(mats).power(beta).values) <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        perm=st.permutations(range(5)),
        beta=st.floats(-3.0, 3.0),
    )
    def test_channel_permutation(self, seed, perm, beta):
        mats = spd_stack_values(3, 5, seed=seed)
        p = np.eye(5)[list(perm)]
        got = SpdStack(p @ mats @ p.T).power(beta).values
        assert rel_err(got, p @ SpdStack(mats).power(beta).values @ p.T) <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6), data=st.data())
    def test_non_pd_element_named_like_sym_eigen_fails(self, seed, n, data):
        i = data.draw(st.integers(0, n - 1))
        mats = spd_stack_values(n, 3, seed=seed)
        mats[i] = np.diag([-1.0, 1.0, 2.0])
        with pytest.raises(DomainError) as single:
            SpdMatrix(mats[i])
        with pytest.raises(type(single.value), match=f"stack element {i}: .*not positive definite"):
            SpdStack(mats)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6), data=st.data())
    def test_non_orthonormal_element_named_like_sym_eigen_fails(self, seed, n, data):
        i = data.draw(st.integers(0, n - 1))
        mats = spd_stack_values(n, 3, seed=seed)
        eigh = np.linalg.eigh

        def skewed_eigh(a):
            w, q = eigh(a)
            target = q if q.ndim == 2 else q[i]
            target[:, 0] *= 1 + 1e-6  # breaks orthonormality of one matrix only
            return w, q

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", skewed_eigh)
            with pytest.raises(NumericalError) as single:
                sym_eigen(mats[i])
            assert "orthonormality" in str(single.value)
            with pytest.raises(NumericalError, match=f"stack element {i}: .*orthonormality"):
                SpdStack(mats)

    def test_asymmetric_or_nonfinite_element_named(self):
        mats = spd_stack_values(3, 3, seed=50)
        bad = mats.copy()
        bad[1, 0, 2] += 0.1
        with pytest.raises(DomainError, match="stack element 1: matrix is not symmetric"):
            SpdStack(bad)
        bad = mats.copy()
        bad[2, 1, 1] = np.nan
        with pytest.raises(DomainError, match="stack element 2: matrix has non-finite"):
            SpdStack(bad)
