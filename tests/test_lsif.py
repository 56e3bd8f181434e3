import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    catchment_indicator,
    constant_basis,
    fit_on,
    fitted_value,
    indicator_basis,
    lsif_moments,
    matched_times_at,
    objective_gradient,
    objective_value,
    one_step_dre,
    verify_theorem1,
)
from rieszmatch import (
    TwoSampleData,
    fit,
    gaussian_grid_basis,
    polynomial_feature_matrix,
    verify_theorem1_all,
)
from rieszmatch import lsif, neighbors
from rieszmatch.equivalence import random_two_sample_instance
from rieszmatch.lsif import _rows_in, check_features, indicator_dre, ridge_solve


def poly(degree):
    """The polynomial basis of ``degree`` as a function of the points alone."""
    return lambda points: polynomial_feature_matrix(points, degree)


class TestFit:
    def test_equal_samples_constant_basis(self):
        pts = np.array([[0.1], [0.5], [0.9]])
        data = TwoSampleData(denominator=pts, numerator=pts)
        _, beta = fit_on(data, constant_basis(1), lam=0.0)
        h_mat, h_vec = lsif_moments(data, constant_basis(1))
        np.testing.assert_allclose(h_mat, [[1.0]])
        np.testing.assert_allclose(h_vec, [1.0])
        np.testing.assert_allclose(beta, [1.0])
        assert fitted_value(constant_basis(1), beta, [0.33]) == pytest.approx(1.0)

    def test_large_ridge_shrinks_beta(self):
        rng = np.random.default_rng(3)
        data = TwoSampleData(
            denominator=rng.normal(size=(40, 2)), numerator=rng.normal(size=(30, 2))
        )
        basis = poly(2)
        _, h_vec = lsif_moments(data, basis)
        for lam in (1e3, 1e6):
            _, beta = fit_on(data, basis, lam)
            assert np.linalg.norm(beta) <= np.linalg.norm(h_vec) / lam

    def test_indicator_running_instance(self, running_two_sample):
        basis = indicator_basis(running_two_sample, 1, [0.0])
        _, beta = fit_on(running_two_sample, basis, lam=0.0)
        h_mat, h_vec = lsif_moments(running_two_sample, basis)
        np.testing.assert_allclose(h_mat, [[0.25]])
        np.testing.assert_allclose(h_vec, [0.5])
        np.testing.assert_allclose(beta, [2.0])

    def test_singular_at_lambda_zero_reported(self):
        # more basis functions than distinct support: H is singular
        data = TwoSampleData(denominator=[[0.0], [0.0]], numerator=[[1.0]])
        basis = poly(2)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            fit_on(data, basis, lam=0.0)
        fit_on(data, basis, lam=1e-6)  # explicit ridge resolves it; nothing silent

    def test_non_finite_basis_output(self):
        for bad in (np.inf, np.nan):
            for phi_den, phi_num in (([[bad]], [[1.0]]), ([[1.0]], [[bad]])):
                with pytest.raises(ValueError, match="^non-finite value in feature matrix$"):
                    fit(phi_den, phi_num, lam=0.0)

    def test_basis_refuses_dimension_below_one(self):
        # a feature matrix of no column, in either sample
        message = r"expected \(k, {}\) with at least one row and one column$"
        with pytest.raises(ValueError, match=r"shape \(2, 0\), " + message.format("b")):
            fit(np.empty((2, 0)), np.empty((1, 0)))
        with pytest.raises(ValueError, match=r"shape \(1, 0\), " + message.format(1)):
            fit(np.ones((2, 1)), np.empty((1, 0)))

    def test_non_finite_entry_found_in_any_block(self, monkeypatch):
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 7)
        values = np.ones((50, 3))
        values[-1, -1] = np.nan  # in the last of 25 two-row blocks
        with pytest.raises(ValueError, match="non-finite value in feature matrix"):
            check_features(values, 50)
        values[-1, -1] = 1.0
        assert check_features(values, 50) is values

    def test_overflowing_moments_are_refused(self):
        # finite features whose squares overflow: LAPACK factors the inf
        # moments without an error, and beta came back all NaN
        phi = np.array([[1.0, 1e200], [1.0, 2e200]])
        for lam in (0.0, 1e-3, None):
            with np.errstate(over="ignore"), pytest.raises(
                np.linalg.LinAlgError, match="^non-finite moments"
            ):
                fit(phi, phi, lam)

    def test_rejects_lambda_not_finite_or_negative(self):
        data = TwoSampleData(denominator=[[0.0], [1.0]], numerator=[[0.5]])
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"lambda must be finite and nonnegative, got {lam}"):
                fit_on(data, poly(1), lam)

    def test_fit_holds_few_moment_matrix_copies(self):
        # 2025 centers: the moment matrix and one system factored in place, each
        # 31 MiB; adding the ridge out of place and a copying factorization take
        # 3.2.  Neither outlives the call.
        rng = np.random.default_rng(5)
        data = TwoSampleData(
            denominator=rng.normal(size=(200, 2)), numerator=rng.normal(0.3, size=(200, 2))
        )
        basis = gaussian_grid_basis(data.denominator, per_dim=45)
        phi_den, phi_num = basis(data.denominator), basis(data.numerator)
        b, lam = phi_den.shape[1], 1e-3
        tracemalloc.start()
        try:
            _, beta = fit(phi_den, phi_num, lam)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * b * b * 8, peak / (b * b * 8)
        assert held < 0.1 * b * b * 8, held / (b * b * 8)
        # the out-of-place formula and scipy's Cholesky pair, bit for bit
        h_mat = phi_den.T @ phi_den / data.n_denominator
        h_vec = phi_num.mean(axis=0)
        factor = scipy.linalg.cho_factor(h_mat + lam * np.eye(b), lower=True)
        np.testing.assert_array_equal(beta, scipy.linalg.cho_solve(factor, h_vec))

    def test_default_ridge_holds_no_feature_copy(self):
        # the default ridge is read off H: a sum of the squared features held a
        # (k, b) copy of the denominator's, 1.0x its bytes
        phi_den = np.random.default_rng(13).normal(size=(200_000, 20))
        phi_num = phi_den[:100]
        tracemalloc.start()
        try:
            fit(phi_den, phi_num)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * phi_den.nbytes, peak / phi_den.nbytes

    def test_h_symmetric_psd(self):
        rng = np.random.default_rng(8)
        data = TwoSampleData(
            denominator=rng.normal(size=(60, 2)), numerator=rng.normal(size=(20, 2))
        )
        h_mat, _ = lsif_moments(data, poly(2))
        np.testing.assert_allclose(h_mat, h_mat.T, atol=1e-14)
        eigvals = np.linalg.eigvalsh(h_mat)
        assert eigvals.min() >= -1e-12


class TestBatchContract:
    def test_wrong_shape_raises(self):
        # one feature per point as a flat vector is no (k, b) matrix
        with pytest.raises(ValueError, match=r"shape \(2,\), expected \(k, b\)"):
            fit(np.ones(2), np.ones((1, 1)), lam=0.0)
        with pytest.raises(ValueError, match=r"shape \(\), expected \(3, b\)"):
            check_features(1.0, 3)
        with pytest.raises(ValueError, match=r"shape \(0, 2\), expected \(k, b\)"):
            check_features(np.empty((0, 2)))
        with pytest.raises(ValueError, match=r"shape \(2, 1\), expected \(3, 1\)"):
            check_features(np.ones((2, 1)), 3, 1)
        # the numerator's features have the denominator's columns
        with pytest.raises(ValueError, match=r"shape \(1, 2\), expected \(k, 3\)"):
            fit(np.ones((4, 3)), np.ones((1, 2)))


class TestPredict:
    def test_constant(self):
        data = TwoSampleData(denominator=[[0.0], [1.0]], numerator=[[0.5]])
        _, beta = fit_on(data, constant_basis(1), lam=0.0)
        for x in (-3.0, 0.0, 11.0):
            assert fitted_value(constant_basis(1), beta, [x]) == pytest.approx(1.0)

    def test_indicator_support(self, running_two_sample):
        basis = indicator_basis(running_two_sample, 1, [0.0])
        _, beta = fit_on(running_two_sample, basis, lam=0.0)
        assert fitted_value(basis, beta, [0.0]) == 2.0   # at the anchor
        assert fitted_value(basis, beta, [5.0]) == 0.0   # outside every catchment


class TestIndicatorBasis:
    def test_anchor_always_one(self, running_two_sample):
        for c in ([0.0], [0.4], [1.7]):
            basis = indicator_basis(running_two_sample, 1, c)
            assert basis(np.array(c)) == pytest.approx(1.0)

    def test_denominator_evaluations(self, running_two_sample):
        basis = indicator_basis(running_two_sample, 1, [0.4])
        values = basis(running_two_sample.denominator)
        np.testing.assert_array_equal(values.ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_numerator_at_anchor(self, running_two_sample):
        basis = indicator_basis(running_two_sample, 1, [0.4])
        assert basis(np.array([0.4])) == pytest.approx(1.0)

    def test_m_exceeds_denominator(self, running_two_sample):
        with pytest.raises(ValueError, match="exceeds"):
            indicator_basis(running_two_sample, 9, [0.0])

    def test_h_equals_m_over_n0_and_h_vec_equals_k_over_n1(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            data, m = random_two_sample_instance(rng, max_n=60)
            t = int(rng.integers(data.n_numerator))
            c = data.numerator[t : t + 1]
            h_mat, h_vec = lsif_moments(data, indicator_basis(data, m, c))
            assert h_mat[0, 0] == m / data.n_denominator
            k = matched_times_at(data, m, c)[0]
            assert h_vec[0] == k / data.n_numerator


class TestOneStep:
    def test_running_instance(self, running_two_sample):
        assert one_step_dre(running_two_sample, 1, [0.0]) == 2.0

    def test_empty_catchment_count(self):
        data = TwoSampleData(denominator=[0.0, 1.0], numerator=[0.2])
        assert one_step_dre(data, 1, [50.0]) == 0.0

    def test_balanced_case(self):
        data = TwoSampleData(denominator=[0.0, 10.0], numerator=[0.1, 9.9])
        assert one_step_dre(data, 1, [0.0]) == 1.0


class TestTheorem1:
    def test_running_instance(self, running_two_sample):
        check = verify_theorem1(running_two_sample, 1, [0.0])
        assert check.lsif_value == 2.0
        assert check.one_step_value == 2.0
        assert check.gap == 0.0

    def test_equal_laws_ratio_near_one(self):
        rng = np.random.default_rng(17)
        data = TwoSampleData(
            denominator=rng.normal(size=(400, 1)), numerator=rng.normal(size=(400, 1))
        )
        lsif_values, _ = verify_theorem1_all(data, 20)
        assert abs(np.median(lsif_values) - 1.0) < 0.3

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gap_below_1e12_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        data, m = random_two_sample_instance(rng, max_n=80)
        lsif_values, one_step = verify_theorem1_all(data, m)
        assert np.abs(lsif_values - one_step).max() <= 1e-12

    def test_batched_equals_per_point_exactly(self):
        rng = np.random.default_rng(4)
        instances = [random_two_sample_instance(rng, max_n=50) for _ in range(10)]
        # integer grids: numerator points equal denominator rows, distances tie
        instances += [(grid_two_sample(30, 25, d, seed=d), 3) for d in (1, 2)]
        for data, m in instances:
            lsif_values, one_step_values = verify_theorem1_all(data, m)
            for t in range(0, data.n_numerator, 3):
                single = verify_theorem1(data, m, data.numerator[t : t + 1])
                assert single.lsif_value == lsif_values[t]
                assert single.one_step_value == one_step_values[t]

    def test_one_tree_and_one_radius_query(self, monkeypatch):
        # both routes share the denominator tree and the numerator's M-th radii
        builds, query_rows = [], []
        real_blocks = neighbors._knn_blocks

        class CountingTree(neighbors.cKDTree):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        def counting_blocks(tree, m, queries):
            query_rows.append(len(queries))
            return real_blocks(tree, m, queries)

        monkeypatch.setattr(neighbors, "cKDTree", CountingTree)
        monkeypatch.setattr(neighbors, "_knn_blocks", counting_blocks)
        data, m = random_two_sample_instance(np.random.default_rng(6), max_n=80)
        verify_theorem1_all(data, m)
        assert len(builds) == 1
        assert query_rows == [data.n_numerator]


def grid_two_sample(n0, n1, d, seed):
    rng = np.random.default_rng(seed)
    den = rng.integers(0, 3, size=(n0, d)).astype(float)
    num = rng.integers(0, 3, size=(n1, d)).astype(float)
    return TwoSampleData(denominator=den, numerator=num)


def dense_matched_times(data, m, points):
    """Brute-force count: squared distances accumulated coordinate by coordinate."""
    def sq(a, b):
        out = np.zeros((len(a), len(b)))
        for k in range(a.shape[1]):
            out += (a[:, k, None] - b[None, :, k]) ** 2
        return out

    radii = np.sort(sq(data.numerator, data.denominator), axis=1)[:, m - 1]
    return (sq(np.asarray(points, dtype=float), data.numerator) <= radii[None, :]).sum(axis=1)


class TestIndicatorDre:
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 2.5])
    def test_equals_per_point_fit_exactly(self, lam):
        rng = np.random.default_rng(53)
        cases = [random_two_sample_instance(rng, max_n=50) for _ in range(3)]
        grid = grid_two_sample(40, 30, 2, seed=3)
        cases += [(grid, 4), (grid, 40)]
        # every numerator row a reference row: the covering count sees no point
        for den in (grid.denominator, rng.normal(size=(30, 2))):
            cases.append((TwoSampleData(denominator=den, numerator=den[::-1]), 3))
        for data, m in cases:
            points = np.vstack([data.numerator[:8], data.denominator[:4], [[7.0] * data.d]])
            values = indicator_dre(data, m, points, lam)
            for t, point in enumerate(points[:, None]):  # (1, d) rows
                basis = indicator_basis(data, m, point)
                single = fitted_value(basis, fit_on(data, basis, lam)[1], point)
                assert values[t] == single

    def test_rejects_bad_m_and_lambda(self, running_two_sample):
        with pytest.raises(ValueError, match="exceeds"):
            indicator_dre(running_two_sample, 5, [[0.0]])
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                indicator_dre(running_two_sample, 1, [[0.0]], lam=lam)

    def test_matched_times_at_equals_dense_count(self, monkeypatch):
        rng = np.random.default_rng(59)
        grid = grid_two_sample(50, 45, 2, seed=11)
        cases = [(grid, 1), (grid, 6), (grid, 50)]
        cases += [random_two_sample_instance(rng, max_n=60) for _ in range(4)]
        for data, m in cases:
            points = np.vstack([data.numerator, data.denominator, rng.normal(size=(5, data.d))])
            expected = dense_matched_times(data, m, points)
            np.testing.assert_array_equal(matched_times_at(data, m, points), expected)
            monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 7)
            np.testing.assert_array_equal(matched_times_at(data, m, points), expected)
            monkeypatch.undo()


class TestRowsIn:
    @staticmethod
    def set_rule(points, reference):
        rows = set(map(tuple, reference.tolist()))  # tuples compare floats by ==
        return np.array([row in rows for row in map(tuple, points.tolist())], dtype=bool)

    def test_equals_the_set_rule(self):
        rng = np.random.default_rng(61)
        cases = []
        for d, levels in ((1, 9), (2, 3), (17, 2)):
            ref = rng.integers(0, levels, size=(60, d)).astype(float)  # duplicate rows
            points = np.vstack([ref[:10], rng.integers(0, levels + 1, size=(50, d))])
            cases += [(points, ref), (np.asfortranarray(points), np.asfortranarray(ref))]
        signed = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.0, -0.0]])
        cases += [(signed, signed[[3]]), (signed[[0, 4]], np.array([[1.0, 0.0], [2.0, 0.0]]))]
        for points, ref in cases:
            expected = self.set_rule(points, ref)
            assert expected.any() and not expected.all()
            np.testing.assert_array_equal(_rows_in(points, ref), expected)


class TestRidgeSolve:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_equal_to_scipy_cholesky(self, order):
        rng = np.random.default_rng(67)
        for b in range(1, 41):
            root = rng.normal(size=(b + 2, b))
            system = root.T @ root
            rhs = rng.normal(size=b)
            factor = scipy.linalg.cho_factor(system, lower=True, check_finite=False)
            expected = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            h_mat = np.array(system, order=order)
            got = ridge_solve(h_mat, rhs, 0.0, "singular")
            assert got.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(h_mat, system)  # factored in a copy

    def test_singular_systems_raise_the_callers_text(self):
        singular = "no fit at lambda={lam:g}"
        # not positive definite: LAPACK stops at the second pivot
        with pytest.raises(np.linalg.LinAlgError, match="^no fit at lambda=0$"):
            ridge_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2), 0.0, singular)
        # positive definite, but the relative pivot ratio is not above 1e-12
        with pytest.raises(np.linalg.LinAlgError, match="^no fit at lambda=1e-14$"):
            ridge_solve(np.diag([1.0, 0.0]), np.ones(2), 1e-14, singular)
        beta = ridge_solve(np.diag([1.0, 0.0]), np.ones(2), 1e-11, singular)
        np.testing.assert_allclose(beta, [1.0 / (1 + 1e-11), 1e11], rtol=1e-14)

    def test_non_finite_moments_are_refused(self):
        # LAPACK factors a NaN matrix with info 0 and a NaN pivot
        message = "^non-finite moments: the feature products overflow float64$"
        for h_mat, h_vec in (([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]), (np.eye(2), [np.inf, 1.0])):
            with pytest.raises(np.linalg.LinAlgError, match=message):
                ridge_solve(np.array(h_mat), np.array(h_vec), 0.0, "singular")


class TestOptimality:
    def test_first_order_condition(self):
        rng = np.random.default_rng(23)
        for degree in (1, 2, 3):
            data = TwoSampleData(
                denominator=rng.normal(size=(80, 2)), numerator=rng.normal(size=(50, 2))
            )
            basis = poly(degree)
            _, beta = fit_on(data, basis, lam=1e-4)
            grad = objective_gradient(data, basis, 1e-4, beta)
            assert np.abs(grad).max() <= 1e-10

    def test_finite_differences_match_analytic_gradient(self):
        rng = np.random.default_rng(29)
        data = TwoSampleData(
            denominator=rng.normal(size=(60, 2)), numerator=rng.normal(size=(40, 2))
        )
        basis = poly(2)
        lam = 0.05
        step = 1e-5
        for _ in range(20):
            beta = rng.normal(size=6)
            grad = objective_gradient(data, basis, lam, beta)
            fd = np.empty_like(grad)
            for j in range(len(beta)):
                up = beta.copy()
                down = beta.copy()
                up[j] += step
                down[j] -= step
                fd[j] = (
                    objective_value(data, basis, lam, up)
                    - objective_value(data, basis, lam, down)
                ) / (2 * step)
            assert np.abs(fd - grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())

    def test_objective_minimal_at_fit(self):
        rng = np.random.default_rng(37)
        data = TwoSampleData(
            denominator=rng.normal(size=(50, 1)), numerator=rng.normal(size=(30, 1))
        )
        basis = poly(2)
        lam = 0.01
        _, beta = fit_on(data, basis, lam)
        at_min = objective_value(data, basis, lam, beta)
        for _ in range(100):
            delta = rng.normal(size=len(beta)) * rng.uniform(1e-4, 1.0)
            assert at_min <= objective_value(data, basis, lam, beta + delta) + 1e-15

    def test_beta_linear_in_h(self):
        rng = np.random.default_rng(41)
        data = TwoSampleData(
            denominator=rng.normal(size=(50, 2)), numerator=rng.normal(size=(30, 2))
        )
        basis = poly(1)
        lam = 0.1
        _, beta = fit_on(data, basis, lam)
        h_mat, h_vec = lsif_moments(data, basis)
        system = h_mat + lam * np.eye(len(beta))
        for s in (0.5, 2.0, -3.0):
            scaled = scipy.linalg.cho_solve(scipy.linalg.cho_factor(system), s * h_vec)
            np.testing.assert_allclose(scaled, s * beta, rtol=1e-12)


class TestBuiltInBases:
    def test_polynomial_dimension(self):
        assert polynomial_feature_matrix(np.zeros((4, 3)), 3).shape == (4, 20)
        assert polynomial_feature_matrix(np.zeros((4, 2)), 0).shape == (4, 1)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_polynomial_features_bit_for_bit(self, degree):
        # the column_stack formula, at every d the CLI reaches, on 0, 1 and many rows
        rng = np.random.default_rng(degree)
        for d in range(1, 18):
            exps = lsif.monomial_exponents(d, degree)
            for k in (0, 1, 37):
                pts = rng.normal(size=(k, d))
                expected = np.column_stack([np.prod(pts ** np.array(e), axis=1) for e in exps])
                out = polynomial_feature_matrix(pts, degree)
                assert out.shape == (k, len(exps))
                np.testing.assert_array_equal(out, expected)

    def test_polynomial_features_fill_one_matrix(self):
        # no b full columns held beside the result, as column_stack's 2x
        pts = np.random.default_rng(12).normal(size=(20_000, 2))
        tracemalloc.start()
        try:
            out = polynomial_feature_matrix(pts, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * out.nbytes, peak / out.nbytes

    def test_gaussian_grid_center_limit(self):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        assert gaussian_grid_basis(pts, per_dim=64)(pts[:1]).shape == (1, 4096)
        with pytest.raises(ValueError, match="65 per dimension in d=2 has 4225 centers"):
            gaussian_grid_basis(pts, per_dim=65)

    def test_gaussian_grid_evaluates_in_row_blocks(self):
        # 1000 rows x 4096 centers: 125 row blocks of neighbors._BLOCK_ENTRIES entries
        pts = np.random.default_rng(3).normal(size=(1000, 2))
        per_dim = 64
        basis = gaussian_grid_basis(pts, per_dim=per_dim)
        tracemalloc.start()
        try:
            values = basis(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * values.nbytes
        # the unblocked formula on the same grid, bit for bit
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        axes = [np.linspace(lo[k], hi[k], per_dim) for k in range(2)]
        centers = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
        bandwidth = float(np.mean(hi - lo)) / per_dim
        dx = pts[:, 0, None] - centers[None, :, 0]
        dy = pts[:, 1, None] - centers[None, :, 1]
        expected = np.exp(-(dx * dx + dy * dy) * (1.0 / (2.0 * bandwidth * bandwidth)))
        np.testing.assert_array_equal(values, expected)

    def test_check_features_checks_finiteness_in_row_blocks(self):
        # a whole (k, b) finiteness mask would add an eighth of the matrix
        pts = np.random.default_rng(4).normal(size=(1000, 2))
        values = gaussian_grid_basis(pts, per_dim=64)(pts)
        tracemalloc.start()
        try:
            assert check_features(values, 1000, 4096) is values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * values.nbytes, peak / values.nbytes

    def test_gaussian_grid_shape(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 2))
        values = gaussian_grid_basis(pts, per_dim=3)(pts)
        assert values.shape == (40, 9)
        assert np.all(values > 0) and np.all(values <= 1.0)

    @pytest.mark.parametrize("scale", [0.0, 1e-160])
    def test_gaussian_grid_without_bandwidth_is_refused(self, scale):
        # identical rows, or an extent whose squared bandwidth underflows: no bump has a width
        pts = np.random.default_rng(2).normal(size=(40, 2)) * scale
        with pytest.raises(ValueError, match="point cloud has zero extent"):
            gaussian_grid_basis(pts)

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_shape_contract(self, d):
        # (k, d) -> (k, b) is the only contract: a 1-d input is one column
        pts = np.random.default_rng(7).normal(size=(5, d))
        bases = [  # (basis, b, whether it has a dimension of its own)
            (constant_basis(d), 1, True),
            (poly(2), 1 + d + d * (d + 1) // 2, False),
            (gaussian_grid_basis(pts, per_dim=3), 3**d, True),
            (catchment_indicator(pts, 2, pts[:1]), 1, True),
        ]
        for basis, b, has_dimension in bases:
            assert basis(pts[:1]).shape == (1, b)
            assert basis(pts).shape == (5, b)
            if d == 1:
                assert basis(pts[:, 0]).shape == (5, b)
            elif has_dimension:
                with pytest.raises(ValueError, match=f"of dimension {d}, got 1$"):
                    basis(pts[:, 0])

    @pytest.mark.parametrize("kind", ["poly", "gauss"])
    def test_default_ridge_bit_for_bit(self, kind):
        rng = np.random.default_rng(11)
        data = TwoSampleData(
            denominator=rng.normal(size=(50, 2)), numerator=rng.normal(0.3, size=(20, 2))
        )
        if kind == "poly":
            basis = poly(2)
        else:
            basis = gaussian_grid_basis(data.denominator, per_dim=3)
        phi = basis(data.denominator)
        lam = 1e-6 * np.trace(phi.T @ phi / data.n_denominator) / phi.shape[1]
        default_lam, beta = fit_on(data, basis)
        assert default_lam == lam
        np.testing.assert_array_equal(beta, fit_on(data, basis, lam)[1])
