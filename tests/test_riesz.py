import numpy as np
import pytest

from oracles import (
    arm_objective_gradient,
    arm_objective_value,
    catchment_indicator,
    constant_basis,
    rescaled,
)
from rieszmatch import (
    ObservationalDataset,
    fit_weight_arm,
    matching_structures,
    nn_representer_values,
    polynomial_feature_matrix,
    riesz_fit,
)
from rieszmatch import lsif, neighbors
from rieszmatch.equivalence import random_observational_instance, well_posed_degree
from rieszmatch.lsif import _indicator_values
from rieszmatch.neighbors import _mth_sq_radius_batch, _tree


def balanced_dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    treat = np.array([1, 0] * (n // 2))
    return ObservationalDataset(covariates=x, treatment=treat, outcome=rng.normal(size=n))


class TestFitWeightArm:
    def test_constant_basis_marginal_inverse(self):
        rng = np.random.default_rng(1)
        treat = np.array([1] * 7 + [0] * 13)
        data = ObservationalDataset(
            covariates=rng.normal(size=(20, 1)), treatment=treat, outcome=np.zeros(20)
        )
        phi = constant_basis(1)(data.covariates)
        theta = fit_weight_arm(data, 1, phi, lam=0.0)
        np.testing.assert_allclose(theta, [20 / 7], rtol=1e-14)
        theta0 = fit_weight_arm(data, 0, phi, lam=0.0)
        np.testing.assert_allclose(theta0, [20 / 13], rtol=1e-14)

    def test_balanced_constant_gives_two(self):
        data = balanced_dataset()
        phi = constant_basis(2)(data.covariates)
        np.testing.assert_allclose(fit_weight_arm(data, 1, phi, 0.0), [2.0])

    def test_indicator_at_unit_equals_matching_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            data, scale, m = random_observational_instance(rng, max_n=60)
            data = rescaled(data, scale)
            weights = matching_structures(data, m).weights
            for i in range(0, data.n, 5):
                arm = int(data.treatment[i])
                reference = data.covariates[data.treatment == arm]
                basis = catchment_indicator(reference, m, data.covariates[i : i + 1])
                theta = fit_weight_arm(data, arm, basis(data.covariates), lam=0.0)
                assert abs(theta[0] - weights[i]) <= 1e-12

    def test_first_order_condition(self):
        data = balanced_dataset(seed=3)
        phi = polynomial_feature_matrix(data.covariates, 2)
        for arm in (0, 1):
            theta = fit_weight_arm(data, arm, phi, lam=1e-3)
            grad = arm_objective_gradient(data, arm, phi, 1e-3, theta)
            assert np.abs(grad).max() <= 1e-10

    def test_arm_fit_is_lsif_with_the_arm_as_denominator(self):
        # the paper's step 2: an arm's Riesz moments are LSIF's with the arm as
        # the denominator sample and n in place of N_a, so theta = (n / N_a) beta
        # at ridge lambda n / N_a; this pins the count each fit divides by
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(300):
            data, _, _ = random_observational_instance(rng, max_n=160)
            phi = polynomial_feature_matrix(data.covariates, well_posed_degree(data))
            for arm in (0, 1):
                rows = data.treatment == arm
                ratio = data.n / rows.sum()
                for lam in (0.0, 1e-3):
                    theta = fit_weight_arm(data, arm, phi, lam)
                    beta = lsif.fit(phi[rows], phi, lam * ratio)[1]
                    gap = np.abs(theta - ratio * beta) / np.maximum(1.0, np.abs(theta))
                    worst = max(worst, float(gap.max()))
        assert worst <= 1e-12, worst

    def test_invalid_arm(self):
        data = balanced_dataset()
        with pytest.raises(ValueError, match="arm"):
            fit_weight_arm(data, 2, constant_basis(2)(data.covariates), 0.0)

    def test_lambda_checked_first_and_singular_named(self):
        data = balanced_dataset()
        phi = constant_basis(2)(data.covariates)
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fit_weight_arm(data, 2, phi, lam)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                riesz_fit(data, phi, lam)
        repeated = np.ones((data.n, 2))
        with pytest.raises(np.linalg.LinAlgError, match="for arm 1 at lambda=0$"):
            fit_weight_arm(data, 1, repeated, 0.0)
        with pytest.raises(np.linalg.LinAlgError, match="^singular joint moment matrix at lambda=0$"):
            riesz_fit(data, repeated, 0.0)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda data, phi: fit_weight_arm(data, 1, phi, 1e-3),
            lambda data, phi: riesz_fit(data, phi, 1e-3),
        ],
        ids=["fit_weight_arm", "riesz_fit"],
    )
    def test_bad_feature_matrix_is_refused(self, solve):
        # each of these came back as all-NaN coefficients or an IndexError
        data = balanced_dataset(n=200, seed=2)
        phi = polynomial_feature_matrix(data.covariates, 1)
        with_nan = phi.copy()
        with_nan[7, 1] = np.nan
        with pytest.raises(ValueError, match="^non-finite value in feature matrix$"):
            solve(data, with_nan)
        overflowing = phi.copy()
        overflowing[6, 1] = 1e200  # a treated row: finite, but its square is not
        with np.errstate(over="ignore"), pytest.raises(
            np.linalg.LinAlgError, match="^non-finite moments"
        ):
            solve(data, overflowing)
        with pytest.raises(ValueError, match=r"shape \(150, 3\), expected \(200, b\)"):
            solve(data, phi[:150])
        with pytest.raises(ValueError, match=r"shape \(200,\), expected \(200, b\)"):
            solve(data, phi[:, 1])


def assert_batched_weights_exact(data, m):
    """Each arm's batched indicator fit equals the per-unit fit with ==."""
    x = data.covariates
    for arm in (0, 1):
        rows = data.treatment == arm
        tree = _tree(x[rows])
        radii = _mth_sq_radius_batch(tree, m, x)
        theta = _indicator_values(tree.data, x[rows], radii[rows], x, radii, data.n, data.n)
        for j, i in enumerate(np.flatnonzero(rows)):
            phi = catchment_indicator(x[rows], m, x[i : i + 1])(x)
            assert theta[j] == fit_weight_arm(data, arm, phi, lam=0.0)[0]


def grid_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(n, d)).astype(float)
    return ObservationalDataset(covariates=x, treatment=np.arange(n) % 2, outcome=np.zeros(n))


class TestBatchedWeightIdentity:
    def test_continuous_instances(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            data, scale, m = random_observational_instance(rng, max_n=70)
            data = rescaled(data, scale)
            assert_batched_weights_exact(data, m)

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 3), (2, 7), (3, 4)])
    def test_integer_grid(self, d, m):
        assert_batched_weights_exact(grid_dataset(60, d, seed=d + m), m)

    def test_control_row_equals_treated_row(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(40, 2))
        treat = np.arange(40) % 2
        x[0] = [0.0, 0.5]
        x[1] = x[0]
        x[3] = [-0.0, 0.5]  # equal to x[0] under ==
        x[6] = x[5]
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=np.zeros(40))
        for m in (1, 2, 5):  # in the distance weighted (1.0, 2.5)
            assert_batched_weights_exact(rescaled(data, np.sqrt([1.0, 2.5])), m)

    def test_m_equals_arm_size(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(20, 2))
        treat = np.array([1] * 6 + [0] * 14)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=np.zeros(20))
        assert_batched_weights_exact(data, 6)
        assert_batched_weights_exact(grid_dataset(24, 2, seed=5), 12)

    def test_blocks_of_one_row(self, monkeypatch):
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 1)
        assert_batched_weights_exact(grid_dataset(30, 2, seed=9), 3)


class TestNnWeight:
    def test_unmatched_unit_weight_one(self):
        data = ObservationalDataset(
            covariates=np.array([[0.0], [0.1], [50.0]]),
            treatment=np.array([1, 0, 0]),
            outcome=np.zeros(3),
        )
        # the far control is never used as a match
        assert matching_structures(data, 1).weights[2] == 1.0

    def test_four_unit_instance(self, four_unit_dataset):
        for i in range(4):
            assert matching_structures(four_unit_dataset, 1).weights[i] == 2.0

    def test_k_equals_m_gives_two(self):
        data = ObservationalDataset(
            covariates=np.array([[0.0], [1.0], [0.4], [0.6]]),
            treatment=np.array([1, 1, 0, 0]),
            outcome=np.zeros(4),
        )
        weights = matching_structures(data, 2).weights
        np.testing.assert_allclose(weights, 2.0)

    def test_weights_at_least_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            data, scale, m = random_observational_instance(rng, max_n=80)
            data = rescaled(data, scale)
            assert matching_structures(data, m).weights.min() >= 1.0


class TestRieszFit:
    def test_constant_balanced(self):
        data = balanced_dataset(seed=7)
        phi = constant_basis(2)(data.covariates)
        theta_treated, theta_control = riesz_fit(data, phi, lam=0.0)
        w1, w0 = phi @ theta_treated, phi @ theta_control
        assert w1[0] == pytest.approx(2.0)
        assert w0[0] == pytest.approx(2.0)
        # signed representer: +w(1, x) on the treated unit 0, -w(0, x) on the control unit 1
        alpha = np.where(data.treatment == 1, w1, -w0)
        assert alpha[0] == pytest.approx(2.0)
        assert alpha[1] == pytest.approx(-2.0)

    def test_separability_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            data, _, _ = random_observational_instance(rng, max_n=120)
            phi = polynomial_feature_matrix(data.covariates, well_posed_degree(data))
            lam = float(rng.uniform(1e-4, 1e-1))
            theta_treated, theta_control = riesz_fit(data, phi, lam)
            np.testing.assert_allclose(
                theta_treated,
                fit_weight_arm(data, 1, phi, lam),
                rtol=0,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                theta_control,
                fit_weight_arm(data, 0, phi, lam),
                rtol=0,
                atol=1e-12,
            )

    def test_objective_no_worse_than_zero_coefficients(self):
        rng = np.random.default_rng(23)
        data, _, _ = random_observational_instance(rng, max_n=100)
        phi = polynomial_feature_matrix(data.covariates, 1)
        lam = 1e-4
        thetas = riesz_fit(data, phi, lam)
        zeros = np.zeros(phi.shape[1])
        for arm, theta in zip((1, 0), thetas):
            assert arm_objective_value(data, arm, phi, lam, theta) <= arm_objective_value(
                data, arm, phi, lam, zeros
            )

    def test_nn_representer_matches_per_point_fits(self):
        rng = np.random.default_rng(29)
        data, scale, m = random_observational_instance(rng, max_n=50)
        data = rescaled(data, scale)
        alpha = nn_representer_values(data, matching_structures(data, m))
        for i in range(0, data.n, 7):
            arm = int(data.treatment[i])
            reference = data.covariates[data.treatment == arm]
            basis = catchment_indicator(reference, m, data.covariates[i : i + 1])
            theta = fit_weight_arm(data, arm, basis(data.covariates), lam=0.0)
            weight = float(np.dot(theta, basis(data.covariates[i : i + 1])[0]))
            value = weight if arm == 1 else -weight
            assert abs(value - alpha[i]) <= 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(31)
        data, scale, m = random_observational_instance(rng, max_n=60)
        data = rescaled(data, scale)
        alpha = nn_representer_values(data, matching_structures(data, m))
        signs = np.sign(alpha)
        np.testing.assert_array_equal(signs, 2.0 * data.treatment - 1.0)

