import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import imputed_pairs, rescaled
from rieszmatch import (
    ObservationalDataset,
    ate_bias_corrected,
    ate_dr_riesz,
    ate_matching,
    ate_regression,
    ate_weight_form,
    fit_outcome,
    generate,
    matching_structures,
)
import rieszmatch
from rieszmatch import cli, equivalence, lsif, matching, neighbors, riesz
from rieszmatch.equivalence import random_observational_instance
from rieszmatch.lsif import polynomial_feature_matrix


class TestImpute:
    def test_four_unit_instance(self, four_unit_dataset):
        structures = matching_structures(four_unit_dataset, 1)
        pairs = imputed_pairs(four_unit_dataset, structures)
        np.testing.assert_array_equal(pairs, [[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, 3.0]])

    def test_constant_outcome(self):
        data = ObservationalDataset(
            covariates=np.arange(6.0)[:, None],
            treatment=np.array([1, 0, 1, 0, 1, 0]),
            outcome=np.full(6, 4.2),
        )
        pairs = imputed_pairs(data, matching_structures(data, 2))
        np.testing.assert_array_equal(pairs, np.full((6, 2), 4.2))

    def test_full_averaging_when_m_is_arm_size(self):
        data = ObservationalDataset(
            covariates=np.array([[0.0], [1.0], [2.0], [0.2], [0.8], [0.5]]),
            treatment=np.array([1, 1, 1, 0, 0, 0]),
            outcome=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        )
        pairs = imputed_pairs(data, matching_structures(data, 3))
        np.testing.assert_allclose(pairs[data.treatment == 1, 0], 5.0)  # control mean
        np.testing.assert_allclose(pairs[data.treatment == 0, 1], 2.0)  # treated mean

    def test_observed_arm_kept_exactly(self):
        rng = np.random.default_rng(3)
        data, scale, m = random_instance(rng)
        pairs = imputed_pairs(data, matching_structures(rescaled(data, scale), m))
        treated = data.treatment == 1
        np.testing.assert_array_equal(pairs[treated, 1], data.outcome[treated])
        np.testing.assert_array_equal(pairs[~treated, 0], data.outcome[~treated])


def random_instance(rng, max_n=200):
    return random_observational_instance(rng, max_n=max_n)


class TestAteMatching:
    def test_four_unit_instance(self, four_unit_dataset):
        assert ate_matching(four_unit_dataset, matching_structures(four_unit_dataset, 1)) == 1.0

    @pytest.mark.parametrize("design", ["continuous", "grid", "duplicates"])
    def test_bit_for_bit_the_imputed_pairs_contrast(self, design):
        rng = np.random.default_rng(27)
        if design == "continuous":
            x = rng.normal(size=(500, 3))
        elif design == "grid":
            x = rng.integers(0, 4, size=(500, 2)).astype(float)
        else:  # every row three times over
            x = np.repeat(rng.normal(size=(167, 2)), 3, axis=0)[:500]
        treat = (rng.random(len(x)) < 0.4).astype(int)
        y = x.sum(axis=1) + treat + rng.normal(size=len(x))
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=y)
        for m in (1, 7):
            structures = matching_structures(data, m)
            pairs = imputed_pairs(data, structures)
            assert ate_matching(data, structures) == float(np.mean(pairs[:, 1] - pairs[:, 0]))

    def test_constant_outcome_gives_zero(self):
        data = ObservationalDataset(
            covariates=np.arange(8.0)[:, None],
            treatment=np.array([1, 0] * 4),
            outcome=np.full(8, 3.3),
        )
        assert ate_matching(data, matching_structures(data, 2)) == 0.0

    def test_null_effect_near_zero(self):
        # treatment-independent noisy outcome: mean tau over seeds is near zero.  Each
        # draw keeps generate's covariates and treatment and sets y = x1 + z, with z
        # generate's own noise draw, the third after the covariates and treatment
        taus = []
        for s in range(100):
            drawn = generate(1000, seed=s)
            rng = np.random.default_rng(s)
            rng.uniform(-1.0, 1.0, size=(1000, 2))
            rng.random(1000)
            y = drawn.covariates[:, 0] + rng.standard_normal(1000)
            data = ObservationalDataset(drawn.covariates, drawn.treatment, y)
            taus.append(ate_matching(data, matching_structures(data, 1)))
        taus = np.array(taus)
        assert abs(taus.mean()) < 3 * taus.std(ddof=1) / np.sqrt(len(taus))


class TestAteWeightForm:
    def test_four_unit_instance(self, four_unit_dataset):
        structures = matching_structures(four_unit_dataset, 1)
        assert ate_weight_form(four_unit_dataset, structures) == 1.0

    def test_constant_outcome_zero_by_conservation(self):
        rng = np.random.default_rng(11)
        data, scale, m = random_instance(rng, max_n=60)
        data = ObservationalDataset(
            covariates=data.covariates, treatment=data.treatment, outcome=np.full(data.n, 7.7)
        )
        structures = matching_structures(rescaled(data, scale), m)
        assert abs(ate_weight_form(data, structures)) < 1e-12

    def test_single_pair(self):
        data = ObservationalDataset(
            covariates=np.array([[0.0], [1.0]]),
            treatment=np.array([1, 0]),
            outcome=np.array([5.0, 2.0]),
        )
        assert ate_weight_form(data, matching_structures(data, 1)) == 3.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_matching_form(self, seed):
        rng = np.random.default_rng(seed)
        data, scale, m = random_instance(rng, max_n=120)
        structures = matching_structures(rescaled(data, scale), m)
        a = ate_matching(data, structures)
        b = ate_weight_form(data, structures)
        assert abs(a - b) <= 1e-12


class TestFitOutcome:
    def test_linear_outcome_zero_residuals(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 2))
        treat = np.array([1, 0] * 20)
        y = np.where(treat == 1, 1.0 + 2.0 * x[:, 0], -0.5 + x[:, 0])
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=y)
        mu1, mu0 = fit_outcome(data, degree=1)
        resid = data.outcome - np.where(treat == 1, mu1, mu0)
        assert np.abs(resid).max() <= 1e-10

    def test_degree_zero_is_arm_mean(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 1))
        treat = np.array([1, 0] * 15)
        y = rng.normal(size=30)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=y)
        mu1, mu0 = fit_outcome(data, degree=0)
        assert mu1[0] == pytest.approx(y[treat == 1].mean())
        assert mu0[0] == pytest.approx(y[treat == 0].mean())

    def test_normal_equations(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 2))
        treat = (rng.random(60) < 0.5).astype(int)
        treat[:2] = [0, 1]
        y = rng.normal(size=60)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=y)
        mu1, mu0 = fit_outcome(data, degree=2)
        features = polynomial_feature_matrix(x, 2)
        for arm, mu in ((1, mu1), (0, mu0)):
            mask = treat == arm
            grad = features[mask].T @ (mu[mask] - y[mask])
            assert np.abs(grad).max() <= 1e-8

    def test_variance_reduction_on_logistic_dgp(self):
        data = generate(1000, seed=21)
        mu1, mu0 = fit_outcome(data, degree=1)
        resid = data.outcome - np.where(data.treatment == 1, mu1, mu0)
        for arm in (0, 1):
            mask = data.treatment == arm
            assert resid[mask].var() < data.outcome[mask].var()

    def test_rank_deficient_reported(self):
        x = np.zeros((10, 1))  # constant covariate duplicates the intercept
        treat = np.array([1, 0] * 5)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=np.arange(10.0))
        with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
            fit_outcome(data, degree=1)

    def test_stored_means_are_the_fitted_values(self):
        data = generate(300, seed=5)
        mu1, mu0 = fit_outcome(data, degree=2)
        features = polynomial_feature_matrix(data.covariates, 2)
        for arm, mu in ((1, mu1), (0, mu0)):
            mask = data.treatment == arm
            coef = np.linalg.lstsq(features[mask], data.outcome[mask], rcond=None)[0]
            np.testing.assert_array_equal(mu, features @ coef)

    @pytest.mark.parametrize("degree", [4, -1])
    def test_degree_out_of_range_is_refused(self, degree):
        data = generate(50, seed=5)
        with pytest.raises(ValueError, match=r"^degree must be in 0\.\.3$"):
            fit_outcome(data, degree)

    def test_model_fitted_on_other_rows_is_rejected(self):
        data = generate(300, seed=5)
        model = fit_outcome(generate(299, seed=5), degree=1)
        structures = matching_structures(data, 3)
        with pytest.raises(ValueError, match="fitted on 299 rows"):
            ate_regression(data, model)
        with pytest.raises(ValueError, match="fitted on 299 rows"):
            ate_bias_corrected(data, structures, model)
        with pytest.raises(ValueError, match="fitted on 299 rows"):
            ate_dr_riesz(data, structures, model)
        with pytest.raises(ValueError, match="fitted on 299 rows"):
            equivalence.dr_identity_gaps(data, structures, model)

    def test_arm_too_small(self):
        x = np.arange(5.0)[:, None]
        data = ObservationalDataset(
            covariates=x, treatment=np.array([1, 0, 0, 0, 0]), outcome=np.zeros(5)
        )
        with pytest.raises(ValueError, match="fewer than"):
            fit_outcome(data, degree=3)


class TestBiasCorrected:
    def test_perfect_model_recovers_truth_exactly(self):
        # noiseless linear design: degree-1 residuals vanish, so tau_bc = tau_reg
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(50, 2))
        treat = np.array([1, 0] * 25)
        y = np.where(treat == 1, 1.0 + x[:, 0] + x[:, 1], x[:, 0])
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=y)
        model = fit_outcome(data, degree=1)
        reg = ate_regression(data, model)
        bc = ate_bias_corrected(data, matching_structures(data, 3), model)
        true_ate = np.mean(1.0 + x[:, 1])
        assert bc == pytest.approx(reg, abs=1e-12)
        assert bc == pytest.approx(true_ate, abs=1e-10)

    def test_four_unit_degree_zero(self, four_unit_dataset):
        mu1, mu0 = model = fit_outcome(four_unit_dataset, degree=0)
        assert mu1[0] == pytest.approx(2.0)
        assert mu0[0] == pytest.approx(1.0)
        assert ate_regression(four_unit_dataset, model) == pytest.approx(1.0)
        structures = matching_structures(four_unit_dataset, 1)
        est = ate_bias_corrected(four_unit_dataset, structures, model)
        assert est == pytest.approx(1.0, abs=1e-14)


class TestDrRiesz:
    def test_zero_residuals_equals_regression(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 1))
        treat = np.array([1, 0] * 15)
        y = np.where(treat == 1, 2.0 + x[:, 0], x[:, 0])
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=y)
        model = fit_outcome(data, degree=1)
        dr = ate_dr_riesz(data, matching_structures(data, 2), model)
        assert dr == pytest.approx(ate_regression(data, model), abs=1e-12)

    def test_four_unit_degree_zero(self, four_unit_dataset):
        model = fit_outcome(four_unit_dataset, degree=0)
        structures = matching_structures(four_unit_dataset, 1)
        assert ate_dr_riesz(four_unit_dataset, structures, model) == pytest.approx(1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_bias_corrected(self, seed):
        rng = np.random.default_rng(seed)
        data, scale, m = random_instance(rng, max_n=120)
        degree = 1 if min(data.n_treated, data.n_control) > data.d + 1 else 0
        model = fit_outcome(data, degree)
        structures = matching_structures(rescaled(data, scale), m)
        a = ate_bias_corrected(data, structures, model)
        b = ate_dr_riesz(data, structures, model)
        assert abs(a - b) <= 1e-12


def estimator_case(name):
    if name == "random":
        return generate(3000, seed=21), 9
    if name == "d17":
        return generate(2000, seed=21, dimension=17), 7
    rng = np.random.default_rng(21)
    x = rng.integers(0, 4, size=(3000, 2)).astype(float)  # a tied integer grid
    treat = (rng.random(3000) < 0.5).astype(int)
    y = x.sum(axis=1) + treat + rng.normal(size=3000)
    return ObservationalDataset(covariates=x, treatment=treat, outcome=y), 20


class TestInPlaceArithmetic:
    @pytest.mark.parametrize("name", ["random", "d17", "grid"])
    def test_bit_for_bit_the_one_line_formulas(self, name):
        data, m = estimator_case(name)
        structures = matching_structures(data, m)
        outcome = fit_outcome(data, 1)
        mu1, mu0 = outcome
        treated = data.treatment == 1
        weights = 1.0 + structures.matched_times / structures.m
        alpha = (2.0 * data.treatment - 1.0) * weights
        residuals = data.outcome - np.where(treated, mu1, mu0)
        bc = float(np.mean(mu1 - mu0)) + (
            np.sum(weights[treated] * residuals[treated])
            - np.sum(weights[~treated] * residuals[~treated])
        ) / data.n
        dr = float(np.mean(mu1 - mu0 + alpha * residuals))
        np.testing.assert_array_equal(structures.weights, weights)
        np.testing.assert_array_equal(riesz.nn_representer_values(data, structures), alpha)
        assert ate_bias_corrected(data, structures, outcome) == bc
        assert ate_dr_riesz(data, structures, outcome) == dr

    def test_dr_traced_peak(self):
        # one score vector beside the representer's two; the one-line formula
        # held five n-vectors at once.  160 KB vectors stay below numpy's
        # 256 KiB threshold for reusing temporaries, so none is elided here
        data = generate(20_000, seed=21)
        structures, outcome = matching_structures(data, 9), fit_outcome(data, 1)
        tracemalloc.start()
        try:
            ate_dr_riesz(data, structures, outcome)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * 8 * data.n, peak / (8 * data.n)


class TestEstimatorInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            data, scale, m = random_instance(rng, max_n=150)
            model = fit_outcome(data, degree=0)
            perm = rng.permutation(data.n)
            shuffled = ObservationalDataset(
                covariates=data.covariates[perm],
                treatment=data.treatment[perm],
                outcome=data.outcome[perm],
            )
            model_p = fit_outcome(shuffled, degree=0)
            match = matching_structures(rescaled(data, scale), m)
            match_p = matching_structures(rescaled(shuffled, scale), m)
            for before, after in (
                (ate_matching(data, match), ate_matching(shuffled, match_p)),
                (ate_weight_form(data, match), ate_weight_form(shuffled, match_p)),
                (
                    ate_bias_corrected(data, match, model),
                    ate_bias_corrected(shuffled, match_p, model_p),
                ),
            ):
                assert abs(before - after) <= 1e-12

    def test_location_equivariance(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            data, scale, m = random_instance(rng, max_n=150)
            shifted = ObservationalDataset(
                covariates=data.covariates,
                treatment=data.treatment,
                outcome=data.outcome + 37.5,
            )
            match = matching_structures(rescaled(data, scale), m)
            match_s = matching_structures(rescaled(shifted, scale), m)
            for variant in (ate_matching, ate_weight_form):
                assert abs(variant(data, match) - variant(shifted, match_s)) <= 1e-10

    @staticmethod
    def taus(data, m=26, degree=1):
        """tau of ``ate --estimator`` matching, weight, bc and dr at ``degree``."""
        match, outcome = matching_structures(data, m), fit_outcome(data, degree)
        return np.array([
            ate_matching(data, match),
            ate_weight_form(data, match),
            ate_bias_corrected(data, match, outcome),
            ate_dr_riesz(data, match, outcome),
        ])

    @staticmethod
    def designs():
        """The logistic design and 4- and 50-level integer grids, n=2000 each."""
        rng = np.random.default_rng(0)
        out = [generate(2000, seed=0)]
        for levels in (4, 50):
            x = rng.integers(0, levels, size=(2000, 2)).astype(float)
            d = rng.integers(0, 2, size=2000)
            out.append(ObservationalDataset(x, d, x[:, 0] + d + rng.standard_normal(2000)))
        return out

    def test_arm_swap_negates_tau(self):
        for data in self.designs():
            swapped = ObservationalDataset(data.covariates, 1 - data.treatment, data.outcome)
            np.testing.assert_allclose(self.taus(swapped), -self.taus(data), rtol=0, atol=1e-12)

    def test_power_of_two_scaling_keeps_the_match(self):
        # the outcome fit must not refuse, or move tau on, badly scaled covariates
        for data, scale in itertools.product(self.designs(), (8.0, 2.0**13, 2.0**-20, 2.0**30)):
            scaled = rescaled(data, scale)
            match, match_s = matching_structures(data, 26), matching_structures(scaled, 26)
            np.testing.assert_array_equal(match_s.matched_outcome, match.matched_outcome)
            np.testing.assert_array_equal(match_s.matched_times, match.matched_times)
            for degree in (1, 2, 3):
                np.testing.assert_allclose(
                    self.taus(scaled, degree=degree), self.taus(data, degree=degree),
                    rtol=0, atol=1e-12, err_msg=f"scale {scale}, degree {degree}",
                )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: ties at the M-th distance are broken by row index, "
        "so on tied covariates the match depends on row order",
    )
    def test_permutation_invariance_on_tied_grid(self):
        data = self.designs()[1]
        perm = np.random.default_rng(1).permutation(data.n)
        shuffled = ObservationalDataset(
            data.covariates[perm], data.treatment[perm], data.outcome[perm]
        )
        np.testing.assert_allclose(self.taus(shuffled), self.taus(data), rtol=0, atol=1e-12)

    @staticmethod
    def grid_3d(levels, step):
        """A ``levels``-level grid of spacing ``step`` in d=3, n=2000."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, levels, size=(2000, 3)) * step
        d = rng.integers(0, 2, size=2000)
        return ObservationalDataset(x, d, x[:, 0] + d + rng.standard_normal(2000))

    def assert_same_match(self, data, moved):
        match, match_m = matching_structures(data, 26), matching_structures(moved, 26)
        np.testing.assert_array_equal(match_m.matched_outcome, match.matched_outcome)
        np.testing.assert_array_equal(match_m.matched_times, match.matched_times)
        np.testing.assert_allclose(self.taus(moved), self.taus(data), rtol=0, atol=1e-12)

    def assert_column_orders_keep_the_match(self, data):
        for order in itertools.permutations(range(data.d)):
            permuted = data.covariates[:, list(order)]
            moved = ObservationalDataset(permuted, data.treatment, data.outcome)
            self.assert_same_match(data, moved)

    def test_integer_shift_keeps_the_match_on_integer_grid(self):
        data = self.grid_3d(4, 1.0)
        shifted = data.covariates + np.array([3.0, -7.0, 11.0])
        self.assert_same_match(data, ObservationalDataset(shifted, data.treatment, data.outcome))

    def test_column_permutation_keeps_the_match_on_integer_grid(self):
        self.assert_column_orders_keep_the_match(self.grid_3d(4, 1.0))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 19: squared distances are float sums in column order, so on "
        "a grid of inexact steps a column order can break or make a tie",
    )
    def test_column_permutation_keeps_the_match_on_decimal_grid(self):
        self.assert_column_orders_keep_the_match(self.grid_3d(10, 0.1))


def count_matches(monkeypatch) -> list:
    """Count ``matching_structures`` calls through every module that binds it."""
    calls = []
    real = neighbors.matching_structures

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (rieszmatch, cli, equivalence, lsif, matching, neighbors, riesz):
        if hasattr(module, "matching_structures"):
            monkeypatch.setattr(module, "matching_structures", counted)
    return calls


class TestMatchOnce:
    def test_run_instance_matches_once(self, monkeypatch):
        calls = count_matches(monkeypatch)
        gaps = equivalence.run_instance(seed=12345)
        assert equivalence.max_judged_gap(gaps) <= equivalence.GAP_THRESHOLD
        assert len(calls) == 1

    def test_simulate_replication_matches_once(self, monkeypatch):
        calls = count_matches(monkeypatch)
        taus = cli._simulate_replication(300, 8, 1, 7)
        assert abs(taus[0] - taus[1]) <= 1e-12
        assert len(calls) == 1

    def test_run_instance_builds_each_intermediate_once(self, monkeypatch):
        # seed 12345: separability on the degree-2 basis, the outcome at degree 1
        features, trees = [], []
        real_features = lsif.polynomial_feature_matrix

        def counted_features(points, degree):
            features.append((id(points), degree))
            return real_features(points, degree)

        class CountedTree(neighbors.cKDTree):
            def __init__(self, data, *args, **kwargs):
                trees.append(len(data))
                super().__init__(data, *args, **kwargs)

        rng = np.random.default_rng(12345)
        two_sample, _ = equivalence.random_two_sample_instance(rng, max_n=equivalence._MAX_N)
        dataset, _, _ = random_observational_instance(rng, max_n=equivalence._MAX_N)

        for module in (lsif, equivalence, matching):
            monkeypatch.setattr(module, "polynomial_feature_matrix", counted_features)
        monkeypatch.setattr(neighbors, "cKDTree", CountedTree)
        gaps = equivalence.run_instance(seed=12345)
        assert equivalence.max_judged_gap(gaps) <= equivalence.GAP_THRESHOLD
        assert [degree for _, degree in features] == [2, 1]
        assert len(set(features)) == len(features)
        # the Theorem-1 denominator, then the match's two arms, which the
        # weight identity reuses
        assert trees == [two_sample.n_denominator, dataset.n_treated, dataset.n_control]

    def test_run_instance_matches_rescaled_and_fits_raw(self, monkeypatch):
        # seed 9 draws a weighted observational instance in d=2, whose match
        # differs from the plain Euclidean one
        rng = np.random.default_rng(9)
        equivalence.random_two_sample_instance(rng, max_n=equivalence._MAX_N)
        raw, scale, m = equivalence.random_observational_instance(rng, max_n=equivalence._MAX_N)
        matched = rescaled(raw, scale)
        plain_times = matching_structures(raw, m).matched_times
        assert np.any(matching_structures(matched, m).matched_times != plain_times)

        seen = {}

        def recorded(name):
            real = getattr(equivalence, name)

            def wrapper(dataset, *args, **kwargs):
                seen[name] = dataset.covariates
                return real(dataset, *args, **kwargs)

            monkeypatch.setattr(equivalence, name, wrapper)

        on_matched = ("matching_structures", "weight_identity_max_gap")
        on_raw = ("separability_max_gap", "fit_outcome", "dr_identity_gaps")
        for name in on_matched + on_raw:
            recorded(name)
        gaps = equivalence.run_instance(seed=9)
        assert equivalence.max_judged_gap(gaps) <= equivalence.GAP_THRESHOLD
        for name in on_matched:
            np.testing.assert_array_equal(seen[name], matched.covariates)
        for name in on_raw:
            np.testing.assert_array_equal(seen[name], raw.covariates)
