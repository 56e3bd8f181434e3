"""Random-instance generators and equivalence suites.

Each suite computes the gap between two independently coded routes to the
same quantity: indicator-basis LSIF vs the one-step count formula, matching
imputation vs its weight form, indicator-basis LSIF arm fits vs matched-times
weights (these two share one batched catchment count, bit for bit the
per-point ``catchment_indicator`` fits of the test oracle in
``tests/oracles.py``), the joint Riesz block solve vs arm-wise solves, and
the doubly robust score form vs the bias-corrected form, with the mean of the
score at that estimate.  ``run_instance`` returns the seven gaps of one random
instance pair as a plain ``{name: gap}`` mapping in report order, and
``max_judged_gap`` reduces it to the verdict.  It builds each intermediate
once per instance for every suite that needs it: two arm kd-trees
(``neighbors.arm_trees``, which hold no M) that serve the match and the weight
identity at the instance's M, one pair of fitted outcome means, and one
evaluation of the separability basis.  ``verify`` and the acceptance tests run
on these.

In 30% of instances the generators draw a weighted Euclidean distance, weights
w in [0.5, 2], as the per-coordinate scale sqrt(w) (else 1.0).  A two-sample
instance comes back rescaled; ``run_instance`` matches an observational one on
a rescaled copy and fits the outcome, separability and DR suites on the raw one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.spatial import cKDTree

from .dataset import ObservationalDataset, TwoSampleData
from .lsif import (
    _indicator_values,
    monomial_exponents,
    polynomial_feature_matrix,
    verify_theorem1_all,
)
from .matching import (
    Outcome,
    ate_bias_corrected,
    ate_dr_riesz,
    ate_matching,
    ate_weight_form,
    fit_outcome,
)
from .neighbors import MatchStructures, _mth_sq_radius_batch, arm_trees, matching_structures
from .riesz import fit_weight_arm, nn_representer_values, riesz_fit

GAP_THRESHOLD = 1e-12
# Random instances draw their dimension from 1..3 and M from 1..5; verify's
# have at most 160 units per sample.
_MAX_D, _MAX_M, _MAX_N = 3, 5, 160


def random_two_sample_instance(
    rng: np.random.Generator, max_n: int = 300
) -> tuple[TwoSampleData, int]:
    """Random continuous two-sample instance, already rescaled; points are distinct a.s."""
    m = int(rng.integers(1, _MAX_M + 1))
    d = int(rng.integers(1, _MAX_D + 1))
    n0 = int(rng.integers(max(m, 5), max_n + 1))
    n1 = int(rng.integers(5, max_n + 1))
    den = rng.normal(size=(n0, d))
    num = rng.normal(loc=0.3, size=(n1, d))
    scale = 1.0 if rng.random() < 0.7 else np.sqrt(rng.uniform(0.5, 2.0, size=d))
    return TwoSampleData(denominator=den * scale, numerator=num * scale), m


def random_observational_instance(
    rng: np.random.Generator, max_n: int = 300
) -> tuple[ObservationalDataset, np.ndarray | float, int]:
    """Random observational instance with both arms at least m large, and the
    per-coordinate scale to match it in."""
    m = int(rng.integers(1, _MAX_M + 1))
    d = int(rng.integers(1, _MAX_D + 1))
    n = int(rng.integers(max(4 * m, 20), max_n + 1))
    x = rng.normal(size=(n, d))
    p = rng.uniform(0.3, 0.7)
    while True:
        treat = (rng.random(n) < p).astype(np.int64)
        if m <= treat.sum() <= n - m:
            break
    y = np.sin(x[:, 0]) + treat * (1.0 + 0.5 * x[:, 0]) + rng.normal(size=n)
    scale = 1.0 if rng.random() < 0.7 else np.sqrt(rng.uniform(0.5, 2.0, size=d))
    return ObservationalDataset(covariates=x, treatment=treat, outcome=y), scale, m


def eq1_gap(dataset: ObservationalDataset, structures: MatchStructures) -> float:
    """Gap between imputation-form and weight-form matching estimates."""
    return abs(ate_matching(dataset, structures) - ate_weight_form(dataset, structures))


def weight_identity_max_gap(
    dataset: ObservationalDataset,
    structures: MatchStructures,
    trees: tuple[cKDTree, cKDTree],
) -> float:
    """Per-unit gap between the indicator-basis LSIF weight and 1 + K_M(i)/M.

    One pass per arm, whose rows are both the anchors and the reference, on
    the arm's tree in ``trees``, the ``arm_trees`` the match was built on, at
    the match's M.
    """
    weights, x, n, m = structures.weights, dataset.covariates, dataset.n, structures.m
    worst = 0.0
    for arm in (0, 1):
        rows = dataset.treatment == arm
        tree = trees[1 - arm]  # treated first
        radii = _mth_sq_radius_batch(tree, m, x)
        theta = _indicator_values(tree.data, x[rows], radii[rows], x, radii, n, n)
        worst = max(worst, float(np.abs(theta - weights[rows]).max()))
    return worst


def well_posed_degree(dataset: ObservationalDataset) -> int:
    """Largest polynomial degree, at most 2, whose basis stays well below the arm sizes."""
    min_arm = min(dataset.n_treated, dataset.n_control)
    for degree in (2, 1):
        if 3 * len(monomial_exponents(dataset.d, degree)) <= min_arm:
            return degree
    return 0


def separability_max_gap(dataset: ObservationalDataset, lam: float) -> tuple[float, float]:
    """Largest per-coefficient gap between the joint Riesz solve and the arm-wise
    solves, absolute and relative to max(1, |arm-wise coefficient|).  All three
    solves share one evaluation of the polynomial basis of ``well_posed_degree``."""
    phi = polynomial_feature_matrix(dataset.covariates, well_posed_degree(dataset))
    joint = riesz_fit(dataset, phi, lam)
    arms = fit_weight_arm(dataset, 1, phi, lam), fit_weight_arm(dataset, 0, phi, lam)
    gaps = [np.abs(theta - arm) for theta, arm in zip(joint, arms)]
    rel = [gap / np.maximum(1.0, np.abs(arm)) for gap, arm in zip(gaps, arms)]
    return float(max(gap.max() for gap in gaps)), float(max(r.max() for r in rel))


def dr_identity_gaps(
    dataset: ObservationalDataset, structures: MatchStructures, outcome: Outcome
) -> tuple[float, float]:
    """Gap between the DR-score and bias-corrected estimates, and the mean score."""
    bc = ate_bias_corrected(dataset, structures, outcome)
    dr = ate_dr_riesz(dataset, structures, outcome)
    mu1, mu0 = outcome  # rows checked by bc and dr
    gamma = np.where(dataset.treatment == 1, mu1, mu0)
    alpha = nn_representer_values(dataset, structures)
    psi = (mu1 - mu0) - dr + alpha * (dataset.outcome - gamma)
    return abs(dr - bc), abs(float(np.mean(psi)))


def max_judged_gap(gaps: dict[str, float]) -> float:
    """The verdict's one input: ``verify`` passes when every instance's is at most
    GAP_THRESHOLD.  It skips the absolute separability gap, whose roundoff grows
    with the coefficients, and a NaN gap makes it NaN, which fails."""
    return float(np.max([gap for name, gap in gaps.items() if name != "separability_gap"]))


def run_instance(seed: int) -> dict[str, float]:
    """All equivalence gaps on one random instance pair, by name in report order;
    worker for ``verify``."""
    rng = np.random.default_rng(seed)
    two_sample, m2 = random_two_sample_instance(rng, max_n=_MAX_N)
    dataset, scale, m_obs = random_observational_instance(rng, max_n=_MAX_N)
    lsif_values, one_step = verify_theorem1_all(two_sample, m2)
    gaps = {"theorem1_gap": float(np.abs(lsif_values - one_step).max())}
    # a plain Euclidean scale of 1.0 needs no rescaled copy
    matched = replace(dataset, covariates=dataset.covariates * scale) if np.ndim(scale) else dataset
    trees = arm_trees(matched)
    structures = matching_structures(matched, m_obs, trees)
    gaps["eq1_gap"] = eq1_gap(dataset, structures)
    gaps["weight_identity_gap"] = weight_identity_max_gap(matched, structures, trees)
    gaps["separability_gap"], gaps["separability_rel_gap"] = separability_max_gap(dataset, lam=1e-3)
    degree = 1 if min(dataset.n_treated, dataset.n_control) > dataset.d + 1 else 0
    outcome = fit_outcome(dataset, degree)
    gaps["dr_gap"], gaps["score_mean"] = dr_identity_gaps(dataset, structures, outcome)
    return gaps


def instance_seeds(seed: int, count: int) -> list[int]:
    """Deterministic per-instance integer seeds derived from one root seed."""
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in root.spawn(count)]
