"""Riesz regression for the ATE functional.

The inverse propensity weights 1/e(x) and 1/(1-e(x)) are density ratios
(marginal covariate density over the within-arm joint density), so each arm's
weight function is fitted by LSIF's quadratic risk: ``lsif._moments`` builds
the moments with the arm's rows as the denominator sample and n in place of
its size, and ``lsif.ridge_solve`` solves them, so an arm's coefficients are
n/N_a times those of LSIF at ridge lambda * n/N_a.  Fitting both arms at once
minimizes the joint Riesz regression risk; the joint system is block
diagonal, so the coefficients coincide with the two arm-wise fits.  Both fits
take the basis evaluated at every unit by their caller and check it with
``lsif.check_features``, as ``lsif.fit`` does its two feature matrices, so
``equivalence.separability_max_gap`` runs all three solves on one evaluation.

With the per-point catchment indicator basis and no ridge penalty the fitted
weight at unit i is exactly 1 + K_M(i)/M, the matched-times weight of
nearest-neighbor matching; ``MatchStructures.weights`` holds those values.
``equivalence.weight_identity_max_gap`` checks the identity for every unit in
one batched count; the per-point basis it is tested against, and the sample
arm risk and its gradient, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .dataset import ObservationalDataset
from .lsif import _check_lambda, _moments, check_features, ridge_solve
from .neighbors import MatchStructures


def fit_weight_arm(dataset: ObservationalDataset, arm: int, phi: np.ndarray, lam: float):
    """Closed-form coefficients of one arm's inverse-propensity weight model."""
    _check_lambda(lam)
    phi = check_features(phi, dataset.n)
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    h_mat, h_vec = _moments(phi[dataset.treatment == arm], phi, dataset.n)
    singular = f"singular moment matrix for arm {arm} at lambda={{lam:g}}"
    return ridge_solve(h_mat, h_vec, lam, singular)


def riesz_fit(dataset: ObservationalDataset, phi: np.ndarray, lam: float):
    """``(theta_treated, theta_control)`` minimizing the joint two-arm risk in one
    block solve; the signed representer is +phi @ theta_treated on the treated
    and -phi @ theta_control on controls.  The system is block diagonal over
    arms, so each half matches ``fit_weight_arm``."""
    _check_lambda(lam)
    phi = check_features(phi, dataset.n)
    (h1, h_vec), (h0, _) = (_moments(phi[dataset.treatment == a], phi, dataset.n) for a in (1, 0))
    b = phi.shape[1]
    joint = np.zeros((2 * b, 2 * b))
    joint[:b, :b], joint[b:, b:] = h1, h0
    rhs = np.concatenate([h_vec, h_vec])
    theta = ridge_solve(joint, rhs, lam, "singular joint moment matrix at lambda={lam:g}")
    return theta[:b], theta[b:]


def nn_representer_values(dataset: ObservationalDataset, structures: MatchStructures) -> np.ndarray:
    """Signed matching weights (2 D_i - 1)(1 + K_M(i)/M) at the sample points."""
    alpha = 2.0 * dataset.treatment - 1.0
    alpha *= structures.weights
    return alpha
