"""ATE estimators built on M-nearest-neighbor matching with replacement.

Four routes to the same target: imputation-form matching, its weight-form
rewriting through matched-times counts, the bias-corrected estimator that
matches on outcome-regression residuals, and the doubly robust score form
driven by the signed matching weights.  The first two are algebraically
identical, as are the last two; ``verify`` checks both identities at 1e-12.
Each estimator returns the estimate tau as a float; those with an outcome
model read the pair ``(mu_treated, mu_control)`` that ``fit_outcome`` returns.
"""

from __future__ import annotations

import numpy as np

from .dataset import ObservationalDataset
from .lsif import polynomial_feature_matrix
from .neighbors import MatchStructures
from .riesz import nn_representer_values

Outcome = tuple[np.ndarray, np.ndarray]  # (mu_treated, mu_control) at every row


def fit_outcome(dataset: ObservationalDataset, degree: int) -> Outcome:
    """Least-squares polynomial fit of each arm's outcome mean; ``degree`` is 0..3."""
    # a column whose largest |x| lies outside [2^-8, 2^8) is scaled by the power of two
    # that puts it in [1, 2): exact, the same polynomial space, and a well-scaled lstsq
    x = dataset.covariates
    e = np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))[1]
    shift = np.where((e < -7) | (e > 8), 1 - e, 0)
    features = polynomial_feature_matrix(np.ldexp(x, shift) if shift.any() else x, degree)
    n_coef = features.shape[1]
    coefs = {}
    for arm, name in ((1, "treated"), (0, "control")):
        mask = dataset.treatment == arm
        if mask.sum() < n_coef:
            raise ValueError(
                f"{name} arm has {int(mask.sum())} units, fewer than {n_coef} coefficients"
            )
        coef, _, rank, _ = np.linalg.lstsq(features[mask], dataset.outcome[mask], rcond=None)
        if rank < n_coef:
            raise np.linalg.LinAlgError(f"rank-deficient design in the {name} arm")
        coefs[arm] = coef
    return features @ coefs[1], features @ coefs[0]


def _fitted_means(dataset: ObservationalDataset, outcome: Outcome) -> Outcome:
    """The fitted means, once they are known to be fitted on ``dataset``'s rows."""
    if len(outcome[0]) != dataset.n:
        raise ValueError(f"outcome model fitted on {len(outcome[0])} rows, not {dataset.n}")
    return outcome


def ate_matching(dataset: ObservationalDataset, structures: MatchStructures) -> float:
    """Mean imputed contrast: each observed outcome against its M matches' mean."""
    y, matched = dataset.outcome, structures.matched_outcome
    return float(np.mean(np.where(dataset.treatment == 1, y - matched, matched - y)))


def ate_weight_form(dataset: ObservationalDataset, structures: MatchStructures) -> float:
    """Signed matched-times weighting (1/n) sum (2 D_i - 1)(1 + K_M(i)/M) Y_i."""
    return float(np.mean(nn_representer_values(dataset, structures) * dataset.outcome))


def ate_regression(dataset: ObservationalDataset, outcome: Outcome) -> float:
    """Plug-in mean of the fitted arm contrast."""
    mu1, mu0 = _fitted_means(dataset, outcome)
    return float(np.mean(mu1 - mu0))


def ate_bias_corrected(
    dataset: ObservationalDataset, structures: MatchStructures, outcome: Outcome
) -> float:
    """Regression plug-in plus the weighted residual correction."""
    mu1, mu0 = _fitted_means(dataset, outcome)
    treated = dataset.treatment == 1
    # weighted residuals w * (y - gamma), formed in one n-vector
    weighted = np.where(treated, mu1, mu0)
    np.subtract(dataset.outcome, weighted, out=weighted)
    weighted *= structures.weights
    correction = (np.sum(weighted[treated]) - np.sum(weighted[~treated])) / dataset.n
    return float(np.mean(mu1 - mu0)) + correction


def ate_dr_riesz(
    dataset: ObservationalDataset, structures: MatchStructures, outcome: Outcome
) -> float:
    """Doubly robust score mean with the matching-weight representer.

    Same algebra as the bias-corrected form in a different factorization;
    the two agree to floating-point roundoff.
    """
    mu1, mu0 = _fitted_means(dataset, outcome)
    # the score (mu1 - mu0) + alpha * (y - gamma), formed in one n-vector
    score = np.where(dataset.treatment == 1, mu1, mu0)
    np.subtract(dataset.outcome, score, out=score)
    score *= nn_representer_values(dataset, structures)
    score += mu1 - mu0
    return float(np.mean(score))
