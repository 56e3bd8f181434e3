"""Nearest-neighbor matching, LSIF density-ratio estimation, and Riesz
regression for average-treatment-effect estimation, with exact equivalence
checks between the three routes."""

from .dataset import (
    LOGISTIC_TRUE_ATE,
    ObservationalDataset,
    TwoSampleData,
    generate,
    load_csv,
    load_points_csv,
    logistic_means,
    logistic_propensity,
    save_csv,
    save_points_csv,
)
from .lsif import fit, gaussian_grid_basis, polynomial_feature_matrix, verify_theorem1_all
from .matching import (
    ate_bias_corrected,
    ate_dr_riesz,
    ate_matching,
    ate_regression,
    ate_weight_form,
    fit_outcome,
)
from .neighbors import matching_structures
from .riesz import fit_weight_arm, nn_representer_values, riesz_fit

__all__ = [
    "LOGISTIC_TRUE_ATE",
    "ObservationalDataset",
    "TwoSampleData",
    "ate_bias_corrected",
    "ate_dr_riesz",
    "ate_matching",
    "ate_regression",
    "ate_weight_form",
    "fit",
    "fit_outcome",
    "fit_weight_arm",
    "gaussian_grid_basis",
    "generate",
    "load_csv",
    "load_points_csv",
    "logistic_means",
    "logistic_propensity",
    "matching_structures",
    "nn_representer_values",
    "polynomial_feature_matrix",
    "riesz_fit",
    "save_csv",
    "save_points_csv",
    "verify_theorem1_all",
]

__version__ = "0.1.0"
