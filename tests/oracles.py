"""Per-point reference implementations that the batched library routes are
tested against.

The library answers every query for a whole batch of points at once
(``neighbors._knn_blocks``, ``neighbors._ball_counts``,
``neighbors._covering_counts``, ``lsif.indicator_dre``,
``lsif.verify_theorem1_all``).  The functions here
answer one point at a time, straight from the definitions, so the tests can
compare the two routes bit for bit.  ``brute_force_sq_knn`` shares no code with
the library's neighbour search, which runs its kd-tree in every dimension.
``query_indices`` reads the library's own kNN rows for those comparisons, and
``library_match_sets`` and ``brute_force_match_sets`` spell out the per-unit
match sets that ``matching_structures`` reduces without holding.  Points are
read by the library's one rule, ``dataset._points``: one point is a (1, d)
row, and a 1-d input is one column.

The rest is test-only machinery the library has no use for: matched-times
counts at arbitrary points (``matched_times_at``), the (n, 2) matrix of
imputed potential outcomes (``imputed_pairs``), whose mean contrast
``ate_matching`` forms without it, the constant basis, ``fit_on``, which fits
LSIF on a basis evaluated at both samples, the LSIF moments ``fit`` solves
with (``lsif_moments``, which ``fit`` does not keep), the sample LSIF
objective and its gradient, the sample Riesz arm risk and its gradient,
``parse_report``, which reads a rendered report back, and ``rescaled``, which
puts a dataset in the weighted distance it is matched in.  A basis is a plain
function from a (k, d) matrix of points to its (k, b) feature matrix, as in
the library; the LSIF oracles take the basis, the Riesz arm oracles the
feature matrix at every unit, as ``fit_weight_arm`` does.
"""

from dataclasses import dataclass, replace

import numpy as np

from rieszmatch.dataset import ObservationalDataset, TwoSampleData, _points, _sample
from rieszmatch.lsif import fit
from rieszmatch.neighbors import (
    MatchStructures,
    _covering_counts,
    _knn_blocks,
    _mth_sq_radius_batch,
    _sq_dists,
    _tree,
)
from rieszmatch.report import RECORD_SEPARATOR


def query_indices(tree, m: int, queries) -> np.ndarray:
    """The library's M nearest reference indices in ``tree``, one row per query."""
    return np.concatenate([idx for _, _, idx in _knn_blocks(tree, m, queries)])


def brute_force_sq_knn(queries, ref, m: int):
    """Full scan: squared distances summed coordinate by coordinate (the
    library's arithmetic, so boundary ties agree), then a stable argsort of each
    row, which keeps equal distances in ascending reference index.  Returns the
    (k, m) squared distances and reference indices."""
    sq = np.zeros((len(queries), len(ref)))
    for k in range(ref.shape[1]):
        sq += (queries[:, k, None] - ref[None, :, k]) ** 2
    order = np.argsort(sq, axis=1, kind="stable")[:, :m]
    return np.take_along_axis(sq, order, axis=1), order


def _opposite_arm_sets(dataset: ObservationalDataset, m: int, local_knn) -> np.ndarray:
    """(n, m) global indices of each unit's M nearest opposite-arm units, from
    ``local_knn(own_points, other_points)`` giving indices into the other arm."""
    x = dataset.covariates
    treated = np.flatnonzero(dataset.treatment == 1)
    control = np.flatnonzero(dataset.treatment == 0)
    sets = np.empty((dataset.n, m), dtype=np.int64)
    for own, other in ((treated, control), (control, treated)):
        sets[own] = other[local_knn(x[own], x[other])]
    return sets


def library_match_sets(dataset: ObservationalDataset, m: int):
    """The library's match sets, one ``_knn_blocks`` query per arm."""
    return _opposite_arm_sets(
        dataset, m, lambda own, other: query_indices(_tree(other), m, own)
    )


def brute_force_match_sets(dataset: ObservationalDataset, m: int):
    """The match sets by full scan, 500 query rows at a time."""

    def local_knn(own, other):
        blocks = [
            brute_force_sq_knn(own[start : start + 500], other, m)[1]
            for start in range(0, len(own), 500)
        ]
        return np.concatenate(blocks)

    return _opposite_arm_sets(dataset, m, local_knn)


def brute_force_knn(reference_points, query, m: int) -> np.ndarray:
    """Oracle M-NN query of one point: full distance scan plus (distance, index) order."""
    ref = _sample(reference_points, "reference points")
    q = _points(query, "query", ref.shape[1])
    if q.shape[0] != 1:
        raise ValueError("query must be a single point")
    if not 1 <= m <= len(ref):
        raise ValueError("m out of range")
    _, idx = brute_force_sq_knn(q, ref, m)
    return idx[0]


def fit_on(data: TwoSampleData, basis, lam: float | None = None) -> tuple[float, np.ndarray]:
    """``lsif.fit`` on ``basis`` evaluated at the denominator and the numerator."""
    return fit(basis(data.denominator), basis(data.numerator), lam)


def fitted_value(basis, beta: np.ndarray, x) -> float:
    """Fitted ratio beta' Phi(x) at one point, a (1, d) row, as one dot product."""
    (phi,) = basis(x)
    return float(np.dot(beta, phi))


def catchment_indicator(reference_points, m: int, c):
    """One-dimensional matched-membership indicator anchored at ``c``.

    The feature tests whether a point and the anchor fall inside one M-NN
    catchment of the reference sample, anchoring the radius at whichever of
    the two is not a reference point:

    - at a point x that exactly equals a reference point, the feature is 1
      when dist(x, c) <= the M-th nearest-reference radius of c, so on the
      reference sample the feature picks out exactly the M nearest references
      of c (ties aside);
    - at any other point x it is 1 when dist(c, x) <= the M-th
      nearest-reference radius of x, so summed over a query sample it counts
      the points whose catchment covers c, i.e. the matched-times count.

    Both boundaries are inclusive.  The anchor itself always evaluates to 1.
    """
    tree = _tree(reference_points)
    ref = tree.data
    anchor = _points(c, "anchor", ref.shape[1])
    if anchor.shape[0] != 1:
        raise ValueError("anchor must be a single point")
    anchor_sq_radius = float(_mth_sq_radius_batch(tree, m, anchor)[0])

    def evaluate(points):
        p = _points(points, "points", ref.shape[1])
        is_ref = (p[:, None, :] == ref[None, :, :]).all(axis=2).any(axis=1)
        out = np.zeros((len(p), 1))
        if is_ref.any():
            sq = _sq_dists(p[is_ref], anchor)[:, 0]
            out[is_ref, 0] = sq <= anchor_sq_radius
        rest = ~is_ref
        if rest.any():
            radii_sq = _mth_sq_radius_batch(tree, m, p[rest])
            sq = _sq_dists(anchor, p[rest])[0]
            out[rest, 0] = sq <= radii_sq
        return out

    return evaluate


def indicator_basis(data: TwoSampleData, m: int, c):
    """Catchment indicator anchored at ``c`` over the denominator sample."""
    if m > data.n_denominator:
        raise ValueError(f"m={m} exceeds the denominator sample size {data.n_denominator}")
    return catchment_indicator(data.denominator, m, c)


def one_step_dre(data: TwoSampleData, m: int, c) -> float:
    """Nearest-neighbor one-step ratio estimate (N0/N1) K_M(c) / M."""
    anchor = _points(c, "c", data.d)
    if anchor.shape[0] != 1:
        raise ValueError("c must be a single point")
    k = int(matched_times_at(data, m, anchor)[0])
    return data.n_denominator / data.n_numerator * k / m


@dataclass(frozen=True)
class Theorem1Check:
    lsif_value: float
    one_step_value: float
    gap: float


def verify_theorem1(data: TwoSampleData, m: int, c) -> Theorem1Check:
    """Fit the indicator-basis LSIF at lambda=0 and compare with the one-step value."""
    basis = indicator_basis(data, m, c)
    lsif_value = fitted_value(basis, fit_on(data, basis, lam=0.0)[1], c)
    one_step = one_step_dre(data, m, c)
    return Theorem1Check(
        lsif_value=lsif_value, one_step_value=one_step, gap=abs(lsif_value - one_step)
    )


def matched_times_at(data: TwoSampleData, m: int, points) -> np.ndarray:
    """Matched-times counts at arbitrary points.

    Entry t counts the numerator points whose M-th nearest-denominator radius
    covers points[t]; the boundary is inclusive.
    """
    if m > data.n_denominator:
        raise ValueError(f"m={m} exceeds the denominator sample size {data.n_denominator}")
    tree, num = _tree(data.denominator), data.numerator
    pts, radii = _points(points, "points", data.d), _mth_sq_radius_batch(tree, m, num)
    return _covering_counts(pts, num, radii)


def imputed_pairs(dataset: ObservationalDataset, structures: MatchStructures) -> np.ndarray:
    """Per-unit imputed potential outcomes, column 0 control and column 1 treated.

    The observed arm keeps the observed outcome exactly; the opposite arm is
    the mean outcome of the unit's M nearest opposite-arm matches.  The mean
    of column 1 minus column 0 is imputation-form matching's tau.
    """
    matched_mean = structures.matched_outcome
    out = np.empty((dataset.n, 2))
    treated = dataset.treatment == 1
    out[treated, 1] = dataset.outcome[treated]
    out[treated, 0] = matched_mean[treated]
    out[~treated, 0] = dataset.outcome[~treated]
    out[~treated, 1] = matched_mean[~treated]
    return out


def rescaled(dataset: ObservationalDataset, scale) -> ObservationalDataset:
    """The dataset with its covariates multiplied by ``scale`` coordinate by
    coordinate, as ``equivalence.run_instance`` builds the one it matches."""
    return replace(dataset, covariates=dataset.covariates * scale)


def constant_basis(dimension_in: int):
    def evaluate(points):
        return np.ones((len(_points(points, "points", dimension_in)), 1))

    return evaluate


def objective_value(data: TwoSampleData, basis, lam: float, beta: np.ndarray) -> float:
    """Sample-form LSIF objective J(beta)."""
    beta = np.asarray(beta, dtype=float)
    r_den = basis(data.denominator) @ beta
    r_num = basis(data.numerator) @ beta
    return float(
        0.5 * np.mean(r_den * r_den) - np.mean(r_num) + 0.5 * lam * np.dot(beta, beta)
    )


def lsif_moments(data: TwoSampleData, basis) -> tuple[np.ndarray, np.ndarray]:
    """The moments ``fit`` solves with, in its arithmetic: H averages Phi Phi' over
    the denominator sample and h averages Phi over the numerator sample."""
    phi_den = basis(data.denominator)
    h_vec = basis(data.numerator).mean(axis=0)
    return phi_den.T @ phi_den / data.n_denominator, h_vec


def objective_gradient(data: TwoSampleData, basis, lam: float, beta: np.ndarray) -> np.ndarray:
    """Analytic gradient (H + lambda I) beta - h of the empirical objective."""
    h_mat, h_vec = lsif_moments(data, basis)
    beta = np.asarray(beta, dtype=float)
    return h_mat @ beta + lam * beta - h_vec


def arm_objective_value(
    dataset: ObservationalDataset, arm: int, phi: np.ndarray, lam: float, theta: np.ndarray
) -> float:
    """Sample-form arm risk (1/2) mean_arm w^2 - mean w + (lambda/2)|theta|^2."""
    theta = np.asarray(theta, dtype=float)
    w = phi @ theta
    mask = dataset.treatment == arm
    sq_term = np.sum(w[mask] * w[mask]) / dataset.n
    return float(0.5 * sq_term - np.mean(w) + 0.5 * lam * np.dot(theta, theta))


def arm_objective_gradient(
    dataset: ObservationalDataset, arm: int, phi: np.ndarray, lam: float, theta: np.ndarray
) -> np.ndarray:
    """Analytic gradient (H_arm + lambda I) theta - h of the arm risk, where H_arm
    sums Phi Phi' over the arm's units and divides by n, and h averages Phi."""
    phi_arm = phi[dataset.treatment == arm]
    theta = np.asarray(theta, dtype=float)
    return (phi_arm.T @ phi_arm / dataset.n) @ theta + lam * theta - phi.mean(axis=0)


def parse_report(text: str) -> tuple[dict, list[dict]]:
    """Inverse of ``report.render_report`` with values kept as strings."""
    header: dict = {}
    records: list[dict] = []
    in_records = False
    for line in text.splitlines():
        if not line:
            continue
        if line == RECORD_SEPARATOR:
            in_records = True
            continue
        if in_records:
            records.append(dict(field.split("=", 1) for field in line.split(" ")))
        else:
            key, value = line.split("=", 1)
            header[key] = value
    return header, records
