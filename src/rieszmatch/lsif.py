"""Least-squares importance fitting for density-ratio estimation.

Fits a linear-in-parameters ratio model r(x) = beta' Phi(x) by minimizing the
empirical quadratic risk

    J(beta) = (1/2) beta' H beta - beta' h + (lambda/2) |beta|^2,

where H averages Phi Phi' over the denominator sample and h averages Phi over
the numerator sample.  The unique minimizer is (H + lambda I)^{-1} h.  LSIF and
Riesz regression share this fit: ``_moments`` builds H and h for both (an
arm's Riesz moments are LSIF's with that arm as the denominator and n in place
of its size), and ``ridge_solve`` factors the system with LAPACK's Cholesky
pair and explicit singularity detection (nothing is silently regularized).  A
basis is a plain function from (k, d) points to their (k, b) feature matrix.
``fit`` takes it evaluated at both samples, runs ``check_features``, the one
check of every LSIF and Riesz fit, on each, and returns the ridge (by default
1e-6 trace(H)/b, read off the H it builds, for numerical safety) and beta.
The sample objective and its gradient, which the tests check the fit against,
live in ``tests/oracles.py``.

The catchment indicator basis turns this machinery into the one-step
nearest-neighbor ratio estimate: with that single feature and lambda = 0 the
fitted value at the anchor equals (N0/N1) K_M(c) / M exactly, where K_M(c) is
the matched-times count.  ``indicator_dre`` and ``verify_theorem1_all`` fit
the indicator at every anchor at once from a batched ball and covering count,
bit for bit the per-point fits; the per-point indicator basis and Theorem-1
check they are tested against live in ``tests/oracles.py``.
Catchments are M-NN balls in plain Euclidean distance on the samples given.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .dataset import TwoSampleData, _points, _sample
from .neighbors import (
    _ball_counts,
    _check_m,
    _covering_counts,
    _mth_sq_radius_batch,
    _row_blocks,
    _sq_dists,
    _tree,
)

_PIVOT_RTOL = 1e-12
# Most Gaussian grid centers a basis may have: its b x b moment matrix is then 128 MiB.
_MAX_GRID_CENTERS = 4096


def _check_lambda(lam: float) -> None:
    """The ridge check every fit runs before it assembles its moments."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")


def _moments(phi_sq: np.ndarray, phi_lin: np.ndarray, count: int):
    """The moments of every quadratic-risk fit: H = phi_sq' phi_sq / count and h, the
    mean row of ``phi_lin``; LSIF's from the two samples, an arm's Riesz ones from
    the arm's rows, every unit's and n."""
    h_mat = phi_sq.T @ phi_sq
    h_mat /= count
    return h_mat, phi_lin.mean(axis=0)


def ridge_solve(h_mat: np.ndarray, h_vec: np.ndarray, lam: float, singular: str) -> np.ndarray:
    """Solve (H + lambda I) beta = h, the minimizer of a ridge-penalized quadratic
    risk, by LAPACK's Cholesky pair dpotrf/dpotrs (what scipy's cho_factor and
    cho_solve wrap).  Moments that overflowed float64 raise LinAlgError that says
    so; a system not positive definite, or whose relative pivot ratio is not above
    1e-12, raises it with ``singular`` formatted at ``lam``.  Each caller checks
    its lambda before it assembles the moments.

    The system is one copy of ``h_mat``, factored in place through its
    F-contiguous transpose.  Every caller builds ``h_mat`` from ``A.T @ A``
    blocks, which numpy makes exactly symmetric, so the transpose is the same
    matrix."""
    if not (np.isfinite(h_mat).all() and np.isfinite(h_vec).all()):
        raise np.linalg.LinAlgError("non-finite moments: the feature products overflow float64")
    system = h_mat.copy()
    system.reshape(-1)[:: len(system) + 1] += lam
    factor, info = dpotrf(system.T, lower=True, overwrite_a=True, clean=False)
    if info == 0:
        pivots = np.diag(factor) ** 2
        if pivots.min() > _PIVOT_RTOL * pivots.max():
            return dpotrs(factor, h_vec, lower=True)[0]
    raise np.linalg.LinAlgError(singular.format(lam=lam))


def check_features(phi, rows: int | None = None, columns: int | None = None) -> np.ndarray:
    """The one check of a feature matrix, the input of every quadratic-risk fit:
    float and (k, b) with k, b >= 1, k equal to ``rows`` and b to ``columns``
    where given, and every entry finite, checked one row block at a time (no
    (k, b) mask at once).  A float matrix comes back uncopied."""
    out = np.asarray(phi, dtype=float)
    shape_ok = out.ndim == 2 and min(out.shape) >= 1
    if not shape_ok or rows not in (None, out.shape[0]) or columns not in (None, out.shape[1]):
        want = f"({rows or 'k'}, {columns or 'b'}) with at least one row and one column"
        raise ValueError(f"feature matrix has shape {out.shape}, expected {want}")
    for block in _row_blocks(len(out), out.shape[1]):
        if not np.isfinite(out[block]).all():
            raise ValueError("non-finite value in feature matrix")
    return out


def fit(phi_den, phi_num, lam: float | None = None) -> tuple[float, np.ndarray]:
    """Closed-form ridge fit ``(lam, beta)`` of the density-ratio coefficients on
    one basis evaluated at the denominator and at the numerator sample;
    ``lam=None`` takes the default ridge 1e-6 trace(H)/b."""
    if lam is not None:
        _check_lambda(lam)
    phi_den = check_features(phi_den)
    phi_num = check_features(phi_num, columns=phi_den.shape[1])
    h_mat, h_vec = _moments(phi_den, phi_num, len(phi_den))
    if lam is None:
        lam = 1e-6 * float(np.trace(h_mat)) / len(h_mat)
    singular = (
        "singular moment matrix at lambda={lam:g}; "
        "the basis has no unique minimizer on this sample"
    )
    return float(lam), ridge_solve(h_mat, h_vec, lam, singular)


# ---------------------------------------------------------------------------
# Built-in bases


def monomial_exponents(dimension_in: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= degree, constant first."""
    if not 0 <= degree <= 3:
        raise ValueError("degree must be in 0..3")
    exps = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(dimension_in), total):
            e = [0] * dimension_in
            for j in combo:
                e[j] += 1
            exps.append(tuple(e))
    return exps


def polynomial_feature_matrix(points: np.ndarray, degree: int) -> np.ndarray:
    """The polynomial basis: every monomial of total degree <= degree (at most 3)
    at each point, constant first."""
    pts = _points(points, "points")
    exps = [np.array(e) for e in monomial_exponents(pts.shape[1], degree)]
    out = np.empty((len(pts), len(exps)))
    for rows in _row_blocks(len(pts), len(exps)):  # peak: the result plus one row block
        for j, e in enumerate(exps):
            out[rows, j] = np.prod(pts[rows] ** e, axis=1)
    return out


def gaussian_grid_basis(points: np.ndarray, per_dim: int = 4):
    """The basis of Gaussian bumps centered on a regular grid over the point
    cloud's box, with bandwidth the mean box side over ``per_dim``, as its
    function from points to features; a cloud of zero extent has none."""
    if per_dim < 1:
        raise ValueError(f"Gaussian grid size must be >= 1, got {per_dim}")
    pts = _sample(points, "point cloud")
    count = per_dim ** pts.shape[1]  # a Python int: nothing is allocated yet
    if count > _MAX_GRID_CENTERS:
        raise ValueError(
            f"Gaussian grid of {per_dim} per dimension in d={pts.shape[1]} has {count} centers, "
            f"above the limit {_MAX_GRID_CENTERS}"
        )
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    axes = [np.linspace(lo[k], hi[k], per_dim) for k in range(pts.shape[1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.column_stack([m.ravel() for m in mesh])
    bandwidth = float(np.mean(hi - lo)) / per_dim
    two_sq = 2.0 * bandwidth * bandwidth
    if not two_sq >= np.finfo(float).tiny:  # also an extent too small to square
        raise ValueError(f"point cloud has zero extent: Gaussian bandwidth {bandwidth:g}")
    inv_two_sq = 1.0 / two_sq

    def evaluate(qpoints):
        q = _points(qpoints, "points", centers.shape[1])
        out = np.empty((len(q), len(centers)))
        for rows in _row_blocks(len(q), len(centers)):
            np.exp(-_sq_dists(q[rows], centers) * inv_two_sq, out=out[rows])
        return out

    return evaluate


# ---------------------------------------------------------------------------
# Indicator-basis fits at many anchors


def _rows_in(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Whether each row of ``points`` equals a row of ``reference`` under float ==,
    as ``catchment_indicator``: + 0.0 turns -0.0 into 0.0, after which finite rows
    are equal exactly when their bytes are."""
    row = np.dtype((np.void, 8 * reference.shape[1]))
    keys = [(np.ascontiguousarray(a) + 0.0).view(row).ravel() for a in (points, reference)]
    return np.isin(*keys)


def _indicator_values(ref, anchors, anchor_radii, numerator, num_radii, n_den, n_num, lam=0.0):
    """Indicator-LSIF fits at every anchor c at once, bit for bit the fit on the
    oracle basis ``catchment_indicator(reference, m, c)`` of ``tests/oracles.py``
    evaluated at c.  The squared moment counts the reference rows ``ref`` in c's
    ball over ``n_den``; the linear one counts the ``numerator`` rows equal to a
    reference row in c's ball and the others whose own ball covers c, over
    ``n_num``.  The radii are the squared M-th nearest-reference radii of the
    anchors and of the numerator points."""
    is_ref = _rows_in(numerator, ref)
    h_mat = _ball_counts(anchors, anchor_radii, ref) / n_den
    inside = _ball_counts(anchors, anchor_radii, numerator[is_ref])
    h_vec = (inside + _covering_counts(anchors, numerator[~is_ref], num_radii[~is_ref])) / n_num
    # h_mat >= M / n_den > 0; scalar Cholesky solve by the reciprocal pivot, as LAPACK's
    inv_chol = 1.0 / np.sqrt(h_mat + lam)
    return h_vec * inv_chol * inv_chol


def indicator_dre(data: TwoSampleData, m: int, points, lam=0.0):
    """The indicator-basis LSIF fit anchored at each point p, evaluated at p."""
    n_den, n_num = data.n_denominator, data.n_numerator
    _check_m(m, n_den, f"the denominator sample size {n_den}")
    _check_lambda(lam)
    tree, num = _tree(data.denominator), data.numerator
    pts = _points(points, "points", data.d)
    radii, num_radii = _mth_sq_radius_batch(tree, m, pts), _mth_sq_radius_batch(tree, m, num)
    return _indicator_values(tree.data, pts, radii, num, num_radii, n_den, n_num, lam)


def verify_theorem1_all(data: TwoSampleData, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lsif_values, one_step_values)`` at every numerator point, as two arrays.

    One denominator tree and one radius query of the numerator feed both
    routes: the indicator-LSIF fit and the one-step matched-times count."""
    n_den, n_num = data.n_denominator, data.n_numerator
    _check_m(m, n_den, f"the reference size {n_den}")
    tree, num = _tree(data.denominator), data.numerator
    radii = _mth_sq_radius_batch(tree, m, num)
    lsif_values = _indicator_values(tree.data, num, radii, num, radii, n_den, n_num)
    one_step = n_den / n_num * _covering_counts(num, num, radii) / m
    return lsif_values, one_step
