"""Metric geometry of matching: M-NN queries, catchment areas, matched-times counts.

Queries run against a static kd-tree built once per reference set, with exact
deterministic tie-breaking: candidates are ordered by nondecreasing distance
and equal distances are resolved by ascending reference index.  Rows the tree
returns in that order are left as they are; only tied or out-of-order rows
are re-sorted, which on continuous data is almost none.  A vectorized
brute-force path is kept both as the test oracle and as the fallback for
dimensions above 16, where the tree stops paying off.

All ordering and boundary decisions are made on squared distances accumulated
coordinate by coordinate, which reproduces the kd-tree's arithmetic exactly,
so the tree and brute-force paths cannot disagree through rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import ObservationalDataset, TwoSampleData

_MAX_TREE_DIM = 16
# Distances held at once by a blocked catchment count: 8 MB of float64.
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Metric:
    """Euclidean distance, optionally with positive per-coordinate weights."""

    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = np.array(self.weights, dtype=float, copy=True)
            if w.ndim != 1 or len(w) == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("metric weights must be a 1-d array of positive reals")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    @property
    def kind(self) -> str:
        return "euclidean" if self.weights is None else "weighted-euclidean"

    def scale(self, points: np.ndarray) -> np.ndarray:
        """Map points so plain Euclidean distance on the image equals this metric."""
        pts = np.asarray(points, dtype=float)
        if self.weights is None:
            return pts
        if pts.shape[-1] != len(self.weights):
            raise ValueError("dimension mismatch between metric weights and points")
        return pts * np.sqrt(self.weights)

    def distance(self, x, z) -> float:
        """Distance between two single points; 1-d inputs are one point each."""
        a = np.atleast_2d(np.asarray(x, dtype=float))
        b = np.atleast_2d(np.asarray(z, dtype=float))
        if a.shape != b.shape or a.shape[0] != 1:
            raise ValueError("x and z must be single points of equal dimension")
        return float(np.sqrt(_sq_dists(self.scale(a), self.scale(b))[0, 0]))


EUCLIDEAN = Metric()


def _as_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError("points must be at most 2-d")
    return pts


def _as_points(points, d: int) -> np.ndarray:
    """Coerce to an (k, d) matrix; a 1-d array of length d is a single point."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        if d == 1:
            pts = pts[:, None]
        elif pts.shape[0] == d:
            pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"dimension mismatch: expected points of dimension {d}")
    return pts


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Accumulate per coordinate, left to right, matching the kd-tree's loop.
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        out += diff * diff
    return out


def _sq_to_candidates(queries: np.ndarray, reference: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # Bit for bit _sq_dists: the same per-coordinate order, starting from the
    # first square (0 + x == x); the sign of a difference drops out when squared.
    columns = np.ascontiguousarray(reference.T)
    out = None
    for k in range(queries.shape[1]):
        diff = np.take(columns[k], idx)
        diff -= queries[:, k, None]
        diff *= diff
        out = diff if out is None else np.add(out, diff, out=out)
    return out


def _sort_each_row(sq: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort every row by (squared distance, reference index)."""
    order = np.lexsort((idx, sq), axis=1)
    return np.take_along_axis(sq, order, axis=1), np.take_along_axis(idx, order, axis=1)


def _row_sort(sq: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put each kd-tree row in (squared distance, reference index) order.

    Rows the tree already returned in that order are left as they are; only
    rows with an index-order tie or a distance inversion between adjacent
    columns are re-sorted.  Indices are distinct within a row, so the key is
    unique and an in-order row is already its own sorted form.
    """
    head, tail = sq[:, :-1], sq[:, 1:]
    broken = (head > tail) | ((head == tail) & (idx[:, :-1] > idx[:, 1:]))
    rows = np.flatnonzero(broken.any(axis=1))
    if len(rows) == 0:
        return sq, idx
    sq, idx = sq.copy(), idx.copy()
    sq[rows], idx[rows] = _sort_each_row(sq[rows], idx[rows])
    return sq, idx


class NeighborModel:
    """An immutable M-nearest-neighbor index over a fixed reference sample."""

    def __init__(self, reference_points, metric: Metric | None = None, m: int = 1):
        ref = _as_matrix(reference_points).copy()
        if not np.all(np.isfinite(ref)):
            raise ValueError("reference points must be finite")
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > len(ref):
            raise ValueError(f"m={m} exceeds the reference size {len(ref)}")
        ref.setflags(write=False)
        self.reference_points = ref
        self.metric = metric if metric is not None else EUCLIDEAN
        self.m = int(m)
        self._scaled = np.ascontiguousarray(self.metric.scale(ref))
        self._tree = cKDTree(self._scaled) if ref.shape[1] <= _MAX_TREE_DIM else None

    @property
    def n_reference(self) -> int:
        return len(self.reference_points)

    @property
    def d(self) -> int:
        return self.reference_points.shape[1]

    def _check_queries(self, queries) -> np.ndarray:
        return self.metric.scale(_as_points(queries, self.d))


def _knn_sq_batch(model: NeighborModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances and indices of the tie-broken M nearest references.

    Returns arrays of shape (n_queries, m), rows ordered by (distance, index).
    """
    q = model._check_queries(queries)
    m = model.m
    n_ref = model.n_reference
    if model._tree is None:
        return _brute_knn_sq(q, model._scaled, m)

    k_req = min(n_ref, m + 1)
    while True:
        _, idx = model._tree.query(q, k=k_req)
        idx = idx.reshape(len(q), k_req)
        sq = _sq_to_candidates(q, model._scaled, idx)
        sq, idx = _row_sort(sq, idx)
        if k_req == n_ref:
            return sq[:, :m], idx[:, :m]
        # Points not returned lie at least as far as the last candidate, so
        # widen only while a tie at the m-th distance reaches it.
        if not np.any(sq[:, m - 1] == sq[:, -1]):
            return sq[:, :m], idx[:, :m]
        k_req = min(n_ref, 2 * k_req)


def _brute_knn_sq(scaled_queries: np.ndarray, scaled_ref: np.ndarray, m: int):
    sq = _sq_dists(scaled_queries, scaled_ref)
    idx = np.broadcast_to(np.arange(scaled_ref.shape[0]), sq.shape)
    sq, idx = _sort_each_row(sq, idx)
    return sq[:, :m], idx[:, :m]


def brute_force_knn(reference_points, metric: Metric | None, query, m: int) -> np.ndarray:
    """Oracle M-NN query: full distance scan plus (distance, index) sort."""
    metric = metric if metric is not None else EUCLIDEAN
    ref = _as_matrix(reference_points)
    q = _as_points(query, ref.shape[1])
    if q.shape[0] != 1:
        raise ValueError("query must be a single point")
    if not 1 <= m <= len(ref):
        raise ValueError("m out of range")
    _, idx = _brute_knn_sq(metric.scale(q), metric.scale(ref), m)
    return idx[0]


def knn(model: NeighborModel, query) -> np.ndarray:
    """Indices of the M nearest reference points, nearest first."""
    _, idx = _knn_sq_batch(model, query)
    return idx[0]


def _mth_sq_radius_batch(model: NeighborModel, queries) -> np.ndarray:
    sq, _ = _knn_sq_batch(model, queries)
    return sq[:, model.m - 1]


def mth_radius(model: NeighborModel, query) -> float:
    """Distance from the query to its M-th nearest reference point."""
    return float(np.sqrt(_mth_sq_radius_batch(model, query)[0]))


def catchment_contains(model: NeighborModel, x, z) -> bool:
    """Whether dist(x, z) <= the M-th nearest-reference radius of z (inclusive)."""
    xm = _as_points(x, model.d)
    zm = _as_points(z, model.d)
    if len(xm) != 1 or len(zm) != 1:
        raise ValueError("x and z must be single points")
    sq = _sq_dists(model.metric.scale(xm), model.metric.scale(zm))[0, 0]
    return bool(sq <= _mth_sq_radius_batch(model, zm)[0])


def _catchment_counts(metric: Metric, anchors, anchor_radii, points, point_radii, anchor_side):
    """Per anchor c, count the points x with squared distance (c, x) at most
    ``anchor_radii[c]`` where ``anchor_side[x]`` holds and ``point_radii[x]``
    elsewhere.  With squared M-th nearest-reference radii and ``anchor_side``
    marking the reference rows this sums the feature of
    ``lsif.catchment_indicator``; anchors go in blocks of _BLOCK_ENTRIES distances."""
    anchors_s, points_s = metric.scale(anchors), metric.scale(points)
    counts = np.empty(len(anchors), dtype=np.int64)
    step = max(1, _BLOCK_ENTRIES // len(points))
    for start in range(0, len(anchors), step):
        block = slice(start, start + step)
        radii = np.where(anchor_side, anchor_radii[block, None], point_radii)
        counts[block] = (_sq_dists(anchors_s[block], points_s) <= radii).sum(axis=1)
    return counts


def matched_times_at(data: TwoSampleData, metric: Metric | None, m: int, points) -> np.ndarray:
    """Matched-times counts at arbitrary points.

    Entry t counts the numerator points whose M-th nearest-denominator radius
    covers points[t]; the boundary is inclusive.
    """
    if m > data.n_denominator:
        raise ValueError(f"m={m} exceeds the denominator sample size {data.n_denominator}")
    model, num = NeighborModel(data.denominator, metric, m), data.numerator
    pts, radii = _as_points(points, data.d), _mth_sq_radius_batch(model, num)
    unused = np.zeros(len(pts))  # no point is on the anchor side
    return _catchment_counts(model.metric, pts, unused, num, radii, np.zeros(len(num), bool))


def matched_times_two_sample(data: TwoSampleData, metric: Metric | None, m: int) -> np.ndarray:
    """Matched-times count of every denominator point; length-N0 integer vector."""
    return matched_times_at(data, metric, m, data.denominator)


@dataclass(frozen=True)
class MatchStructures:
    """Per-unit match sets and matched-times counts for an observational dataset.

    ``neighbor_sets[i]`` holds the global indices of the M nearest units in
    the arm opposite to unit i, nearest first.  ``matched_times[i]`` counts
    how many opposite-arm units include i in their match set; summed over an
    arm this is exactly M times the size of the other arm.
    """

    neighbor_sets: np.ndarray  # (n, m) int
    matched_times: np.ndarray  # (n,) int
    m: int

    @property
    def weights(self) -> np.ndarray:
        """Matching weights 1 + K_M(i)/M for every unit."""
        return 1.0 + self.matched_times / self.m


def matching_structures(
    dataset: ObservationalDataset, metric: Metric | None, m: int
) -> MatchStructures:
    if m > min(dataset.n_treated, dataset.n_control):
        raise ValueError(
            f"m={m} exceeds an arm size (treated {dataset.n_treated}, control {dataset.n_control})"
        )
    x = dataset.covariates
    treated = np.flatnonzero(dataset.treatment == 1)
    control = np.flatnonzero(dataset.treatment == 0)
    model_treated = NeighborModel(x[treated], metric, m)
    model_control = NeighborModel(x[control], metric, m)
    _, local_for_treated = _knn_sq_batch(model_control, x[treated])
    _, local_for_control = _knn_sq_batch(model_treated, x[control])
    neighbor_sets = np.empty((dataset.n, m), dtype=np.int64)
    neighbor_sets[treated] = control[local_for_treated]
    neighbor_sets[control] = treated[local_for_control]
    matched_times = np.bincount(neighbor_sets.ravel(), minlength=dataset.n)
    return MatchStructures(neighbor_sets=neighbor_sets, matched_times=matched_times, m=m)
