"""Metric geometry of matching: M-NN queries, catchment areas, matched-times counts.

Queries run against a static kd-tree built once per reference set, with exact
deterministic tie-breaking: candidates are ordered by nondecreasing distance
and equal distances are resolved by ascending reference index.  Rows the tree
returns in that order are left as they are; only tied or out-of-order rows
are re-sorted, which on continuous data is almost none.  A vectorized
brute-force path is the fallback for dimensions above 16, where the tree stops
paying off.  There is one batched route per operation; the per-point oracles
the tests compare it with (a full-scan M-NN query, the catchment indicator)
live in ``tests/oracles.py``.

Every query runs through ``_knn_blocks`` in row blocks of at most
``_BLOCK_ENTRIES`` candidate distances (M+1 per row on the tree, n_ref on the
brute-force path); a tie widens only its own block, and callers reduce each
block as it arrives, so memory never grows as n_q n_ref or as n M.

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
# Entries held at once by a kNN block or a blocked count: 2 MB of float64.
_BLOCK_ENTRIES = 1 << 18


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


EUCLIDEAN = Metric()


def _as_points(points, d: int | None = None) -> np.ndarray:
    """Coerce to an (k, d) matrix; a 1-d array is one point if its length is d > 1,
    else a column.  Without d any width is accepted."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[None, :] if d != 1 and pts.shape[0] == d else pts[:, None]
    if pts.ndim != 2:
        raise ValueError("points must be at most 2-d")
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"dimension mismatch: expected points of dimension {d}")
    return pts


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Accumulate per coordinate, left to right, matching the kd-tree's loop.
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        out += diff * diff
    return out


def _sq_to_candidates(queries: np.ndarray, columns: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # Bit for bit _sq_dists to the reference whose transpose is ``columns``: same
    # coordinate order from the first square (0 + x == x); signs drop out squared.
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
        ref = _as_points(reference_points).copy()
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


def _row_blocks(n_rows: int, width: int):
    """Consecutive row slices holding at most _BLOCK_ENTRIES entries of ``width`` each."""
    step = max(1, _BLOCK_ENTRIES // width)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _knn_blocks(model: NeighborModel, queries):
    """Yield ``(rows, sq, idx)`` per row block of the queries: squared distances
    and indices of each row's tie-broken M nearest references, (distance, index)
    order."""
    pts, m, n_ref = _as_points(queries, model.d), model.m, model.n_reference
    width = n_ref if model._tree is None else min(n_ref, m + 1)
    columns = np.ascontiguousarray(model._scaled.T)
    for rows in _row_blocks(len(pts), width):
        q = model.metric.scale(pts[rows])
        if model._tree is None:
            yield (rows, *_brute_knn_sq(q, model._scaled, m))
            continue
        k_req = width
        while True:
            _, idx = model._tree.query(q, k=k_req)
            idx = idx.reshape(len(q), k_req)
            sq, idx = _row_sort(_sq_to_candidates(q, columns, idx), idx)
            # Points not returned lie at least as far as the last candidate, so
            # widen only while a tie at the m-th distance reaches it.
            if k_req == n_ref or not np.any(sq[:, m - 1] == sq[:, -1]):
                break
            k_req = min(n_ref, 2 * k_req)
        yield rows, sq[:, :m], idx[:, :m]


def _brute_knn_sq(scaled_queries: np.ndarray, scaled_ref: np.ndarray, m: int):
    sq = _sq_dists(scaled_queries, scaled_ref)
    idx = np.broadcast_to(np.arange(scaled_ref.shape[0]), sq.shape)
    sq, idx = _sort_each_row(sq, idx)
    return sq[:, :m], idx[:, :m]


def _mth_sq_radius_batch(model: NeighborModel, queries) -> np.ndarray:
    radii = [sq[:, model.m - 1] for _, sq, _ in _knn_blocks(model, queries)]
    return np.concatenate(radii or [np.empty(0)])


def _catchment_counts(metric: Metric, anchors, anchor_radii, points, point_radii, anchor_side):
    """Per anchor c, count the points x with squared distance (c, x) at most
    ``anchor_radii[c]`` where ``anchor_side[x]`` holds and ``point_radii[x]``
    elsewhere.  With squared M-th nearest-reference radii and ``anchor_side``
    marking the reference rows this sums the feature of the per-point
    ``catchment_indicator`` oracle in ``tests/oracles.py``; anchors go in
    blocks of _BLOCK_ENTRIES distances."""
    anchors_s, points_s = metric.scale(anchors), metric.scale(points)
    counts = np.empty(len(anchors), dtype=np.int64)
    for block in _row_blocks(len(anchors), len(points)):
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


@dataclass(frozen=True)
class MatchStructures:
    """Per-unit reductions of the M-NN match for an observational dataset.

    ``matched_outcome[i]`` is the mean outcome of the M nearest units in the
    arm opposite to unit i.  ``matched_times[i]`` counts how many opposite-arm
    units include i in their match set; summed over an arm this is exactly M
    times the size of the other arm.  The match sets themselves are reduced
    block by block and never held.
    """

    matched_outcome: np.ndarray  # (n,) float
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
    matched_outcome = np.empty(dataset.n)
    matched_times = np.empty(dataset.n, dtype=np.int64)
    for own, other in ((treated, control), (control, treated)):
        model = NeighborModel(x[other], metric, m)
        y_other = dataset.outcome[other]
        counts = np.zeros(len(other), dtype=np.int64)
        for rows, _, local in _knn_blocks(model, x[own]):
            matched_outcome[own[rows]] = y_other[local].mean(axis=1)
            counts += np.bincount(local.ravel(), minlength=len(other))
        matched_times[other] = counts
    return MatchStructures(matched_outcome=matched_outcome, matched_times=matched_times, m=m)
