"""Geometry of matching: M-NN queries, catchment areas, matched-times counts.

Distances are plain Euclidean on the points given.  A distance weighted by w
per coordinate is the plain one on the points times sqrt(w), so a caller who
wants it rescales its points once.

Queries run against a static kd-tree built once per reference sample by
``_tree``, in any dimension.  The tree holds no M: M is an argument of each
query, so one tree answers every M.  ``_check_m`` is the one M-range rule.
Ties are broken exactly and deterministically: candidates are ordered by
nondecreasing distance and equal distances are resolved by ascending reference
index.  The tree only proposes candidates.  Every ordering and boundary decision
is made on squared distances summed coordinate by coordinate (``_sq_dists``),
which from d = 8 on can differ from the tree's own sums in the last bit, so a
row stops widening its candidates only once its M-th squared distance lies below
the last one's by more than the relative slack ``_TREE_ROUNDING``.  A row block
with any tied or out-of-order row is sorted whole; on continuous data almost
none is.
A candidate whose squared distance overflows float64 is a ValueError: the tree
reports it as missing.

Every query runs through ``_knn_blocks`` in row blocks of at most
``_BLOCK_ENTRIES`` = 2^15 candidate distances.  Widening is one recursive
step, ``_nearest``: each distinct point among a block's short rows is queried
again, at doubled k, in sub-blocks under the same bound, so tied rows share one
query.  Callers reduce each block as it arrives, so memory stays O(n) plus one
block per doubling level, for every M, on ties too.  ``matching_structures``
sends each arm's queries in the leaf order of that arm's own kd-tree, gathering
each block's rows as it goes, so a block's rows are spatially compact and its
tree walks and candidate arrays stay in cache; a row's result depends on that
row alone, so the order changes no bit.  The match keeps only per-unit
reductions and its two arm trees (``arm_trees``), which it builds once and
frees on return unless the caller built them to reuse, at this M or any other.
The per-point oracles the tests compare with live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import ObservationalDataset, _points, _sample

# Entries held at once by a kNN block or a blocked count: 256 KiB of float64,
# so a leaf-ordered block's candidate arrays stay in a core's L2 cache and
# the few arrays live per block add little to a large match's peak.
_BLOCK_ENTRIES = 1 << 15
# Relative bound on how far the kd-tree's squared distances may stray from
# _sq_dists through summation order; far above d * 2^-52 for any practical d.
_TREE_ROUNDING = 1e-9


def _sq_dists(a: np.ndarray, b: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from each row of ``a`` to every row of ``b`` or, with ``idx``,
    to the rows ``b[idx]`` (shaped like ``idx``), summed coordinate by coordinate, left
    to right: the arithmetic of every decision.  Each coordinate is taken from the
    (n, d) rows of ``b``, with no transposed copy."""
    out = None
    for k in range(a.shape[1]):
        if idx is None:
            diff = b[:, k] - a[:, k, None]
        else:
            diff = b[:, k][idx]
            diff -= a[:, k, None]
        diff *= diff
        out = diff if out is None else np.add(out, diff, out=out)
    return out


def _row_sort(sq: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put each kd-tree row in (squared distance, reference index) order.

    A block the tree already returned in that order is returned as it is; a
    block with any index-order tie or distance inversion between adjacent
    columns is sorted whole.  Indices are distinct within a row, so the key is
    unique and an in-order row is already its own sorted form.
    """
    head, tail = sq[:, :-1], sq[:, 1:]
    if not ((head > tail) | ((head == tail) & (idx[:, :-1] > idx[:, 1:]))).any():
        return sq, idx
    order = np.lexsort((idx, sq), axis=1)
    return np.take_along_axis(sq, order, axis=1), np.take_along_axis(idx, order, axis=1)


def _check_m(m: int, size: int, sample: str) -> None:
    """The one M-range rule, 1 <= m <= ``size``, where ``sample`` names the size
    searched; each caller runs it before it builds a tree."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > size:
        raise ValueError(f"m={m} exceeds {sample}")


def _tree(reference_points) -> cKDTree:
    """The kd-tree of one reference sample, for every M.  Its ``.data`` is a
    read-only copy of its own, so no write by the caller reaches the tree."""
    return cKDTree(_sample(reference_points, "reference points"))


def _row_blocks(n_rows: int, width: int):
    """Consecutive row slices of at most _BLOCK_ENTRIES entries of ``width`` (0 as 1) each."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _nearest(tree: cKDTree, m: int, q: np.ndarray, k: int):
    """Squared distances and indices of each row's tie-broken M nearest references,
    in (distance, index) order, from the tree's k candidates per row.  Each distinct
    point of the rows whose M nearest may lie beyond them is asked again at 2k."""
    idx = tree.query(q, k=k)[1].reshape(len(q), k)  # drop the tree's distances
    if idx.max() == tree.n:  # k <= tree.n: the mark of an infinite distance
        raise ValueError("covariates too far apart: a squared distance overflows float64")
    sq, idx = _row_sort(_sq_dists(q, tree.data, idx), idx)
    # Points not returned lie at least as far as the last candidate, up to the
    # tree's rounding, so a row whose M-th distance comes that close may be short.
    short = (k < tree.n) & (sq[:, m - 1] >= (1 - _TREE_ROUNDING) * sq[:, -1])
    if short.any():
        # a row's answer depends on its coordinates alone, -0.0 and 0.0 alike
        points, inverse = np.unique(q[short], axis=0, return_inverse=True)
        wide_sq, wide_idx = np.empty((len(points), m)), np.empty((len(points), m), idx.dtype)
        k = min(tree.n, 2 * k)
        for sub in _row_blocks(len(points), k):
            wide_sq[sub], wide_idx[sub] = _nearest(tree, m, points[sub], k)
        inverse = inverse.ravel()  # numpy 2.0.0 shapes it otherwise
        sq[short, :m], idx[short, :m] = wide_sq[inverse], wide_idx[inverse]
    return sq[:, :m], idx[:, :m]


def _knn_blocks(tree: cKDTree, m: int, queries, order=None):
    """Yield ``(rows, sq, idx)`` per row block of the queries: squared distances
    and indices of each row's tie-broken M nearest references in ``tree``,
    (distance, index) order.  With ``order`` the queries are ``queries[order]``,
    gathered one block at a time.  A block is answered by ``_nearest``, which
    widens each distinct short point once, at doubled k, in sub-blocks."""
    _check_m(m, tree.n, f"the reference size {tree.n}")
    pts = _points(queries, "queries", tree.data.shape[1])
    first_k = min(tree.n, m + 1)
    n_rows = len(pts) if order is None else len(order)
    for rows in _row_blocks(n_rows, first_k):
        q = pts[rows] if order is None else pts[order[rows]]
        yield rows, *_nearest(tree, m, q, first_k)


def _mth_sq_radius_batch(tree: cKDTree, m: int, queries) -> np.ndarray:
    radii = [sq[:, m - 1] for _, sq, _ in _knn_blocks(tree, m, queries)]
    return np.concatenate(radii or [np.empty(0)])


def _ball_counts(anchors, anchor_radii, points):
    """Per anchor c, the points x with squared distance (c, x) <= ``anchor_radii[c]``:
    at squared M-th nearest-reference radii, the points inside c's M-NN ball."""
    counts = np.empty(len(anchors), dtype=np.int64)
    for rows in _row_blocks(len(anchors), len(points)):  # _BLOCK_ENTRIES distances each
        counts[rows] = (_sq_dists(anchors[rows], points) <= anchor_radii[rows, None]).sum(axis=1)
    return counts


def _covering_counts(anchors, points, point_radii):
    """Per anchor c, the points x with squared distance (c, x) <= ``point_radii[x]``:
    at squared M-th nearest-reference radii, K_M(c), the points whose ball covers c."""
    counts = np.empty(len(anchors), dtype=np.int64)
    for rows in _row_blocks(len(anchors), len(points)):  # _BLOCK_ENTRIES distances each
        counts[rows] = (_sq_dists(anchors[rows], points) <= point_radii).sum(axis=1)
    return counts


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
        weights = self.matched_times / self.m
        return np.add(weights, 1.0, out=weights)  # in place; w + 1.0 is 1.0 + w


def arm_trees(dataset: ObservationalDataset) -> tuple[cKDTree, cKDTree]:
    """The kd-trees of the treated and the control rows, treated first."""
    x = dataset.covariates
    return _tree(x[dataset.treatment == 1]), _tree(x[dataset.treatment == 0])


def matching_structures(
    dataset: ObservationalDataset, m: int, trees: tuple[cKDTree, cKDTree] | None = None
) -> MatchStructures:
    """The match's per-unit reductions on ``trees = arm_trees(dataset)``: 2 tree
    builds, freed on return, unless the caller passes the trees to reuse them."""
    n1, n0 = dataset.n_treated, dataset.n_control
    _check_m(m, min(n1, n0), f"an arm size (treated {n1}, control {n0})")
    if trees is None:
        trees = arm_trees(dataset)
    x = dataset.covariates
    arms = [np.flatnonzero(dataset.treatment == t) for t in (1, 0)]
    matched_outcome = np.empty(dataset.n)
    matched_times = np.empty(dataset.n, dtype=np.int64)
    for a in (0, 1):
        # each arm queries in its own tree's leaf order, so a block is compact
        own, other = arms[a][trees[a].indices], arms[1 - a]
        y_other = dataset.outcome[other]
        counts = np.zeros(len(other), dtype=np.int64)
        for rows, _, local in _knn_blocks(trees[1 - a], m, x, own):
            matched_outcome[own[rows]] = y_other[local].mean(axis=1)
            counts += np.bincount(local.ravel(), minlength=len(other))
        matched_times[other] = counts
    return MatchStructures(matched_outcome, matched_times, m)
