"""Mutation suite: each ``verify`` gap named here can fail.

A gap that cannot move when the code is wrong checks nothing.  Each fault
below is monkeypatched into the library one at a time, and the gap it names
must then exceed GAP_THRESHOLD on at least one of ten fixed ``verify``
instances, while the clean code keeps every judged gap below it.
"""

from dataclasses import replace

import numpy as np
import pytest

from rieszmatch import equivalence, lsif, matching, neighbors, riesz

SEEDS = equivalence.instance_seeds(0, 10)


def worst(gap: str) -> float:
    return max(equivalence.run_instance(seed)[gap] for seed in SEEDS)


def strict_ball(monkeypatch):
    """``<`` for ``<=`` in the ball count: an anchor's M-th nearest reference drops out."""

    def ball_counts(anchors, anchor_radii, points):
        counts = np.empty(len(anchors), dtype=np.int64)
        for rows in neighbors._row_blocks(len(anchors), len(points)):
            inside = neighbors._sq_dists(anchors[rows], points) < anchor_radii[rows, None]
            counts[rows] = inside.sum(axis=1)
        return counts

    monkeypatch.setattr(lsif, "_ball_counts", ball_counts)


def strict_cover(monkeypatch):
    """``<`` for ``<=`` in the covering count: a point's ball no longer covers its
    M-th nearest reference, which lies on the ball's boundary.

    Both Theorem-1 routes take their count from it, so ``theorem1_gap`` misses it
    (1.8e-15); the weight identity, whose other side is the match, does not."""

    def covering_counts(anchors, points, point_radii):
        counts = np.empty(len(anchors), dtype=np.int64)
        for rows in neighbors._row_blocks(len(anchors), len(points)):
            inside = neighbors._sq_dists(anchors[rows], points) < point_radii
            counts[rows] = inside.sum(axis=1)
        return counts

    monkeypatch.setattr(lsif, "_covering_counts", covering_counts)


def covering_by_anchor_radius(monkeypatch):
    """The covering count tests each point against the anchor's radius, not its own.

    Every caller counts the same anchors' balls, with their radii, just before
    it counts their covering points, so the mutant takes the radii from there.
    Both Theorem-1 routes then share the fault and ``theorem1_gap`` misses it
    (1.8e-15), until that gap gets a route that shares no count."""
    last = {}

    def ball_counts(anchors, anchor_radii, points):
        last["radii"] = anchor_radii
        return neighbors._ball_counts(anchors, anchor_radii, points)

    def covering_counts(anchors, points, point_radii):
        return neighbors._ball_counts(anchors, last["radii"], points)

    monkeypatch.setattr(lsif, "_ball_counts", ball_counts)
    monkeypatch.setattr(lsif, "_covering_counts", covering_counts)


def dr_weights_over_m_plus_one(monkeypatch):
    """``ate_dr_riesz`` alone weights by 1 + K/(M+1)."""
    real = matching.ate_dr_riesz

    def ate_dr_riesz(data, structures, outcome):
        return real(data, replace(structures, m=structures.m + 1), outcome)

    monkeypatch.setattr(equivalence, "ate_dr_riesz", ate_dr_riesz)


def joint_solve_without_ridge(monkeypatch):
    """``riesz_fit``'s joint solve drops lambda; the arm-wise solves keep it."""
    real = riesz.riesz_fit
    monkeypatch.setattr(equivalence, "riesz_fit", lambda data, phi, lam: real(data, phi, 0.0))


def arm_solves_without_ridge(monkeypatch):
    """``fit_weight_arm`` drops lambda; ``riesz_fit``'s joint solve keeps it."""
    real = riesz.fit_weight_arm

    def fit_weight_arm(data, arm, phi, lam):
        return real(data, arm, phi, 0.0)

    monkeypatch.setattr(equivalence, "fit_weight_arm", fit_weight_arm)


def test_clean_code_keeps_every_gap():
    judged = [equivalence.max_judged_gap(equivalence.run_instance(seed)) for seed in SEEDS]
    assert max(judged) <= equivalence.GAP_THRESHOLD


@pytest.mark.parametrize(
    "fault, gap",
    [
        (strict_ball, "weight_identity_gap"),
        (strict_cover, "weight_identity_gap"),
        (covering_by_anchor_radius, "weight_identity_gap"),
        (dr_weights_over_m_plus_one, "dr_gap"),
        (joint_solve_without_ridge, "separability_rel_gap"),
        (arm_solves_without_ridge, "separability_rel_gap"),
    ],
)
def test_fault_moves_its_gap(monkeypatch, fault, gap):
    fault(monkeypatch)
    # a faulty count can leave an anchor an empty ball, and its LSIF fit divides by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        assert worst(gap) > equivalence.GAP_THRESHOLD
