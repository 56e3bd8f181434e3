import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_knn,
    brute_force_match_sets,
    brute_force_sq_knn,
    library_match_sets,
    matched_times_at,
    query_indices,
)
from rieszmatch import TwoSampleData, matching_structures
from rieszmatch import generate, neighbors
from rieszmatch.dataset import ObservationalDataset
from rieszmatch.neighbors import (
    _knn_blocks,
    _mth_sq_radius_batch,
    _row_sort,
    _sq_dists,
    _tree,
    arm_trees,
)

_DEFAULT_BLOCK_ENTRIES = neighbors._BLOCK_ENTRIES


def _assert_reduced(structures, data, sets):
    """The match's per-unit reductions equal those of the (n, M) match sets."""
    np.testing.assert_array_equal(structures.matched_outcome, data.outcome[sets].mean(axis=1))
    np.testing.assert_array_equal(
        structures.matched_times, np.bincount(sets.ravel(), minlength=data.n)
    )


def _assert_reduced_at_every_block_size(monkeypatch, data, m, sets):
    # one row per block, an uneven last block, the library default
    for entries in (1, 997, _DEFAULT_BLOCK_ENTRIES):
        with monkeypatch.context() as patch:
            patch.setattr(neighbors, "_BLOCK_ENTRIES", entries)
            _assert_reduced(matching_structures(data, m), data, sets)


class TestKnn:
    def test_single_candidate(self):
        np.testing.assert_array_equal(query_indices(_tree([5.0]), 1, [[3.0]])[0], [0])

    def test_line_two_nearest(self):
        tree = _tree([0.0, 1.0, 3.0])
        np.testing.assert_array_equal(query_indices(tree, 2, [[0.9]])[0], [1, 0])

    def test_exact_tie_breaks_by_index(self):
        np.testing.assert_array_equal(query_indices(_tree([0.0, 2.0]), 1, [[1.0]])[0], [0])

    def test_tie_break_with_many_duplicates(self):
        # four copies of the same point: order must be 0,1,2,3
        tree = _tree([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(query_indices(tree, 3, [[0.0]])[0], [0, 1, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            query_indices(_tree(np.zeros((4, 2))), 1, [1.0, 2.0, 3.0])

    def test_m_exceeds_reference(self):
        # the tree holds no M: an M out of range is refused at the query
        tree = _tree([0.0, 1.0])
        with pytest.raises(ValueError, match="^m=3 exceeds the reference size 2$"):
            query_indices(tree, 3, [[0.0]])
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            query_indices(tree, 0, [[0.0]])
        np.testing.assert_array_equal(query_indices(tree, 2, [[0.9]])[0], [1, 0])


def _knn_answer(tree, m, queries):
    """Every row of ``_knn_blocks`` at one M: (squared distances, indices)."""
    blocks = list(_knn_blocks(tree, m, queries))
    return np.concatenate([b[1] for b in blocks]), np.concatenate([b[2] for b in blocks])


class TestOneTreeEveryM:
    """A tree holds no M, so one tree answers every M as a tree built for it."""

    @pytest.mark.parametrize("case", ["continuous", "grid", "duplicates"])
    def test_one_tree_equals_fresh_trees_and_brute_force(self, case):
        rng = np.random.default_rng(41)
        if case == "continuous":
            ref, queries = rng.normal(size=(60, 3)), rng.normal(size=(40, 3))
        elif case == "grid":  # 4 levels per coordinate: most distances tie
            ref = rng.integers(0, 4, size=(60, 2)).astype(float)
            queries = rng.integers(0, 4, size=(40, 2)).astype(float)
        else:  # 60 draws of 25 distinct rows, queried on and off those rows
            ref = rng.normal(size=(25, 2))[rng.integers(0, 25, size=60)]
            queries = np.vstack([ref[::3], rng.normal(size=(20, 2))])
        shared = _tree(ref)
        for m in (1, 3, len(ref)):
            sq, idx = _knn_answer(shared, m, queries)
            fresh_sq, fresh_idx = _knn_answer(_tree(ref), m, queries)
            want_sq, want_idx = brute_force_sq_knn(queries, ref, m)
            np.testing.assert_array_equal(sq.view(np.uint64), fresh_sq.view(np.uint64))
            np.testing.assert_array_equal(idx, fresh_idx)
            np.testing.assert_array_equal(sq.view(np.uint64), want_sq.view(np.uint64))
            np.testing.assert_array_equal(idx, want_idx)


class TestMthRadius:
    def test_line_instance(self):
        tree = _tree([0.0, 1.0, 3.0])
        assert np.sqrt(_mth_sq_radius_batch(tree, 1, [[0.9]])[0]) == pytest.approx(0.1, abs=1e-15)

    def test_zero_at_reference_point(self):
        assert np.sqrt(_mth_sq_radius_batch(_tree([4.2]), 1, [[4.2]])[0]) == 0.0

    def test_third_neighbor(self):
        assert np.sqrt(_mth_sq_radius_batch(_tree([0.0, 1.0, 3.0]), 3, [[0.0]])[0]) == 3.0


def covers(reference, m, x, z):
    """Whether the M-th nearest-reference radius of z covers x: the
    matched-times count at x of the one-point numerator sample {z}."""
    data = TwoSampleData(denominator=reference, numerator=[z])
    return bool(matched_times_at(data, m, [x])[0])


class TestCatchment:
    def test_boundary_inclusive(self):
        # distance exactly equal to the radius counts as inside
        assert covers([0.0, 1.0, 2.0, 3.0], 1, x=[0.0], z=[0.4]) is True

    def test_x_equals_z(self):
        assert covers([0.0, 1.0], 1, [0.7], [0.7]) is True

    def test_far_point_outside(self):
        assert covers([0.0, 1.0, 2.0, 3.0], 1, x=[0.0], z=[2.6]) is False

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_m(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=(12, 2))
        x = rng.normal(size=2)
        z = rng.normal(size=2)
        previous = False
        for m in range(1, 13):
            inside = covers(ref, m, x, z)
            assert inside or not previous
            previous = inside


class TestMatchedTimes:
    def test_running_instance(self, running_two_sample):
        data = running_two_sample
        counts = matched_times_at(data, 1, data.denominator)
        np.testing.assert_array_equal(counts, [1, 0, 0, 1])

    def test_coincident_singletons(self):
        data = TwoSampleData(denominator=[3.3], numerator=[3.3])
        np.testing.assert_array_equal(matched_times_at(data, 1, data.denominator), [1])

    def test_two_far_denominators(self):
        data = TwoSampleData(denominator=[0.0, 10.0], numerator=[0.1, 0.2])
        counts = matched_times_at(data, 1, data.denominator)
        np.testing.assert_array_equal(counts, [2, 0])

    def test_m_exceeds_denominator(self, running_two_sample):
        with pytest.raises(ValueError, match="exceeds"):
            matched_times_at(running_two_sample, 5, running_two_sample.denominator)

    def test_agrees_with_knn_membership(self):
        # catchment formulation vs direct M-NN membership, distinct distances
        rng = np.random.default_rng(77)
        for _ in range(20):
            n0, n1, d = rng.integers(4, 40), rng.integers(3, 40), rng.integers(1, 4)
            m = int(rng.integers(1, min(n0, 5) + 1))
            data = TwoSampleData(
                denominator=rng.normal(size=(n0, d)), numerator=rng.normal(size=(n1, d))
            )
            counts = matched_times_at(data, m, data.denominator)
            tree = _tree(data.denominator)
            direct = np.bincount(query_indices(tree, m, data.numerator).ravel(), minlength=n0)
            np.testing.assert_array_equal(counts, direct)
            assert counts.sum() == n1 * m

    def test_at_arbitrary_points(self, running_two_sample):
        counts = matched_times_at(running_two_sample, 1, [[0.0], [5.0]])
        np.testing.assert_array_equal(counts, [1, 0])


class TestMatchingStructures:
    def test_four_unit_instance(self, monkeypatch, four_unit_dataset):
        structures = matching_structures(four_unit_dataset, 1)
        np.testing.assert_array_equal(structures.matched_times, [1, 1, 1, 1])
        np.testing.assert_array_equal(structures.matched_outcome, [0.0, 2.0, 1.0, 3.0])
        sets = library_match_sets(four_unit_dataset, 1)
        np.testing.assert_array_equal(sets[:, 0], [2, 3, 0, 1])
        np.testing.assert_array_equal(sets, brute_force_match_sets(four_unit_dataset, 1))
        _assert_reduced_at_every_block_size(monkeypatch, four_unit_dataset, 1, sets)

    def test_saturation_when_m_equals_control_arm(self, monkeypatch):
        data = ObservationalDataset(
            covariates=np.array([[0.0], [5.0], [7.0], [9.0], [1.0], [2.0], [3.0]]),
            treatment=np.array([1, 1, 1, 1, 0, 0, 0]),
            outcome=np.zeros(7),
        )
        structures = matching_structures(data, 3)
        # with m equal to the control count, every treated unit matches all
        # controls, so each control is matched n_treated times
        np.testing.assert_array_equal(structures.matched_times[4:], [4, 4, 4])

        # the same in d=17 with ties at the M-th distance, where every row
        # widens to all n_ref candidates
        rng = np.random.default_rng(5)
        data = ObservationalDataset(
            covariates=rng.integers(0, 2, size=(40, 17)).astype(float),
            treatment=np.array([1] * 34 + [0] * 6),
            outcome=rng.standard_normal(40),
        )
        structures = matching_structures(data, 6)
        np.testing.assert_array_equal(structures.matched_times[34:], [34] * 6)
        sets = brute_force_match_sets(data, 6)
        np.testing.assert_array_equal(library_match_sets(data, 6), sets)
        _assert_reduced_at_every_block_size(monkeypatch, data, 6, sets)

    def test_lone_treated_unit(self):
        data = ObservationalDataset(
            covariates=np.array([[0.0], [1.0], [2.0], [3.0]]),
            treatment=np.array([1, 0, 0, 0]),
            outcome=np.zeros(4),
        )
        structures = matching_structures(data, 1)
        np.testing.assert_array_equal(structures.matched_times, [3, 1, 0, 0])

    def test_overflowing_squared_distance_is_an_error(self, monkeypatch):
        # at 1e153 the largest squared distance, (9e153)^2, is still finite; at
        # 7e153 and 1e200 some overflow, and the tree reports them as missing
        def line(scale):
            return ObservationalDataset(
                covariates=np.array([1.0, -1.0, 3.0, -2.0, 5.0, -4.0]) * scale,
                treatment=np.array([0, 1, 0, 1, 0, 1]),
                outcome=np.arange(6.0),
            )

        sets = brute_force_match_sets(line(1e153), 1)
        _assert_reduced_at_every_block_size(monkeypatch, line(1e153), 1, sets)
        for scale in (7e153, 1e200):
            with pytest.raises(ValueError, match="^covariates too far apart: a squared"):
                matching_structures(line(scale), 1)

    def test_m_exceeds_arm(self, monkeypatch, four_unit_dataset):
        # an M out of range is refused before any tree is built
        built = []

        class CountingTree(neighbors.cKDTree):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(neighbors, "cKDTree", CountingTree)
        with pytest.raises(ValueError, match=r"^m=3 exceeds an arm size \(treated 2, control 2\)$"):
            matching_structures(four_unit_dataset, 3)
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            matching_structures(four_unit_dataset, 0)
        assert built == []

    def test_trees_freed_on_return_unless_passed(self, monkeypatch):
        # the match builds each arm's tree once and keeps only per-unit
        # reductions; arm trees its caller built stay the caller's and give
        # the same match at every M
        live, built = weakref.WeakSet(), []

        class TrackedTree(neighbors.cKDTree):
            def __init__(self, data, *args, **kwargs):
                super().__init__(data, *args, **kwargs)
                live.add(self)
                built.append(len(data))

        monkeypatch.setattr(neighbors, "cKDTree", TrackedTree)
        data = generate(500, seed=3)
        structures = matching_structures(data, 4)
        assert len(live) == 0
        assert built == [data.n_treated, data.n_control]
        trees = arm_trees(data)
        assert [len(tree.data) for tree in trees] == [data.n_treated, data.n_control]
        for m, fresh in ((4, structures), (5, matching_structures(data, 5))):
            reused = matching_structures(data, m, trees)
            assert reused.m == m
            np.testing.assert_array_equal(reused.matched_outcome, fresh.matched_outcome)
            np.testing.assert_array_equal(reused.matched_times, fresh.matched_times)
        assert len(live) == 2
        assert len(built) == 6
        # the reused trees refuse an M out of range as fresh ones do
        small = min(data.n_treated, data.n_control)
        arm_size = rf"^m={small + 1} exceeds an arm size \(treated {data.n_treated}, control "
        with pytest.raises(ValueError, match=arm_size):
            matching_structures(data, small + 1, trees)
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            matching_structures(data, 0, trees)
        for tree in trees:
            with pytest.raises(ValueError, match=f"^m={tree.n + 1} exceeds the reference size"):
                query_indices(tree, tree.n + 1, data.covariates)
            with pytest.raises(ValueError, match="^m must be >= 1$"):
                query_indices(tree, 0, data.covariates)
        assert len(built) == 6

    def test_arm_trees_own_their_rows(self):
        # each tree keeps a read-only copy of its rows; the caller's arrays
        # stay writable, and writing to them changes no query
        data = generate(2_000, seed=0)
        for tree, t in zip(arm_trees(data), (1, 0)):
            assert not tree.data.flags.writeable
            rows = data.covariates[data.treatment == t]
            np.testing.assert_array_equal(tree.data, rows)
        points = np.random.default_rng(0).normal(size=(10, 2))
        kept = points.copy()
        tree = _tree(points)
        queries = np.random.default_rng(1).normal(size=(6, 2))
        before = query_indices(tree, 2, queries)
        assert points.flags.writeable
        points[0, 0] = 1.0
        points[1:] = 0.0
        np.testing.assert_array_equal(tree.data, kept)
        np.testing.assert_array_equal(query_indices(tree, 2, queries), before)
        # a 1-d input is stored as a column copy of the caller's array
        line = np.array([0.0, 1.0, 3.0])
        tree = _tree(line)
        line[0] = 10.0
        np.testing.assert_array_equal(tree.data[:, 0], [0.0, 1.0, 3.0])
        np.testing.assert_array_equal(query_indices(tree, 1, [[9.0]])[0], [2])
        two = TwoSampleData(denominator=np.arange(5.0), numerator=np.arange(3.0))
        assert two.denominator.shape == (5, 1)
        np.testing.assert_array_equal(_tree(two.denominator).data[:, 0], np.arange(5.0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_count_conservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        while True:
            treat = (rng.random(n) < 0.5).astype(int)
            if 2 <= treat.sum() <= n - 2:
                break
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=np.zeros(n))
        m = int(rng.integers(1, min(data.n_treated, data.n_control) + 1))
        structures = matching_structures(data, m)
        treated = data.treatment == 1
        assert structures.matched_times[treated].sum() == m * data.n_control
        assert structures.matched_times[~treated].sum() == m * data.n_treated

    def test_tie_heavy_grid_equals_brute_force(self, monkeypatch):
        # 16 grid cells hold ~150 units per arm each, so every query widens
        # the kd-tree candidate set and every row is re-sorted on index.
        rng = np.random.default_rng(11)
        n, m = 5000, 20
        x = rng.integers(0, 4, size=(n, 2)).astype(float)
        treat = (rng.random(n) < 0.5).astype(int)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=rng.standard_normal(n))
        expected = brute_force_match_sets(data, m)
        np.testing.assert_array_equal(library_match_sets(data, m), expected)
        _assert_reduced_at_every_block_size(monkeypatch, data, m, expected)


def _blocked_case(name):
    """Covariates and treatment for the blocked-query tests (n=400, M=5)."""
    rng = np.random.default_rng(31)
    n = 400
    treat = np.zeros(n, dtype=int)
    treat[rng.permutation(n)[:170]] = 1
    if name == "grid":  # 4x4 cells of ~12 units per arm: every block widens
        return rng.integers(0, 4, size=(n, 2)).astype(float), treat
    if name == "weighted":  # the distance weighted (0.5, 2, 7), as a rescaling
        return rng.normal(size=(n, 3)) * np.sqrt([0.5, 2.0, 7.0]), treat
    if name == "d17":  # above d=16 the tree's sums may differ in the last bit
        return rng.normal(size=(n, 17)), treat
    if name == "d17grid":  # the same with ties at the M-th distance
        return rng.integers(0, 3, size=(n, 17)).astype(float), treat
    return rng.normal(size=(n, 2)), treat


class TestBlockedQueries:
    @pytest.mark.parametrize("entries", [1, 997])  # one row per block; an uneven last block
    @pytest.mark.parametrize("case", ["continuous", "grid", "weighted", "d17", "d17grid"])
    def test_blocks_equal_one_pass_and_brute_force(self, monkeypatch, case, entries):
        m = 5
        x, treat = _blocked_case(case)
        # continuous outcomes: two different match sets give different means
        outcome = np.random.default_rng(7).standard_normal(len(x))
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=outcome)
        treated, control = np.flatnonzero(treat == 1), np.flatnonzero(treat == 0)
        tree = _tree(x[control])
        whole = matching_structures(data, m)
        whole_sets = library_match_sets(data, m)
        whole_radii = _mth_sq_radius_batch(tree, m, x[treated])
        whole_first = query_indices(tree, m, x[treated[:1]])[0]

        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", entries)
        blocked = matching_structures(data, m)
        np.testing.assert_array_equal(library_match_sets(data, m), whole_sets)
        np.testing.assert_array_equal(blocked.matched_outcome, whole.matched_outcome)
        np.testing.assert_array_equal(blocked.matched_times, whole.matched_times)
        np.testing.assert_array_equal(_mth_sq_radius_batch(tree, m, x[treated]), whole_radii)
        np.testing.assert_array_equal(query_indices(tree, m, x[treated[:1]])[0], whole_first)

        expected = brute_force_match_sets(data, m)
        sq, _ = brute_force_sq_knn(x[treated], x[control], m)
        np.testing.assert_array_equal(whole_radii, sq[:, m - 1])
        np.testing.assert_array_equal(whole_sets, expected)
        np.testing.assert_array_equal(control[whole_first], expected[treated[0]])
        _assert_reduced(whole, data, expected)
        _assert_reduced(blocked, data, expected)

    def test_match_memory_stays_near_its_output(self, monkeypatch):
        # the (n, M) match sets would grow with M; reducing each row block as
        # it arrives keeps the peak at a few n-vectors for every M
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", 1 << 12)
        data = generate(20_000, seed=0)
        for m in (30, 120):
            tracemalloc.start()
            try:
                matching_structures(data, m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 12 * data.n * 8, (m, peak)

    def test_default_blocks_bound_match_memory(self):
        # leaf-ordered queries in blocks of _BLOCK_ENTRIES candidates at the
        # library default: 11.2 MB traced with 2^18-entry blocks in file order
        data = generate(20_000, seed=0)
        tracemalloc.start()
        try:
            matching_structures(data, 55)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, peak

    def test_row_result_does_not_depend_on_query_order(self):
        # shuffling the units reorders every arm's queries and its tree's
        # leaves; each unit's reductions must follow it bit for bit
        rng = np.random.default_rng(17)
        n, m = 3000, 12
        x = rng.normal(size=(n, 3))
        treat = (rng.random(n) < 0.4).astype(int)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=rng.standard_normal(n))
        perm = rng.permutation(n)
        shuffled = ObservationalDataset(
            covariates=x[perm], treatment=treat[perm], outcome=data.outcome[perm]
        )
        whole, moved = matching_structures(data, m), matching_structures(shuffled, m)
        np.testing.assert_array_equal(moved.matched_outcome, whole.matched_outcome[perm])
        np.testing.assert_array_equal(moved.matched_times, whole.matched_times[perm])

    def test_tied_match_memory_stays_bounded(self):
        # 8 cells of ~625 units per arm: every row widens past its tie on its
        # own; re-querying whole blocks at the widened k would take ~600 MB
        rng = np.random.default_rng(13)
        n, m = 10_000, 20
        x = rng.integers(0, 2, size=(n, 3)).astype(float)
        treat = (rng.random(n) < 0.5).astype(int)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=rng.standard_normal(n))
        tracemalloc.start()
        try:
            structures = matching_structures(data, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        _assert_reduced(structures, data, brute_force_match_sets(data, m))

    def test_each_distinct_point_widens_once_per_block(self, monkeypatch):
        # one binary covariate: every row ties with about half its opposite arm
        # and widens, but each widened k sends each distinct point to the tree
        # once per first-level block, not once per row
        rng = np.random.default_rng(23)
        n, m = 4000, 1
        x = rng.integers(0, 2, size=(n, 1)).astype(float)
        treat = (rng.random(n) < 0.5).astype(int)
        data = ObservationalDataset(covariates=x, treatment=treat, outcome=rng.standard_normal(n))
        rows_at_k = {}
        real_sq_dists = neighbors._sq_dists

        def counting_sq_dists(a, b, idx=None):
            if idx is not None:
                rows_at_k[idx.shape[1]] = rows_at_k.get(idx.shape[1], 0) + len(a)
            return real_sq_dists(a, b, idx)

        monkeypatch.setattr(neighbors, "_sq_dists", counting_sq_dists)
        structures = matching_structures(data, m)
        first_blocks = sum(
            len(list(neighbors._row_blocks(size, m + 1)))
            for size in (data.n_treated, data.n_control)
        )
        widened = {k: rows for k, rows in rows_at_k.items() if k > m + 1}
        assert widened
        assert max(widened.values()) <= len(np.unique(x, axis=0)) * first_blocks, widened
        _assert_reduced(structures, data, brute_force_match_sets(data, m))

    @pytest.mark.parametrize("entries", [1, 997, _DEFAULT_BLOCK_ENTRIES])
    def test_signed_zeros_widen_as_one_point(self, monkeypatch, entries):
        # widening merges -0.0 with 0.0: their squares are equal and the tree
        # walks them alike, so the merge changes no bit
        rng = np.random.default_rng(29)
        levels = np.array([-0.0, 0.0, 1.0])
        ref = levels[rng.integers(0, 3, size=(60, 1))]
        queries = levels[rng.integers(0, 3, size=(40, 1))]
        zero_signs = np.signbit(queries[queries == 0])
        assert zero_signs.any() and not zero_signs.all()
        monkeypatch.setattr(neighbors, "_BLOCK_ENTRIES", entries)
        sq, idx = _knn_answer(_tree(ref), 5, queries)
        want_sq, want_idx = brute_force_sq_knn(queries, ref, 5)
        np.testing.assert_array_equal(sq.view(np.uint64), want_sq.view(np.uint64))
        np.testing.assert_array_equal(idx, want_idx)


def _lexsort_rows(sq, idx):
    """Oracle: sort each row on its own by (squared distance, index)."""
    out_sq, out_idx = np.empty_like(sq), np.empty_like(idx)
    for r in range(len(sq)):
        order = np.lexsort((idx[r], sq[r]))
        out_sq[r], out_idx[r] = sq[r][order], idx[r][order]
    return out_sq, out_idx


class TestRowSort:
    def _check(self, sq, idx):
        sq_before, idx_before = sq.copy(), idx.copy()
        got_sq, got_idx = _row_sort(sq, idx)
        want_sq, want_idx = _lexsort_rows(sq_before, idx_before)
        np.testing.assert_array_equal(got_sq, want_sq)
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(sq, sq_before)
        np.testing.assert_array_equal(idx, idx_before)
        return got_sq, got_idx

    def test_mixed_batch(self):
        rng = np.random.default_rng(3)
        in_order = np.sort(rng.random((4, 7)), axis=1)
        reversed_rows = in_order[:, ::-1]
        ties = np.sort(rng.integers(0, 3, (4, 7)), axis=1).astype(float)
        sq = np.concatenate([in_order, reversed_rows, ties, ties])
        idx = np.stack([rng.permutation(50)[:7] for _ in range(len(sq))])
        idx[-4:] = np.sort(idx[-4:], axis=1)  # tied rows already in index order
        _, got_idx = self._check(sq, idx)
        np.testing.assert_array_equal(got_idx[:4], idx[:4])
        np.testing.assert_array_equal(got_idx[-4:], idx[-4:])

    def test_all_equal_rows(self):
        rng = np.random.default_rng(4)
        sq = np.full((5, 6), 2.5)
        idx = np.stack([rng.permutation(6) for _ in range(5)])
        self._check(sq, idx)

    def test_single_column(self):
        sq = np.array([[0.5], [0.0], [3.0]])
        idx = np.array([[4], [0], [2]])
        self._check(sq, idx)

    def test_all_broken_rows_sort_without_copies(self):
        # on tied data every row breaks: one sort of the whole block, with no
        # copy of sq and idx to patch (5.2x the block's bytes when copied)
        rng = np.random.default_rng(5)
        sq = np.sort(rng.random((2000, 64)), axis=1)[:, ::-1].copy()
        idx = np.stack([rng.permutation(10_000)[:64] for _ in range(2000)])
        tracemalloc.start()
        try:
            _row_sort(sq, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * sq.nbytes, peak / sq.nbytes
        self._check(sq, idx)

    def test_no_row_out_of_order_returns_input(self):
        sq = np.array([[0.0, 1.0, 1.0, 4.0], [2.0, 2.0, 2.0, 2.0]])
        idx = np.array([[7, 1, 3, 0], [0, 2, 5, 9]])
        got_sq, got_idx = _row_sort(sq, idx)
        np.testing.assert_array_equal(got_sq, sq)
        np.testing.assert_array_equal(got_idx, idx)


class TestSpatialIndexOracle:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_tree_equals_brute_force_random(self, weighted):
        rng = np.random.default_rng(123 if weighted else 321)
        for d_max in [5] * 25 + [20] * 25:
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, d_max + 1))
            m = int(rng.integers(1, min(n, 8) + 1))
            # a weighted distance is the plain one on rescaled points
            scale = np.sqrt(rng.uniform(0.5, 3.0, size=d)) if weighted else 1.0
            ref = rng.normal(size=(n, d)) * scale
            tree = _tree(ref)
            for _ in range(5):
                q = rng.normal(size=(1, d)) * scale
                expected = brute_force_knn(ref, q, m)
                np.testing.assert_array_equal(query_indices(tree, m, q)[0], expected)

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=2,
            max_size=24,
        ),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_tree_equals_brute_force_with_ties(self, points, query, m):
        # small integer grid: exact ties and duplicate points are common
        ref = np.array(points, dtype=float) / 2.0
        m = min(m, len(ref))
        q = np.array([query], dtype=float) / 2.0
        expected = brute_force_knn(ref, q, m)
        np.testing.assert_array_equal(query_indices(_tree(ref), m, q)[0], expected)

    def test_high_dimension_equals_brute_force(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(40, 20))
        tree = _tree(ref)
        for q in rng.normal(size=(10, 1, 20)):
            expected = brute_force_knn(ref, q, 3)
            np.testing.assert_array_equal(query_indices(tree, 3, q)[0], expected)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("d", [8, 12, 16, 17, 20])
    def test_tree_obeys_tie_rule_on_permuted_coordinates(self, d, m):
        # Every reference permutes one coordinate vector, so all lie at one
        # distance from the origin up to rounding.  From d=8 on the kd-tree
        # sums squares in another order than the library and may rank them
        # differently in the last bit; the library's own sums must decide.
        rng = np.random.default_rng(d)
        base = np.resize([0.1, 0.2, 0.3, 0.7, 1.1, 1e-3, 3.3], d)
        ref = np.unique([rng.permutation(base) for _ in range(300)], axis=0)
        q = np.zeros((1, d))
        expected = brute_force_knn(ref, q, m)
        np.testing.assert_array_equal(query_indices(_tree(ref), m, q)[0], expected)

    def test_batch_matches_single_queries(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(30, 3))
        tree = _tree(ref)
        queries = rng.normal(size=(10, 3))
        batch_idx = np.concatenate([idx for _, _, idx in _knn_blocks(tree, 4, queries)])
        for row, q in zip(batch_idx, queries[:, None]):
            np.testing.assert_array_equal(row, query_indices(tree, 4, q)[0])


def _accumulated_sq_dists(a, b):
    # the textbook per-coordinate sum: zeros, then out += (a - b)^2
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        out += diff * diff
    return out


@pytest.mark.parametrize("d", [1, 2, 8, 17])
def test_sq_dists_forms_agree_bit_for_bit(d):
    # the dense and the gathered form of the one kernel are the textbook sum
    # bit for bit: b - a squares to (a - b)^2 and the first square is 0 + s
    rng = np.random.default_rng(d)
    a, b = rng.normal(size=(7, d)), rng.normal(size=(9, d))
    a[0], b[0] = -0.0, 0.0
    b[2] = b[1]  # duplicate rows
    a[1] = b[3]  # a query on a reference
    a[2, 0], b[4, 0] = 1.3e154, -1.3e154  # the square overflows
    a[3], b[5] = 6e153, -6e153  # finite squares; from d = 2 on their sum overflows
    a[4] = 1e154 * rng.normal(size=d)
    idx = rng.integers(0, len(b), size=(len(a), 12))  # 12 > 9: indices repeat
    with np.errstate(over="ignore"):
        expected = _accumulated_sq_dists(a, b)
        dense, gathered = _sq_dists(a, b), _sq_dists(a, b, idx)
    assert np.isinf(expected).any() and expected[0, 0] == 0.0
    np.testing.assert_array_equal(dense.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(
        gathered.view(np.uint64), np.take_along_axis(expected, idx, axis=1).view(np.uint64)
    )


class TestMetric:
    """A weighted Euclidean distance is the plain one on points rescaled by sqrt(w)."""

    def test_weighted_changes_neighbors(self):
        ref = np.array([[1.0, 0.0], [0.0, 1.2]])
        q = np.zeros((1, 2))
        assert query_indices(_tree(ref), 1, q)[0][0] == 0
        heavy_x = np.sqrt([10.0, 0.1])
        assert query_indices(_tree(ref * heavy_x), 1, q * heavy_x)[0][0] == 1

    def test_distance_properties(self):
        scale = np.sqrt([2.0, 0.5])
        a = np.array([[0.3, -1.0]]) * scale
        b = np.array([[1.5, 0.7]]) * scale

        def distance(x, z):
            return np.sqrt(_sq_dists(x, z)[0, 0])

        assert distance(a, b) == distance(b, a)
        assert distance(a, a) == 0.0
        assert distance(a, b) > 0
