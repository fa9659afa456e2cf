import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from pava import neighbors
from pava.dataset import DissimilarityMatrix, PointSet
from pava.neighbors import build_index, default_k, k_distance_all, nearest_lists, query_workers

from oracles import brute_knn, euclidean_matrix, kdist_bruteforce, ksum_bruteforce


def _points_1d(values):
    return PointSet(np.asarray(values, dtype=float).reshape(-1, 1))


class TestBuildIndex:
    def test_two_points(self):
        p = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        idx = build_index(p)
        dists, nbrs = idx.query(p.coords[0], k=2)
        assert nbrs.tolist() == [0, 1]
        assert dists.tolist() == [0.0, 1.0]

    def test_matches_bruteforce_on_random_points(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(1000, 2))
        idx = build_index(PointSet(coords))
        for qi in rng.integers(0, 1000, size=20):
            dists, _ = idx.query(coords[qi], k=5)
            ref_d, _ = brute_knn(coords, coords[qi], 5)
            assert np.array_equal(dists, ref_d)

    def test_duplicates_returned_as_distinct_neighbors(self):
        p = PointSet(np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]))
        dists, nbrs = build_index(p).query(p.coords[0], k=2)
        assert dists.tolist() == [0.0, 0.0]
        assert set(nbrs.tolist()) == {0, 1}


def _knn_inputs():
    """(name, coords) per dimension: random points, an integer lattice (every
    distance ties with many others) and repeated points."""
    rng = np.random.default_rng(41)
    for d in (1, 2, 3, 8):
        side = {1: 300, 2: 17, 3: 7, 8: 2}[d]
        grid = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), axis=-1).reshape(-1, d)
        for name, coords in (("random", rng.normal(size=(300, d))),
                             ("lattice", rng.permutation(grid)[:300].astype(float)),
                             ("repeated", rng.normal(size=(25, d))[rng.integers(0, 25, 250)])):
            yield pytest.param(name, coords, id=f"{name}-{d}d")


def _check_lists(coords, count, dists, idx):
    """``nearest_lists``' (dists, idx) against the kd-tree query of every
    column with default (median) splits in input row order. Each row lists
    its own id, unless every listed distance is 0 (a point with at least
    ``count`` equal points), and no id twice."""
    n = len(coords)
    ref_d, ref_i = cKDTree(coords).query(coords, k=count)
    assert dists.tobytes() == ref_d.tobytes()
    own = np.any(idx == np.arange(n)[:, None], axis=1)
    assert np.all(own | (dists[:, -1] == 0))
    all_d, all_i = cKDTree(coords).query(coords, k=n)
    for r in range(n):
        assert len(set(idx[r].tolist())) == count
        # Each run of equal distances holds the reference's ids; the run that
        # reaches the last column may hold any of the ids at that distance.
        bounds = np.flatnonzero(np.diff(np.concatenate(([-1.0], dists[r], [np.inf]))))
        for a, b in zip(bounds[:-1], bounds[1:]):
            tied = all_i[r, all_d[r] == dists[r, a]]
            if b < count or len(tied) == b - a:
                assert sorted(idx[r, a:b].tolist()) == sorted(tied.tolist())
            else:
                assert set(idx[r, a:b].tolist()) <= set(tied.tolist())


class TestNearestLists:
    @pytest.mark.parametrize("name, coords", list(_knn_inputs()))
    def test_matches_the_reference_query(self, name, coords):
        for count in (2, 6, 12):
            dists, idx = nearest_lists(PointSet(coords), count)
            _check_lists(coords, count, dists, idx)
            for r in range(0, len(coords), 37):
                ref_d, _ = brute_knn(coords, coords[r], count)
                if name != "lattice" and coords.shape[1] == 8:
                    # The tree sums eight squares in another order than numpy;
                    # on the lattice every sum is an exact integer.
                    assert np.allclose(dists[r], ref_d, rtol=1e-14, atol=0)
                else:
                    assert dists[r].tobytes() == ref_d.tobytes()

    @pytest.mark.parametrize("name, coords", list(_knn_inputs()))
    def test_independent_of_worker_count(self, monkeypatch, name, coords):
        lists = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PAVA_THREADS", threads)
            lists.append(nearest_lists(PointSet(coords), 9))
        assert lists[0][0].tobytes() == lists[1][0].tobytes()
        assert lists[0][1].tobytes() == lists[1][1].tobytes()

    def test_queries_once_in_leaf_order(self, monkeypatch):
        coords = np.random.default_rng(43).normal(size=(400, 3))
        builds, trees, calls = [], [], []

        class SpyTree(cKDTree):
            def __init__(self, data, **kwargs):
                trees.append(kwargs)
                super().__init__(data, **kwargs)

            def query(self, x, k, **kwargs):
                calls.append((self, np.array(x), k))
                return super().query(x, k, **kwargs)

        def counting_build(p):
            builds.append(p)
            return build_index(p)

        monkeypatch.setattr(neighbors, "cKDTree", SpyTree)
        monkeypatch.setattr(neighbors, "build_index", counting_build)
        dists, idx = nearest_lists(PointSet(coords), 8)
        monkeypatch.undo()
        assert len(builds) == 1 and trees == [{"balanced_tree": False}]
        [(tree, rows, k)] = calls
        assert k == 8
        assert not np.array_equal(tree.indices, np.arange(400))
        assert rows.tobytes() == coords[tree.indices].tobytes()
        # Back in input row order: continuous coordinates leave no ties, so
        # the ids too equal the query in row order.
        ref_d, ref_i = cKDTree(coords).query(coords, k=8)
        assert dists.tobytes() == ref_d.tobytes()
        assert np.array_equal(idx, ref_i)


class TestDefaultK:
    def test_known_values(self):
        assert default_k(600) == 7
        assert default_k(8000) == 9

    def test_clamped_at_small_n(self):
        assert default_k(3) == 2

    def test_at_least_one(self):
        assert default_k(2) == 1


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestQueryWorkers:
    @pytest.mark.parametrize("value, workers", [
        (None, -1), ("", -1), ("0", -1), ("-3", -1), ("1", 1), ("2", 2),
    ])
    def test_valid_values(self, monkeypatch, value, workers):
        if value is None:
            monkeypatch.delenv("PAVA_THREADS", raising=False)
        else:
            monkeypatch.setenv("PAVA_THREADS", value)
        # A positive count is capped at the CPUs this process may use.
        assert query_workers() == min(workers, _usable_cpus())

    def test_capped_at_the_usable_cpus(self, monkeypatch):
        # Only the returned count is checked: no query runs with it.
        cpus = _usable_cpus()
        monkeypatch.setenv("PAVA_THREADS", str(cpus + 1))
        assert query_workers() == cpus
        monkeypatch.setenv("PAVA_THREADS", str(cpus))
        assert query_workers() == cpus

    @pytest.mark.parametrize("value", ["abc", "2.5", "two"])
    def test_malformed_value_is_error(self, monkeypatch, value):
        monkeypatch.setenv("PAVA_THREADS", value)
        with pytest.raises(ValueError, match=f"PAVA_THREADS.*{value}"):
            query_workers()


class TestKDistanceAll:
    def test_three_points_k1(self):
        prof = k_distance_all(_points_1d([0, 1, 3]), 1)
        assert prof.kdist.tolist() == [1.0, 1.0, 2.0]
        assert prof.ksum.tolist() == [1.0, 1.0, 2.0]

    def test_three_points_k2(self):
        prof = k_distance_all(_points_1d([0, 1, 3]), 2)
        assert prof.kdist.tolist() == [3.0, 2.0, 3.0]
        assert prof.ksum.tolist() == [4.0, 3.0, 5.0]

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k must be < N"):
            k_distance_all(_points_1d([0, 1, 3]), 3)

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(500, 2))
        ref = euclidean_matrix(coords)
        for k in (1, 3, 7):
            prof = k_distance_all(PointSet(coords), k)
            assert np.array_equal(prof.kdist, kdist_bruteforce(ref, k))
            assert np.array_equal(prof.ksum, ksum_bruteforce(ref, k))

    def test_matrix_mode_matches_point_mode(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(60, 3))
        matrix = DissimilarityMatrix(euclidean_matrix(coords))
        for k in (1, 5, 9):
            from_points = k_distance_all(PointSet(coords), k)
            from_matrix = k_distance_all(matrix, k)
            assert np.array_equal(from_points.kdist, from_matrix.kdist)
            assert from_points.ksum.tobytes() == from_matrix.ksum.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_point_set_and_its_matrix_give_the_same_bits(self, dim):
        # Below 8 dimensions cKDTree sums the squares in the plain formula's
        # order; from 8 up the k-distances may differ in the last bits.
        for seed in range(3):
            coords = np.random.default_rng(seed).normal(size=(300, dim))
            from_points = k_distance_all(PointSet(coords), 5)
            from_matrix = k_distance_all(DissimilarityMatrix(euclidean_matrix(coords)), 5)
            assert from_points.kdist.tobytes() == from_matrix.kdist.tobytes()
            assert from_points.ksum.tobytes() == from_matrix.ksum.tobytes()

    def test_matrix_k_distance_reads_row_blocks_in_place(self):
        # Integer dissimilarities tie often and off-diagonal zeros are
        # duplicates; the largest N spans more than one block of rows.
        rng = np.random.default_rng(29)
        matrices = [np.zeros((5, 5)), 1.0 - np.eye(7)]
        for n in (2, 3, 40, neighbors.MATRIX_BLOCK_ROWS + 45):
            upper = np.triu(rng.integers(0, 4, (n, n)).astype(float), 1)
            matrices.append(upper + upper.T)
        for values in matrices:
            matrix = DissimilarityMatrix(values)
            before = matrix.values.copy()
            for k in range(1, matrix.n):
                prof = k_distance_all(matrix, k)
                assert np.array_equal(prof.kdist, kdist_bruteforce(values, k))
                assert np.array_equal(prof.ksum, ksum_bruteforce(values, k))
            assert np.array_equal(matrix.values, before)

    def test_matrix_k_distance_makes_no_full_copy(self):
        n = 1500
        coords = np.random.default_rng(31).normal(size=(n, 2))
        matrix = DissimilarityMatrix(euclidean_matrix(coords))
        tracemalloc.start()
        try:
            k_distance_all(matrix, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_duplicates_give_zero(self):
        p = PointSet(np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0]]))
        assert k_distance_all(p, 1).kdist[0] == 0.0

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_k(self, k):
        rng = np.random.default_rng(77)
        p = PointSet(rng.normal(size=(40, 2)))
        lo = k_distance_all(p, k).kdist
        hi = k_distance_all(p, k + 1).kdist
        assert np.all(hi >= lo)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(21)
        coords = rng.normal(size=(120, 2))
        base = k_distance_all(PointSet(coords), 5).kdist
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            moved = coords @ rot.T + rng.uniform(-10, 10, 2)
            got = k_distance_all(PointSet(moved), 5).kdist
            assert np.allclose(got, base, rtol=1e-9)

    def test_neighbour_lists_share_the_query(self):
        rng = np.random.default_rng(23)
        coords = rng.normal(size=(80, 3))
        ref = euclidean_matrix(coords)
        for k, k_graph in ((3, 10), (10, 10), (14, 10)):
            alone = k_distance_all(PointSet(coords), k)
            profile, (dists, idx) = k_distance_all(PointSet(coords), k, k_graph)
            assert np.array_equal(profile.kdist, alone.kdist)
            assert dists.shape == idx.shape == (80, max(k, k_graph) + 1)
            assert np.array_equal(idx[:, 0], np.arange(80))
            assert np.array_equal(dists, ref[np.arange(80)[:, None], idx])
            assert np.array_equal(dists, np.sort(ref, axis=1)[:, :max(k, k_graph) + 1])
            # A matrix gets the exact tree, so its lists are the sorted row
            # prefixes its k-distances came from, without ids.
            profile, (dists, idx) = k_distance_all(DissimilarityMatrix(ref), k, k_graph)
            assert np.array_equal(profile.kdist, k_distance_all(DissimilarityMatrix(ref), k).kdist)
            assert np.array_equal(dists, np.sort(ref, axis=1)[:, :k + 1])
            assert idx is None

    def test_independent_of_worker_count(self, monkeypatch):
        rng = np.random.default_rng(27)
        p = PointSet(rng.normal(size=(300, 2)))
        results = []
        for threads in ("1", "2", "4", "0"):
            monkeypatch.setenv("PAVA_THREADS", threads)
            results.append(k_distance_all(p, 5).kdist)
        for other in results[1:]:
            assert np.array_equal(results[0], other)
