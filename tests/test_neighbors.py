import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pava import neighbors
from pava.dataset import DissimilarityMatrix, PointSet
from pava.neighbors import build_index, default_k, k_distance_all, query_workers

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


class TestDefaultK:
    def test_known_values(self):
        assert default_k(600) == 7
        assert default_k(8000) == 9

    def test_clamped_at_small_n(self):
        assert default_k(3) == 2

    def test_at_least_one(self):
        assert default_k(2) == 1


class TestQueryWorkers:
    @pytest.mark.parametrize("value, workers", [
        (None, -1), ("", -1), ("0", -1), ("-3", -1), ("1", 1), ("2", 2),
    ])
    def test_valid_values(self, monkeypatch, value, workers):
        if value is None:
            monkeypatch.delenv("PAVA_THREADS", raising=False)
        else:
            monkeypatch.setenv("PAVA_THREADS", value)
        assert query_workers() == workers

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
            # A matrix gets the exact tree, so it has no lists to share.
            profile, lists = k_distance_all(DissimilarityMatrix(ref), k, k_graph)
            assert np.array_equal(profile.kdist, k_distance_all(DissimilarityMatrix(ref), k).kdist)
            assert lists is None

    def test_independent_of_worker_count(self, monkeypatch):
        rng = np.random.default_rng(27)
        p = PointSet(rng.normal(size=(300, 2)))
        results = []
        for threads in ("1", "2", "4", "0"):
            monkeypatch.setenv("PAVA_THREADS", threads)
            results.append(k_distance_all(p, 5).kdist)
        for other in results[1:]:
            assert np.array_equal(results[0], other)
