import tracemalloc

import numpy as np
import pytest

from pava.dataset import (
    DissimilarityMatrix,
    LabeledPartition,
    PointSet,
    generate_synthetic,
    load_labels_csv,
    load_matrix_csv,
    load_points_csv,
    pairwise_distance,
    save_labels_csv,
    save_points_csv,
)

from oracles import euclidean_matrix


class TestPointSet:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            PointSet(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2"):
            PointSet(np.array([[0.0, 0.0]]))

    def test_shape_properties(self):
        p = PointSet(np.zeros((5, 3)))
        assert p.n == 5 and p.dim == 3


class TestDissimilarityMatrix:
    def test_symmetrizes_tiny_asymmetry(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        d = DissimilarityMatrix(m)
        assert np.array_equal(d.values, d.values.T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            DissimilarityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DissimilarityMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            DissimilarityMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_rejects_fewer_than_two_objects(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match=f"need at least 2 objects, got {n}"):
                DissimilarityMatrix(np.zeros((n, n)))

    def test_canonical_values_use_one_n_by_n_buffer(self):
        # Separate temporaries for the difference, its absolute value and the
        # symmetric sum peaked at about 2 * N^2 * 8 bytes.
        n = 1500
        rng = np.random.default_rng(3)
        values = euclidean_matrix(rng.normal(size=(n, 2)))
        values *= 1.0 + rng.uniform(-1e-12, 1e-12, size=(n, n))
        values[np.diag_indices(n)] = rng.uniform(0.0, 1e-12, size=n)
        before = values.copy()
        tracemalloc.start()
        try:
            d = DissimilarityMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8
        assert np.array_equal(values, before)
        want = (before + before.T) / 2.0
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(d.values, want)


class TestLoadPointsCsv:
    def test_plain_three_rows(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,0\n1,0\n0,1\n")
        points, labels = load_points_csv(f)
        assert points.n == 3 and points.dim == 2
        assert labels is None

    def test_label_column_remapped_by_first_appearance(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,0,1\n1,0,1\n0,1,2\n")
        points, labels = load_points_csv(f, has_label_column=True)
        assert points.n == 3 and points.dim == 2
        assert labels.labels.tolist() == [1, 1, 2]

    def test_parse_error_names_row_and_column(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,abc\n1,2\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_points_csv(f)

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("x,y\n0,0\n1,1\n")
        points, _ = load_points_csv(f)
        assert points.n == 2

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,0\n1\n")
        with pytest.raises(ValueError, match="row 2"):
            load_points_csv(f)

    def test_single_row_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,0\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_points_csv(f)

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,inf\n1,2\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_points_csv(f)


class TestLoadMatrixCsv:
    def test_valid_two_by_two(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1\n1,0\n")
        m = load_matrix_csv(f)
        assert m.n == 2
        assert m.values[0, 1] == 1.0

    def test_asymmetry_error(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1\n2,0\n")
        with pytest.raises(ValueError, match="symmetric"):
            load_matrix_csv(f)

    def test_non_square_error(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,1,2\n1,0\n")
        with pytest.raises(ValueError, match="square"):
            load_matrix_csv(f)


class TestGenerateSynthetic:
    def test_twomoons_counts(self):
        points, labels = generate_synthetic("twomoons", 600, seed=7)
        assert points.n == 600
        assert labels.m == 2
        assert np.count_nonzero(labels.labels == 1) == 300
        assert np.count_nonzero(labels.labels == 2) == 300

    def test_twomoons_noise_counts(self):
        points, labels = generate_synthetic("twomoons_noise", 700, seed=7)
        assert points.n == 700
        assert labels.m == 2

    def test_twomoons_bridge_counts(self):
        points, labels = generate_synthetic("twomoons_bridge", 620, seed=7)
        assert points.n == 620
        assert labels.m == 2

    def test_blobs_zero_spread_hits_centers_exactly(self):
        points, labels = generate_synthetic(
            "blobs", 4, seed=0, centers=[(0.0, 0.0), (10.0, 10.0)], spread=0.0)
        assert labels.labels.tolist() == [1, 1, 2, 2]
        assert np.array_equal(points.coords[0], [0.0, 0.0])
        assert np.array_equal(points.coords[3], [10.0, 10.0])

    def test_bitwise_reproducible(self):
        a, la = generate_synthetic("twomoons_noise", 700, seed=42)
        b, lb = generate_synthetic("twomoons_noise", 700, seed=42)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(la.labels, lb.labels)

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic("twomoons", 600, seed=1)
        b, _ = generate_synthetic("twomoons", 600, seed=2)
        assert not np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize("shape,expected_m", [
        ("twomoons", 2), ("twomoons_noise", 2), ("twomoons_bridge", 2),
        ("ccrings", 2), ("spiral", 3), ("blobs", 3),
    ])
    def test_structural_cluster_counts(self, shape, expected_m):
        n = 700 if shape == "twomoons_noise" else 600
        _, labels = generate_synthetic(shape, n, seed=3)
        assert labels.m == expected_m

    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown shape"):
            generate_synthetic("banana", 100, seed=0)

    def test_n_below_minimum(self):
        with pytest.raises(ValueError):
            generate_synthetic("twomoons_noise", 50, seed=0)


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        points, labels = generate_synthetic("spiral", 90, seed=5)
        pf = tmp_path / "s.points.csv"
        lf = tmp_path / "s.labels.csv"
        save_points_csv(pf, points)
        save_labels_csv(lf, labels)
        reloaded, _ = load_points_csv(pf)
        assert np.array_equal(reloaded.coords, points.coords)
        assert np.array_equal(load_labels_csv(lf).labels, labels.labels)


class TestPairwiseDistance:
    def test_three_four_five(self):
        p = PointSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert pairwise_distance(p, 0, 1) == 5.0

    def test_self_distance_zero(self):
        p = PointSet(np.random.default_rng(0).normal(size=(6, 3)))
        for i in range(p.n):
            assert pairwise_distance(p, i, i) == 0.0

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(11)
        p = PointSet(rng.normal(size=(10, 4)))
        ref = euclidean_matrix(p.coords)
        for i in range(10):
            for j in range(10):
                got = pairwise_distance(p, i, j)
                assert got == pytest.approx(ref[i, j], rel=1e-12, abs=1e-300)


class TestLabeledPartition:
    def test_from_raw_first_appearance(self):
        part = LabeledPartition.from_raw(["b", "b", "a", "c", "a"])
        assert part.labels.tolist() == [1, 1, 2, 3, 2]
        assert part.m == 3

    def test_rejects_gap_in_labels(self):
        with pytest.raises(ValueError):
            LabeledPartition(np.array([1, 3]))
