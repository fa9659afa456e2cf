import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pava import dataset
from pava.cli import _write_edges, main
from pava.dataset import (
    DissimilarityMatrix,
    LabeledPartition,
    PointSet,
    generate_synthetic,
    load_labels_csv,
    load_matrix_csv,
    load_points_csv,
    save_labels_csv,
    save_points_csv,
    write_csv,
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

    def test_entries_near_the_largest_double_stay_finite(self):
        big = np.finfo(np.float64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = DissimilarityMatrix(np.array([[0.0, big], [big, 0.0]]))
        assert np.array_equal(d.values, [[0.0, big], [big, 0.0]])

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
        points = load_points_csv(f)
        assert points.n == 3 and points.dim == 2

    def test_parse_error_names_row_and_column(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("0,abc\n1,2\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_points_csv(f)

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("x,y\n0,0\n1,1\n")
        points = load_points_csv(f)
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

    def test_peak_memory_stays_near_two_matrices(self, tmp_path):
        # numpy's reader plus the one checking buffer measured 2.0-2.1 N^2 doubles;
        # the per-cell scan held every cell as a string too, 11.5 N^2.
        n = 400
        f = tmp_path / "m.csv"
        values = euclidean_matrix(np.random.default_rng(5).normal(size=(n, 3)))
        np.savetxt(f, values, fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            m = load_matrix_csv(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(m.values, values)
        assert peak < 3 * n * n * 8


def _outcome(load, path):
    """A loader's result as ("ok", shape, bytes) or ("error", message)."""
    try:
        values = load(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", values.shape, values.tobytes())


def _points_fast(path):
    return load_points_csv(path).coords


def _points_scan(path):
    return PointSet(dataset._scan_table(path)).coords


def _matrix_fast(path):
    return load_matrix_csv(path).values


def _matrix_scan(path):
    return DissimilarityMatrix(dataset._scan_table(path, square=True)).values


# Each text is a 2 x 2 dissimilarity matrix, and so also two 2-D points,
# unless it is malformed on purpose.
READER_CORPUS = {
    "plain": "0,1\n1,0\n",
    "no final newline": "0,1.5e-3\n1.5e-3,0",
    "quoted cells": '"0",1\n"1","0"\n',
    "text after a closing quote": '0,"1"2\n"1"2,0\n',
    "doubled quote": '0,"2""3"\n"2""3",0\n',
    "space before a quote": '0, "1"\n "1",0\n',
    "space after a quote": '0,"1" \n"1" ,0\n',
    "quoted newline": '0,"1\n"\n"\n1",0\n',
    "empty quoted cell": '0,""\n"",0\n',
    "underscore digits": "0,1_0\n1_0,0\n",
    "full-width digit": "0,\uff11\n\uff11,0\n",
    "byte order mark": "\ufeff0,1\n1,0\n",
    "byte order mark on a header": "\ufeffx,y\n0,1\n1,0\n",
    "crlf": "0,1\r\n1,0\r\n",
    "lone cr": "0,1\r1,0\r",
    "lone cr after a header": "x,y\r0,1\r1,0\r",
    "padded cells": " 0 ,\t1 \n1 , 0\n",
    "nan": "0,nan\nnan,0\n",
    "infinity": "0,Infinity\nInfinity,0\n",
    "overflow": "0,1e999\n1e999,0\n",
    "whitespace-only line": "0,1\n   \n1,0\n",
    "trailing comma": "0,1,\n1,0,\n",
    "empty field": "0,,1\n1,0,0\n",
    "ragged rows": "0,1\n1\n",
    "hex cell": "0,0x1\n0x1,0\n",
    "hash-led header": "#x,y\n0,1\n1,0\n",
    "hash-led data row": "#0,1\n1,0\n",
    "blank lines before a header": "\n\nx,y\n0,1\n1,0\n",
    "blank lines between rows": "0,1\n\n\n1,0\n\n",
    "quoted header over two lines": '"x\ny",z\n0,1\n1,0\n',
    "header only": "x,y\n",
    "empty file": "",
    "blank lines only": "\n\n",
    "first row 0;0 is a header": "0;0\n0,1\n1,0\n",
    "single row": "0,1\n",
    "single column": "0\n1\n",
    "three columns": "0,1,2\n1,0,3\n",
    "negative zero and the smallest subnormal": "-0,5e-324\n5e-324,-0\n",
    "a large double": "0,8.9e307\n8.9e307,0\n",
}


class TestReaderParity:
    """numpy's reader and the per-cell scan give the same bits or the same error."""

    @pytest.mark.parametrize("name", sorted(READER_CORPUS))
    @pytest.mark.parametrize("fast,scan", [(_points_fast, _points_scan),
                                           (_matrix_fast, _matrix_scan)],
                             ids=["points", "matrix"])
    def test_corpus(self, tmp_path, name, fast, scan):
        f = tmp_path / "in.csv"
        f.write_bytes(READER_CORPUS[name].encode())
        assert _outcome(fast, f) == _outcome(scan, f)

    def test_valid_input_skips_the_scan(self, tmp_path, monkeypatch):
        def no_scan(*args):
            raise AssertionError("per-cell scan ran on a valid input")

        monkeypatch.setattr(dataset, "_scan_table", no_scan)
        for name in ("plain", "crlf", "lone cr after a header", "padded cells",
                     "blank lines before a header", "quoted header over two lines",
                     "first row 0;0 is a header", "negative zero and the smallest subnormal",
                     "quoted cells", "text after a closing quote", "space after a quote",
                     "quoted newline"):
            f = tmp_path / "in.csv"
            f.write_bytes(READER_CORPUS[name].encode())
            load_points_csv(f)
            load_matrix_csv(f)

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=6, max_size=60),
           width=st.integers(1, 3), fmt=st.sampled_from(["%.17g", "repr"]))
    @settings(max_examples=100, deadline=None)
    def test_finite_doubles_round_trip_bit_for_bit(self, bits, width, fmt):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        rows = len(values) // width
        if rows < 2:
            return
        coords = values[: rows * width].reshape(rows, width)
        cell = repr if fmt == "repr" else (lambda x: "%.17g" % x)
        text = "".join(",".join(cell(x) for x in row) + "\n" for row in coords.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "in.csv"
            f.write_text(text)
            assert load_points_csv(f).coords.tobytes() == coords.tobytes()
            assert _points_scan(f).tobytes() == coords.tobytes()


def _first_appearance(tokens):
    """Tokens numbered 1..m in order of first appearance, by a dict."""
    seen = {}
    return np.array([seen.setdefault(token, len(seen) + 1) for token in tokens], dtype=np.int64)


def _labels_fast(path):
    return load_labels_csv(path).labels


def _labels_scan(path):
    return _first_appearance([row[-1] for row in dataset._read_rows(path)])


# Label files whose last column the per-cell scan reads as text tokens.
LABEL_CORPUS = {
    "plain": "1\n2\n1\n",
    "header": "label\n2\n1\n2\n",
    "padded tokens": " a \n\tb\n a\t\n",
    "quoted cells": '"a"\n"b,c"\nb\n',
    "quoted cell over two lines": '1,"x\ny",a\n2,b\n',
    "text after a closing quote": '1\n"1"2\n12\n',
    "doubled quote": '1\n"2""3"\n2"3\n',
    "space before a quote": '1\n "1"\n"1"\n',
    "space after a quote": '1\n"1" \n1\n',
    "quoted newline": '1\n"a\nb",c\n"c\n"\n',
    "empty quoted cell": '1\n""\na\n',
    "ragged rows": "1,a\nb\n2,3,a\n",
    "leading zeros stay distinct": "1\n01\n1\n001\n",
    "numbers written two ways": "1\n1.0\n1e0\n",
    "trailing comma": "1,a,\n2,b,\n",
    "whitespace-only line": "a\n   \nb\n",
    "non-ASCII tokens": "\u00e9\n\u00fc\n\u00e9\n",
}


class TestLabelReaderParity:
    """numpy's label reader and the per-cell scan give the same labels or
    the same error."""

    @pytest.mark.parametrize("text", [*LABEL_CORPUS.values(), *READER_CORPUS.values()],
                             ids=[*LABEL_CORPUS, *(f"numbers: {name}" for name in READER_CORPUS)])
    def test_corpus(self, tmp_path, text):
        f = tmp_path / "labels.csv"
        f.write_bytes(text.encode())
        assert _outcome(_labels_fast, f) == _outcome(_labels_scan, f)

    def test_valid_input_skips_the_scan(self, tmp_path, monkeypatch):
        def no_scan(*args):
            raise AssertionError("per-cell scan ran on a valid input")

        monkeypatch.setattr(dataset, "_read_rows", no_scan)
        for name in ("plain", "header", "padded tokens", "ragged rows",
                     "leading zeros stay distinct", "trailing comma", "whitespace-only line",
                     "quoted cells", "quoted cell over two lines", "text after a closing quote",
                     "doubled quote", "space before a quote", "space after a quote",
                     "quoted newline", "empty quoted cell"):
            f = tmp_path / "labels.csv"
            f.write_bytes(LABEL_CORPUS[name].encode())
            load_labels_csv(f)


def _special_values(rng, shape):
    """Random doubles salted with -0.0, the smallest subnormal and the largest double."""
    values = rng.normal(scale=rng.choice([1e-300, 1.0, 1e300], size=shape))
    flat = values.reshape(-1)
    flat[rng.integers(0, flat.size, size=3)] = [-0.0, 5e-324, np.finfo(float).max]
    return values


class TestWriterParity:
    """Every writer matches the np.savetxt call it replaced, byte for byte."""

    @pytest.mark.parametrize("seed", range(5))
    def test_points_and_labels(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 5))
        points = PointSet(_special_values(rng, (n, d)))
        labels = rng.integers(1, 4, size=n)
        save_points_csv(tmp_path / "p.csv", points)
        save_labels_csv(tmp_path / "l.csv", labels)
        save_labels_csv(tmp_path / "lp.csv", LabeledPartition.from_raw(labels.tolist()))
        np.savetxt(tmp_path / "p_ref.csv", points.coords, fmt="%.17g", delimiter=",")
        np.savetxt(tmp_path / "l_ref.csv", labels.reshape(-1, 1), fmt="%d")
        np.savetxt(tmp_path / "lp_ref.csv",
                   LabeledPartition.from_raw(labels.tolist()).labels.reshape(-1, 1), fmt="%d")
        for name in ("p", "l", "lp"):
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}_ref.csv").read_bytes())

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_kdist_and_histogram(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        tree = SimpleNamespace(edge_u=rng.integers(0, 10**6, size=n),
                               edge_v=rng.integers(0, 10**6, size=n),
                               edge_w=np.abs(_special_values(rng, n)))
        _write_edges(tmp_path / "e.csv", tree)
        np.savetxt(tmp_path / "e_ref.csv",
                   np.column_stack([tree.edge_u, tree.edge_v, tree.edge_w]),
                   fmt=("%d", "%d", "%.17g"), delimiter=",", header="u,v,weight", comments="")

        kdist = np.abs(_special_values(rng, n))
        write_csv(tmp_path / "k.csv", [kdist], ["%.17g"])
        np.savetxt(tmp_path / "k_ref.csv", kdist.reshape(-1, 1), fmt="%.17g")

        # Histogram columns as the CLI passes them: counts as integers, the
        # round's radius as a list.
        centers, smoothed = _special_values(rng, n), _special_values(rng, n)
        raw = rng.integers(0, 10**6, size=n)
        radius = float(_special_values(rng, 1)[0])
        header = "bin_center,raw_freq,shifted_freq,smoothed_freq,radius"
        write_csv(tmp_path / "h.csv", [centers, raw, raw - 1, smoothed, [radius] * n],
                  ["%.17g"] * 5, header=header)
        np.savetxt(tmp_path / "h_ref.csv",
                   np.column_stack([centers, raw, raw - 1, smoothed, np.full(n, radius)]),
                   fmt="%.17g", delimiter=",", header=header, comments="")
        for name in ("e", "k", "h"):
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}_ref.csv").read_bytes())

    def test_no_writer_calls_savetxt(self, tmp_path, monkeypatch):
        def no_savetxt(*args, **kwargs):
            raise AssertionError("np.savetxt called")

        monkeypatch.setattr(np, "savetxt", no_savetxt)
        out = tmp_path / "gen"
        assert main(["generate", "--shape", "ccrings", "--n", "300", "--out", str(out)]) == 0
        assert main(["cluster", f"{out}.points.csv",
                     "--labels-out", str(tmp_path / "pred.csv"),
                     "--report-out", str(tmp_path / "r.json"),
                     "--emit-mst", str(tmp_path / "t"), "--emit-kdist", str(tmp_path / "k.csv"),
                     "--emit-histogram", str(tmp_path / "h")]) == 0
        assert (tmp_path / "h.round1.csv").exists()


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
        reloaded = load_points_csv(pf)
        assert np.array_equal(reloaded.coords, points.coords)
        assert np.array_equal(load_labels_csv(lf).labels, labels.labels)


class TestLabeledPartition:
    def test_from_raw_first_appearance(self):
        part = LabeledPartition.from_raw(["b", "b", "a", "c", "a"])
        assert part.labels.tolist() == [1, 1, 2, 3, 2]
        assert part.m == 3

    def test_from_raw_matches_a_dict(self):
        rng = np.random.default_rng(71)
        for tokens in (rng.integers(0, 30, 500).tolist(),
                       [str(t) for t in rng.integers(0, 12, 200)] + ["01", "1", "", " "]):
            part = LabeledPartition.from_raw(tokens)
            assert np.array_equal(part.labels, _first_appearance(tokens))
            assert part.m == len(set(tokens))

    def test_rejects_gap_in_labels(self):
        with pytest.raises(ValueError):
            LabeledPartition(np.array([1, 3]))
