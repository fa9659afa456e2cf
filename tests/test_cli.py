import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pava
from pava import mstgraph, neighbors
from pava.cli import _write_edges, main
from pava.dataset import (
    PointSet,
    generate_synthetic,
    load_labels_csv,
    load_points_csv,
    save_labels_csv,
    save_points_csv,
)
from pava.engine import run
from pava.metrics import adjusted_rand_index
from pava.mstgraph import adjust_weights, build_mst
from pava.neighbors import default_k, k_distance_all, nearest_lists

from oracles import euclidean_matrix
from test_engine import _last_round_degenerate
from test_mstgraph import _overflowing_blob_grid


@pytest.fixture
def moons_files(tmp_path):
    points, labels = generate_synthetic("twomoons", 600, seed=1)
    pf = tmp_path / "tm.points.csv"
    lf = tmp_path / "tm.labels.csv"
    save_points_csv(pf, points)
    save_labels_csv(lf, labels)
    return pf, lf


def _refuse_constant(name):
    """``json.loads``' hook for NaN, Infinity and -Infinity, which strict JSON lacks."""
    raise ValueError(f"non-finite constant {name} in strict JSON")


def _assert_emitted_histograms(prefix, model, scratch):
    """Each ``{prefix}.round{i}.csv`` holds round i's histogram and radius,
    written again through numpy to ``scratch``; a round without a histogram
    has no file."""
    for i, rnd in enumerate(model.rounds, start=1):
        emitted = Path(f"{prefix}.round{i}.csv")
        hist = rnd.histogram
        if hist is None:
            assert not emitted.exists()
            continue
        rows = np.column_stack([hist.bin_centers, hist.raw_freq, hist.shifted_freq,
                                hist.smoothed_freq, np.full(hist.bins, rnd.radius)])
        np.savetxt(scratch, rows, fmt="%.17g", delimiter=",",
                   header="bin_center,raw_freq,shifted_freq,smoothed_freq,radius", comments="")
        assert emitted.read_bytes() == scratch.read_bytes()
    assert not Path(f"{prefix}.round{len(model.rounds) + 1}.csv").exists()


class TestGenerate:
    def test_writes_both_files(self, tmp_path, capsys):
        out = tmp_path / "tm"
        code = main(["generate", "--shape", "twomoons", "--n", "600",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        points = (tmp_path / "tm.points.csv").read_text().strip().splitlines()
        labels = (tmp_path / "tm.labels.csv").read_text().strip().splitlines()
        assert len(points) == 600
        assert len(labels) == 600
        assert "twomoons" in capsys.readouterr().out

    def test_noise_shape_row_count(self, tmp_path):
        out = tmp_path / "tmn"
        assert main(["generate", "--shape", "twomoons_noise", "--n", "700",
                     "--seed", "1", "--out", str(out)]) == 0
        assert len((tmp_path / "tmn.points.csv").read_text().strip().splitlines()) == 700

    def test_unknown_shape_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--shape", "hexagon", "--n", "10", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()


class TestCluster:
    def test_end_to_end_twomoons(self, moons_files, tmp_path, capsys):
        pf, lf = moons_files
        labels_out = tmp_path / "pred.csv"
        report_out = tmp_path / "report.json"
        code = main(["cluster", str(pf), "--labels-out", str(labels_out),
                     "--report-out", str(report_out)])
        assert code == 0
        pred = np.loadtxt(labels_out, dtype=int)
        assert set(np.unique(pred)) == {1, 2}
        truth = np.loadtxt(lf, dtype=int)
        assert adjusted_rand_index(truth, pred) >= 0.99
        report = json.loads(report_out.read_text())
        assert report["schema"] == 1
        assert report["m"] == 2
        assert report["n"] == 600
        assert len(report["rounds"]) == report["m"]

    def test_default_output_paths(self, moons_files, tmp_path):
        pf, _ = moons_files
        assert main(["cluster", str(pf)]) == 0
        assert (tmp_path / "tm.pred.csv").exists()
        assert (tmp_path / "tm.report.json").exists()

    def test_metrics_in_report(self, moons_files, tmp_path):
        pf, lf = moons_files
        report_out = tmp_path / "r.json"
        assert main(["cluster", str(pf), "--labels-true", str(lf),
                     "--report-out", str(report_out),
                     "--labels-out", str(tmp_path / "p.csv")]) == 0
        metrics = json.loads(report_out.read_text())["metrics"]
        assert metrics["ari"] >= 0.99
        assert 0.0 <= metrics["ri"] <= 1.0

    def test_matrix_mode(self, tmp_path):
        points, truth = generate_synthetic("blobs", 120, seed=3)
        mf = tmp_path / "dist.csv"
        np.savetxt(mf, euclidean_matrix(points.coords), fmt="%.17g", delimiter=",")
        labels_out = tmp_path / "pred.csv"
        code = main(["cluster", "--matrix", str(mf), "--labels-out", str(labels_out),
                     "--report-out", str(tmp_path / "r.json")])
        assert code == 0
        pred = np.loadtxt(labels_out, dtype=int)
        assert adjusted_rand_index(truth.labels, pred) == 1.0

    @pytest.mark.parametrize("matrix", [False, True], ids=["points", "matrix"])
    def test_mst_flag_is_accepted_and_ignored(self, tmp_path, capsys, matrix):
        # The benchmark passes --mst approximate; every spelling builds the one
        # exact tree, so labels and emitted files match byte for byte.
        points, _ = generate_synthetic("twomoons_noise", 200, seed=3)
        coords = np.column_stack([points.coords, np.random.default_rng(3).normal(size=200)])
        path = tmp_path / "in.csv"
        if matrix:
            np.savetxt(path, euclidean_matrix(coords), fmt="%.17g", delimiter=",")
        else:
            save_points_csv(path, PointSet(coords))  # 3-D: the certified forest
        head = ["cluster", str(path)] + ["--matrix"] * matrix
        for name, flag in (("none", []), ("exact", ["--mst", "exact"]),
                           ("approximate", ["--mst", "approximate"])):
            assert main(head + flag + [
                "--labels-out", str(tmp_path / f"{name}.pred.csv"),
                "--report-out", str(tmp_path / f"{name}.json"),
                "--emit-mst", str(tmp_path / name),
                "--emit-kdist", str(tmp_path / f"{name}.kdist.csv")]) == 0
        for suffix in (".pred.csv", ".mst_raw.csv", ".mst_adjusted.csv", ".kdist.csv"):
            for name in ("exact", "approximate"):
                assert ((tmp_path / f"{name}{suffix}").read_bytes()
                        == (tmp_path / f"none{suffix}").read_bytes())
        assert "mst_mode" not in json.loads((tmp_path / "none.json").read_text())["config"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(head + ["--mst", "turbo"])
        assert exc.value.code == 2
        assert "turbo" in capsys.readouterr().err

    def test_matrix_of_huge_entries_exit_0(self, tmp_path):
        # w * kd_u * kd_v passes the largest double here, or is 0 * inf (the
        # second matrix), and at k = 2 sums of two entries overflow; at the
        # largest double (the last two) the fallback itself rounds above it. The
        # adjusted weights and the bin centres must stay finite without a
        # numpy warning. Each run is one round, which reads a histogram
        # unless the trim leaves only equal distances (the second matrix).
        huge = "0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n"
        top = huge.replace("1e308", "1.7976931348623157e308")
        cases = [("0,1e300,2e300\n1e300,0,1.5e300\n2e300,1.5e300,0\n", [], 1),
                 ("0,0,1e300\n0,0,1e300\n1e300,1e300,0\n", ["--k", "1"], 0),
                 (huge, ["--k", "1"], 1), (huge, ["--k", "2"], 1),
                 (top, ["--k", "1"], 1), (top, ["--k", "2"], 1)]
        for i, (text, k, histograms) in enumerate(cases):
            out = tmp_path / str(i)
            out.mkdir()
            (out / "huge.csv").write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["cluster", "--matrix", str(out / "huge.csv"), *k,
                             "--labels-out", str(out / "p.csv"),
                             "--report-out", str(out / "r.json"),
                             "--emit-mst", str(out / "t"),
                             "--emit-histogram", str(out / "h")]) == 0
            adjusted = np.loadtxt(out / "t.mst_adjusted.csv", delimiter=",", skiprows=1)
            assert np.all(np.isfinite(adjusted[:, 2]))
            report = json.loads((out / "r.json").read_text(), parse_constant=_refuse_constant)
            assert report["m"] == 1
            # Strict JSON has no Infinity: only the largest double's radius is null.
            assert (report["rounds"][0]["radius"] is None) == (text == top)
            rounds = list(out.glob("h.round*.csv"))
            assert len(rounds) == histograms
            for round_csv in rounds:
                table = np.loadtxt(round_csv, delimiter=",", skiprows=1)
                if text == top:
                    # No double lies above the largest one, so only an infinite
                    # radius engulfs the distances that equal it.
                    assert np.all(np.isfinite(table[:, :4])) and np.all(table[:, 4] == np.inf)
                else:
                    assert np.all(np.isfinite(table))

    def test_k_too_large_exit_2(self, moons_files, capsys):
        pf, _ = moons_files
        assert main(["cluster", str(pf), "--k", "600"]) == 2
        assert "k must be < N" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["cluster", str(tmp_path / "nope.csv")]) == 2

    def test_corrupt_file_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        assert main(["cluster", str(bad)]) == 1

    def test_overflowing_squared_distances_exit_1(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        save_points_csv(path, _overflowing_blob_grid())
        assert main(["cluster", str(path), "--labels-out", str(tmp_path / "p.csv"),
                     "--report-out", str(tmp_path / "r.json")]) == 1
        assert "error: squared distances between the points overflow" in capsys.readouterr().err

    def test_near_collinear_five_points_exit_0(self, tmp_path):
        # Qhull left one of these sites out of the triangulation without
        # calling it coplanar, and the tree came up one edge short.
        path = tmp_path / "five.csv"
        path.write_text("2,0\n-1e-12,0\n1,1e-12\n1,0\n0,0\n")
        assert main(["cluster", str(path), "--labels-out", str(tmp_path / "p.csv"),
                     "--report-out", str(tmp_path / "r.json")]) == 0

    def test_emit_artifacts(self, moons_files, tmp_path, monkeypatch):
        pf, _ = moons_files
        prefix = tmp_path / "dump"
        queries = []

        def counting(p, count):
            queries.append(count)
            return nearest_lists(p, count)

        # The run's query and one per emitted file: the tree and its
        # adjustment share one, as in the run.
        monkeypatch.setattr(neighbors, "nearest_lists", counting)
        monkeypatch.setattr(mstgraph, "nearest_lists", counting)
        code = main([
            "cluster", str(pf),
            "--labels-out", str(tmp_path / "p.csv"),
            "--report-out", str(tmp_path / "r.json"),
            "--emit-mst", str(prefix),
            "--emit-kdist", str(tmp_path / "kdist.csv"),
            "--emit-histogram", str(prefix),
        ])
        assert code == 0
        monkeypatch.undo()
        assert len(queries) == 3
        raw_edges = (tmp_path / "dump.mst_raw.csv").read_text().splitlines()
        adj_edges = (tmp_path / "dump.mst_adjusted.csv").read_text().splitlines()
        assert raw_edges[0] == "u,v,weight"
        assert len(raw_edges) == 600  # header + 599 edges
        assert len(adj_edges) == 600
        kdist = np.loadtxt(tmp_path / "kdist.csv")
        assert kdist.shape == (600,)
        hist1 = (tmp_path / "dump.round1.csv").read_text().splitlines()
        assert hist1[0] == "bin_center,raw_freq,shifted_freq,smoothed_freq,radius"
        assert len(hist1) == 201

        # Byte-identical to the same artifacts written from a direct library run.
        points = load_points_csv(pf)
        model = run(points)
        ref = tmp_path / "ref"
        ref.mkdir()
        density = k_distance_all(points, default_k(points.n))
        np.savetxt(ref / "kdist.csv", density.kdist, fmt="%.17g")
        raw = build_mst(points)
        for name, tree in (("raw", raw), ("adjusted", adjust_weights(raw, density))):
            np.savetxt(ref / f"mst_{name}.csv",
                       np.column_stack([tree.edge_u, tree.edge_v, tree.edge_w]),
                       fmt=("%d", "%d", "%.17g"), delimiter=",", header="u,v,weight",
                       comments="")
        assert (tmp_path / "kdist.csv").read_bytes() == (ref / "kdist.csv").read_bytes()
        _write_edges(ref / "model_raw.csv", model.raw_tree)
        _write_edges(ref / "model_adjusted.csv", model.tree)
        for name in ("raw", "adjusted"):
            emitted = (tmp_path / f"dump.mst_{name}.csv").read_bytes()
            assert emitted == (ref / f"mst_{name}.csv").read_bytes()
            assert emitted == (ref / f"model_{name}.csv").read_bytes()
        assert model.rounds[0].histogram is not None
        _assert_emitted_histograms(prefix, model, ref / "hist.csv")

    def test_degenerate_last_round_writes_no_histogram(self, tmp_path):
        points = _last_round_degenerate()
        pf = tmp_path / "dup.points.csv"
        save_points_csv(pf, points)
        prefix = tmp_path / "dump"
        code = main(["cluster", str(pf), "--labels-out", str(tmp_path / "p.csv"),
                     "--report-out", str(tmp_path / "r.json"), "--emit-histogram", str(prefix)])
        assert code == 0
        model = run(points)
        assert [r.histogram is None for r in model.rounds] == [False, True]
        _assert_emitted_histograms(prefix, model, tmp_path / "ref.csv")

    def test_no_adjust_flag(self, tmp_path):
        points, truth = generate_synthetic("spiral", 300, seed=2)
        pf = tmp_path / "sp.points.csv"
        save_points_csv(pf, points)
        labels_out = tmp_path / "pred.csv"
        assert main(["cluster", str(pf), "--no-adjust",
                     "--labels-out", str(labels_out),
                     "--report-out", str(tmp_path / "r.json"),
                     "--emit-mst", str(tmp_path / "dump")]) == 0
        pred = np.loadtxt(labels_out, dtype=int)
        assert adjusted_rand_index(truth.labels, pred) == 1.0
        assert (tmp_path / "dump.mst_raw.csv").exists()
        assert not (tmp_path / "dump.mst_adjusted.csv").exists()

    def test_malformed_threads_exit_2(self, moons_files, monkeypatch, capsys):
        pf, _ = moons_files
        monkeypatch.setenv("PAVA_THREADS", "abc")
        assert main(["cluster", str(pf)]) == 2
        assert "PAVA_THREADS" in capsys.readouterr().err
        assert main(["sweep", str(pf), "--k-values", "7"]) == 2
        assert "'abc'" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_files(self, tmp_path, capsys):
        f = tmp_path / "l.csv"
        save_labels_csv(f, np.array([1, 1, 2, 2]))
        assert main(["evaluate", str(f), str(f)]) == 0
        assert capsys.readouterr().out.strip() == "1.0,1.0,1.0"

    def test_crossed_pair(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        save_labels_csv(a, np.array([1, 2, 1, 2]))
        save_labels_csv(b, np.array([1, 1, 2, 2]))
        assert main(["evaluate", str(a), str(b)]) == 0
        ri = float(capsys.readouterr().out.split(",")[0])
        assert ri == pytest.approx(1 / 3)

    def test_length_mismatch_exit_2(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        save_labels_csv(a, np.array([1, 2]))
        save_labels_csv(b, np.array([1, 2, 3]))
        assert main(["evaluate", str(a), str(b)]) == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        save_labels_csv(a, np.array([1, 2]))
        assert main(["evaluate", str(a), str(tmp_path / "gone.csv")]) == 2
        assert "gone.csv" in capsys.readouterr().err


class TestSweep:
    def test_rows_and_stability(self, tmp_path, capsys):
        points, labels = generate_synthetic("twomoons_noise", 700, seed=1)
        pf = tmp_path / "tmn.points.csv"
        lf = tmp_path / "tmn.labels.csv"
        save_points_csv(pf, points)
        save_labels_csv(lf, labels)
        code = main(["sweep", str(pf), "--k-values", "5,6,7,8",
                     "--labels-true", str(lf)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("dataset,k,repeat,seed,RI,ARI,FS,M")
        assert len(lines) == 5
        aris = [float(line.split(",")[5]) for line in lines[1:]]
        assert max(aris) - min(aris) <= 0.10

    def test_single_k_matches_cluster(self, moons_files, tmp_path, capsys):
        pf, lf = moons_files
        labels_out = tmp_path / "pred.csv"
        main(["cluster", str(pf), "--k", "7", "--labels-out", str(labels_out),
              "--report-out", str(tmp_path / "r.json"), "--labels-true", str(lf)])
        report = json.loads((tmp_path / "r.json").read_text())
        capsys.readouterr()
        main(["sweep", str(pf), "--k-values", "7", "--labels-true", str(lf)])
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(report["metrics"]["ari"], abs=1e-12)
        assert int(row[7]) == report["m"]

    def test_mst_flag_leaves_the_rows_unchanged(self, moons_files, capsys):
        pf, _ = moons_files
        tables = []
        for flag in ([], ["--mst", "approximate"]):
            assert main(["sweep", str(pf), "--k-values", "6,7"] + flag) == 0
            tables.append([line.split(",")[:8] for line in capsys.readouterr().out.splitlines()])
        assert tables[0] == tables[1]
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(pf), "--k-values", "7", "--mst", "turbo"])
        assert exc.value.code == 2

    def test_empty_k_list_exit_2(self, moons_files):
        pf, _ = moons_files
        assert main(["sweep", str(pf), "--k-values", ","]) == 2

    def test_k_below_one_exit_2(self, moons_files, capsys):
        pf, _ = moons_files
        for k_values in ("0,3", "-2", "3,0"):
            assert main(["sweep", str(pf), "--k-values", k_values]) == 2
            captured = capsys.readouterr()
            assert "positive" in captured.err
            assert captured.out == ""

    def test_k_at_least_n_exit_2_before_any_run(self, moons_files, monkeypatch, capsys):
        pf, _ = moons_files
        runs = []
        monkeypatch.setattr("pava.cli.run", lambda *args: runs.append(args))
        monkeypatch.setattr("pava.cli.sweep", lambda *args: runs.append(args))
        assert main(["sweep", str(pf), "--k-values", "5,700"]) == 2
        assert runs == []
        captured = capsys.readouterr()
        assert "k must be < N (k=700, N=600)" in captured.err
        assert captured.out == ""

    def test_repeats_row_count(self, moons_files, capsys):
        pf, _ = moons_files
        assert main(["sweep", str(pf), "--k-values", "6,7", "--repeats", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + 2 k values x 2 repeats

    def test_repeats_keep_k_major_order(self, moons_files, capsys):
        pf, lf = moons_files
        assert main(["sweep", str(pf), "--k-values", "7,5,6", "--repeats", "2",
                     "--labels-true", str(lf)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [(int(r[1]), int(r[2])) for r in rows] == [(7, 0), (7, 1), (5, 0), (5, 1), (6, 0), (6, 1)]
        points, truth = load_points_csv(pf), load_labels_csv(lf).labels
        for row in rows:
            # The scores and M are those of the k's own run, and the phases
            # fall within the row's runtime.
            model = pava.run(points, pava.PavaConfig(k=int(row[1])))
            assert float(row[5]) == pava.adjusted_rand_index(truth, model.labels)
            assert int(row[7]) == model.m
            runtime, *phases = map(float, row[8:])
            assert sum(phases) <= runtime + 0.003  # each column rounds to 1 us
        assert rows[0][4:8] == rows[1][4:8] and rows[2][4:8] == rows[3][4:8]

    def test_output_file(self, moons_files, tmp_path):
        pf, _ = moons_files
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(pf), "--k-values", "7", "--out", str(out)]) == 0
        assert out.read_text().startswith("dataset,")


class TestDeterminism:
    def test_repeated_cluster_runs_byte_identical(self, moons_files, tmp_path):
        pf, _ = moons_files
        outputs = []
        for i in range(3):
            labels_out = tmp_path / f"pred{i}.csv"
            main(["cluster", str(pf), "--labels-out", str(labels_out),
                  "--report-out", str(tmp_path / f"r{i}.json")])
            outputs.append(labels_out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_generate_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["generate", "--shape", "spiral", "--n", "90", "--seed", "4", "--out", str(a)])
        main(["generate", "--shape", "spiral", "--n", "90", "--seed", "4", "--out", str(b)])
        assert (tmp_path / "a.points.csv").read_bytes() == (tmp_path / "b.points.csv").read_bytes()


class TestModuleEntry:
    """``python -m pava.cli`` runs the same front end as the ``pava`` script."""

    def _run(self, *args, cwd):
        env = dict(os.environ, PYTHONPATH=str(Path(pava.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "pava.cli", *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=60)

    def test_import_leaves_out_scipy_graph_modules(self, tmp_path):
        """Importing pava and its CLI loads neither ``scipy.sparse.csgraph``
        nor ``scipy.cluster``. Importing csgraph alone added 3.1 MB of
        resident memory, which moved the benchmark's ``rings-exact``
        ``peak_rss_mb`` from 77.0 to about 81 MB, past its 5% bound: a
        module the library does not need costs more than any saving it buys."""
        env = dict(os.environ, PYTHONPATH=str(Path(pava.__file__).parents[1]))
        code = ("import sys, pava, pava.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy.sparse.csgraph', 'scipy.cluster'))))")
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_version(self, tmp_path):
        done = self._run("--version", cwd=tmp_path)
        assert done.returncode == 0
        assert done.stdout.strip() == f"pava {pava.__version__}" == "pava 0.1.0"

    def test_missing_input_exit_2(self, tmp_path):
        done = self._run("cluster", "nope.csv", cwd=tmp_path)
        assert done.returncode == 2
        assert "error:" in done.stderr
