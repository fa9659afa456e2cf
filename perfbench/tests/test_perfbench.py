"""Tests of the benchmark itself: smoke-size runs of every workload, and checks
that reject wrong outputs.

The smoke runs use ``--size smoke`` (a few hundred objects) so that the same
checks as a full run finish in seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(tmp_path, workload, trace, seed=1):
    results = tmp_path / "results.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke", "--results", str(results)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(results.read_text().splitlines()[-1])
    return last, record


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(tmp_path, workload):
    last, record = run_bench(tmp_path, workload, trace=0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0
    assert len(record["labels_sha256"]) == 1
    assert record["env"]["nproc"] >= int(record["env"]["pava_threads"]) >= 1
    # Every timed invocation sits between two reference-task times.
    samples = record["samples"]
    assert len(samples["reference_s"]) == len(samples["scaled_cluster_s"]) == last["attempted"]
    assert all(before > 0 and after > 0 for before, after in samples["reference_s"])


def test_traced_run_reports_every_layer_and_sees_emit_recomputation(tmp_path):
    last, record = run_bench(tmp_path, "rings-exact", trace=1)
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    # --emit-mst rebuilds the tree; --emit-kdist and --emit-mst recompute k-distances.
    assert metrics["mstgraph.build_mst_calls"] == 2
    assert metrics["neighbors.k_distance_all_calls"] == 3
    assert record["missing_sites"] == []
    # Traced and untraced invocations wrote byte-identical labels.
    assert len(record["labels_sha256"]) == 1
    for inv in record["per_layer_invocations"]:
        layer_sum = sum(inv[f"{layer}.self_s"] for layer in
                        ("dataset", "neighbors", "mstgraph", "valley", "engine", "metrics", "cli"))
        assert inv["trace.uncovered_s"] >= 0
        assert layer_sum > 0


def test_checks_reject_a_wrong_label_vector():
    points, truth = workloads.make_rings(600, np.random.default_rng(0))
    assert workloads.check_accuracy(truth, truth, 2) == []
    wrong = truth.copy()
    wrong[:100] = 3 - wrong[:100]
    assert workloads.check_accuracy(truth, wrong, 2)
    report = {"metrics": workloads.pair_scores(truth, truth)}
    assert workloads.check_report_scores(report, truth, truth) == []
    assert workloads.check_report_scores(report, truth, wrong)


def test_checks_reject_a_round_that_spans_two_blobs():
    truth = np.array([1, 1, 1, 2, 2, 2])
    assert workloads.check_rounds_single_blob(truth, [np.array([0, 1]), np.array([3, 4, 5])]) == []
    assert workloads.check_rounds_single_blob(truth, [np.array([0, 1, 3])])


def test_pair_scores_agree_with_pava_metrics():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import pava

    rng = np.random.default_rng(3)
    a = rng.integers(1, 5, 300)
    b = rng.integers(1, 4, 300)
    own = workloads.pair_scores(a, b)
    assert own["ri"] == pytest.approx(pava.rand_index(a, b), abs=1e-12)
    assert own["ari"] == pytest.approx(pava.adjusted_rand_index(a, b), abs=1e-12)
    assert own["fs"] == pytest.approx(pava.pairwise_f_score(a, b), abs=1e-12)


def test_euclidean_mst_weight_matches_dense_prim():
    points = np.random.default_rng(5).normal(size=(200, 2))
    d = workloads.euclidean_matrix(points)
    in_tree = np.zeros(200, bool)
    best = np.full(200, np.inf)
    best[0] = 0.0
    total = 0.0
    for _ in range(200):
        u = int(np.argmin(np.where(in_tree, np.inf, best)))
        in_tree[u] = True
        total += best[u]
        best = np.minimum(best, d[u])
    assert workloads.euclidean_mst_weight(points) == pytest.approx(total, rel=1e-12)


def test_compare_flags_label_hash_differences():
    def record(seed, digest, value):
        return {"workload": "matrix-2k", "size": "full", "trace": 0, "seed": seed,
                "attempted": 3, "failed": 0, "labels_sha256": [digest],
                "end_to_end": {"csv_to_labels_s": value}}

    before = [record(1, "aa", 1.0), record(2, "bb", 1.2)]
    after = [record(1, "aa", 0.5), record(2, "cc", 0.6)]
    text = compare.compare(before, after)
    assert "LABELS DIFFER on seeds [2]" in text
    assert "csv_to_labels_s" in text
    assert "0.500" in text
