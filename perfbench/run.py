"""pava's benchmark: one run of one workload, driven through `pava cluster`.

Usage:
    python3 perfbench/run.py --workload rings-exact --seed 1 --seconds 50 --trace 0

The run generates the workload's inputs from the seed (several times, to time
set-up), computes what the outputs are checked against, then starts
``perfbench/worker.py``, which calls ``pava.cli.main`` in-process until the
run length has passed. Every invocation is one operation; it fails when pava
exits non-zero or when any check of its outputs fails. The last line on
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. The same figures, the per-invocation
samples, label hashes and an environment record are appended to the results
file (``perfbench/out/results.jsonl`` by default).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
WARMUP_SEED_OFFSET = 1000
# Thread pools of the BLAS and OpenMP runtimes numpy and scipy may load; set to
# 1 unless the caller sets them, so that idle pool threads do not spin on the
# other cores.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed invocations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: cycle untraced, span-traced and peak-traced invocations; "
                             "report per-layer metrics")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: small inputs, same checks, for the benchmark's own tests")
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                        help="JSON-lines file the run's full record is appended to")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def thread_cap() -> str:
    """PAVA_THREADS for the run: the caller's value if it is 1..nproc, else 1.

    One thread by default: on a few shared cores, a query split over several
    threads waits for whichever thread the host schedules last, so its time
    measures the scheduler more than the program.
    """
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get("PAVA_THREADS", "")
    if raw.isdigit() and 1 <= int(raw) <= nproc:
        return raw
    return "1"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills the worker and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pava" / "__init__.py").is_file():
        print(f"error: pava sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PAVA_THREADS"] = thread_cap()
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    import numpy as np
    import scipy

    import calibrate
    import pava
    import workloads
    from spans import layer_metrics, median_metrics

    if Path(pava.__file__).resolve().parent != SRC / "pava":
        print(f"error: imported pava from {pava.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        generate_samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workloads.generate(wl, args.size, args.seed, work / "input")
            warm = workloads.generate(wl, "smoke", args.seed + WARMUP_SEED_OFFSET, work / "warmup")
            generate_samples.append(time.perf_counter() - t0)
        refs = workloads.references(wl, inputs, args.seed)
        makeup = workloads.input_makeup(wl, inputs)

        spec = {
            "src": str(SRC),
            "work": str(work),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "argv": workloads.cluster_argv(wl, inputs),
            "warmup_argv": workloads.cluster_argv(wl, warm),
        }
        # The worker's start-up and warm-up is timed SETUP_REPEATS times too:
        # by workers that stop after the warm-up, and by the one that goes on.
        warmup_samples = []
        for repeat in range(SETUP_REPEATS):
            spec["warmup_only"] = repeat < SETUP_REPEATS - 1
            (work / "spec.json").write_text(json.dumps(spec))
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                           stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S)
            result = json.loads((work / "records.json").read_text())
            warmup_samples.append(result["warmup_s"])
        setup_samples = [g + w for g, w in zip(generate_samples, warmup_samples)]

        failures = {}
        hashes = {}
        quality = {}
        for rec in result["invocations"]:
            out = work / rec["dir"]
            if rec["rc"] != 0:
                failures[rec["dir"]] = [f"pava cluster exited with {rec['rc']}"]
                continue
            probe = {}
            if (out / "probe.npz").is_file():
                with np.load(out / "probe.npz") as z:
                    probe["claimed"] = np.split(z["claimed"], np.cumsum(z["sizes"])[:-1])
                    probe["tree_weight"] = float(z["tree_weight"])
            try:
                fails = workloads.check_invocation(wl, out, inputs, refs, probe)
                digest = sha256(out / "labels.csv")
                quality.setdefault(digest, workloads.quality(inputs.truth, out / "labels.csv"))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failures[rec["dir"]] = [f"unreadable output: {exc!r}"]
                continue
            hashes[rec["dir"]] = digest
            if digest != next(iter(hashes.values())):
                fails.append("labels differ from the run's first invocation")
            if fails:
                failures[rec["dir"]] = fails
        for name, fails in failures.items():
            for fail in fails:
                print(f"FAILED {args.workload} {name}: {fail}", file=sys.stderr)

        invocations = result["invocations"]
        ok = {kind: [r for r in invocations if r["kind"] == kind and r["rc"] == 0]
              for kind in ("plain", "spans", "peaks")}
        untraced = ok["plain"]
        attempted = len(invocations)
        failed = len(failures)
        correct = all(rec["dir"] not in failures or rec["rc"] != 0 for rec in invocations)

        # Each invocation's times at the reference machine speed (see calibrate.py).
        scaled = {key: [r[key] * calibrate.REFERENCE_S / statistics.mean(r["reference_s"])
                        for r in untraced]
                  for key in ("csv_to_labels_s", "cluster_s")}
        e2e = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "csv_to_labels_s": (statistics.median(scaled["csv_to_labels_s"]), "s"),
            "cluster_s": (statistics.median(scaled["cluster_s"]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {k: v for k, (v, _) in e2e.items()},
            "samples": {
                "setup_generate_s": generate_samples,
                "warmup_s": warmup_samples,
                "csv_to_labels_s": [r["csv_to_labels_s"] for r in untraced],
                "cluster_s": [r["cluster_s"] for r in untraced],
                "reference_s": [r["reference_s"] for r in untraced],
                "scaled_csv_to_labels_s": scaled["csv_to_labels_s"],
                "scaled_cluster_s": scaled["cluster_s"],
            },
            "labels_sha256": sorted(set(hashes.values())),
            "quality": [quality[h] for h in sorted(quality)],
            "failures": failures,
            "env": {
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "pava_threads": os.environ["PAVA_THREADS"],
                "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "pava": pava.__version__,
                "git_commit": git_commit(),
                "platform": platform.platform(),
            },
            "inputs": makeup,
        }
        metrics = e2e
        if args.trace:
            by_invocation: dict = {}
            for span in result["spans"]:
                by_invocation.setdefault(span[0], []).append(span)
            per_inv = {kind: [layer_metrics(by_invocation[r["index"]], r["csv_to_labels_s"])
                              for r in ok[kind]]
                       for kind in ("spans", "peaks")}
            layers = median_metrics(per_inv["spans"], per_inv["peaks"])
            plain_s = statistics.median(r["csv_to_labels_s"] for r in untraced)
            for kind, name in (("spans", "trace.overhead_ratio"), ("peaks", "trace.peak_overhead_ratio")):
                layers[name] = statistics.median(r["csv_to_labels_s"] for r in ok[kind]) / plain_s
            metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
            record["per_layer"] = layers
            record["per_layer_invocations"] = per_inv["spans"]
            record["missing_sites"] = result["missing_sites"]
            spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}-{args.size}.json"
            spans_path.parent.mkdir(exist_ok=True)
            spans_path.write_text(json.dumps(
                {"fields": ["invocation", "id", "parent", "name", "start", "end", "peak_bytes"],
                 "spans": result["spans"]}))
            record["spans_file"] = str(spans_path.relative_to(ROOT))

        args.results.parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        print(f"env: {json.dumps(record['env'])}")
        print(f"inputs: {json.dumps(makeup)}")
        print(f"labels_sha256: {' '.join(record['labels_sha256'])}")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def unit_of(metric: str) -> str:
    if metric.endswith("_calls"):
        return "count"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
