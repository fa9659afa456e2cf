"""Child process of one benchmark run: only the timed `pava cluster` invocations.

Usage: python3 perfbench/worker.py SPEC.json

The parent writes the spec (sources, arguments, run length, tracing, and
whether to stop after the warm-up) and reads back ``records.json`` from the
run's work directory. Running the invocations in their own process lets the
parent report that process's resident-memory high-water mark without the
set-up in it. The worker first warms up on a small input with the same flags,
then calls ``pava.cli.main`` in-process until the run length has passed,
collecting garbage (untimed) before each invocation so that every one starts
from the same heap. Between invocations, and before the first, it has
``calibrate.ReferenceProcess`` time the reference task, so that the parent can
scale each invocation to a fixed machine speed. With tracing on, invocations
cycle through three kinds: untraced, traced with spans only, and traced with
spans plus allocation peaks. Allocation tracing slows the invocation it runs
in several-fold (on a large CSV parse), so span times come from the second
kind and peaks from the third, and the untraced invocations of the same run
give the tracing overhead.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _argv(template: list[str], out: Path) -> list[str]:
    return [arg.replace("{out}", str(out)) for arg in template]


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import numpy as np
    import pava.cli

    import calibrate
    from spans import ROOT_SPAN, Probe, Tracer

    work = Path(spec["work"])
    probe = Probe()
    probe.install()
    warm = work / "warmup-out"
    warm.mkdir(exist_ok=True)
    if pava.cli.main(_argv(spec["warmup_argv"], warm)) != 0:
        print("warm-up invocation failed", file=sys.stderr)
        return 1
    warmup_s = time.perf_counter() - STARTED
    if spec["warmup_only"]:
        (work / "records.json").write_text(json.dumps({"warmup_s": warmup_s}))
        return 0

    probe.reset()
    tracer = Tracer() if spec["trace"] else None
    kinds = ("plain", "spans", "peaks") if tracer else ("plain",)
    records = []
    with calibrate.ReferenceProcess() as reference:
        gc.collect()
        reference_s = reference.time()
        start = time.perf_counter()
        while True:
            i = len(records)
            kind = kinds[i % len(kinds)]
            traced = kind != "plain"
            out = work / f"inv{i:03d}"
            out.mkdir()
            argv = _argv(spec["argv"], out)
            gc.collect()
            if traced:
                tracer.install(i, peaks=kind == "peaks")
            t0 = time.perf_counter()
            try:
                rc = tracer.call(ROOT_SPAN, pava.cli.main, argv) if traced else pava.cli.main(argv)
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.uninstall()
            if probe.model is not None:
                claimed = [r.claimed for r in probe.model.rounds]
                np.savez(out / "probe.npz", claimed=np.concatenate(claimed),
                         sizes=np.array([len(c) for c in claimed]),
                         tree_weight=np.float64(probe.tree_weight))
            cluster_s = probe.cluster_s
            probe.reset()
            gc.collect()
            reference_after = reference.time()
            records.append({"index": i, "dir": out.name, "rc": rc, "kind": kind,
                            "csv_to_labels_s": t1 - t0, "cluster_s": cluster_s,
                            "reference_s": [reference_s, reference_after]})
            reference_s = reference_after
            done = time.perf_counter() - start >= spec["seconds"]
            if done and len(records) % len(kinds) == 0:
                break

    result = {
        "warmup_s": warmup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": records,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing_sites"] = tracer.missing
    (work / "records.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
