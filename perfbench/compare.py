"""Compare two benchmark result files side by side.

Usage: python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

For each workload (and size and trace setting) found in either file, prints
every metric's median and quartiles over that file's runs, the number of
runs, and the ratio of the medians. Runs of the same workload and seed whose
label hashes differ are flagged; the flag is informational and does not
change the exit code.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def group(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["size"], rec["trace"])].append(rec)
    return groups


def metric_values(records: list[dict]) -> dict:
    values = defaultdict(list)
    for rec in records:
        for name, value in {**rec["end_to_end"], **rec.get("per_layer", {})}.items():
            values[name].append(value)
    return values


def label_differences(before: list[dict], after: list[dict]) -> list[int]:
    hashes_before = defaultdict(set)
    hashes_after = defaultdict(set)
    for rec in before:
        hashes_before[rec["seed"]].update(rec["labels_sha256"])
    for rec in after:
        hashes_after[rec["seed"]].update(rec["labels_sha256"])
    return sorted(seed for seed in hashes_before.keys() & hashes_after.keys()
                  if hashes_before[seed] != hashes_after[seed])


def fmt(stats) -> str:
    if stats is None:
        return f"{'-':>34}"
    (median, q1, q3), runs = stats
    return f"{median:>11.5g} [{q1:.5g}, {q3:.5g}] n={runs:<3d}"


def compare(before: list[dict], after: list[dict]) -> str:
    lines = []
    groups_before = group(before)
    groups_after = group(after)
    for key in sorted(groups_before.keys() | groups_after.keys()):
        workload, size, trace = key
        recs_b = groups_before.get(key, [])
        recs_a = groups_after.get(key, [])
        lines.append(f"== {workload} (size {size}, trace {trace})")
        lines.append(f"{'metric':<36}{'before: median [q1, q3]':>34}  "
                     f"{'after: median [q1, q3]':>34}  after/before")
        vals_b = metric_values(recs_b)
        vals_a = metric_values(recs_a)
        for name in sorted(vals_b.keys() | vals_a.keys()):
            stats_b = (summary(vals_b[name]), len(vals_b[name])) if name in vals_b else None
            stats_a = (summary(vals_a[name]), len(vals_a[name])) if name in vals_a else None
            ratio = ""
            if stats_b and stats_a and stats_b[0][0]:
                ratio = f"{stats_a[0][0] / stats_b[0][0]:.3f}"
            lines.append(f"{name:<36}{fmt(stats_b)}  {fmt(stats_a)}  {ratio}")
        failed_b = sum(r["failed"] for r in recs_b)
        failed_a = sum(r["failed"] for r in recs_a)
        lines.append(f"failed/attempted: before {failed_b}/{sum(r['attempted'] for r in recs_b)}, "
                     f"after {failed_a}/{sum(r['attempted'] for r in recs_a)}")
        differ = label_differences(recs_b, recs_a)
        if differ:
            lines.append(f"LABELS DIFFER on seeds {differ}")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    print(compare(load(argv[0]), load(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
