"""Command-line front end: generate datasets, cluster, evaluate, sweep k.

Exit codes: 0 on success, 1 on pipeline errors, 2 on usage or validation
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    SHAPES,
    generate_synthetic,
    load_labels_csv,
    load_matrix_csv,
    load_points_csv,
    save_labels_csv,
    save_points_csv,
    write_csv,
)
from .engine import ClusterModel, PavaConfig, run, sweep
from .metrics import adjusted_rand_index, pairwise_f_score, rand_index
from .neighbors import default_k, k_distance_all, query_workers  # noqa: F401 (traced)

REPORT_SCHEMA = 1


class UsageError(ValueError):
    """Bad arguments or unusable input files; maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pava",
        description="Path-based valley-seeking clustering on a density-adjusted MST.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic benchmark dataset")
    p_gen.add_argument("--shape", required=True, choices=SHAPES)
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output prefix for .points.csv / .labels.csv")
    p_gen.set_defaults(func=cmd_generate)

    p_cluster = sub.add_parser("cluster", help="cluster a points CSV or dissimilarity matrix CSV")
    p_cluster.add_argument("input", help="input CSV path")
    p_cluster.add_argument("--matrix", action="store_true",
                           help="treat the input as an N x N dissimilarity matrix")
    _add_config_flags(p_cluster)
    p_cluster.add_argument("--labels-true", help="ground-truth labels CSV for metrics in the report")
    p_cluster.add_argument("--labels-out", help="predicted labels CSV (default <stem>.pred.csv)")
    p_cluster.add_argument("--report-out", help="JSON run report (default <stem>.report.json)")
    p_cluster.add_argument("--emit-mst", metavar="PREFIX",
                           help="dump raw (and adjusted) tree edge lists as CSV")
    p_cluster.add_argument("--emit-kdist", metavar="PATH", help="dump per-object k-distance CSV")
    p_cluster.add_argument("--emit-histogram", metavar="PREFIX",
                           help="dump per-round histogram CSVs")
    p_cluster.set_defaults(func=cmd_cluster)

    p_eval = sub.add_parser("evaluate", help="compare predicted labels against ground truth")
    p_eval.add_argument("labels_pred")
    p_eval.add_argument("labels_true")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="run the pipeline across several k values")
    p_sweep.add_argument("input")
    p_sweep.add_argument("--matrix", action="store_true")
    p_sweep.add_argument("--k-values", required=True,
                         help="comma-separated list of k values, e.g. 5,6,7")
    p_sweep.add_argument("--repeats", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="provenance seed echoed into the output rows")
    p_sweep.add_argument("--labels-true", help="ground-truth labels CSV for the metric columns")
    p_sweep.add_argument("--no-adjust", action="store_true")
    p_sweep.add_argument("--mst", choices=("exact", "approximate"), help="accepted and ignored")
    p_sweep.add_argument("--out", help="write the CSV table here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = PavaConfig()
    parser.add_argument("--k", type=int, help="neighbor count (default: ceil(ln N))")
    parser.add_argument("--no-adjust", action="store_true",
                        help="use the raw tree instead of the density-adjusted one")
    parser.add_argument("--stop-fraction", type=float, default=defaults.stop_fraction)
    parser.add_argument("--bins", type=int, default=defaults.bins)
    parser.add_argument("--smooth-window", type=int, default=defaults.smooth_window)
    parser.add_argument("--percentile", type=float, default=defaults.trim_percentile)
    parser.add_argument("--mst", choices=("exact", "approximate"), help="accepted and ignored")
    parser.add_argument("--min-unlabeled", type=int, default=defaults.min_unlabeled)


def _require_file(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise UsageError(f"no such file: {path}")
    return path


def _load_source(path: Path, matrix: bool):
    return load_matrix_csv(path) if matrix else load_points_csv(path)


def _make_config(args, n: int) -> PavaConfig:
    if args.k is not None and args.k >= n:
        raise UsageError(f"k must be < N (k={args.k}, N={n})")
    try:
        return PavaConfig(
            k=args.k,
            use_adjusted=not args.no_adjust,
            stop_fraction=args.stop_fraction,
            bins=args.bins,
            smooth_window=args.smooth_window,
            trim_percentile=args.percentile,
            min_unlabeled=args.min_unlabeled,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_generate(args) -> int:
    try:
        points, labels = generate_synthetic(args.shape, args.n, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    points_path = Path(f"{args.out}.points.csv")
    labels_path = Path(f"{args.out}.labels.csv")
    save_points_csv(points_path, points)
    save_labels_csv(labels_path, labels)
    print(f"generated {args.shape}: {points.n} points, {labels.m} clusters "
          f"-> {points_path}, {labels_path}")
    return 0


def _default_out(input_path: Path, suffix: str) -> Path:
    stem = input_path.name
    for trailing in (".csv", ".points"):
        if stem.endswith(trailing):
            stem = stem[: -len(trailing)]
    return input_path.with_name(stem + suffix)


def _scores(truth: np.ndarray, pred: np.ndarray) -> dict:
    """Rand index, adjusted Rand index and pairwise F-score of pred against truth."""
    return {
        "ri": rand_index(truth, pred),
        "ari": adjusted_rand_index(truth, pred),
        "fs": pairwise_f_score(truth, pred),
    }


def _load_truth(labels_true_path, n: int) -> np.ndarray:
    truth = load_labels_csv(_require_file(labels_true_path))
    if truth.n != n:
        raise UsageError(f"label count mismatch: {labels_true_path} has {truth.n} rows, expected {n}")
    return truth.labels


def _check_threads() -> None:
    try:
        query_workers()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _report_dict(source_path: Path, matrix: bool, src, cfg: PavaConfig,
                 model: ClusterModel, metrics: dict | None) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "input": str(source_path),
        "mode": "matrix" if matrix else "points",
        "n": src.n,
        "dim": getattr(src, "dim", None),
        "config": dataclasses.asdict(cfg),
        "m": model.m,
        "rounds": [
            {
                "center": r.center,
                "radius": r.radius if np.isfinite(r.radius) else None,  # strict JSON
                "claimed": r.claimed_count,
                "duration_s": r.duration,
            }
            for r in model.rounds
        ],
        "timings": model.timings,
        "metrics": metrics,
    }


def _emit_artifacts(args, src, cfg: PavaConfig, model: ClusterModel) -> None:
    if args.emit_kdist:  # recomputed, like the trees below: see ROADMAP items 1 and 3
        write_csv(args.emit_kdist, [k_distance_all(src, model.density.k).kdist], ["%.17g"])
    if args.emit_mst:
        from .mstgraph import adjust_weights, build_mst, forest_k_graph

        # One neighbour query serves the tree and its adjustment, as in run().
        density, lists = k_distance_all(src, model.density.k, forest_k_graph(src.n))
        raw = build_mst(src, lists)
        _write_edges(f"{args.emit_mst}.mst_raw.csv", raw)
        if cfg.use_adjusted:
            _write_edges(f"{args.emit_mst}.mst_adjusted.csv", adjust_weights(raw, density))
    if args.emit_histogram:
        for i, rnd in enumerate(model.rounds, start=1):
            hist = rnd.histogram
            if hist is None:  # a degenerate round reads no histogram
                continue
            write_csv(
                f"{args.emit_histogram}.round{i}.csv",
                [hist.bin_centers, hist.raw_freq, hist.shifted_freq, hist.smoothed_freq,
                 [rnd.radius] * hist.bins],
                ["%.17g"] * 5,
                header="bin_center,raw_freq,shifted_freq,smoothed_freq,radius",
            )


def _write_edges(path, tree) -> None:
    write_csv(path, [tree.edge_u, tree.edge_v, tree.edge_w], ["%d", "%d", "%.17g"],
              header="u,v,weight")


def cmd_cluster(args) -> int:
    _check_threads()
    input_path = _require_file(args.input)
    src = _load_source(input_path, args.matrix)
    cfg = _make_config(args, src.n)
    model = run(src, cfg)

    metrics = _scores(_load_truth(args.labels_true, src.n), model.labels) if args.labels_true else None
    labels_out = Path(args.labels_out) if args.labels_out else _default_out(input_path, ".pred.csv")
    report_out = Path(args.report_out) if args.report_out else _default_out(input_path, ".report.json")
    save_labels_csv(labels_out, model.labels)
    report = _report_dict(input_path, args.matrix, src, cfg, model, metrics)
    report_out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
    _emit_artifacts(args, src, cfg, model)
    print(f"clustered {src.n} objects into {model.m} clusters "
          f"in {model.timings['total_s']:.3f}s -> {labels_out}")
    return 0


def cmd_evaluate(args) -> int:
    pred = load_labels_csv(_require_file(args.labels_pred))
    truth = load_labels_csv(_require_file(args.labels_true))
    if pred.n != truth.n:
        raise UsageError(f"label count mismatch: {pred.n} vs {truth.n}")
    print(",".join(map(str, _scores(truth.labels, pred.labels).values())))
    return 0


def cmd_sweep(args) -> int:
    try:
        k_values = [int(tok) for tok in args.k_values.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --k-values: {args.k_values!r}") from None
    if not k_values:
        raise UsageError("empty k list")
    if args.repeats < 1:
        raise UsageError("repeats must be >= 1")
    try:
        configs = [PavaConfig(k=k, use_adjusted=not args.no_adjust) for k in k_values]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_threads()
    input_path = _require_file(args.input)
    src = _load_source(input_path, args.matrix)
    if max(k_values) >= src.n:
        raise UsageError(f"k must be < N (k={max(k_values)}, N={src.n})")
    truth = _load_truth(args.labels_true, src.n) if args.labels_true else None

    rows = [[] for _ in configs]  # per k, one row per repeat
    for rep in range(args.repeats):
        for row, cfg, model in zip(rows, configs, sweep(src, configs)):
            scores = _scores(truth, model.labels).values() if truth is not None else ("",) * 3
            t = model.timings
            row.append(
                f"{input_path.name},{cfg.k},{rep},{args.seed},{','.join(map(str, scores))},{model.m},"
                f"{t['total_s'] * 1e3:.3f},{t['density_s'] * 1e3:.3f},{t['mst_s'] * 1e3:.3f},"
                f"{t['extraction_s'] * 1e3:.3f},{t['propagation_s'] * 1e3:.3f}"
            )
    header = "dataset,k,repeat,seed,RI,ARI,FS,M,runtime_ms,density_ms,mst_ms,extract_ms,propagate_ms"
    table = "\n".join([header] + [line for row in rows for line in row]) + "\n"
    if args.out:
        Path(args.out).write_text(table)
    else:
        sys.stdout.write(table)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
