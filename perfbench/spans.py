"""In-process instrumentation of pava for the benchmark's worker.

``Probe`` is always installed. It times ``pava.run`` as the CLI calls it and
keeps the objects the checks need: the model the run returned and the weight
of the tree the engine built. It adds two function calls per invocation.

``Tracer`` is installed only around traced invocations. It replaces each
cross-module call site listed in ``SITES`` with a wrapper that records a span
(name, start, end, parent) in memory. A site is a module attribute through
which ``pava.cli``, ``pava.engine`` or ``pava.mstgraph`` call another layer;
the program's sources are not edited. Spans are named ``<layer>.<function>``,
the layer being the module that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("dataset", "neighbors", "mstgraph", "valley", "engine", "metrics", "cli")

# Module attribute -> function it is looked up as at call time. The CLI
# imports build_mst/adjust_weights from pava.mstgraph inside a function, and
# pava.mstgraph imports build_index from pava.neighbors the same way, so those
# are wrapped where they are looked up.
SITES = {
    "pava.cli": ("load_points_csv", "load_matrix_csv", "load_labels_csv", "save_labels_csv",
                 "run", "rand_index", "adjusted_rand_index", "pairwise_f_score",
                 "k_distance_all", "default_k"),
    "pava.engine": ("k_distance_all", "default_k", "build_mst", "adjust_weights",
                    "minmax_from_center", "propagate_labels", "select_center",
                    "cap_percentile", "build_histogram", "smooth_profile",
                    "first_valley_radius"),
    "pava.mstgraph": ("build_mst", "adjust_weights", "default_k"),
    "pava.neighbors": ("build_index",),
}
ROOT_SPAN = "cli.main"
# Spans that also record their traced allocation peak (tracemalloc).
PEAK_SPANS = ("dataset.load_points_csv", "dataset.load_matrix_csv", "dataset.load_labels_csv",
              "neighbors.k_distance_all")
MB = float(1 << 20)


def _swap(module_name: str, name: str, make_wrapper, saved: list) -> bool:
    module = importlib.import_module(module_name)
    fn = getattr(module, name, None)
    if fn is None:
        return False
    saved.append((module, name, fn))
    setattr(module, name, make_wrapper(fn))
    return True


def _restore(saved: list) -> None:
    for module, name, fn in reversed(saved):
        setattr(module, name, fn)
    saved.clear()


class Probe:
    """Captures the run's model, its duration and the engine's raw tree weight."""

    def __init__(self):
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.cluster_s = None
        self.model = None
        self.tree_weight = None

    def install(self) -> None:
        _swap("pava.cli", "run", self._wrap_run, self._saved)
        _swap("pava.engine", "build_mst", self._wrap_build_mst, self._saved)

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            model = fn(*args, **kwargs)
            self.cluster_s = time.perf_counter() - start
            self.model = model
            return model
        return run

    def _wrap_build_mst(self, fn):
        @functools.wraps(fn)
        def build_mst(*args, **kwargs):
            tree = fn(*args, **kwargs)
            self.tree_weight = float(tree.edge_w.sum())
            return tree
        return build_mst


class Tracer:
    """Records one span per wrapped call; spans stay in memory until the run ends."""

    def __init__(self):
        # Each span: [invocation, id, parent id or None, name, start, end, peak bytes or None]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._wrappers: dict = {}
        self.invocation = -1
        self.peaks = False

    def install(self, invocation: int, peaks: bool = False) -> None:
        """Wrap every site; with ``peaks``, PEAK_SPANS also record allocation peaks."""
        self.invocation = invocation
        self.peaks = peaks
        self.missing = []
        for module_name, names in SITES.items():
            for name in names:
                if not _swap(module_name, name, self._wrapper, self._saved):
                    self.missing.append(f"{module_name}.{name}")

    def uninstall(self) -> None:
        _restore(self._saved)

    def _wrapper(self, fn):
        # One wrapper per function object, whichever module it is looked up in.
        if id(fn) not in self._wrappers:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

            # Holding fn keeps its id from being reused by another object.
            self._wrappers[id(fn)] = (fn, traced)
        return self._wrappers[id(fn)][1]

    def call(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [self.invocation, span_id, parent, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span_id)
        # Peak spans do not nest today; a nested one would skip its own peak.
        tracking = self.peaks and name in PEAK_SPANS and not tracemalloc.is_tracing()
        if tracking:
            tracemalloc.start()
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            if tracking:
                span[6] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer figures of one traced invocation, from its spans.

    Function times are inclusive sums over the invocation; ``*_self_s`` and
    ``<layer>.self_s`` exclude the time covered by child spans, so the layer
    self times add up to the root span. ``trace.uncovered_s`` is the part of
    the invocation's wall time that no span covers.
    """
    children = defaultdict(float)
    for span in spans:
        if span[2] is not None:
            children[span[2]] += span[5] - span[4]
    incl = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    peak = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        name = span[3]
        duration = span[5] - span[4]
        own = duration - children[span[1]]
        incl[name] += duration
        self_time[name] += own
        calls[name] += 1
        if span[6] is not None:
            peak[name] = max(peak[name], span[6])
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def total(*names):
        return sum(incl[n] for n in names)

    loads = ("dataset.load_points_csv", "dataset.load_matrix_csv", "dataset.load_labels_csv")
    out = {
        "dataset.load_s": total(*loads),
        "dataset.load_peak_mb": max(peak.get(n, 0) for n in loads) / MB,
        "dataset.save_s": total("dataset.save_labels_csv"),
        "neighbors.k_distance_all_s": total("neighbors.k_distance_all"),
        "neighbors.k_distance_all_peak_mb": peak.get("neighbors.k_distance_all", 0) / MB,
        "neighbors.k_distance_all_calls": calls["neighbors.k_distance_all"],
        "mstgraph.build_mst_s": total("mstgraph.build_mst"),
        "mstgraph.build_mst_calls": calls["mstgraph.build_mst"],
        "mstgraph.adjust_weights_s": total("mstgraph.adjust_weights"),
        "mstgraph.minmax_from_center_s": total("mstgraph.minmax_from_center"),
        "mstgraph.minmax_from_center_calls": calls["mstgraph.minmax_from_center"],
        "mstgraph.propagate_labels_s": total("mstgraph.propagate_labels"),
        "mstgraph.propagate_labels_calls": calls["mstgraph.propagate_labels"],
        "valley.cap_percentile_s": total("valley.cap_percentile"),
        "valley.build_histogram_s": total("valley.build_histogram"),
        "valley.smooth_profile_s": total("valley.smooth_profile"),
        "valley.first_valley_radius_s": total("valley.first_valley_radius"),
        "engine.select_center_s": total("engine.select_center"),
        "engine.run_self_s": self_time["engine.run"],
        "metrics.score_s": total("metrics.rand_index", "metrics.adjusted_rand_index",
                                 "metrics.pairwise_f_score"),
        "cli.main_self_s": self_time[ROOT_SPAN],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.uncovered_s"] = wall_s - sum(layer_self.values())
    return out


def median_metrics(spans_invocations: list[dict], peaks_invocations: list[dict]) -> dict:
    """Median of each figure over a run: peaks from the invocations that traced
    allocations, everything else from those that recorded spans only."""
    return {key: statistics.median(m[key] for m in
                                   (peaks_invocations if key.endswith("_peak_mb")
                                    else spans_invocations))
            for key in spans_invocations[0]}
