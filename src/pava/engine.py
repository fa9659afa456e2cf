"""End-to-end clustering: density, tree, and one-cluster-at-a-time extraction.

Each round picks the densest unlabeled object as a generalized center,
computes minmax distances from it over the (adjusted) spanning tree, reads a
radius off the first valley of the distance histogram, and claims every
unlabeled object strictly inside that radius. Rounds repeat until nearly
everything is labeled; the remainder is assigned along the tree. The number
of clusters is never an input: it is however many rounds the data demands.
``sweep`` clusters under several configs from one neighbour query and one raw
tree, neither of which depends on k; ``run`` is its one-config case.

A round runs in the tree's dendrogram position space: the center's distances
are two ascending runs outward from its position, the percentile and the
histogram are read off those runs, and the claimed objects fill one interval
of positions. The centers come off one order shared by all rounds (k-distance,
then the sum of the k nearest distances, then id), and a running mask tracks
what is labeled. The two runs come off run tables built with the tree's
order: each scans at most ``RUN_BLOCK`` gaps and one maximum per later block
one by one, and fills its other positions with one vectorised maximum. That
fill is a round's one pass over all N positions; a degenerate round, which
claims everything left, also writes every unlabeled id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import DissimilarityMatrix, PointSet
from .mstgraph import (
    SpanningTree,
    adjust_weights,
    build_mst,
    forest_k_graph,
    key_order,
    minmax_from_center,
    propagate_labels,
)
from .neighbors import DensityProfile, default_k, k_distance_all, read_profile
from .valley import (
    DEFAULT_BINS,
    DEFAULT_SMOOTH_WINDOW,
    DEFAULT_TRIM_PERCENTILE,
    ENGULF_MARGIN,
    DegenerateHistogramError,
    DistanceHistogram,
    build_histogram,
    cap_percentile,
    first_valley_radius,
    smooth_profile,
)


# The center's own distance, the first run of every round.
_CENTER = np.zeros(1)
_CENTER.flags.writeable = False


@dataclass
class PavaConfig:
    """Tunable knobs; the defaults run the whole pipeline hands-free. The tree
    is not one of them: each input kind has one exact builder (``build_mst``)."""

    k: int | None = None
    use_adjusted: bool = True
    stop_fraction: float = 0.10
    bins: int = DEFAULT_BINS
    smooth_window: int = DEFAULT_SMOOTH_WINDOW
    trim_percentile: float = DEFAULT_TRIM_PERCENTILE
    min_unlabeled: int = 20

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 < self.stop_fraction < 1.0:
            raise ValueError("stop_fraction must be in (0, 1)")
        if self.bins < 3:
            raise ValueError("bins must be >= 3")
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd")
        if not 0.0 < self.trim_percentile <= 100.0:
            raise ValueError("trim_percentile must be in (0, 100]")
        if self.min_unlabeled < 1:
            raise ValueError("min_unlabeled must be >= 1")


@dataclass
class ClusterRound:
    """One extraction round: its center, radius, the objects it claimed, and
    the smoothed histogram its radius was read off, None for a degenerate
    round (all retained distances equal), which claimed everything left."""

    center: int
    radius: float
    claimed: np.ndarray
    duration: float
    histogram: DistanceHistogram | None = field(repr=False)

    @property
    def claimed_count(self) -> int:
        return int(self.claimed.size)


@dataclass
class ClusterModel:
    """A run's labels, rounds (each with its histogram) and timings, and the
    density and trees it used."""

    labels: np.ndarray
    m: int
    rounds: list[ClusterRound]
    timings: dict[str, float]
    density: DensityProfile = field(repr=False)
    raw_tree: SpanningTree = field(repr=False)
    tree: SpanningTree = field(repr=False)


def select_center(queue: list, labeled: np.ndarray) -> int:
    """Unlabeled object that comes first in the center order: the least
    k-distance, then the least sum of the k nearest off-self distances, then
    the smallest index.

    Mutual k-th neighbours share their k-distance, so ties are common on
    continuous input; the sum settles them by the data, not by the ids.
    ``queue`` lists the ids in reverse center order, so its end is the next
    candidate; labeled ids are popped off that end. A run shares one queue
    across its rounds, which makes every round's pick O(1) amortized instead
    of a scan over all N.
    """
    while queue and labeled[queue[-1]]:
        queue.pop()
    if not queue:
        raise ValueError("no unlabeled objects remain")
    return queue[-1]


def extract_cluster(tree: SpanningTree, center: int, cfg: PavaConfig, labeled: np.ndarray):
    """One round: claim every unlabeled object whose minmax distance to center is < radius.

    The radius comes from the valley pipeline over the distances to all N
    objects, the center's own 0 included. A degenerate histogram (all
    distances equal) claims everything still unlabeled. Returns (claimed
    indices ascending, radius, smoothed histogram), the histogram None for a
    degenerate round.
    """
    if labeled[center]:
        raise ValueError(f"center {center} is already labeled")
    position, left, right = minmax_from_center(tree, center)
    runs = (_CENTER, left, right)
    retained = cap_percentile(runs, cfg.trim_percentile)
    try:
        hist = smooth_profile(build_histogram(retained, cfg.bins), cfg.smooth_window)
    except DegenerateHistogramError:
        radius = max(float(run[-1]) for run in runs if run.size) * (1.0 + ENGULF_MARGIN)
        return np.flatnonzero(~labeled), radius, None
    radius = first_valley_radius(hist)
    # Both runs ascend, so the objects inside the radius fill one interval of
    # positions around the center's.
    first = position - int(np.searchsorted(left, radius))
    last = position + int(np.searchsorted(right, radius))
    inside = tree.order[first:last + 1]
    return np.sort(inside[~labeled[inside]]), radius, hist


def run(src, cfg: PavaConfig | None = None) -> ClusterModel:
    """Cluster a PointSet or DissimilarityMatrix; deterministic for fixed
    inputs. ``sweep``'s one-config case."""
    return sweep(src, [cfg if cfg is not None else PavaConfig()])[0]


def sweep(src, cfgs: list[PavaConfig]) -> list[ClusterModel]:
    """One model per config, each the one ``run(src, cfg)`` returns.

    k enters only through the density, so one neighbour query of the largest
    k's columns (and the certified forest's) serves every config's density and
    the raw tree, and that one tree serves every config. A matrix's rows are
    partitioned once, at the largest k, and every smaller k is read off their
    sorted prefix. The first model's ``density_s`` and ``mst_s`` carry every
    density and the tree; each model's ``total_s`` is its share of the call's
    wall time, so the shares add up to it.
    """
    if not isinstance(src, (PointSet, DissimilarityMatrix)):
        raise TypeError(f"unsupported source type {type(src).__name__}")
    if not cfgs:
        return []
    n = src.n
    ks = [cfg.k if cfg.k is not None else default_k(n) for cfg in cfgs]
    start = time.perf_counter()
    # One neighbour query serves every density and the tree's certified forest.
    widest, knn = k_distance_all(src, max(ks), forest_k_graph(n))
    densities = [widest if k == widest.k else read_profile(knn[0], k) for k in ks]
    t1 = time.perf_counter()
    raw_tree = build_mst(src, knn)
    del knn
    timings = {"density_s": t1 - start, "mst_s": time.perf_counter() - t1}
    models: list[ClusterModel] = []
    for cfg, density in zip(cfgs, densities):
        t2 = time.perf_counter()
        tree = adjust_weights(raw_tree, density) if cfg.use_adjusted else raw_tree
        t3 = time.perf_counter()
        timings["adjust_s"] = t3 - t2
        tree.order  # the dendrogram order every round reads, computed once here
        t4 = time.perf_counter()
        timings["order_s"] = t4 - t3

        labels = np.zeros(n, dtype=np.int64)
        labeled = np.zeros(n, dtype=bool)
        labeled_count = 0
        queue = key_order(density.ksum, density.kdist)[::-1].tolist()
        rounds: list[ClusterRound] = []
        target_labeled = (1.0 - cfg.stop_fraction) * n
        while True:
            round_start = time.perf_counter()
            center = select_center(queue, labeled)
            claimed, radius, hist = extract_cluster(tree, center, cfg, labeled)
            m = len(rounds) + 1
            labels[claimed] = m
            labeled[claimed] = True
            labeled_count += claimed.size
            rounds.append(ClusterRound(center, radius, claimed, time.perf_counter() - round_start, hist))
            if labeled_count >= target_labeled or n - labeled_count < cfg.min_unlabeled:
                break
        t5 = time.perf_counter()
        timings["extraction_s"] = t5 - t4

        if np.any(labels == 0):
            labels = propagate_labels(tree, labels)
        end = time.perf_counter()
        timings["propagation_s"] = end - t5
        timings["total_s"] = end - start
        models.append(ClusterModel(labels, len(rounds), rounds, timings, density, raw_tree, tree))
        start, timings = end, {"density_s": 0.0, "mst_s": 0.0}
    return models
