"""Cluster radius from the first valley of a smoothed distance histogram.

A center's distances to all objects approximate a density of distances; the
first local minimum of that curve marks where the current cluster ends. The
pipeline is: trim the far tail at a percentile, bin into equal-width bins,
subtract one from every count (so empty bins drop to -1 and sparse
between-cluster stretches register as deep valleys), smooth with a shrinking
moving average, and scan for the first interior valley.

The trim and the histogram take a tuple of ascending runs: the runs a
center's minmax distances form in dendrogram position space. A round thus
reads two order statistics off the runs' tails and each bin count off binary
searches instead of sorting or scanning N values. The threshold is numpy's
linear percentile and the edges are np.histogram's; bins are half-open, the
last one closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_BINS = 200
DEFAULT_SMOOTH_WINDOW = 21
DEFAULT_TRIM_PERCENTILE = 99.0
# Fallback radius multiplier when the profile has no interior valley: slightly
# above the largest retained distance, so one last cluster engulfs everything.
ENGULF_MARGIN = 1e-9


class DegenerateHistogramError(ValueError):
    """All retained distances are identical, or span too narrow a range for
    equal-width bins; no histogram can be formed."""


@dataclass(frozen=True, eq=False)
class DistanceHistogram:
    bin_edges: np.ndarray
    bin_centers: np.ndarray
    raw_freq: np.ndarray
    shifted_freq: np.ndarray
    smoothed_freq: np.ndarray | None = None
    smooth_window: int | None = None

    @property
    def bins(self) -> int:
        return self.raw_freq.size

    @property
    def max_distance(self) -> float:
        return float(self.bin_edges[-1])


def _linear_percentile(runs, total: int, p: float) -> float:
    """numpy's ``linear`` percentile of the union of ascending runs, with its
    arithmetic: the two order statistics around (total - 1) * p / 100 are read
    off the runs' tails, which hold the union's largest values."""
    h = (total - 1) * (p / 100)
    below = min(int(h), total - 1)  # h >= 0, so int() is its floor
    count = total - below  # order statistics from rank `below` to the top
    tail = np.sort(np.concatenate([run[-count:] for run in runs]), kind="stable")
    a = float(tail[-count])
    if below == total - 1:
        return a
    b = float(tail[1 - count])
    gamma = h - below
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def cap_percentile(runs: tuple, p: float = DEFAULT_TRIM_PERCENTILE) -> tuple:
    """Keep distances up to the p-th percentile; the tail above it is dropped.

    ``runs`` is a tuple of ascending float arrays, such as a center's minmax
    distances in dendrogram position space; a plain array is a TypeError.
    Returns each run cut at the threshold, which is numpy's linear-
    interpolation percentile of the runs' union, bit for bit. p = 100 keeps
    everything, and a constant vector passes through untouched.
    """
    if not isinstance(runs, tuple):
        raise TypeError(f"expected a tuple of ascending runs, got {type(runs).__name__}")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    total = 0
    for run in runs:
        total += run.size
    if total == 0:
        raise ValueError("empty distance vector")
    threshold = _linear_percentile(runs, total, p)
    return tuple(run[:np.searchsorted(run, threshold, side="right")] for run in runs)


def build_histogram(runs: tuple, bins: int = DEFAULT_BINS) -> DistanceHistogram:
    """Equal-width histogram over [min, max] of the retained distances.

    ``runs`` is a tuple of ascending runs, as for ``cap_percentile``. The
    edges are np.histogram's own. Bins are half-open with the last one
    closed, and every value is counted in the bin its edges give it: per run,
    the count below each edge is one binary search. shifted_freq is
    raw_freq - 1, so empty bins carry -1.
    """
    if not isinstance(runs, tuple):
        raise TypeError(f"expected a tuple of ascending runs, got {type(runs).__name__}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    runs = [run for run in runs if run.size]
    if not runs:
        raise ValueError("empty distance vector")
    lo = min([float(run[0]) for run in runs])
    hi = max([float(run[-1]) for run in runs])
    if lo == hi:
        raise DegenerateHistogramError("all distances identical")
    edges = np.linspace(lo, hi, bins + 1)
    # A range only a few subnormals wide cannot hold `bins` distinct edges.
    if (edges[1:] - edges[:-1] <= 0).any():
        raise DegenerateHistogramError(f"distance range too narrow for {bins} bins")
    below = np.searchsorted(runs[0], edges)  # values under each edge
    total = runs[0].size
    for run in runs[1:]:
        below += np.searchsorted(run, edges)
        total += run.size
    below[-1] = total
    raw = below[1:] - below[:-1]
    half = edges * 0.5  # exact, so no sum of two edges overflows
    centers = half[:-1] + half[1:]
    return DistanceHistogram(edges, centers, raw, raw - 1)


def smooth_profile(h: DistanceHistogram, window: int = DEFAULT_SMOOTH_WINDOW) -> DistanceHistogram:
    """Centered moving average with symmetrically shrinking end windows.

    The first and last bins pass through unsmoothed, the second and
    second-to-last average 3 points, and so on up to the full window.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd count, got {window}")
    lo, hi, width = _window_bounds(h.shifted_freq.size, window)
    cum = np.zeros(h.shifted_freq.size + 1)
    np.cumsum(h.shifted_freq, dtype=np.float64, out=cum[1:])
    smoothed = (cum[hi] - cum[lo]) / width
    return DistanceHistogram(h.bin_edges, h.bin_centers, h.raw_freq, h.shifted_freq, smoothed, window)


@lru_cache(maxsize=32)
def _window_bounds(bins: int, window: int):
    """Each bin's window [lo, hi) of ``smooth_profile`` and its width, as
    read-only arrays shared by every profile of ``bins`` bins."""
    idx = np.arange(bins)
    half = np.minimum(np.minimum(idx, bins - 1 - idx), (window - 1) // 2)
    lo = idx - half
    hi = idx + half + 1
    width = hi - lo
    for a in (lo, hi, width):
        a.flags.writeable = False
    return lo, hi, width


def first_valley_radius(h: DistanceHistogram) -> float:
    """Distance at the first interior valley of the smoothed profile.

    The count shift pushes sparse bins below zero, so cluster boundaries
    show up as sustained sub-zero stretches of the smoothed profile. When the
    profile has sparse bins at all, the valley is the first sub-zero run at
    least half a smoothing window long that has dense mass (a positive
    smoothed bin) on both sides; the radius sits at the run's last truly
    empty bin, so the claim takes the current mound together with its
    straggler skirt and stops before the next mound's first object. Brief
    dips inside a spiky mound are shorter than the window, the empty lead
    before the first mound has no mass before it, and the straggler tail
    after the last mound has no mass after it, so none of them cut a
    cluster short. Profiles with no sparse bins
    fall back to the plain first-local-minimum scan, where a valley bin i
    satisfies smoothed[i] <= min(smoothed[i-1], smoothed[i+1]) and plateaus
    qualify. When no bin qualifies, the radius engulfs every retained
    distance.
    """
    if h.smoothed_freq is None:
        raise ValueError("histogram has not been smoothed")
    sm = h.smoothed_freq
    neg = sm < 0
    if neg.any():
        min_run = (h.smooth_window + 1) // 2 if h.smooth_window else 1
        padded = np.zeros(sm.size + 2, dtype=bool)  # False beyond both ends
        padded[1:-1] = neg
        bounds = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
        positive = np.flatnonzero(sm > 0)
        if positive.size:
            first, last = int(positive[0]), int(positive[-1])
            for start, stop in zip(bounds[::2], bounds[1::2]):  # runs are [start, stop)
                if stop - start >= min_run and first < start and last >= stop:
                    empty = np.flatnonzero(h.raw_freq[start:stop] == 0)
                    cut = start + empty[-1] if empty.size else stop - 1
                    return float(h.bin_centers[cut])
        return h.max_distance * (1.0 + ENGULF_MARGIN)
    is_valley = sm[1:-1] <= np.minimum(sm[:-2], sm[2:])
    hits = np.flatnonzero(is_valley)
    if hits.size:
        return float(h.bin_centers[hits[0] + 1])
    return h.max_distance * (1.0 + ENGULF_MARGIN)
