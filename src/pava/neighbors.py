"""Spatial indexing and k-distance density measurement.

The k-distance of an object is the distance to its k-th nearest other object:
the k-th order statistic of its off-self distance list. Small values mark
dense regions. Point mode answers queries exactly through a balanced
multidimensional binary search tree; matrix mode partitions dissimilarity
rows around their k-th smallest entry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import DissimilarityMatrix, PointSet

DEFAULT_LEAF_SIZE = 16


def query_workers() -> int:
    """Worker count for parallel tree queries; PAVA_THREADS caps it (0 = auto, non-integer = error)."""
    raw = os.environ.get("PAVA_THREADS") or "0"
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"PAVA_THREADS must be an integer, got {raw!r}") from None
    return -1 if threads <= 0 else threads


class SpatialIndex:
    """Exact k-nearest-neighbor index over the rows of a PointSet."""

    def __init__(self, points: PointSet, leaf_size: int = DEFAULT_LEAF_SIZE):
        self.n = points.n
        self._tree = cKDTree(points.coords, leafsize=leaf_size)

    def query(self, x, k: int):
        """Distances and indices of the k nearest stored points to x."""
        dists, idx = self._tree.query(np.asarray(x), k=k, workers=query_workers())
        return dists, idx


@dataclass(frozen=True)
class DensityProfile:
    """Per-object k-distance vector together with the k it was computed for."""

    kdist: np.ndarray
    k: int


def build_index(p: PointSet) -> SpatialIndex:
    return SpatialIndex(p)


def default_k(n: int) -> int:
    """Rule-of-thumb neighbor count: ceil(ln n), clamped to [1, n - 1]."""
    if n < 2:
        raise ValueError("need n >= 2")
    return max(1, min(math.ceil(math.log(n)), n - 1))


def k_distance_all(src, k: int) -> DensityProfile:
    """k-distance of every object in a PointSet or DissimilarityMatrix.

    Ties are handled by taking the k-th smallest off-self distance, which is
    the unique value with at least k others no farther and at most k-1 strictly
    nearer.
    """
    n = src.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be < N (k={k}, N={n})")
    if isinstance(src, PointSet):
        index = build_index(src)
        # Self is always among the k+1 nearest (distance 0), so the (k+1)-th
        # smallest with self equals the k-th smallest without it.
        dists, _ = index.query(src.coords, k + 1)
        kdist = np.ascontiguousarray(dists[:, k])
    elif isinstance(src, DissimilarityMatrix):
        values = src.values.copy()
        np.fill_diagonal(values, np.inf)
        values.partition(k - 1, axis=1)
        kdist = np.ascontiguousarray(values[:, k - 1])
    else:
        raise TypeError(f"unsupported source type {type(src).__name__}")
    return DensityProfile(kdist, k)
