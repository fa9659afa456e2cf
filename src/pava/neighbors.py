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


def nearest_lists(src, count: int):
    """Each object's ``count`` nearest objects, nearest first, as (dists, idx)
    arrays of shape (N, count); 2 <= count <= N.

    Column 0 is the object itself at distance 0, so column k holds the
    k-distance and no other column names the object. Point mode asks one
    kd-tree query, which may put an exact duplicate (also at distance 0) in
    column 0; the object's own id then moves there from its later column, or
    replaces the duplicate when it is not in the row at all. Matrix mode
    partitions each off-self row around its (count - 1)-th smallest entry and
    sorts the part kept.
    """
    n = src.n
    if isinstance(src, PointSet):
        dists, idx = build_index(src).query(src.coords, count)
        rows = np.flatnonzero(idx[:, 0] != np.arange(n))
        if rows.size:
            row_idx = idx[rows]
            own = row_idx == rows[:, None]
            moved = np.flatnonzero(own.any(axis=1))
            row_idx[moved, own[moved].argmax(axis=1)] = row_idx[moved, 0]
            row_idx[:, 0] = rows
            idx[rows] = row_idx
        return dists, idx
    values = src.values.copy()
    np.fill_diagonal(values, np.inf)
    others = np.argpartition(values, count - 2, axis=1)[:, :count - 1]
    near = np.take_along_axis(values, others, axis=1)
    by_distance = np.argsort(near, axis=1, kind="stable")
    self_column = np.arange(n).reshape(-1, 1)
    idx = np.hstack([self_column, np.take_along_axis(others, by_distance, axis=1)])
    dists = np.hstack([np.zeros((n, 1)), np.take_along_axis(near, by_distance, axis=1)])
    return dists, idx


def k_distance_all(src, k: int, k_graph: int | None = None):
    """k-distance of every object in a PointSet or DissimilarityMatrix.

    Ties are handled by taking the k-th smallest off-self distance, which is
    the unique value with at least k others no farther and at most k-1 strictly
    nearer.

    With ``k_graph`` (the approximate tree's neighbour count), the one query
    asks for max(k, k_graph) + 1 neighbours and the call returns
    ``(profile, lists)``, ``lists`` being ``nearest_lists``' (dists, idx) for
    the tree's candidate edges; the k-distances are the same values.
    """
    n = src.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be < N (k={k}, N={n})")
    if not isinstance(src, (PointSet, DissimilarityMatrix)):
        raise TypeError(f"unsupported source type {type(src).__name__}")
    if k_graph is None and isinstance(src, DissimilarityMatrix):
        # No neighbour ids are wanted, so partition values in place.
        values = src.values.copy()
        np.fill_diagonal(values, np.inf)
        values.partition(k - 1, axis=1)
        return DensityProfile(np.ascontiguousarray(values[:, k - 1]), k)
    lists = nearest_lists(src, max(k, k_graph or 0) + 1)
    # Self is always among the k+1 nearest (distance 0), so the (k+1)-th
    # smallest with self equals the k-th smallest without it.
    profile = DensityProfile(np.ascontiguousarray(lists[0][:, k]), k)
    return profile if k_graph is None else (profile, lists)
