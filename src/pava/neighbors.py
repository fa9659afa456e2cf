"""Spatial indexing and k-distance density measurement.

The k-distance of an object is the distance to its k-th nearest other object:
the k-th order statistic of its off-self distance list. Small values mark
dense regions. Point mode answers queries exactly through a balanced
multidimensional binary search tree; matrix mode partitions blocks of
dissimilarity rows, self included, around their (k+1)-th smallest entry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import DissimilarityMatrix, PointSet

# Rows of a dissimilarity matrix partitioned at a time, which bounds the
# k-distance's working copy at this many rows.
MATRIX_BLOCK_ROWS = 256


def query_workers() -> int:
    """Worker count for parallel tree queries; PAVA_THREADS caps it (0 = auto, non-integer = error)."""
    raw = os.environ.get("PAVA_THREADS") or "0"
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"PAVA_THREADS must be an integer, got {raw!r}") from None
    return -1 if threads <= 0 else threads


@dataclass(frozen=True)
class DensityProfile:
    """Per-object k-distance vector together with the k it was computed for,
    and ``ksum``, each object's sum of its k nearest off-self distances,
    which breaks ties in k-distance when centers are picked."""

    kdist: np.ndarray
    k: int
    ksum: np.ndarray


def build_index(p: PointSet) -> cKDTree:
    """Exact k-nearest-neighbour index over the rows of a PointSet."""
    return cKDTree(p.coords)


def default_k(n: int) -> int:
    """Rule-of-thumb neighbor count: ceil(ln n), clamped to [1, n - 1]."""
    if n < 2:
        raise ValueError("need n >= 2")
    return max(1, min(math.ceil(math.log(n)), n - 1))


def nearest_lists(p: PointSet, count: int):
    """Each point's ``count`` nearest points, nearest first, as (dists, idx)
    arrays of shape (N, count); 2 <= count <= N.

    Column 0 is the point itself at distance 0, so column k holds the
    k-distance and no other column names the point. One kd-tree query may put
    an exact duplicate (also at distance 0) in column 0; the point's own id
    then moves there from its later column, or replaces the duplicate when it
    is not in the row at all.

    Raises ValueError when a listed distance's square overflows.
    """
    dists, idx = build_index(p).query(p.coords, k=count, workers=query_workers())
    if np.isinf(dists[:, -1]).any():
        raise ValueError("squared distances between the points overflow")
    rows = np.flatnonzero(idx[:, 0] != np.arange(p.n))
    if rows.size:
        row_idx = idx[rows]
        own = row_idx == rows[:, None]
        moved = np.flatnonzero(own.any(axis=1))
        row_idx[moved, own[moved].argmax(axis=1)] = row_idx[moved, 0]
        row_idx[:, 0] = rows
        idx[rows] = row_idx
    return dists, idx


def k_distance_all(src, k: int, k_graph: int | None = None):
    """k-distance of every object in a PointSet or DissimilarityMatrix.

    Ties are handled by taking the k-th smallest off-self distance, which is
    the unique value with at least k others no farther and at most k-1 strictly
    nearer. ``ksum`` adds the k smallest in ascending order, so a point set
    and its matrix give it the same bits.

    With ``k_graph`` (the neighbour count of the tree's certified kNN forest),
    the call returns ``(profile, lists)``. For a PointSet the one query asks
    for max(k, k_graph) + 1 neighbours and ``lists`` is ``nearest_lists``'
    (dists, idx), from which the tree takes its candidate edges; the
    k-distances are the same values. A matrix's tree needs no lists, so its
    ``lists`` is None.
    """
    n = src.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be < N (k={k}, N={n})")
    # Self is at distance 0, no other distance is smaller, so the (k+1)-th
    # smallest distance with self equals the k-th smallest without it.
    if isinstance(src, DissimilarityMatrix):
        kdist, ksum, lists = np.empty(n), np.empty(n), None
        for start in range(0, n, MATRIX_BLOCK_ROWS):
            rows = slice(start, start + MATRIX_BLOCK_ROWS)
            nearest = np.sort(np.partition(src.values[rows], k, axis=1)[:, :k + 1], axis=1)
            kdist[rows], ksum[rows] = nearest[:, k], nearest[:, 1:].sum(axis=1)
    elif isinstance(src, PointSet):
        lists = nearest_lists(src, max(k, k_graph or 0) + 1)
        kdist, ksum = lists[0][:, k], lists[0][:, 1:k + 1].sum(axis=1)
    else:
        raise TypeError(f"unsupported source type {type(src).__name__}")
    profile = DensityProfile(np.ascontiguousarray(kdist), k, ksum)
    return profile if k_graph is None else (profile, lists)
