"""Spatial indexing and k-distance density measurement.

The k-distance of an object is the distance to its k-th nearest other object:
the k-th order statistic of its off-self distance list. Small values mark
dense regions. Point mode answers queries exactly through a sliding-midpoint
kd-tree, queried in leaf order, whose cuts fall in the empty space between
clusters; matrix mode partitions blocks of dissimilarity rows, self included,
around their (k+1)-th smallest entry.
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
    """Worker count for parallel tree queries: PAVA_THREADS, at most the CPUs
    this process may use (0 or negative = auto, non-integer = error)."""
    raw = os.environ.get("PAVA_THREADS") or "0"
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"PAVA_THREADS must be an integer, got {raw!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return -1 if threads <= 0 else min(threads, cpus or 1)


@dataclass(frozen=True)
class DensityProfile:
    """Per-object k-distance vector together with the k it was computed for,
    and ``ksum``, each object's sum of its k nearest off-self distances,
    which breaks ties in k-distance when centers are picked."""

    kdist: np.ndarray
    k: int
    ksum: np.ndarray


def build_index(p: PointSet) -> cKDTree:
    """Exact k-nearest-neighbour index over the rows of a PointSet: a
    sliding-midpoint kd-tree (Maneewongvatana & Mount 1999), whose cuts fall
    between clusters rather than through them on clustered inputs."""
    return cKDTree(p.coords, balanced_tree=False)


def default_k(n: int) -> int:
    """Rule-of-thumb neighbor count: ceil(ln n), clamped to [1, n - 1]."""
    if n < 2:
        raise ValueError("need n >= 2")
    return max(1, min(math.ceil(math.log(n)), n - 1))


def nearest_lists(p: PointSet, count: int):
    """Each point's ``count`` nearest points, nearest first, as (dists, idx)
    arrays of shape (N, count); 2 <= count <= N.

    Column 0 holds distance 0: the point itself or another point at distance
    0 from it, so column k holds the k-distance. A row lists its own id once,
    unless every listed distance is 0; ties keep the kd-tree's order.

    Queried in the tree's leaf order, a row finds the nodes and points of the
    row before in cache; the lists are scattered back one at a time.

    Raises ValueError when a listed distance's square overflows.
    """
    tree = build_index(p)
    leaf = tree.indices
    dists, idx = tree.query(p.coords[leaf], k=count, workers=query_workers())
    if np.isinf(dists[:, -1]).any():
        raise ValueError("squared distances between the points overflow")
    dists[leaf] = dists.copy()
    idx[leaf] = idx.copy()
    return dists, idx


def k_distance_all(src, k: int, k_graph: int | None = None):
    """k-distance of every object in a PointSet or DissimilarityMatrix.

    Ties are handled by taking the k-th smallest off-self distance, which is
    the unique value with at least k others no farther and at most k-1 strictly
    nearer. ``ksum`` adds the k smallest in ascending order, so a point set
    and its matrix of plain-formula distances give it the same bits below 8
    dimensions. From 8 up they may differ in the last bits: cKDTree sums the
    squared differences in four accumulators, each of which then takes two
    or more of them, while the plain formula sums a row in another order.

    With ``k_graph`` (the neighbour count of the tree's certified kNN forest),
    the call returns ``(profile, lists)``. For a PointSet the one query asks
    for max(k, k_graph) + 1 neighbours and ``lists`` is ``nearest_lists``'
    (dists, idx), from which the tree takes its candidate edges; the
    k-distances are the same values. A matrix's tree needs no neighbour ids,
    so its ``lists`` are (dists, None): each row's k + 1 smallest values,
    ascending, from which ``read_profile`` reads every smaller k.
    """
    n = src.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be < N (k={k}, N={n})")
    if isinstance(src, DissimilarityMatrix):
        dists = np.concatenate([
            np.sort(np.partition(src.values[start:start + MATRIX_BLOCK_ROWS], k, axis=1)[:, :k + 1], axis=1)
            for start in range(0, n, MATRIX_BLOCK_ROWS)])
        lists = dists, None
    elif isinstance(src, PointSet):
        lists = nearest_lists(src, max(k, k_graph or 0) + 1)
        dists = lists[0]
    else:
        raise TypeError(f"unsupported source type {type(src).__name__}")
    profile = read_profile(dists, k)
    return profile if k_graph is None else (profile, lists)


def read_profile(dists, k: int) -> DensityProfile:
    """The k-distances and k-sums of ascending distance lists whose column 0
    holds 0, of at least k + 1 columns.

    Self is at distance 0, no other distance is smaller, so column k holds the
    k-th smallest off-self distance. Columns 1..k are summed in order, so
    lists of any width give the same bits; a sum that overflows reads inf.
    """
    with np.errstate(over="ignore"):
        return DensityProfile(np.ascontiguousarray(dists[:, k]), k, dists[:, 1:k + 1].sum(axis=1))
