"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (scalar loops,
exhaustive enumeration) and kept separate from the library code paths it
checks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

import numpy as np


def euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """All pairwise Euclidean distances via the plain difference formula."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(-1))


def brute_knn(coords: np.ndarray, query: np.ndarray, k: int):
    """k nearest stored points to the query by full scan and sort."""
    d = np.sqrt(((coords - query) ** 2).sum(axis=1))
    order = np.argsort(d, kind="stable")[:k]
    return d[order], order


def kdist_bruteforce(dist_matrix: np.ndarray, k: int) -> np.ndarray:
    """k-th smallest off-diagonal entry of every row, by full sort."""
    return _sorted_off_diagonal(dist_matrix)[:, k - 1]


def ksum_bruteforce(dist_matrix: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k smallest off-diagonal entries of every row, ascending, by full sort."""
    return _sorted_off_diagonal(dist_matrix)[:, :k].sum(axis=1)


def _sorted_off_diagonal(dist_matrix: np.ndarray) -> np.ndarray:
    d = dist_matrix.copy().astype(np.float64)
    np.fill_diagonal(d, np.inf)
    d.sort(axis=1)
    return d


def _prufer_edges(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    leaf = -1
    for x in seq:
        if leaf == -1:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
    rest = [v for v in range(n) if degree[v] == 1]
    edges.append((rest[0], rest[1]))
    return edges


@lru_cache(maxsize=None)
def all_labeled_trees(n: int) -> np.ndarray:
    """Edge lists of every labeled tree on n vertices, shape (n^(n-2), n-1, 2).

    Enumerated through Prufer sequences, which biject with labeled trees.
    """
    if n == 2:
        return np.array([[[0, 1]]], dtype=np.int64)
    trees = [
        _prufer_edges(seq, n)
        for seq in itertools.product(range(n), repeat=n - 2)
    ]
    return np.array(trees, dtype=np.int64)


def min_spanning_total_enumerated(dist_matrix: np.ndarray) -> float:
    """Minimum spanning tree total weight by enumerating every labeled tree."""
    n = dist_matrix.shape[0]
    trees = all_labeled_trees(n)
    flat = dist_matrix.ravel()
    totals = flat[trees[:, :, 0] * n + trees[:, :, 1]].sum(axis=1)
    return float(totals.min())


def kruskal_mst_total(dist_matrix: np.ndarray) -> float:
    """Minimum spanning tree total weight via an independent Kruskal pass."""
    n = dist_matrix.shape[0]
    pairs = [(dist_matrix[i, j], i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    picked = 0
    for w, i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
            picked += 1
            if picked == n - 1:
                break
    return total


def _row_distances(src, i: int) -> np.ndarray:
    if hasattr(src, "coords"):
        diff = src.coords - src.coords[i]
        return np.sqrt((diff * diff).sum(axis=1))
    return src.values[i]


def canonical_mst(src):
    """The unique minimum spanning tree under the edge order (w, min id,
    max id): Kruskal over every pair in that order, weighted by
    ``_row_distances``; as edge arrays (u, v, w) with u < v, in that order."""
    n = src.n
    pairs = sorted((w, i, j) for i in range(n)
                   for j, w in enumerate(_row_distances(src, i)[i + 1:].tolist(), i + 1))
    uf = _UnionFind(n)
    edge_u, edge_v, edge_w = [], [], []
    for w, i, j in pairs:
        if uf.union(i, j):
            edge_u.append(i)
            edge_v.append(j)
            edge_w.append(w)
    return (np.array(edge_u, dtype=np.int64), np.array(edge_v, dtype=np.int64),
            np.array(edge_w, dtype=np.float64))


def prim_reference(src):
    """Dense Prim with full-length passes per vertex, as edge arrays (u, v, w)
    in the order the vertices join.

    Equal keys go to the smallest vertex id and an equal-weight update keeps
    the smaller parent id. On input without equal distances that is the
    canonical tree, and its weights pin the distance formula bit for bit.
    """
    n = src.n
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    parent = np.full(n, n, dtype=np.int64)
    best[0] = 0.0
    edge_u, edge_v, edge_w = [], [], []
    for _ in range(n):
        key = np.where(in_tree, np.inf, best)
        u = int(np.argmin(key))  # ties resolve to the smallest index
        in_tree[u] = True
        if parent[u] < n:
            edge_u.append(int(parent[u]))
            edge_v.append(u)
            edge_w.append(float(best[u]))
        du = _row_distances(src, u)
        # Tie on weight keeps the smaller parent index, making the tree
        # deterministic under duplicate distances.
        better = ~in_tree & ((du < best) | ((du == best) & (u < parent)))
        best[better] = du[better]
        parent[better] = u
    return (np.array(edge_u, dtype=np.int64), np.array(edge_v, dtype=np.int64),
            np.array(edge_w, dtype=np.float64))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def kruskal_forest_reference(n: int, cand_u, cand_v, cand_w):
    """Kruskal's forest over candidate edges taken in the given order, by a
    union-find whose roots are each component's smallest id; returns the
    picked edges as arrays (u, v, w) and every vertex's root."""
    uf = _UnionFind(n)
    edge_u, edge_v, edge_w = [], [], []
    for u, v, w in zip(cand_u.tolist(), cand_v.tolist(), cand_w.tolist()):
        if uf.union(u, v):
            edge_u.append(u)
            edge_v.append(v)
            edge_w.append(w)
    roots = np.array([uf.find(i) for i in range(n)], dtype=np.int64)
    return (np.array(edge_u, dtype=np.int64), np.array(edge_v, dtype=np.int64),
            np.array(edge_w, dtype=np.float64), roots)


def minmax_exhaustive(dist_matrix: np.ndarray, source: int) -> np.ndarray:
    """Minmax distance from source to every vertex by enumerating every
    simple path of the complete graph (no pruning)."""
    n = dist_matrix.shape[0]
    best = np.full(n, np.inf)
    best[source] = 0.0
    visited = [False] * n
    visited[source] = True

    def dfs(u, running_max):
        for v in range(n):
            if not visited[v]:
                m = max(running_max, dist_matrix[u, v])
                if m < best[v]:
                    best[v] = m
                visited[v] = True
                dfs(v, m)
                visited[v] = False

    dfs(source, 0.0)
    return best


def minmax_closure(dist_matrix: np.ndarray) -> np.ndarray:
    """All-pairs minmax distances via a Floyd-Warshall style closure."""
    m = dist_matrix.copy().astype(np.float64)
    np.fill_diagonal(m, 0.0)
    n = m.shape[0]
    for k in range(n):
        np.minimum(m, np.maximum.outer(m[:, k], m[k, :]), out=m)
    return m


def minmax_by_tree_walk(n, edges, source) -> np.ndarray:
    """Largest edge weight on the tree path from source to every vertex, by DFS."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    stack = [source]
    while stack:
        u = stack.pop()
        for v, w in adj[u]:
            if dist[v] == np.inf:
                dist[v] = max(dist[u], w)
                stack.append(v)
    return dist


def minmax_by_id(tree, source: int) -> np.ndarray:
    """The library's minmax distances from ``source``, placed by vertex id:
    its two runs and the source's own 0 in dendrogram position order, the
    vertex at position i being ``tree.order[i]``."""
    from pava.mstgraph import minmax_from_center

    _, left, right = minmax_from_center(tree, source)
    dist = np.empty(tree.n)
    dist[tree.order] = np.concatenate([left[::-1], [0.0], right])
    return dist


def claim_reference(tree, center: int, labeled, trim_percentile: float, bins: int,
                    smooth_window: int):
    """One extraction round by id, as the engine ran it before it worked in
    dendrogram position space: minmax distances to every id, np.percentile,
    np.histogram and a claim mask over all N. Returns (claimed ids, radius,
    raw counts, bin edges); the last two are None for a degenerate round,
    which claims every unlabeled object. The valley pick is the library's."""
    from pava.valley import DistanceHistogram, first_valley_radius, smooth_profile

    dist = minmax_by_tree_walk(
        tree.n, zip(tree.edge_u.tolist(), tree.edge_v.tolist(), tree.edge_w.tolist()), center)
    retained = dist[dist <= np.percentile(dist, trim_percentile)]
    lo, hi = float(retained.min()), float(retained.max())
    if lo == hi or np.any(np.diff(np.linspace(lo, hi, bins + 1)) <= 0):
        return np.flatnonzero(~labeled), float(dist.max()) * (1.0 + 1e-9), None, None
    raw, edges = np.histogram(retained, bins=bins, range=(lo, hi))
    hist = DistanceHistogram(edges, (edges[:-1] + edges[1:]) / 2.0, raw, raw - 1)
    radius = first_valley_radius(smooth_profile(hist, smooth_window))
    return np.flatnonzero(~labeled & (dist < radius)), radius, raw, edges


def percentile_linear(values, p: float) -> float:
    """Linear-interpolation percentile over the sorted values."""
    s = sorted(float(v) for v in values)
    if len(s) == 1:
        return s[0]
    h = (len(s) - 1) * p / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def bin_counts_scalar(values, bins: int, lo: float, hi: float) -> np.ndarray:
    """Half-open equal-width binning with a closed last bin, one value at a time."""
    width = (hi - lo) / bins
    counts = np.zeros(bins, dtype=np.int64)
    for v in values:
        if v == hi:
            counts[bins - 1] += 1
            continue
        idx = int((v - lo) / width)
        counts[min(idx, bins - 1)] += 1
    return counts


def moving_average_scalar(y, window: int) -> np.ndarray:
    """Centered moving average with symmetrically shrinking end windows."""
    n = len(y)
    out = np.empty(n)
    for i in range(n):
        half = min(i, n - 1 - i, (window - 1) // 2)
        chunk = y[i - half : i + half + 1]
        out[i] = sum(chunk) / len(chunk)
    return out


def pair_confusion_bruteforce(a, b):
    """(TP, FP, FN, TN) by looping over every object pair; a is ground truth."""
    n = len(a)
    tp = fp = fn = tn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                tp += 1
            elif same_a:
                fn += 1
            elif same_b:
                fp += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def rand_index_bruteforce(a, b) -> float:
    tp, fp, fn, tn = pair_confusion_bruteforce(a, b)
    return (tp + tn) / (tp + fp + fn + tn)


def _canonical(labels):
    seen = {}
    return [seen.setdefault(x, len(seen)) for x in labels]


def adjusted_rand_index_bruteforce(a, b) -> float:
    """Chance-corrected Rand index from raw pair counts."""
    tp, fp, fn, tn = pair_confusion_bruteforce(a, b)
    num = 2.0 * (tp * tn - fn * fp)
    den = (tp + fn) * (fn + tn) + (tp + fp) * (fp + tn)
    if den == 0:
        return 1.0 if _canonical(a) == _canonical(b) else 0.0
    return num / den


def f_score_bruteforce(a, b) -> float:
    tp, fp, fn, _ = pair_confusion_bruteforce(a, b)
    den = 2 * tp + fp + fn
    if den == 0:
        return 1.0
    return 2 * tp / den


def tree_path_lengths(n, edges, source) -> np.ndarray:
    """Summed path weight from source to every vertex of a tree, by DFS."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    stack = [source]
    seen = {source}
    while stack:
        u = stack.pop()
        for v, w in adj[u]:
            if v not in seen:
                seen.add(v)
                dist[v] = dist[u] + w
                stack.append(v)
    return dist


def propagate_reference(n, edges, labels) -> np.ndarray:
    """Label propagation by a multi-source heap search over every tree edge:
    each vertex settles with the smallest (path sum, label) pair, sums added
    source-outward; a labeled vertex keeps its own label."""
    neighbors = [[] for _ in range(n)]
    for u, v, w in edges:
        neighbors[u].append((v, w))
        neighbors[v].append((u, w))
    out = np.asarray(labels, dtype=np.int64).copy()
    settled = np.zeros(n, dtype=bool)
    heap = [(0.0, int(lab), v) for v, lab in enumerate(out) if lab > 0]
    heapq.heapify(heap)
    while heap:
        d, lab, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if out[u] == 0:
            out[u] = lab
        for v, w in neighbors[u]:
            if not settled[v]:
                heapq.heappush(heap, (d + w, lab, v))
    return out
