"""Minimum spanning tree construction, density adjustment, and tree queries.

The minmax (path) distance between two objects is the smallest possible
bottleneck: the minimum over all connecting paths of the maximum edge weight
along the path. On the minimum spanning tree of the complete dissimilarity
graph, the unique tree path realizes that minimum. A tree also stores the leaf
order of its own Kruskal dendrogram, in which the minmax distance between the
leaves at positions i < j is max(gap[i:j]) (Gower & Ross 1969), so a center's
distances to every object take two prefix-maximum scans.

Density adjustment rescales each tree edge to the cube root of
weight * kdist(u) * kdist(v): edges touching sparse-region vertices (large
k-distance) grow, which pushes noise chains away from cluster bodies while
leaving dense regions nearly untouched.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dataset import PointSet
from .neighbors import DensityProfile, default_k

# Relative floor applied to k-distances during adjustment so exact duplicates
# (kdist = 0) cannot collapse edges between distinct points to weight zero.
KDIST_FLOOR_REL = 1e-12

APPROX_MIN_NEIGHBORS = 10

# numpy sums a row of at least this many values pairwise, not left to right.
_PAIRWISE_SUM_D = 8


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Spanning tree over n vertices: n-1 weighted edges, their dendrogram leaf
    ``order``, its inverse ``rank``, and ``gap[i]``, the merge weight between
    leaves ``order[i]`` and ``order[i + 1]``."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    kind: str = "raw"

    def __post_init__(self):
        edge_u = np.asarray(self.edge_u, dtype=np.int64)
        edge_v = np.asarray(self.edge_v, dtype=np.int64)
        edge_w = np.asarray(self.edge_w, dtype=np.float64)
        if not (len(edge_u) == len(edge_v) == len(edge_w) == self.n - 1):
            raise ValueError(f"expected {self.n - 1} edges, got {len(edge_w)}")
        ids = np.concatenate([edge_u, edge_v])
        outside = ids[(ids < 0) | (ids >= self.n)]
        if outside.size:
            raise ValueError(f"vertex id {outside[0]} out of range [0, {self.n})")
        if not np.all(np.isfinite(edge_w)) or np.any(edge_w < 0):
            raise ValueError("edge weights must be finite and non-negative")
        if self.kind not in ("raw", "adjusted"):
            raise ValueError(f"unknown tree kind {self.kind!r}")
        object.__setattr__(self, "edge_u", edge_u)
        object.__setattr__(self, "edge_v", edge_v)
        object.__setattr__(self, "edge_w", edge_w)
        order, gap = _dendrogram_order(self.n, edge_u, edge_v, edge_w)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rank", np.argsort(order))
        object.__setattr__(self, "gap", gap)

    @property
    def total_weight(self) -> float:
        return float(self.edge_w.sum())

    def edges(self):
        """Edges as (u, v, weight) tuples."""
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))


@dataclass(frozen=True)
class MinmaxVector:
    """Minmax distances from a single source vertex to every vertex."""

    source: int
    dist: np.ndarray


def build_mst(src, mode: str = "exact") -> SpanningTree:
    """Minimum spanning tree of the complete dissimilarity graph.

    exact: dense Prim from vertex 0, O(N^2) time and O(N) memory. Each step
    computes distances only to the vertices still outside the tree, held in
    compacted arrays. The lightest edge into the tree is taken next, the
    smallest vertex id among equal weights, and an equal-weight update keeps
    the smaller parent id. approximate: Kruskal over the union of kNN edges,
    whose union-find keeps each component's smallest id as its root, then
    Prim over that forest's components from vertex 0's, updated through
    one small kd-tree per joined component: the nearest outside vertex (the
    smallest id among equal distances) joins with its whole component, through
    the earliest-joined of equally near tree vertices. Always connected.
    """
    if mode == "exact":
        return _prim_exact(src)
    if mode == "approximate":
        return _kruskal_knn(src)
    raise ValueError(f"unknown MST mode {mode!r}")


def _prim_exact(src) -> SpanningTree:
    """Prim from vertex 0 over the m vertices still outside the tree.

    Slots [0, m) of ``rest``, ``best`` and ``parent`` hold those vertices, the
    weight of their lightest edge into the tree and its tree end; the vertex
    taken into the tree leaves its slot to the one in slot m - 1.
    """
    n = src.n
    rest = np.arange(1, n)
    best = np.full(n - 1, np.inf)
    parent = np.full(n - 1, n, dtype=np.int64)
    du, sq = np.empty(n - 1), np.empty(n - 1)
    lighter, tie, later = (np.empty(n - 1, dtype=bool) for _ in range(3))
    edge_u = np.empty(n - 1, dtype=np.int64)
    edge_v = np.empty(n - 1, dtype=np.int64)
    edge_w = np.empty(n - 1)
    points = isinstance(src, PointSet)
    if points:
        x, dim = src.coords, src.dim
        # A copy, never a view of the caller's points: its rows are swapped.
        # For dim < _PAIRWISE_SUM_D each coordinate is a contiguous column.
        kept = np.array(x[1:], order="F" if dim < _PAIRWISE_SUM_D else "C")
    u = 0
    for m in range(n - 1, 0, -1):
        d, s, b, p, r = du[:m], sq[:m], best[:m], parent[:m], rest[:m]
        lt, eq, gt = lighter[:m], tie[:m], later[:m]
        if not points:
            np.take(src.values[u], r, out=d)
        elif dim < _PAIRWISE_SUM_D:
            # Adding column by column repeats numpy's left-to-right row sum
            # bit for bit; a row sum over rows this short made rings-exact's
            # cluster_s 2.6x slower.
            np.subtract(kept[:m, 0], x[u, 0], out=d)
            np.multiply(d, d, out=d)
            for c in range(1, dim):
                np.subtract(kept[:m, c], x[u, c], out=s)
                np.multiply(s, s, out=s)
                np.add(d, s, out=d)
            np.sqrt(d, out=d)
        else:
            diff = kept[:m] - x[u]
            np.sqrt((diff * diff).sum(axis=1), out=d)
        # A tie on weight keeps the smaller parent id.
        np.less(d, b, out=lt)
        np.equal(d, b, out=eq)
        np.logical_and(eq, np.greater(p, u, out=gt), out=eq)
        np.logical_or(lt, eq, out=lt)
        np.copyto(b, d, where=lt)
        np.copyto(p, u, where=lt)
        # The lightest edge into the tree; equal weights take the smallest id.
        j = int(np.argmin(b))
        if np.count_nonzero(np.equal(b, b[j], out=eq)) > 1:
            ties = np.flatnonzero(eq)
            j = int(ties[np.argmin(r[ties])])
        i = n - 1 - m
        edge_u[i], edge_v[i], edge_w[i] = p[j], r[j], b[j]
        u = int(r[j])
        last = m - 1
        r[j], b[j], p[j] = r[last], b[last], p[last]
        if points:
            kept[j] = kept[last]
    return SpanningTree(n, edge_u, edge_v, edge_w, "raw")


def _candidate_knn_edges(src, k_graph: int):
    n = src.n
    if isinstance(src, PointSet):
        from .neighbors import build_index

        dists, idx = build_index(src).query(src.coords, k_graph + 1)
        rows = np.repeat(np.arange(n), k_graph)
        cols = idx[:, 1:].ravel()
        weights = dists[:, 1:].ravel()
    else:
        k_graph = min(k_graph, n - 1)
        values = src.values.copy()
        np.fill_diagonal(values, np.inf)
        cols = np.argpartition(values, k_graph - 1, axis=1)[:, :k_graph].ravel()
        rows = np.repeat(np.arange(n), k_graph)
        weights = values[rows, cols]
    u = np.minimum(rows, cols)
    v = np.maximum(rows, cols)
    order = np.lexsort((v, u, weights))
    u, v, weights = u[order], v[order], weights[order]
    # Drop self-pairs (from duplicates) and the repeat of each mutual pair.
    keep = (u != v) & np.append(True, (u[1:] != u[:-1]) | (v[1:] != v[:-1]))
    return u[keep], v[keep], weights[keep]


def _dendrogram_order(n: int, edge_u, edge_v, edge_w):
    """Kruskal over the tree's own edges in (w, u, v) order, appending the leaf
    list of v's component to u's at each merge; returns (order, gap)."""
    link = list(range(n))  # union-find links; a root is its component's smallest id
    head, tail = list(range(n)), list(range(n))
    next_leaf, gap_after = [0] * n, [0.0] * n
    us, vs, ws = edge_u.tolist(), edge_v.tolist(), edge_w.tolist()
    for i in np.lexsort((edge_v, edge_u, edge_w)).tolist():
        a, b = us[i], vs[i]
        while link[a] != a:
            link[a] = a = link[link[a]]
        while link[b] != b:
            link[b] = b = link[link[b]]
        if a == b:
            raise ValueError("edges do not form a connected tree")
        next_leaf[tail[a]], gap_after[tail[a]] = head[b], ws[i]
        root = min(a, b)
        link[a] = link[b] = root
        head[root], tail[root] = head[a], tail[b]
    order = [head[0]]
    for _ in range(n - 1):
        order.append(next_leaf[order[-1]])
    order = np.array(order, dtype=np.int64)
    return order, np.array(gap_after)[order[:-1]]


def _kruskal_knn(src) -> SpanningTree:
    n = src.n
    k_graph = max(default_k(n), APPROX_MIN_NEIGHBORS)
    k_graph = min(k_graph, n - 1)
    cand_u, cand_v, cand_w = _candidate_knn_edges(src, k_graph)
    link = list(range(n))  # union-find links, each to a smaller id or itself
    edge_u, edge_v, edge_w = [], [], []
    for u, v, w in zip(cand_u.tolist(), cand_v.tolist(), cand_w.tolist()):
        a, b = u, v
        while link[a] != a:
            link[a] = a = link[link[a]]
        while link[b] != b:
            link[b] = b = link[link[b]]
        if a == b:
            continue
        link[max(a, b)] = min(a, b)
        edge_u.append(u)
        edge_v.append(v)
        edge_w.append(w)
        if len(edge_w) == n - 1:
            break
    if len(edge_w) < n - 1:
        # Every link points to a smaller id, so jumping along them ends at
        # each vertex's root.
        comp = np.array(link)
        while np.any(comp[comp] != comp):
            comp = comp[comp]
        _stitch(src, comp, edge_u, edge_v, edge_w)
    return SpanningTree(n, np.array(edge_u), np.array(edge_v), np.array(edge_w), "raw")


def _stitch(src, comp, edge_u, edge_v, edge_w):
    """Prim over the forest's components (vertex labels ``comp``) from vertex
    0's, appending its edges."""
    # An outside vertex's distance to the tree and its nearest tree vertex.
    key, near = np.full(src.n, np.inf), np.zeros(src.n, dtype=np.int64)
    outside = comp != comp[0]
    new = np.flatnonzero(~outside)
    while outside.any():
        rest = np.flatnonzero(outside)
        if isinstance(src, PointSet):
            x, part = src.coords[rest], src.coords[new]
            # Only a vertex whose distance to the component's bounding box is
            # within its key can come closer (compared squared); the slack is
            # far above rounding.
            gap = np.clip(x, part.min(axis=0), part.max(axis=0)) - x
            reach = (gap * gap).sum(axis=1) <= (key[rest] * (1 + 1e-9)) ** 2
            rest = rest[reach]
            d, j = cKDTree(part).query(x[reach], k=1)
        else:
            block = src.values[np.ix_(new, rest)]
            d, j = block.min(axis=0), block.argmin(axis=0)
        closer = d < key[rest]
        key[rest[closer]], near[rest[closer]] = d[closer], new[j[closer]]
        t = int(np.argmin(key))
        edge_u.append(int(near[t]))
        edge_v.append(t)
        edge_w.append(float(key[t]))
        new = np.flatnonzero(comp == comp[t])
        outside[new] = False
        key[new] = np.inf


def adjust_weights(tree: SpanningTree, density: DensityProfile) -> SpanningTree:
    """Rescale every edge to cbrt(weight * kdist(u) * kdist(v)).

    The edge set is unchanged. k-distances are floored at a tiny fraction of
    the largest raw edge weight so duplicate points keep distinct-point edges
    positive.
    """
    if tree.kind != "raw":
        raise ValueError("expected a raw tree")
    kdist = np.asarray(density.kdist, dtype=np.float64)
    if kdist.shape != (tree.n,):
        raise ValueError(f"density length {kdist.shape} does not match n={tree.n}")
    floor = KDIST_FLOOR_REL * float(tree.edge_w.max()) if tree.n > 1 else 0.0
    kdist = np.maximum(kdist, floor)
    new_w = np.cbrt(tree.edge_w * kdist[tree.edge_u] * kdist[tree.edge_v])
    return SpanningTree(tree.n, tree.edge_u, tree.edge_v, new_w, "adjusted")


def minmax_from_center(tree: SpanningTree, center: int) -> MinmaxVector:
    """Minmax distance from center to every vertex: the largest gap between
    their positions in the dendrogram order, found by two prefix-maximum scans.
    """
    if not 0 <= center < tree.n:
        raise ValueError(f"center {center} out of range [0, {tree.n})")
    r = int(tree.rank[center])
    by_position = np.zeros(tree.n)
    by_position[r + 1:] = np.maximum.accumulate(tree.gap[r:])
    by_position[:r] = np.maximum.accumulate(tree.gap[:r][::-1])[::-1]
    return MinmaxVector(center, by_position[tree.rank])


def propagate_labels(tree: SpanningTree, labels) -> np.ndarray:
    """Assign each unlabeled vertex the label of its nearest labeled vertex.

    Nearness is summed path weight along the tree (multi-source shortest
    path); distance ties break toward the smaller label value. Labels are
    non-negative integers; 0 marks unlabeled. Labeled vertices keep their
    labels, and one reached at distance 0 from a smaller label passes that
    label on.

    A labeled vertex settles at distance 0, so a positive-weight edge between
    two labeled vertices never decides a label: the search runs only over the
    edges that touch an unlabeled vertex or weigh zero, from their labeled
    ends.
    """
    labels = np.asarray(labels)
    if labels.shape != (tree.n,):
        raise ValueError(f"labels length {labels.shape} does not match n={tree.n}")
    if labels.dtype.kind not in "iu" or np.any(labels < 0):
        raise ValueError("labels must be non-negative integers")
    out = labels.astype(np.int64)
    if not np.any(out > 0):
        raise ValueError("at least one vertex must be labeled")
    if np.all(out > 0):
        return out
    u, v, w = tree.edge_u, tree.edge_v, tree.edge_w
    searched = (out[u] == 0) | (out[v] == 0) | (w == 0)
    neighbors = {}
    for a, b, c in zip(u[searched].tolist(), v[searched].tolist(), w[searched].tolist()):
        neighbors.setdefault(a, []).append((b, c))
        neighbors.setdefault(b, []).append((a, c))
    ends = np.array(list(neighbors))
    ends = ends[out[ends] > 0]
    heap = [(0.0, lab, s) for lab, s in zip(out[ends].tolist(), ends.tolist())]
    heapq.heapify(heap)
    settled = {}
    while heap:
        d, lab, a = heapq.heappop(heap)
        if a in settled:
            continue
        settled[a] = lab
        for b, c in neighbors[a]:
            if b not in settled:
                heapq.heappush(heap, (d + c, lab, b))
    reached = np.array(list(settled))
    unlabeled = out[reached] == 0
    out[reached[unlabeled]] = np.array(list(settled.values()))[unlabeled]
    return out
