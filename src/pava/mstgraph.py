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
from scipy.spatial import Delaunay, QhullError, cKDTree

from .dataset import PointSet
from .neighbors import DensityProfile, default_k, nearest_lists

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


@dataclass(frozen=True, eq=False)
class MinmaxVector:
    """Minmax distances from a single source vertex, in its tree's dendrogram
    position space.

    The source sits at ``position``. ``left[i]`` is the distance to the vertex
    at position ``position - 1 - i`` and ``right[j]`` the distance to the one at
    ``position + 1 + j``; both runs ascend. The vertex at a position is the
    tree's ``order`` there.
    """

    source: int
    position: int
    left: np.ndarray
    right: np.ndarray

    @property
    def runs(self) -> tuple:
        """Every distance as three ascending runs: the source's own 0, left, right."""
        return (np.zeros(1), self.left, self.right)


def build_mst(src, mode: str = "exact", knn=None) -> SpanningTree:
    """Minimum spanning tree of the complete dissimilarity graph.

    exact: the unique minimum spanning tree under the edge order (w, min(u, v),
    max(u, v)), as rows u < v in that order; ties in weight never leave a
    choice to the builder, so a point set and its dissimilarity matrix give
    the same tree.

    - A PointSet of dimension 1 or 2: Kruskal over a candidate graph that
      holds that tree (``_kruskal_candidates``).
    - A DissimilarityMatrix, a PointSet of dimension 3 or more, or a 2-D
      point set whose distinct sites Qhull cannot triangulate: dense Prim
      from vertex 0 (``_prim_exact``), O(N^2) time and O(N) memory.

    approximate, on a PointSet: the forest Kruskal builds from each point's
    k_graph = ``approx_k_graph(N)`` nearest neighbours, in (w, u, v) order,
    each component's root being its smallest id; then Prim over that forest's
    components from vertex 0's. The forest comes from vectorised Borůvka
    rounds, whose picks are exactly Kruskal's. In the Prim, the outside
    component with the nearest point (the smallest id among equal distances)
    joins next, through the earliest-joined of equally near tree vertices;
    each joined component's kd-tree is queried only by points of components
    near its bounding box. ``knn``, the (dists, idx) lists returned by
    ``k_distance_all(src, k, approx_k_graph(N))``, saves the neighbour query;
    without it the tree asks its own. Always connected. A matrix has already
    paid O(N^2), so there approximate builds the exact tree.
    """
    if mode == "approximate" and isinstance(src, PointSet):
        return _kruskal_knn(src, knn)
    if mode == "exact" and isinstance(src, PointSet) and src.dim <= 2:
        return _kruskal_candidates(src)
    if mode in ("exact", "approximate"):
        return _prim_exact(src)
    raise ValueError(f"unknown MST mode {mode!r}")


def _column_distances(a, b, out, scratch):
    """Euclidean distances between the rows of ``a`` and ``b`` (one row, or
    one per row of ``a``) into ``out``. The squared coordinate differences are
    added column by column, which repeats numpy's left-to-right row sum for
    rows shorter than _PAIRWISE_SUM_D bit for bit."""
    np.subtract(a[:, 0], b[..., 0], out=out)
    np.multiply(out, out, out=out)
    for c in range(1, a.shape[1]):
        np.subtract(a[:, c], b[..., c], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(out, scratch, out=out)
    return np.sqrt(out, out=out)


def _kruskal_candidates(p: PointSet) -> SpanningTree:
    """Exact tree of a 1-D or 2-D point set by Kruskal over candidate edges.

    Equal points form one site, named by its smallest id. The candidates are
    a zero-weight edge from every other point to its site's name, and edges
    between site names: consecutive sites in sorted order in 1-D, the
    Delaunay triangulation's edges over the sites in 2-D (Shamos & Hoey
    1975). No other site lies in the closed disc whose diameter is an edge
    of any minimum spanning tree of the sites, since such a site would make
    that edge the strict maximum of a triangle; so that edge is in every
    Delaunay triangulation, and Kruskal over the candidates in (w, u, v)
    order picks the canonical tree. (That holds in exact arithmetic. Where
    two sites lie within about 1e-8 of an edge's length of each other,
    rounding can give two different distances one computed weight, and the
    tree there may be another one of the same weights.) Collinear sites,
    fewer than three, or sites Qhull leaves out of the triangulation
    (``coplanar``) go to the dense Prim instead.
    """
    x = p.coords
    order = np.lexsort(x.T[::-1])  # equal points adjacent, ids ascending
    xs = x[order]
    first = np.append(True, np.any(xs[1:] != xs[:-1], axis=1))
    name = order[first]  # each site's smallest id, in sorted order
    copies = ~first
    dup_u = name[np.cumsum(first)[copies] - 1]
    if p.dim == 1:
        a, b = name[:-1], name[1:]
    else:
        try:
            tri = Delaunay(xs[first])
        except QhullError:
            return _prim_exact(p)
        if tri.coplanar.size:
            return _prim_exact(p)
        start, near = tri.vertex_neighbor_vertices
        del tri
        site = np.repeat(np.arange(len(name)), np.diff(start))
        one_way = site < near
        a, b = name[site[one_way]], name[near[one_way]]
    u = np.concatenate([dup_u, np.minimum(a, b)])
    v = np.concatenate([order[copies], np.maximum(a, b)])
    w = _column_distances(x[u], x[v], np.empty(len(u)), np.empty(len(u)))
    by_key = np.lexsort((v, u, w))
    u, v, w = u[by_key], v[by_key], w[by_key]
    picked, _ = _knn_forest(p.n, u, v)
    return SpanningTree(p.n, u[picked], v[picked], w[picked], "raw")


def _prim_exact(src) -> SpanningTree:
    """Prim from vertex 0 over the m vertices still outside the tree.

    Slots [0, m) of ``rest``, ``best`` and ``parent`` hold those vertices, the
    weight of their lightest edge into the tree and its tree end; the vertex
    taken into the tree leaves its slot to the one in slot m - 1. Edges are
    ordered by (w, min, max): a slot's edge is replaced by an equal-weight
    one only from a smaller tree end, and among equal keys the slot with the
    smallest (min(parent, v), max(parent, v)) joins. Returns the edges as
    rows u < v in (w, u, v) order.
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
            # A row sum over rows this short made the tree of the 2-D
            # rings-exact input 2.6x slower than adding column by column.
            _column_distances(kept[:m], x[u], d, s)
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
        # The lightest edge into the tree; equal weights take the smallest
        # (min, max) of the edge.
        j = int(np.argmin(b))
        if np.count_nonzero(np.equal(b, b[j], out=eq)) > 1:
            ties = np.flatnonzero(eq)
            ends = p[ties], r[ties]
            j = int(ties[np.lexsort((np.maximum(*ends), np.minimum(*ends)))[0]])
        i = n - 1 - m
        edge_u[i], edge_v[i], edge_w[i] = p[j], r[j], b[j]
        u = int(r[j])
        last = m - 1
        r[j], b[j], p[j] = r[last], b[last], p[last]
        if points:
            kept[j] = kept[last]
    low, high = np.minimum(edge_u, edge_v), np.maximum(edge_u, edge_v)
    ranked = np.lexsort((high, low, edge_w))
    return SpanningTree(n, low[ranked], high[ranked], edge_w[ranked], "raw")


def approx_k_graph(n: int) -> int:
    """Neighbour count of the approximate tree's kNN graph: max(ceil(ln n), 10),
    at most n - 1."""
    return min(max(default_k(n), APPROX_MIN_NEIGHBORS), n - 1)


def _candidate_knn_edges(knn, k_graph: int):
    """kNN pairs as (min id, max id, distance) in (w, u, v) order, from the
    first k_graph + 1 columns of ``nearest_lists``' (dists, idx). Column 0 is
    the row itself and no later column is, so every row gives k_graph pairs."""
    dists, idx = knn
    n = len(idx)
    rows = np.repeat(np.arange(n), k_graph)
    cols = idx[:, 1:k_graph + 1].ravel()
    weights = dists[:, 1:k_graph + 1].ravel()
    u = np.minimum(rows, cols)
    v = np.maximum(rows, cols)
    # u * n + v orders pairs as (u, v) does.
    pair = u * n + v
    order = np.lexsort((pair, weights))
    u, v, pair, weights = u[order], v[order], pair[order], weights[order]
    # Drop the repeat of each mutual pair.
    keep = np.append(True, pair[1:] != pair[:-1])
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


def _kruskal_knn(p: PointSet, knn=None) -> SpanningTree:
    n = p.n
    k_graph = approx_k_graph(n)
    if knn is None:
        knn = nearest_lists(p, k_graph + 1)
    elif knn[1].shape[0] != n or knn[1].shape[1] <= k_graph:
        raise ValueError(f"expected neighbour lists of shape ({n}, >= {k_graph + 1})")
    cand_u, cand_v, cand_w = _candidate_knn_edges(knn, k_graph)
    del knn
    picked, comp = _knn_forest(n, cand_u, cand_v)
    edge_u, edge_v, edge_w = cand_u[picked], cand_v[picked], cand_w[picked]
    if len(picked) < n - 1:
        more = [], [], []
        _stitch(p, comp, *more)
        edge_u, edge_v, edge_w = (np.append(a, b) for a, b in zip((edge_u, edge_v, edge_w), more))
    return SpanningTree(n, edge_u, edge_v, edge_w, "raw")


def _knn_forest(n: int, cand_u, cand_v):
    """Kruskal's forest over candidate edges already in Kruskal order, by
    Borůvka's rounds: returns the picked candidates' positions, ascending, and
    each vertex's component label, the component's smallest id.

    An edge's key is its position, so keys are distinct and the minimum
    spanning forest under them, which Borůvka finds, is the one Kruskal
    builds. Each round every component picks its lightest outgoing edge; the
    picks form trees whose only cycles are mutual picks, broken at the smaller
    component, and pointer jumping finds each tree's root.
    """
    m = len(cand_u)
    comp = np.arange(n)
    picked = np.zeros(m, dtype=bool)
    live = np.arange(m)
    while True:
        a, b = comp[cand_u[live]], comp[cand_v[live]]
        crossing = a != b
        live, a, b = live[crossing], a[crossing], b[crossing]
        if not live.size:
            break
        # Lightest outgoing edge of every component, at its label.
        lightest = np.full(n, m)
        np.minimum.at(lightest, a, live)
        np.minimum.at(lightest, b, live)
        roots = np.flatnonzero(lightest < m)
        edge = lightest[roots]
        picked[edge] = True
        ends_a, ends_b = comp[cand_u[edge]], comp[cand_v[edge]]
        hook = comp.copy()
        hook[roots] = np.where(ends_a == roots, ends_b, ends_a)
        # A mutual pick is the tree's only cycle: its smaller end is the root.
        cut = roots[(hook[hook[roots]] == roots) & (roots < hook[roots])]
        hook[cut] = cut
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        # Relabel each merged tree by its smallest member component.
        smallest = np.arange(n)
        np.minimum.at(smallest, hook[roots], roots)
        comp = smallest[hook[comp]]
    return np.flatnonzero(picked), comp


def _stitch(p: PointSet, comp, edge_u, edge_v, edge_w):
    """Prim over the forest's components (vertex labels ``comp``) from vertex
    0's, appending its edges.

    Each outside component keeps its best key (distance to the tree), the
    smallest of its ids at that key and the tree vertex it attaches to, the
    earliest-joined among equally near ones. When a component joins, one
    kd-tree over its points serves only the outside components whose bounding
    box lies within their best key of its box. Of those, each first queries
    its point nearest the box; that distance bounds the component's least, so
    only its points no farther from the box than the bound (and than the best
    key) are queried next. Any point farther can neither lower nor tie it.
    """
    members = np.argsort(comp, kind="stable")  # grouped by component, ids ascending
    first = np.flatnonzero(np.append(True, comp[members][1:] != comp[members][:-1]))
    sizes = np.diff(np.append(first, len(members)))
    which = np.empty(len(members), dtype=np.int64)
    which[members] = np.repeat(np.arange(len(first)), sizes)
    grouped = p.coords[members]
    lo, hi = np.minimum.reduceat(grouped, first), np.maximum.reduceat(grouped, first)
    best = np.full(len(first), np.inf)
    best_vertex = np.zeros(len(first), dtype=np.int64)
    best_near = np.zeros(len(first), dtype=np.int64)
    outside = np.ones(len(first), dtype=bool)
    joined = int(which[0])
    slack = 1 + 1e-9  # far above the rounding of squared box distances
    for _ in range(len(first) - 1):
        outside[joined] = False
        part = members[first[joined]:first[joined] + sizes[joined]]
        tree = cKDTree(p.coords[part])
        rest = np.flatnonzero(outside)
        gap = np.maximum(np.maximum(lo[rest] - hi[joined], lo[joined] - hi[rest]), 0)
        rest = rest[(gap * gap).sum(axis=1) <= (best[rest] * slack) ** 2]
        if rest.size:
            # The points of those components, one segment per component.
            lengths = sizes[rest]
            seg = np.cumsum(lengths) - lengths
            ids = members[np.arange(lengths.sum()) + np.repeat(first[rest] - seg, lengths)]
            x = p.coords[ids]
            gap = np.clip(x, lo[joined], hi[joined]) - x
            box = (gap * gap).sum(axis=1)
            d, j = np.full(len(ids), np.inf), np.zeros(len(ids), dtype=np.int64)
            _, probe = _first_min(box, seg, lengths)
            d[probe], j[probe] = tree.query(x[probe], k=1)
            bound = np.minimum(best[rest], d[probe]) * slack
            more = box <= np.repeat(bound * bound, lengths)
            more[probe] = False
            d[more], j[more] = tree.query(x[more], k=1)
            low, at = _first_min(d, seg, lengths)
            better = (low < best[rest]) | ((low == best[rest]) & (ids[at] < best_vertex[rest]))
            c, at = rest[better], at[better]
            best[c], best_vertex[c], best_near[c] = low[better], ids[at], part[j[at]]
        rest = np.flatnonzero(outside)
        tied = rest[best[rest] == best[rest].min()]
        joined = int(tied[np.argmin(best_vertex[tied])])
        edge_u.append(int(best_near[joined]))
        edge_v.append(int(best_vertex[joined]))
        edge_w.append(float(best[joined]))


def _first_min(values, seg, lengths):
    """Per segment (starts ``seg``): the least value and the position of its
    first occurrence."""
    low = np.minimum.reduceat(values, seg)
    hits = np.flatnonzero(values == np.repeat(low, lengths))
    return low, hits[np.searchsorted(hits, seg)]


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
    their positions in the dendrogram order.

    Two prefix-maximum scans outward from the center's position give the
    distances as two ascending runs, one per side; nothing is gathered by id.
    """
    if not 0 <= center < tree.n:
        raise ValueError(f"center {center} out of range [0, {tree.n})")
    r = int(tree.rank[center])
    left = np.maximum.accumulate(tree.gap[:r][::-1])
    right = np.maximum.accumulate(tree.gap[r:])
    return MinmaxVector(center, r, left, right)


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
