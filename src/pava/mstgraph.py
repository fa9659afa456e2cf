"""Minimum spanning tree construction, density adjustment, and tree queries.

The minmax (path) distance between two objects is the smallest possible
bottleneck: the minimum over all connecting paths of the maximum edge weight
along the path. On the minimum spanning tree of the complete dissimilarity
graph (one exact builder per input kind: dense Prim for a matrix, the sorted
chain for 1-D points, a certified kNN forest whose components are joined in
Borůvka rounds for other points), the unique tree path realizes that
minimum. A tree's Kruskal dendrogram leaf order, read lazily, puts the
minmax distance between the leaves at positions i < j at max(gap[i:j])
(Gower & Ross 1969), so a center's distances to every object are the prefix
maxima of the gaps outward from its position. The order comes with a table of
those prefix maxima within blocks of ``RUN_BLOCK`` gaps, one per direction,
and each block's maximum (a two-level range-maximum split, as in Bender &
Farach-Colton 2000). A round then scans at most ``RUN_BLOCK`` gaps and one
maximum per later block, and fills the rest of both runs with one vectorised
maximum. Connectivity is checked once per edge set, while its order is
read: at once by the constructor, lazily for the builders' trees.

Ties resolve by one key order: edges by (w, min(u, v), max(u, v)), points by
their coordinates, centers by (k-distance, k-sum, id), and rows equal on every
key by id. ``key_order`` gives that order, the one ``np.lexsort`` gives, from
unstable sorts: one of the last key, then passes over only the rows it leaves
tied.

Density adjustment rescales each tree edge to the cube root of
weight * kdist(u) * kdist(v): edges touching sparse-region vertices (large
k-distance) grow, which pushes noise chains away from cluster bodies while
leaving dense regions nearly untouched.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .dataset import PointSet
from .neighbors import DensityProfile, default_k, nearest_lists

# Relative floor applied to k-distances during adjustment so exact duplicates
# (kdist = 0) cannot collapse edges between distinct points to weight zero.
KDIST_FLOOR_REL = 1e-12

# Relative margin far above the rounding between two computations of a distance.
_SLACK = 1e-9

# Gaps per block of a tree's run table: a round scans at most this many gaps
# one by one, and then one maximum per later block.
RUN_BLOCK = 64


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Spanning tree over n vertices: n-1 weighted edges. Their dendrogram leaf
    ``order``, its inverse ``rank``, and ``gap[i]``, the merge weight between
    leaves ``order[i]`` and ``order[i + 1]``, are computed on first read,
    together with the block tables of ``gap`` and of its reverse that
    ``minmax_from_center`` reads.

    The constructor reads the order at once, which refuses edges that do not
    connect every vertex; the builders' trees (``_spanning``) read it lazily."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    kind: str = "raw"

    def __post_init__(self):
        self._check()
        self._leaves  # refuses edges that do not connect every vertex

    def _check(self):
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

    @classmethod
    def _spanning(cls, n, edge_u, edge_v, edge_w, kind):
        """The tree of a builder's edges, which span by construction."""
        tree = object.__new__(cls)
        vars(tree).update(n=n, edge_u=edge_u, edge_v=edge_v, edge_w=edge_w, kind=kind)
        tree._check()
        return tree

    @cached_property
    def _leaves(self):
        order, rank, gap = _dendrogram_order(self.n, self.edge_u, self.edge_v, self.edge_w)
        return order, rank, gap, _run_table(gap), _run_table(gap[::-1])

    order = property(lambda self: self._leaves[0])
    rank = property(lambda self: self._leaves[1])
    gap = property(lambda self: self._leaves[2])

    @property
    def total_weight(self) -> float:
        return float(self.edge_w.sum())


def build_mst(src, knn=None) -> SpanningTree:
    """Minimum spanning tree of the complete dissimilarity graph: the unique
    one under the edge order (w, min(u, v), max(u, v)), as rows u < v in that
    order. Ties in weight never leave a choice to the builder, so a point set
    and its dissimilarity matrix give the same tree.

    - A DissimilarityMatrix: dense Prim (``_prim_exact``), O(N^2) time and
      O(N) memory.
    - A PointSet (``_kruskal_candidates``): equal points collapse into
      sites; 1-D sites take the sorted chain, and sites of 2 or more
      dimensions the tree of a kNN forest certified by the cut property,
      its components joined in Borůvka rounds (``_certified_tree``).
      ``knn``, the (dists, idx) lists that ``k_distance_all(src, k,
      forest_k_graph(N))`` returns, saves that forest's neighbour query.
    """
    if isinstance(src, PointSet):
        return _kruskal_candidates(src, knn)
    return _prim_exact(src)


def key_order(*keys):
    """``np.lexsort(keys)``: row ids ordered by the last key, rows tied there
    by the key before it, and so on, and rows tied on every key by id.

    One unstable ``np.argsort`` orders the last key. The rows it leaves tied
    are then ordered within their runs by the key before it, and so on, and
    last by id. Each step takes only the rows still tied, ranks their values
    of the key, and sorts them by (run, rank), a key with no ties, so the
    result does not depend on which unstable sort ran. Rows already in key
    order stay. ``np.lexsort`` sorts all rows where over half of a 1-in-16
    sample of the last key repeats a value, as on lattices or constant keys,
    and where a key holds NaN, which an unstable sort puts last without
    breaking its ties.
    """
    last = keys[-1]
    n = len(last)
    sample = last[::16]
    if np.all(sample[1:] >= sample[:-1]):  # the rows may be in key order already
        ahead = np.zeros(max(n - 1, 0), dtype=bool)  # each row before the next on the keys checked
        for key in keys[::-1]:
            if not np.all(ahead | (key[1:] >= key[:-1])):
                break
            ahead |= key[1:] > key[:-1]
        else:
            return np.arange(n)
    sample = np.sort(sample)
    if 2 * np.count_nonzero(sample[1:] == sample[:-1]) > len(sample):
        return np.lexsort(keys)
    order = np.argsort(last)
    at = np.arange(n)  # the positions of the rows still tied
    runs = last[order]  # the sorted values that tie them
    if runs[-1] != runs[-1]:
        return np.lexsort(keys)
    for key in keys[-2::-1] + (None,):
        same = runs[1:] == runs[:-1]
        after = np.append(False, same)  # equal to the row before
        tied = np.flatnonzero(after | np.append(same, False))
        if not tied.size:
            break
        run = np.cumsum(~after[tied])
        at = at[tied]
        rows = order[at]
        if key is None:
            rank = rows
        else:
            values = key[rows]
            by = np.argsort(values)
            values = values[by]
            if values[-1] != values[-1]:
                return np.lexsort(keys)
            rank = np.empty(len(rows), dtype=np.int64)
            rank[by] = np.cumsum(np.append(False, values[1:] != values[:-1]))
        runs = run * n + rank  # rank and id are below n
        by = np.argsort(runs)
        order[at] = rows[by]
        runs = runs[by]
    return order


def _distances(x, u, v):
    """Euclidean distances between rows ``u`` and ``v`` of ``x``: the one
    formula that weights every point-set edge. A distance whose square
    overflows is inf, which the tree's builders refuse."""
    with np.errstate(over="ignore"):
        d = np.take(x, u, axis=0)
        d -= np.take(x, v, axis=0)
        d *= d
        return np.sqrt(d.sum(axis=1))


def _kruskal_candidates(p: PointSet, knn) -> SpanningTree:
    """Exact tree of a point set: duplicate edges plus the tree of its sites.

    Equal points form one site, named by its smallest id, and every other
    point gets a zero-weight edge to its site's name. In 1-D consecutive
    sites in sorted order form the sites' tree. (That holds in exact
    arithmetic. Where rounding gives two different distances one computed
    weight, as for the points 0, 1 and 1e-20, the chain may be a tree of the
    same weights other than the canonical one.) Sites in 2 or more
    dimensions give their canonical tree by ``_certified_tree``.
    """
    x = p.coords
    order = key_order(*x.T[::-1])  # equal points adjacent, ids ascending
    xs = x[order]
    first = np.append(True, np.any(xs[1:] != xs[:-1], axis=1))
    name = order[first]  # each site's smallest id, in sorted order
    copies = ~first
    dup_u = name[np.cumsum(first)[copies] - 1]
    if p.dim == 1:
        a, b = name[:-1], name[1:]
    else:
        a, b = _certified_tree(x, np.sort(name), knn)
    u = np.concatenate([dup_u, np.minimum(a, b)])
    v = np.concatenate([order[copies], np.maximum(a, b)])
    w = _distances(x, u, v)
    if np.isinf(w).any():
        raise ValueError("squared distances between the points overflow")
    by_key = key_order(v, u, w)
    return SpanningTree._spanning(p.n, u[by_key], v[by_key], w[by_key], "raw")


def _certified_tree(x, names, knn):
    """Canonical tree of the distinct points ``x[names]``, ``names``
    ascending, as its edges' ends (a, b) in names.

    Every listed neighbour pair is a candidate edge. By the cut property the
    lightest edge leaving a component, under the order (w, min, max), is in
    the tree. A point lists every point nearer than its last listed distance,
    so an edge it does not list weighs at least that much. A component's
    lightest crossing candidate is therefore certified when it is strictly
    lighter than that bound at each member whose own lightest crossing
    candidate is not. ``_knn_forest`` takes certified picks in Borůvka rounds
    (March, Ram & Gray 2010 certify the same way over a dual tree), and
    ``_join_components`` joins the forest's components. On line-like sites a
    component soon lists only its own members, so the join does most of the
    work there.

    ``knn`` are ``nearest_lists``' (dists, idx) over every row of ``x``; they
    serve only when ``names`` holds every row. Otherwise, or without them,
    the sites get their own query of ``forest_k_graph`` + 1 columns.
    """
    s = len(names)
    if s < 2:
        return names[:0], names[:0]
    sites = x[names] if s < len(x) else x
    if knn is None or s < len(x):
        knn = nearest_lists(PointSet(sites), forest_k_graph(s) + 1)
    elif knn[1].shape[0] != s:
        raise ValueError(f"expected neighbour lists for {s} points, got {knn[1].shape[0]}")
    dists, idx = knn
    rows = np.repeat(np.arange(s), idx.shape[1] - 1)
    cols = idx[:, 1:].ravel()
    # Each listed pair once, ascending in (u, v); a mutual pair is listed twice.
    # A sort and an adjacent-difference mask: np.unique hashes before it sorts.
    keys = np.minimum(rows, cols) * s + np.maximum(rows, cols)
    keys.sort()
    u, v = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], s)
    w = _distances(sites, u, v)
    by_key = key_order(w)  # (w, u, v) order, the pairs being ascending in (u, v)
    u, v, w = u[by_key], v[by_key], w[by_key]
    bound = dists[:, -1] * (1 - _SLACK)
    picked, comp = _knn_forest(s, u, v, w, bound)
    a, b = u[picked], v[picked]
    if len(picked) < s - 1:
        more_a, more_b = _join_components(sites, comp, u, v, w, bound)
        a, b = np.concatenate([a, more_a]), np.concatenate([b, more_b])
    return names[a], names[b]


def _prim_exact(src) -> SpanningTree:
    """Dense Prim (Prim 1957) over a DissimilarityMatrix from vertex 0.

    ``best[v]`` is the weight of outside vertex v's lightest edge into the
    tree and ``parent[v]`` its tree end; a vertex inside the tree has
    ``best`` inf. Edges are ordered by (w, min, max): v's edge is replaced by
    an equal-weight one only from a smaller tree end, and among equal
    ``best`` the vertex with the smallest (min(parent, v), max(parent, v))
    joins. Returns the edges as rows u < v in (w, u, v) order.
    """
    n = src.n
    best = src.values[0].copy()
    parent = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    edge_u, edge_v = np.empty((2, n - 1), dtype=np.int64)
    edge_w = np.empty(n - 1)
    u = 0
    for i in range(n - 1):
        outside[u] = False
        best[u] = np.inf
        row = src.values[u]
        closer = outside & ((row < best) | ((row == best) & (parent > u)))
        np.copyto(best, row, where=closer)
        np.copyto(parent, u, where=closer)
        u = int(np.argmin(best))
        tied = np.flatnonzero(best == best[u])
        if len(tied) > 1:
            ends = parent[tied], tied
            u = int(tied[np.lexsort((np.maximum(*ends), np.minimum(*ends)))[0]])
        edge_u[i], edge_v[i], edge_w[i] = parent[u], u, best[u]
    low, high = np.minimum(edge_u, edge_v), np.maximum(edge_u, edge_v)
    ranked = key_order(high, low, edge_w)
    return SpanningTree._spanning(n, low[ranked], high[ranked], edge_w[ranked], "raw")


def forest_k_graph(n: int) -> int:
    """Neighbour count of the kNN lists the certified forest is built from:
    max(ceil(ln n), 10), at most n - 1."""
    return min(max(default_k(n), 10), n - 1)


def _dendrogram_order(n: int, edge_u, edge_v, edge_w):
    """Kruskal over the tree's own edges in (w, u, v) order, appending the leaf
    list of v's component to u's at each merge; returns (order, rank, gap)."""
    link = list(range(n))  # union-find links; a root is its component's smallest id
    head, tail = list(range(n)), list(range(n))
    next_leaf, split = [0] * n, []  # split: the leaf each merge's weight follows
    by_key = key_order(edge_v, edge_u, edge_w)
    for a, b in zip(edge_u[by_key].tolist(), edge_v[by_key].tolist()):
        while link[a] != a:
            link[a] = a = link[link[a]]
        while link[b] != b:
            link[b] = b = link[link[b]]
        if a == b:  # n - 1 edges without a cycle span the n vertices
            raise ValueError("edges do not form a connected tree")
        split.append(tail[a])
        next_leaf[tail[a]] = head[b]
        if a < b:
            link[b], tail[a] = a, tail[b]
        else:
            link[a], head[b] = b, head[a]
    order = [head[0]]
    for _ in range(n - 1):
        order.append(next_leaf[order[-1]])
    order = np.array(order, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    gap_after = np.empty(n)
    gap_after[split] = edge_w[by_key]
    return order, rank, gap_after[order[:-1]]


def _run_table(gap):
    """Prefix maxima of ``gap`` within each block of ``RUN_BLOCK`` gaps, as
    the rows of a (blocks, RUN_BLOCK) array whose last block is padded with
    -inf, and each block's maximum, its row's last column."""
    blocks = -(-len(gap) // RUN_BLOCK)
    rows = np.full(blocks * RUN_BLOCK, -np.inf)
    rows[:len(gap)] = gap
    rows = np.maximum.accumulate(rows.reshape(blocks, RUN_BLOCK), axis=1)
    return rows, rows[:, -1].copy()


def _outward(gap, table, start):
    """``np.maximum.accumulate(gap[start:])`` from ``gap``'s run table.

    The gaps left in ``start``'s block are scanned. Every later value is the
    larger of the maximum entering its block, from one scan over the head's
    maximum and the block maxima between, and its block's prefix maximum.
    Maxima are exact, so the values are the full scan's.
    """
    rows, tops = table
    block = start // RUN_BLOCK
    head = min((block + 1) * RUN_BLOCK, len(gap)) - start
    later = rows[block + 1:]
    out = np.empty(head + later.size)
    if head > 0:
        np.maximum.accumulate(gap[start:start + head], out=out[:head])
        if later.size:
            entering = tops[block:-1].copy()
            entering[0] = out[head - 1]
            np.maximum.accumulate(entering, out=entering)
            np.maximum(entering[:, None], later, out=out[head:].reshape(-1, RUN_BLOCK))
    return out[:len(gap) - start]


def _knn_forest(n: int, cand_u, cand_v, cand_w, bound):
    """Kruskal's forest over candidate edges already in Kruskal order, by
    Borůvka's rounds: returns the picked candidates' positions, ascending, and
    each vertex's component label, the component's smallest id.

    An edge's key is its position, so keys are distinct and the minimum
    spanning forest under them, which Borůvka finds, is the one Kruskal
    builds. Each round every component picks its lightest outgoing edge; the
    picks form trees whose only cycles are mutual picks, broken at the smaller
    component, and pointer jumping finds each tree's root.

    With each vertex's ``bound``, under which its candidates hold all its
    edges, a component's pick counts only when its weight in ``cand_w`` is
    below the bound of each member whose own lightest outgoing candidate is
    not; the rounds end when no pick counts. Infinite bounds count every pick.
    """
    m = len(cand_u)
    comp = np.arange(n)
    picked = np.zeros(m, dtype=bool)
    live = np.arange(m)
    while True:
        live = live[comp[cand_u[live]] != comp[cand_v[live]]]  # crossing candidates
        if not live.size:
            break
        # Lightest outgoing edge of every vertex, then of every component at its label.
        own = np.full(n, m)
        np.minimum.at(own, cand_u[live], live)
        np.minimum.at(own, cand_v[live], live)
        lightest = np.full(n, m)
        np.minimum.at(lightest, comp, own)
        roots = np.flatnonzero(lightest < m)
        unsure = np.append(cand_w, np.inf)[own] >= bound
        limit = np.full(n, np.inf)
        np.minimum.at(limit, comp[unsure], bound[unsure])
        roots = roots[cand_w[lightest[roots]] < limit[roots]]
        if not roots.size:
            break
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


def _join_components(x, comp, cand_u, cand_v, cand_w, bound):
    """Edges that join the forest's components (vertex labels ``comp``) into
    the canonical tree, as their ends (u, v), u < v, in the order the rounds
    pick them; ``_kruskal_candidates`` sorts the tree's rows.

    ``cand_u``, ``cand_v`` and ``cand_w`` are candidate edges in (w, u, v)
    order, and vertex a's candidates hold its every edge lighter than
    ``bound[a]``. Only the lightest edge between two components can join
    them. Borůvka rounds over those pair edges merge blocks of components,
    each block named by its first component:

    - A block's lightest known outgoing edge bounds its lightest one. A
      block that knows none first probes a pair with a near component
      outside it.
    - Every component takes every component whose box lies within its
      block's bound. One ball query of a kd-tree over the boxes' centres
      finds them all.
    - Each such pair probes the vertex of its smaller component nearest the
      other's box, which may lower the bound. It then queries its vertices
      within the bound of that box whose candidates do not hold every edge
      that light. Those about as near as the pair's least get every vertex
      that near, and their keys decide.
    - ``_knn_forest`` merges the blocks over the known edges, each block
      certified up to its bound. Every block's lightest outgoing edge is
      then certified, so the blocks at least halve each round.

    Each step sends all its query rows to one kd-tree over every vertex in
    one call; both kd-trees are built with sliding-midpoint splits, as in
    ``build_index``. The slab coordinate, the component's index times more
    than twice the vertices' diameter, keeps a row with component T's slab on
    T's vertices.
    """
    n = len(comp)
    members = np.argsort(comp * n + np.arange(n))  # grouped by component, ids ascending
    first = np.flatnonzero(np.append(True, comp[members][1:] != comp[members][:-1]))
    sizes = np.diff(np.append(first, len(members)))
    count = len(first)
    which = np.empty(len(members), dtype=np.int64)
    which[members] = np.repeat(np.arange(count), sizes)
    grouped = x[members]
    lo, hi = np.minimum.reduceat(grouped, first), np.maximum.reduceat(grouped, first)
    # The kd-trees take coordinates divided by 2**scale, the least power of two
    # above the vertices' widest extent but not below 1. Every distance there
    # is below sqrt(dim), so the squares of the slab coordinates stay finite,
    # and distances too small to square round as in ``_distances``.
    scale = max(np.frexp((hi.max(axis=0) - lo.min(axis=0)).max())[1], 0)
    spacing = 2 * np.sqrt(x.shape[1]) + 1
    sites = cKDTree(np.column_stack([np.ldexp(x, -scale), which * spacing]), balanced_tree=False)

    def slab(a, t):
        """Query rows of vertices a on the slabs of components t."""
        return np.column_stack([np.ldexp(x[a], -scale), t * spacing])

    def nearest(a, t):
        """(distance, id) of the vertex of component t[i] nearest vertex a[i]."""
        d, b = sites.query(slab(a, t))
        return np.ldexp(d, scale), b

    def facing(s, t):
        """The vertices of each component s[i], one segment per pair, each
        with its distance to the box of t[i], and each segment's first vertex
        nearest that box: (ids, owner, seg, box, probe)."""
        lengths = sizes[s]
        seg = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(len(s)), lengths)
        ids = members[np.arange(lengths.sum()) + (first[s] - seg)[owner]]
        xq = x[ids]
        with np.errstate(over="ignore"):  # an overflowing gap is inf, as in _distances
            gap = np.clip(xq, lo[t][owner], hi[t][owner]) - xq
            box = np.sqrt((gap * gap).sum(axis=1))
        hits = np.flatnonzero(box == np.minimum.reduceat(box, seg)[owner])
        return ids, owner, seg, box, hits[np.searchsorted(hits, seg)]

    # Box T lies within gap r of box S only if their centres lie within
    # half[S] + half[T] + r, half being half the box's diagonal.
    centre, half = (lo + hi) / 2, np.sqrt(((hi - lo) ** 2).sum(axis=1)) / 2
    scaled = np.ldexp(centre, -scale)
    boxes = cKDTree(scaled, balanced_tree=False)
    # Each component's 16 nearest other components by their centres.
    near = boxes.query(scaled, k=min(count, 17))[1]
    cross = which[cand_u] != which[cand_v]
    eu, ev, ew = cand_u[cross], cand_v[cross], cand_w[cross]
    group = np.arange(count)  # each component's block, named by its first component
    slack = 1 + _SLACK
    out_u, out_v = [], []
    while True:
        keep = group[which[eu]] != group[which[ev]]
        eu, ev, ew = eu[keep], ev[keep], ew[keep]
        names = np.unique(group)
        if len(names) == 1:
            break
        # Each block's lightest known outgoing edge, at the block's name.
        light = np.full(count, np.inf)
        np.minimum.at(light, group[which[eu]], ew)
        np.minimum.at(light, group[which[ev]], ew)
        new_a, new_b, new_w = [], [], []
        lost = np.flatnonzero(np.isinf(light[group]))
        if lost.size:
            # A block without one probes a pair with the first outside component
            # among its components' nearest ones, or if there is none, with the
            # component whose box is nearest its first component's.
            outside = group[near[lost]] != group[lost, None]
            pick = outside.argmax(axis=1)
            found = outside[np.arange(len(lost)), pick]
            s, t = lost[found], near[lost[found], pick[found]]
            blind = np.setdiff1d(group[lost], group[s])
            if blind.size:
                with np.errstate(over="ignore"):
                    gap = np.maximum(lo[None] - hi[blind, None], lo[blind, None] - hi[None])
                    gap = (gap.clip(0) ** 2).sum(axis=2)
                gap[group[None] == blind[:, None]] = np.inf
                s, t = np.append(s, blind), np.append(t, gap.argmin(axis=1))
            ids, owner, seg, box, probe = facing(s, t)
            a = ids[probe]
            b = nearest(a, t)[1]
            w = _distances(x, a, b)
            new_a.append(a)
            new_b.append(b)
            new_w.append(w)
            np.minimum.at(light, group[s], w)
        # Each component takes the components whose box lies within its
        # block's bound (its level). With span = half + level, a pair's
        # centres lie within span + min(span, largest half) of one end: the
        # one with the larger level, or one whose half exceeds the other's span.
        level = light[group] * slack
        span = half + level
        r = (span + np.minimum(span, half.max())) * slack + _SLACK * np.abs(centre).max()
        hits = boxes.query_ball_point(scaled, np.ldexp(r, -scale))
        lengths = np.fromiter(map(len, hits), np.int64, count)
        s = np.repeat(np.arange(count), lengths)
        t = np.fromiter(itertools.chain.from_iterable(hits), np.int64, lengths.sum())
        with np.errstate(over="ignore"):
            gap = np.maximum(np.maximum(lo[t] - hi[s], lo[s] - hi[t]), 0)
            gap = np.sqrt((gap * gap).sum(axis=1))
        apart = (group[s] != group[t]) & (gap <= np.maximum(level[s], level[t]) * slack)
        s, t = s[apart], t[apart]
        # Each pair once, queried from its smaller component.
        small = (sizes[s] < sizes[t]) | ((sizes[s] == sizes[t]) & (s < t))
        s, t = np.divmod(np.unique(np.where(small, s, t) * count + np.where(small, t, s)), count)
        # Each pair's probe is a known edge that may lower both blocks' bounds.
        ids, owner, seg, box, probe = facing(s, t)
        d = np.full(len(ids), np.inf)
        a = ids[probe]
        d[probe], b = nearest(a, t)
        w = _distances(x, a, b)
        new_a.append(a)
        new_b.append(b)
        new_w.append(w)
        np.minimum.at(light, group[s], w)
        np.minimum.at(light, group[t], w)
        # Then each pair queries its vertices within its bound of the other
        # box, unless their candidates hold every edge that light, and those
        # about as near as the pair's least get every vertex that near.
        level = light[group] * slack
        need = np.maximum(level[s], level[t])
        lim = (np.minimum(need, d[probe]) * slack)[owner]
        more = (box <= lim) & (bound[ids] <= lim)
        more[probe] = False
        d[more] = nearest(ids[more], t[owner[more]])[0]
        least = np.minimum.reduceat(d, seg)
        close = np.flatnonzero((least <= need * slack)[owner] & (d <= (least * slack)[owner]))
        hits = sites.query_ball_point(slab(ids[close], t[owner[close]]),
                                      np.ldexp(least * slack, -scale)[owner[close]])
        lengths = np.fromiter(map(len, hits), np.int64, len(hits))
        a = np.repeat(ids[close], lengths)
        b = np.fromiter(itertools.chain.from_iterable(hits), np.int64, lengths.sum())
        new_a.append(a)
        new_b.append(b)
        new_w.append(_distances(x, a, b))
        # The known edges, each once, in (w, u, v) order.
        a, b = np.concatenate(new_a), np.concatenate(new_b)
        u = np.concatenate([eu, np.minimum(a, b)])
        v = np.concatenate([ev, np.maximum(a, b)])
        w = np.concatenate([ew] + new_w)
        by_key = key_order(v, u, w)
        u, v, w = u[by_key], v[by_key], w[by_key]
        fresh = np.append(True, (u[1:] != u[:-1]) | (v[1:] != v[:-1]))
        eu, ev, ew = u[fresh], v[fresh], w[fresh]
        # Each block's known edges hold every outgoing one up to its level.
        blk = np.searchsorted(names, group)
        limit = np.nextafter(level[names], np.inf)
        picked, merged = _knn_forest(len(names), blk[which[eu]], blk[which[ev]], ew, limit)
        if not picked.size:  # every block's lightest outgoing edge weighs inf
            raise ValueError("squared distances between the points overflow")
        out_u.append(eu[picked])
        out_v.append(ev[picked])
        group = names[merged[blk]]
    return np.concatenate(out_u), np.concatenate(out_v)


def adjust_weights(tree: SpanningTree, density: DensityProfile) -> SpanningTree:
    """Rescale every edge to cbrt(weight * (kdist(u) * kdist(v))).

    The edge set and its row order are unchanged, and the k-distances are
    multiplied first, so an edge's weight does not depend on which end is u.
    Where that product is not finite (it overflows, or is 0 * inf), the edge
    takes cbrt(weight) * (c(u) * c(v)) with c = cbrt(kdist). k-distances are floored at a tiny fraction of the
    largest raw edge weight so duplicate points keep distinct-point edges
    positive.
    """
    if tree.kind != "raw":
        raise ValueError("expected a raw tree")
    kdist = np.asarray(density.kdist, dtype=np.float64)
    if kdist.shape != (tree.n,):
        raise ValueError(f"density length {kdist.shape} does not match n={tree.n}")
    floor = KDIST_FLOOR_REL * float(tree.edge_w.max()) if tree.n > 1 else 0.0
    kdist = np.maximum(kdist, floor)
    u, v, w = tree.edge_u, tree.edge_v, tree.edge_w
    with np.errstate(over="ignore", invalid="ignore"):
        new_w = np.cbrt(w * (kdist[u] * kdist[v]))
    big = ~np.isfinite(new_w)
    if big.any():
        c = np.cbrt(kdist)
        new_w[big] = np.cbrt(w[big]) * (c[u[big]] * c[v[big]])
    return SpanningTree._spanning(tree.n, u, v, new_w, "adjusted")


def minmax_from_center(tree: SpanningTree, center: int):
    """Minmax distance from center to every other vertex: the largest gap
    between their positions in the dendrogram order.

    Returns ``(position, left, right)``: the center sits at ``position`` of
    ``tree.order``, ``left[i]`` is the distance to the vertex at position
    ``position - 1 - i`` and ``right[j]`` the one to the vertex at
    ``position + 1 + j``. Both runs are the prefix maxima of the gaps outward
    from the center, ascending, bit for bit those of
    ``np.maximum.accumulate``; nothing is gathered by id. They are read off
    the tree's run tables: a scan of at most ``RUN_BLOCK`` gaps and one of at
    most ceil((n - 1) / RUN_BLOCK) block maxima per run, then one vectorised
    maximum over the remaining positions.
    """
    if not 0 <= center < tree.n:
        raise ValueError(f"center {center} out of range [0, {tree.n})")
    r = int(tree.rank[center])
    gap, forward, backward = tree._leaves[2:]
    left = _outward(gap[::-1], backward, len(gap) - r)
    right = _outward(gap, forward, r)
    return r, left, right


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
