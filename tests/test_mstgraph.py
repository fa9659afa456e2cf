import itertools
import math
import signal
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import cKDTree

from pava import mstgraph
from pava.dataset import DissimilarityMatrix, PointSet
from pava.engine import run
from pava.mstgraph import (
    SpanningTree,
    adjust_weights,
    build_mst,
    key_order,
    minmax_from_center,
    propagate_labels,
)
from pava.neighbors import DensityProfile, nearest_lists

from oracles import (
    canonical_mst,
    dendrogram_order_reference,
    euclidean_matrix,
    kruskal_forest_reference,
    kruskal_mst_total,
    min_spanning_total_enumerated,
    minmax_closure,
    minmax_by_id,
    minmax_exhaustive,
    prim_reference,
    propagate_reference,
    tree_path_lengths,
)


def _points_1d(values):
    return PointSet(np.asarray(values, dtype=float).reshape(-1, 1))


def _chain(weights):
    n = len(weights) + 1
    return SpanningTree(n, np.arange(n - 1), np.arange(1, n), np.asarray(weights, float))


def _tie_heavy_tree(rng, n):
    """Random tree on shuffled vertex ids whose edge weights are 0, 1 or 2."""
    perm = rng.permutation(n)
    parents = [int(rng.integers(0, v)) for v in range(1, n)]
    return SpanningTree(n, perm[parents], perm[1:], rng.integers(0, 3, n - 1).astype(float))


def _blob_grid(rng, side, per_blob=40):
    """side**3 separated 3-D Gaussian blobs in shuffled order, each its own
    kNN-graph component."""
    centers = np.stack(np.meshgrid(*[np.arange(side) * 8.0] * 3), -1).reshape(-1, 3)
    coords = np.repeat(centers, per_blob, axis=0) + rng.normal(0, 0.5, (len(centers) * per_blob, 3))
    return coords[rng.permutation(len(coords))]


@st.composite
def _degenerate_sources(draw):
    """Duplicate-heavy, collinear or 1-D points, a pair of points, or a constant matrix."""
    kind = draw(st.sampled_from(["duplicates", "collinear", "line", "pair", "constant"]))
    n = draw(st.integers(min_value=2, max_value=40))
    ints = st.integers(min_value=-5, max_value=5)
    if kind == "duplicates":
        sites = np.array(draw(st.lists(st.tuples(ints, ints), min_size=1, max_size=4)), float)
        return PointSet(sites[draw(st.lists(st.integers(0, len(sites) - 1), min_size=n, max_size=n))])
    if kind == "collinear":
        t = np.array(draw(st.lists(ints, min_size=n, max_size=n)), float)
        return PointSet(np.outer(t, [0.6, 0.8]) + [1.0, -2.0])
    if kind == "line":
        return _points_1d(draw(st.lists(ints, min_size=n, max_size=n)))
    if kind == "pair":
        xs = st.floats(min_value=-100, max_value=100, allow_nan=False)
        return PointSet(np.array(draw(st.lists(xs, min_size=4, max_size=4))).reshape(2, 2))
    c = draw(st.floats(min_value=0, max_value=10))
    n = min(n, 12)
    return DissimilarityMatrix(np.full((n, n), c) - c * np.eye(n))


@st.composite
def _tied_points(draw):
    """1-D or 2-D coordinates on a small integer lattice, scaled by 1 or 0.05:
    repeated points, lattice points on common circles and, in 2-D, a
    collinear run that may hold every point."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=2, max_value=120))
    span = draw(st.integers(min_value=1, max_value=8))
    ints = st.integers(min_value=-span, max_value=span)
    coords = np.array(draw(st.lists(st.tuples(*[ints] * dim), min_size=n, max_size=n)), float)
    if dim == 2 and draw(st.booleans()):
        run = draw(st.integers(min_value=2, max_value=n))
        step = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (3, 4)]))
        t = np.array(draw(st.lists(ints, min_size=run, max_size=run)), float)
        coords[:run] = np.outer(t, step) + coords[0]
    return coords * draw(st.sampled_from([1.0, 0.05]))


@st.composite
def _near_tied_points(draw):
    """4 to 8 distinct points on a small 2-D integer lattice, each coordinate
    moved by 0, 1e-16, 3e-16 or 1e-12 either way: distances that rounding
    may tie or order apart from their exact values."""
    n = draw(st.integers(min_value=4, max_value=8))
    ints = st.integers(min_value=0, max_value=3)
    lattice = draw(st.lists(st.tuples(ints, ints), min_size=n, max_size=n, unique=True))
    offsets = st.sampled_from([0.0, 1e-16, -1e-16, 3e-16, -3e-16, 1e-12, -1e-12])
    moved = draw(st.lists(st.tuples(offsets, offsets), min_size=n, max_size=n))
    return (np.array(lattice, float) + np.array(moved)).tolist()


def _overflowing_blob_grid():
    """40 blobs of 8 points on a 2 x 4 x 5 grid, scaled so that squared
    distances overflow between blobs but not within one. Each point's 11
    nearest reach beyond its blob."""
    rng = np.random.default_rng(5)
    centers = np.stack(np.meshgrid(*[np.arange(g) * 8.0 for g in (2, 4, 5)]), -1).reshape(-1, 3)
    coords = np.repeat(centers, 8, axis=0) + rng.normal(0, 0.5, (320, 3))
    return PointSet(coords * 3e153)


@contextmanager
def _time_bound(seconds=5.0):
    """Fail the enclosed block with TimeoutError once it has run for
    ``seconds`` of wall time, so a looping example fails instead of stalling
    the suite. The alarm is checked between Python bytecodes."""
    def expire(signum, frame):
        raise TimeoutError(f"example ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _knn_pairs(coords, k):
    """Each point's k nearest other points by a full sort (ties to the smaller
    id), as unique pairs (u < v, w) in (w, u, v) order."""
    d = euclidean_matrix(coords)
    np.fill_diagonal(d, np.inf)
    near = np.argsort(d, axis=1, kind="stable")[:, :k]
    pairs = {(min(i, j), max(i, j)) for i, row in enumerate(near.tolist()) for j in row}
    u, v = np.array(sorted(pairs)).T
    order = np.lexsort((v, u, d[u, v]))
    return u[order], v[order], d[u, v][order]


@st.composite
def _tied_points_any_dim(draw):
    """Points on a small integer lattice in 1 to 4 dimensions, some drawn
    again as exact duplicates."""
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=80))
    span = draw(st.integers(min_value=1, max_value=3))
    ints = st.integers(min_value=-span, max_value=span)
    coords = np.array(draw(st.lists(st.tuples(*[ints] * dim), min_size=n, max_size=n)), float)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return np.vstack([coords, coords[copies]])


def _join(coords, comp):
    """``_join_components``' edges over the components ``comp`` of
    ``coords``, given no candidate edges, as a list of (u, v) in (w, u, v)
    order."""
    none = np.zeros(0, dtype=np.int64)
    x = np.array(coords, float)
    u, v = mstgraph._join_components(x, comp, none, none, np.zeros(0), np.zeros(len(coords)))
    by_key = np.lexsort((v, u, np.linalg.norm(x[u] - x[v], axis=1)))
    return list(zip(u[by_key].tolist(), v[by_key].tolist()))


def _assert_edges(tree, ref):
    for got, want in zip((tree.edge_u, tree.edge_v, tree.edge_w), ref):
        assert np.array_equal(got, want)


def _triples(edge_u, edge_v, edge_w):
    """Edges as sorted (min id, max id, weight) tuples."""
    return sorted(zip(np.minimum(edge_u, edge_v).tolist(), np.maximum(edge_u, edge_v).tolist(),
                      edge_w.tolist()))


def _edge_matrix(tree):
    """Dense weight matrix of the tree's edges, inf between non-adjacent vertices."""
    m = np.full((tree.n, tree.n), np.inf)
    m[tree.edge_u, tree.edge_v] = tree.edge_w
    m[tree.edge_v, tree.edge_u] = tree.edge_w
    return m


class TestBuildMst:
    def test_unique_mst_on_line(self):
        tree = build_mst(_points_1d([0, 1, 3]))
        edges = dict(zip(zip(tree.edge_u.tolist(), tree.edge_v.tolist()), tree.edge_w.tolist()))
        assert edges == {(0, 1): 1.0, (1, 2): 2.0}
        assert tree.total_weight == 3.0

    def test_unit_square_total(self):
        p = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert build_mst(p).total_weight == pytest.approx(3.0, rel=1e-12)

    def test_exact_total_matches_tree_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(3, 9))
            coords = rng.normal(size=(n, 2))
            total = build_mst(PointSet(coords)).total_weight
            ref = min_spanning_total_enumerated(euclidean_matrix(coords))
            assert total == pytest.approx(ref, rel=1e-12)

    def test_exact_total_matches_kruskal_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            n = int(rng.integers(4, 11))
            coords = rng.normal(size=(n, 2))
            total = build_mst(PointSet(coords)).total_weight
            assert total == pytest.approx(kruskal_mst_total(euclidean_matrix(coords)), rel=1e-12)

    def test_matrix_source(self):
        coords = np.random.default_rng(8).normal(size=(30, 2))
        m = DissimilarityMatrix(euclidean_matrix(coords))
        from_matrix = build_mst(m).total_weight
        from_points = build_mst(PointSet(coords)).total_weight
        assert from_matrix == pytest.approx(from_points, rel=1e-12)

    def test_two_far_blobs_give_the_canonical_tree(self):
        # Both take the certified forest plus the stitch.
        rng = np.random.default_rng(10)
        for d in (2, 3):
            coords = np.vstack([rng.normal(size=(80, d)), rng.normal(size=(80, d)) + 50.0])
            _assert_edges(build_mst(PointSet(coords)), canonical_mst(PointSet(coords)))

    def test_matrix_prim_gives_the_canonical_tree(self):
        rng = np.random.default_rng(11)
        coords = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 30.0])
        tied = rng.integers(1, 4, size=(40, 40)).astype(float)
        tie_free = DissimilarityMatrix(euclidean_matrix(coords))
        sources = [tie_free,
                   DissimilarityMatrix(np.triu(tied, 1) + np.triu(tied, 1).T),
                   DissimilarityMatrix(np.full((6, 6), 3.0) - 3.0 * np.eye(6))]
        for m in sources:
            tree = build_mst(m)
            _assert_edges(tree, canonical_mst(m))
            if m is tie_free:
                assert _triples(tree.edge_u, tree.edge_v, tree.edge_w) == _triples(*prim_reference(m))

    def test_exact_edges_match_canonical_mst(self):
        rng = np.random.default_rng(31)
        # 1-D points take the sorted chain, the others the certified forest,
        # and the matrices the dense Prim.
        coords = [rng.normal(size=(n, d)) for d in (1, 2, 3, 7, 8, 10) for n in (2, 3, 60)]
        tie_free = [PointSet(c) for c in coords]
        tie_free += [DissimilarityMatrix(euclidean_matrix(c)) for c in coords[:6]]
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3)
        square = np.stack(np.meshgrid(*[np.arange(6.0)] * 2), -1).reshape(-1, 2)
        shuffled = [square[rng.permutation(36)], grid[rng.permutation(64)]]
        tied = [PointSet(c) for c in [grid, np.arange(30.0).reshape(-1, 1) % 4,
                                      np.tile(grid[:20, :2], (2, 1)), np.ones((7, 2)),
                                      np.full((5, 8), -2.5)] + shuffled]
        tied += [DissimilarityMatrix(euclidean_matrix(c)) for c in shuffled]
        tied += [DissimilarityMatrix(np.full((6, 6), 3.0) - 3.0 * np.eye(6)),
                 DissimilarityMatrix(np.zeros((4, 4)))]
        rounded = rng.integers(0, 4, size=(40, 40)).astype(float)
        tied.append(DissimilarityMatrix(np.triu(rounded, 1) + np.triu(rounded, 1).T))
        for src, ties in [(s, False) for s in tie_free] + [(s, True) for s in tied]:
            before = src.coords.copy() if isinstance(src, PointSet) else src.values.copy()
            tree = build_mst(src)
            _assert_edges(tree, canonical_mst(src))
            if not ties:
                # Without equal distances Prim's tree is the canonical one,
                # and its weights pin the distance formula bit for bit.
                assert _triples(tree.edge_u, tree.edge_v, tree.edge_w) == _triples(*prim_reference(src))
            after = src.coords if isinstance(src, PointSet) else src.values
            assert np.array_equal(after, before)

    def test_point_sets_with_and_without_ties_give_the_canonical_tree(self):
        rng = np.random.default_rng(37)
        blobs = [_blob_grid(rng, 2), _blob_grid(rng, 3)]
        tie_free = [PointSet(c) for c in blobs]
        tie_free += [PointSet(rng.normal(size=(n, d))) for d in (1, 2, 3, 8) for n in (2, 3, 150)]
        # Equal distances everywhere, and groups of more than k_graph + 1
        # duplicates, whose points list only their own copies.
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), -1).reshape(-1, 3)
        sites = rng.normal(size=(5, 2)) * 20
        tie_heavy = [PointSet(np.vstack([grid, grid + [10.0, 0.0, 0.0]])),
                     PointSet(np.repeat(sites, 15, axis=0)[rng.permutation(75)]),
                     PointSet(np.repeat(rng.normal(size=(5, 3)), 15, axis=0)[rng.permutation(75)]),
                     _points_1d(np.arange(72) % 6), PointSet(np.ones((7, 2)))]
        for src in tie_free + tie_heavy:
            _assert_edges(build_mst(src), canonical_mst(src))

    def test_duplicates_keep_every_candidate_edge(self):
        # Three copies of each site: the kd-tree may list a copy before the
        # point itself. Fifteen copies: a point may be missing from its own row.
        rng = np.random.default_rng(1)
        for sites, copies in ((50, 3), (12, 15)):
            coords = np.repeat(rng.normal(size=(sites, 3)) * 5, copies, axis=0)
            src = PointSet(coords[rng.permutation(len(coords))])
            k_graph = mstgraph.forest_k_graph(src.n)
            dists, idx = nearest_lists(src, k_graph + 1)
            rows = np.arange(src.n)
            assert np.array_equal(idx[:, 0], rows)
            assert not np.any(idx[:, 1:] == rows[:, None])
            assert np.array_equal(dists, np.linalg.norm(src.coords[idx] - src.coords[:, None], axis=2))
            # The copies collapse into sites before the forest, so the tree
            # is the canonical one whether or not a site outnumbers k_graph.
            _assert_edges(build_mst(src, (dists, idx)), canonical_mst(src))

    def test_stitch_tie_rule(self):
        # Singleton components make the join a Borůvka over every pair. Among
        # equal weights the edge with the smallest (min, max) joins. ``_join``
        # puts the edges in (w, u, v) order, so they compare as a list.
        cases = [
            # 1 and 2 are equally near 0: (0, 1) before (0, 2).
            ([[0, 0], [1, 0], [-1, 0]], [(0, 1), (0, 2)]),
            # 2 is sqrt(5) from both 3 and 1: (1, 2) beats (2, 3), though 3
            # is the nearer to 0.
            ([[0, 0], [1, 2], [3, 1], [1, 0]], [(0, 3), (1, 3), (1, 2)]),
            # Once 3 joins 0, 1 is 2 from 3 and 2 is 2 from 0: (0, 2) and
            # (1, 3) both join, in that order, though 1 is the smaller id.
            ([[0, 0], [3, 0], [0, 2], [1, 0]], [(0, 3), (0, 2), (1, 3)]),
        ]
        for coords, want in cases:
            assert _join(coords, np.arange(len(coords))) == want

    def test_stitch_tie_rule_across_components(self):
        cases = [
            # Component {1, 2} is 2 from {0, 3} through (0, 2) and through
            # (1, 3); (0, 2) joins.
            ([[0, 0], [3, 0], [0, 2], [1, 0]], [0, 1, 1, 3], [(0, 3), (0, 2)]),
            # Components {1, 3} and {2} are both 1 from 0: (0, 2) before
            # (0, 3).
            ([[0, 0], [3, 0], [0, 1], [1, 0]], [0, 1, 2, 1], [(0, 2), (0, 3)]),
            # 2 and 3 are both sqrt(10) from {0, 1}, though 2 lies farther
            # from its bounding box; (0, 2) beats (0, 3) and (1, 3).
            ([[0, 0], [0, 2], [1, -3], [3, 1]], [0, 0, 2, 2], [(0, 2)]),
            # {1, 2} is 3 from {0, 3} through (0, 2) and through (1, 3); the
            # smallest id of a component, 1, does not decide.
            ([[0, 0], [10, 3], [0, 3], [10, 0]], [0, 1, 1, 0], [(0, 2)]),
        ]
        for coords, comp, want in cases:
            assert _join(coords, np.array(comp)) == want

    def test_stitching_indexes_each_point_once(self, monkeypatch):
        # One kd-tree over the points, each on its component's slab, and
        # one over the 27 components' box centres. A kd-tree per joined
        # component indexed N points in all, and one over every outside
        # point per join about N * C / 2.
        coords = _blob_grid(np.random.default_rng(41), 3)
        shapes = []

        def counting_tree(data, *args, **kwargs):
            shapes.append(np.shape(data))
            return cKDTree(data, *args, **kwargs)

        monkeypatch.setattr(mstgraph, "cKDTree", counting_tree)
        build_mst(PointSet(coords))
        assert sorted(shapes) == [(27, 3), (len(coords), 4)]

    def test_stitch_queries_only_points_near_the_joined_component(self, monkeypatch):
        # Each pair of components queries its point nearest the other's box,
        # then only its points within the pair's bound of that box: fewer
        # than N points in all. Updating every outside point's key on each
        # join of a Prim over the components queried 4570 points here
        # (N = 1080).
        coords = _blob_grid(np.random.default_rng(41), 3)
        queried = []

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(mstgraph, "cKDTree", CountingTree)
        tree = build_mst(PointSet(coords))
        _assert_edges(tree, canonical_mst(PointSet(coords)))
        assert sum(queried) <= len(coords)

    def test_stitch_calls_grow_with_the_rounds_not_the_components(self, monkeypatch):
        # Every Borůvka round at least halves the blocks of components and
        # makes at most five kd-tree calls, after one query for each
        # component's nearest ones. A Prim over the components made two or
        # three calls per join: 546 for the 216 components here.
        calls, rounds = [], []
        knn_forest = mstgraph._knn_forest

        class CountingTree(cKDTree):
            def query(self, *args, **kwargs):
                calls.append(1)
                return super().query(*args, **kwargs)

            def query_ball_point(self, *args, **kwargs):
                calls.append(1)
                return super().query_ball_point(*args, **kwargs)

        def spy(n, *args):
            rounds.append(n)
            return knn_forest(n, *args)

        monkeypatch.setattr(mstgraph, "cKDTree", CountingTree)
        monkeypatch.setattr(mstgraph, "_knn_forest", spy)
        for side in (2, 4, 6):
            calls.clear()
            rounds.clear()
            build_mst(PointSet(_blob_grid(np.random.default_rng(41), side, per_blob=16)))
            # The first call builds the forest; each later one is a round,
            # and the first round starts from one block per component.
            assert rounds[1] == side ** 3
            assert len(rounds) - 1 <= math.ceil(math.log2(side ** 3))
            assert len(calls) <= 1 + 5 * (len(rounds) - 1)

    def test_candidate_list_and_forest_match_references(self):
        rng = np.random.default_rng(43)
        grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3), -1).reshape(-1, 3)
        tie_free = [_blob_grid(rng, 3), rng.normal(size=(300, 2)), rng.normal(size=(40, 1))]
        tie_heavy = [np.repeat(rng.normal(size=(6, 2)), 30, axis=0)[rng.permutation(180)],
                     grid[rng.permutation(len(grid))], np.vstack([grid, grid + 7.0]),
                     (np.arange(90.0) % 9).reshape(-1, 1), np.ones((12, 3))]
        lists = [(len(coords), _knn_pairs(coords, 10)) for coords in tie_free + tie_heavy]
        # Random pair lists with integer weights, in the library's (w, u, v) order.
        for n in (2, 9, 60, 400):
            pairs = np.sort(rng.integers(0, n, size=(3 * n, 2)), axis=1)
            pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
            w = rng.integers(0, 4, len(pairs)).astype(float)
            order = np.lexsort((pairs[:, 1], pairs[:, 0], w))
            lists.append((n, (pairs[order, 0], pairs[order, 1], w[order])))
        for n, (cand_u, cand_v, cand_w) in lists:
            # An infinite bound certifies every pick.
            picked, comp = mstgraph._knn_forest(n, cand_u, cand_v, cand_w, np.full(n, np.inf))
            ref_u, ref_v, ref_w, ref_comp = kruskal_forest_reference(n, cand_u, cand_v, cand_w)
            assert np.array_equal(cand_u[picked], ref_u)
            assert np.array_equal(cand_v[picked], ref_v)
            assert np.array_equal(cand_w[picked], ref_w)
            assert np.array_equal(comp, ref_comp)

    @given(_degenerate_sources())
    @settings(max_examples=60, deadline=None)
    def test_tree_spans_degenerate_input(self, src):
        with _time_bound():
            tree = build_mst(src)  # equal to the canonical tree edge for edge, so it spans
        _assert_edges(tree, canonical_mst(src))


@st.composite
def _small_int_matrices(draw):
    """Symmetric matrices of 2 to 25 objects with entries 0 to 3: many equal
    weights, zero off the diagonal, and triangle inequalities broken."""
    n = draw(st.integers(min_value=2, max_value=25))
    upper = draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = upper
    return DissimilarityMatrix(m + m.T)


class TestDensePrim:
    @given(_small_int_matrices())
    @settings(max_examples=200, deadline=None)
    def test_tied_matrices_give_the_canonical_tree(self, m):
        with _time_bound():
            tree = build_mst(m)
        _assert_edges(tree, canonical_mst(m))


class TestExactTreeInLowDimensions:
    """The exact tree of 1-D point sets is the sorted chain of their sites,
    and that of 2-D point sets comes from the certified kNN forest; either
    way it is the canonical tree of the points and of their matrix."""

    @given(_tied_points())
    @settings(max_examples=150, deadline=None)
    def test_points_and_matrix_give_the_canonical_tree(self, coords):
        with _time_bound():
            points = PointSet(coords)
            ref = canonical_mst(points)
            _assert_edges(build_mst(points), ref)
            _assert_edges(build_mst(DissimilarityMatrix(euclidean_matrix(coords))), ref)

    @given(_near_tied_points())
    @example([[1.0000000000000002, -1e-16], [0.999999999999, 1.0], [3e-16, 3.0000000000000004],
              [0.9999999999999999, 1.0], [1e-16, 1.9999999999999998], [1e-12, 3.0],
              [-1e-12, 2.0]])
    @settings(max_examples=150, deadline=None)
    def test_near_tied_points_and_matrix_give_the_canonical_tree(self, coords):
        # Distances that differ by less than rounding: a Delaunay candidate
        # set took (4, 5) at 1.0000000000000002 for the example's (5, 6) at 1.0.
        with _time_bound():
            points = PointSet(np.array(coords))
            ref = canonical_mst(points)
            _assert_edges(build_mst(points), ref)
            _assert_edges(build_mst(DissimilarityMatrix(euclidean_matrix(points.coords))), ref)

    # ``degenerate`` marks sites that a triangulation cannot serve: fewer
    # than three, collinear, or two of them nearly coincident. They take the
    # same builder as any other sites of their dimension.
    @pytest.mark.parametrize("coords, degenerate", [
        ([[0.0], [2.0]], False),
        ([[1.0, 1.0], [0.0, 2.0]], True),
        ([[0.0], [2.0], [1.0]], False),
        ([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]], False),
        ([[3.0]] * 5, False),
        ([[3.0, -1.0]] * 6, True),
        ([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [1.0, 0.0]], False),
        ([[0.0, 0.0], [2.0, 1.0], [4.0, 2.0], [2.0, 1.0], [-2.0, -1.0]], True),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5], [0.5, 0.5 + 1e-15]], True),
        # Qhull dropped one of these sites without calling it coplanar, and
        # the tree came up one edge short.
        ([[2.0, 0.0], [-1e-12, 0.0], [1.0, 1e-12], [1.0, 0.0], [0.0, 0.0]], True),
    ])
    def test_small_and_degenerate_point_sets(self, monkeypatch, coords, degenerate):
        calls = []

        def counting(name):
            def wrapper(*args):
                calls.append(name)
                return original[name](*args)
            return wrapper

        original = {name: getattr(mstgraph, name) for name in ("_prim_exact", "_certified_tree")}
        for name in original:
            monkeypatch.setattr(mstgraph, name, counting(name))
        points = PointSet(np.array(coords))
        tree = build_mst(points)
        # 1-D sites take their sorted chain, 2-D sites the certified forest,
        # and no point set reaches the dense Prim.
        assert calls == ["_certified_tree"] * (points.dim == 2)
        ref = canonical_mst(points)
        _assert_edges(tree, ref)
        _assert_edges(build_mst(DissimilarityMatrix(euclidean_matrix(points.coords))), ref)


def _density(kdist, k):
    """A DensityProfile of the given k-distances; adjustment reads no sums."""
    kdist = np.asarray(kdist, dtype=float)
    return DensityProfile(kdist, k, np.zeros_like(kdist))


class TestAdjustWeights:
    def test_cube_root_example(self):
        tree = SpanningTree(2, [0], [1], [8.0])
        adj = adjust_weights(tree, _density(np.array([1.0, 8.0]), 1))
        assert adj.edge_w[0] == pytest.approx(4.0, rel=1e-12)
        assert adj.kind == "adjusted"

    def test_fixed_point(self):
        c = 0.37
        tree = SpanningTree(2, [0], [1], [c])
        adj = adjust_weights(tree, _density(np.array([c, c]), 1))
        assert adj.edge_w[0] == pytest.approx(c, rel=1e-12)

    def test_random_tree_matches_formula(self):
        rng = np.random.default_rng(13)
        n = 40
        parents = [int(rng.integers(0, v)) for v in range(1, n)]
        weights = rng.uniform(0.1, 5.0, n - 1)
        tree = SpanningTree(n, parents, np.arange(1, n), weights)
        kdist = rng.uniform(0.01, 2.0, n)
        adj = adjust_weights(tree, _density(kdist, 3))
        for u, v, w0, w1 in zip(tree.edge_u, tree.edge_v, tree.edge_w, adj.edge_w):
            assert w1 == pytest.approx((w0 * kdist[u] * kdist[v]) ** (1.0 / 3.0), rel=1e-12)

    def test_flipped_rows_give_the_same_bits(self):
        # A product taken in row order, (w * kd_u) * kd_v, rounds 2 of these
        # 39 edges differently once their rows are flipped.
        rng = np.random.default_rng(13)
        n = 40
        parents = [int(rng.integers(0, v)) for v in range(1, n)]
        weights = rng.uniform(0.1, 5.0, n - 1)
        kdist = _density(rng.uniform(0.01, 2.0, n), 3)
        tree = adjust_weights(SpanningTree(n, parents, np.arange(1, n), weights), kdist)
        flipped = adjust_weights(SpanningTree(n, np.arange(1, n), parents, weights), kdist)
        assert tree.edge_w.tobytes() == flipped.edge_w.tobytes()

    def test_overflowing_product_stays_finite(self):
        from pava.neighbors import k_distance_all
        tree = SpanningTree(3, [0, 1], [1, 2], [1e300, 1.5e300])
        kdist = _density(np.array([2e300, 1.5e300, 2e300]), 2)
        want = [np.cbrt(1e300) * np.cbrt(2e300) * np.cbrt(1.5e300),
                np.cbrt(1.5e300) * np.cbrt(1.5e300) * np.cbrt(2e300)]
        # The zero edge times its ends' k-distances, floored at 1e288, is
        # 0 * inf: NaN, not an overflow.
        m = DissimilarityMatrix([[0, 0, 1e300], [0, 0, 1e300], [1e300, 1e300, 0]])
        zero = [0.0, np.cbrt(1e300) * np.cbrt(1e288) * np.cbrt(1e300)]
        for tree, kdist, want in (tree, kdist, want), (build_mst(m), k_distance_all(m, 1), zero):
            with np.errstate(all="raise"):
                adj = adjust_weights(tree, kdist)
            assert adj.edge_w == pytest.approx(want, rel=1e-12)

    def test_preserves_edge_set(self):
        tree = build_mst(_points_1d([0, 1, 3, 7]))
        adj = adjust_weights(tree, _density(np.ones(4), 1))
        assert np.array_equal(adj.edge_u, tree.edge_u)
        assert np.array_equal(adj.edge_v, tree.edge_v)

    def test_reuses_the_raw_tree_edges(self, monkeypatch):
        # The adjusted tree shares the raw tree's edge arrays, which the raw
        # tree's builder made spanning; neither adjusting nor reading the
        # order runs a forest pass (the order's own loop refuses a cycle).
        p = PointSet(np.random.default_rng(7).normal(size=(300, 2)))
        raw = build_mst(p)
        calls = []
        knn_forest = mstgraph._knn_forest

        def spy(*args):
            calls.append(args[0])
            return knn_forest(*args)

        monkeypatch.setattr(mstgraph, "_knn_forest", spy)
        from pava.neighbors import k_distance_all
        adj = adjust_weights(raw, k_distance_all(p, 5))
        adj.order
        assert np.shares_memory(adj.edge_u, raw.edge_u)
        assert np.shares_memory(adj.edge_v, raw.edge_v)
        assert calls == []

    def test_duplicate_points_keep_positive_weights(self):
        # two exact duplicates give kdist 0; the floor keeps other edges positive
        p = PointSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        from pava.neighbors import k_distance_all
        tree = build_mst(p)
        adj = adjust_weights(tree, k_distance_all(p, 1))
        distinct = [w for u, v, w in zip(tree.edge_u, tree.edge_v, adj.edge_w)
                    if not np.array_equal(p.coords[u], p.coords[v])]
        assert all(w > 0 for w in distinct)


class TestMinmaxFromCenter:
    def test_chain(self):
        assert minmax_by_id(_chain([1.0, 5.0, 2.0]), 0).tolist() == [0.0, 1.0, 5.0, 5.0]

    def test_star(self):
        tree = SpanningTree(3, [0, 0], [1, 2], [2.0, 7.0])
        assert minmax_by_id(tree, 0).tolist() == [0.0, 2.0, 7.0]

    def test_matches_exhaustive_path_enumeration(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            n = int(rng.integers(4, 9))
            coords = rng.normal(size=(n, 2))
            dist = euclidean_matrix(coords)
            tree = build_mst(PointSet(coords))
            for source in range(n):
                got = minmax_by_id(tree, source)
                ref = minmax_exhaustive(dist, source)
                assert np.array_equal(got, ref)

    def test_matches_closure_oracle(self):
        rng = np.random.default_rng(18)
        coords = rng.normal(size=(10, 2))
        cases = [(build_mst(PointSet(coords)), minmax_closure(euclidean_matrix(coords)))]
        # Tie-heavy trees: many equal and zero weights, shuffled vertex ids.
        for n in (1, 2, 3, 8, 15, 30, 30, 30):
            tree = _tie_heavy_tree(rng, n)
            cases.append((tree, minmax_closure(_edge_matrix(tree))))
        for tree, closure in cases:
            assert np.array_equal(tree.rank, np.argsort(tree.order))
            for source in range(tree.n):
                assert np.array_equal(minmax_by_id(tree, source), closure[source])

    def test_ultrametric_triple_inequality(self):
        rng = np.random.default_rng(19)
        coords = rng.normal(size=(50, 2))
        tree = build_mst(PointSet(coords))
        mm = np.array([minmax_by_id(tree, s) for s in range(50)])
        for a in range(0, 50, 7):
            for b in range(0, 50, 5):
                for c in range(0, 50, 11):
                    assert mm[a, c] <= max(mm[a, b], mm[b, c]) + 1e-15

    def test_center_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            minmax_from_center(_chain([1.0]), 5)


class TestPropagateLabels:
    def test_chain_prefers_lower_path_sum(self):
        labels = propagate_labels(_chain([1.0, 5.0]), np.array([1, 0, 2]))
        assert labels.tolist() == [1, 1, 2]

    def test_all_labeled_is_identity(self):
        start = np.array([2, 1, 1])
        assert propagate_labels(_chain([1.0, 1.0]), start).tolist() == [2, 1, 1]

    def test_no_labels_is_error(self):
        with pytest.raises(ValueError, match="labeled"):
            propagate_labels(_chain([1.0]), np.array([0, 0]))

    def test_tie_breaks_to_smaller_label(self):
        # middle vertex equidistant from labels 2 and 1
        tree = _chain([3.0, 3.0])
        labels = propagate_labels(tree, np.array([2, 0, 1]))
        assert labels[1] == 1

    def test_rejects_labels_that_are_not_non_negative_integers(self):
        for labels in ([1, -1, 0], [-2, 0, 0], [1.7, 0, 0]):
            with pytest.raises(ValueError, match="non-negative integers"):
                propagate_labels(_chain([1.0, 1.0]), np.array(labels))

    def test_matches_bruteforce_path_scan(self):
        rng = np.random.default_rng(23)
        n = 200

        def random_labels(count):
            labels = np.zeros(n, dtype=np.int64)
            labels[rng.choice(n, size=count, replace=False)] = rng.integers(1, 5, size=count)
            return labels

        # (tree, labels, whether the path scan is an oracle too)
        cases = []
        # Integer weights make equal path sums common, pinning the smaller-label rule.
        for tie_heavy in (False, True, True, True):
            if tie_heavy:
                tree = _tie_heavy_tree(rng, n)
            else:
                parents = [int(rng.integers(0, v)) for v in range(1, n)]
                weights = rng.uniform(0.1, 3.0, n - 1)
                tree = SpanningTree(n, parents, np.arange(1, n), weights)
            cases.append((tree, random_labels(12), True))
        cases.append((_tie_heavy_tree(rng, n), random_labels(1), True))
        # Zero-weight chains join differently labeled vertices next to unlabeled ones.
        cases.append((_chain([0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0]),
                      np.array([2, 0, 1, 0, 0, 3, 0, 1]), True))
        tree = _tie_heavy_tree(rng, n)
        labels = np.zeros(n, dtype=np.int64)
        zero = np.flatnonzero(tree.edge_w == 0)[::2]
        labels[tree.edge_u[zero]] = rng.integers(1, 5, size=len(zero))
        labels[tree.edge_v[zero]] = rng.integers(1, 5, size=len(zero))
        cases.append((tree, labels, True))
        # Rounding makes path sums equal (1 + 1e-300 == 1, 1e16 + 1 == 1e16),
        # which the path scan calls ties; the search settles them where the
        # sums still differ, so only the heap over every edge is the oracle.
        for count in (2, 12, 60):
            perm = rng.permutation(n)
            parents = [int(rng.integers(0, v)) for v in range(1, n)]
            weights = np.array([0.0, 1e-300, 1.0, 1e16])[rng.integers(0, 4, n - 1)]
            cases.append((SpanningTree(n, perm[parents], perm[1:], weights), random_labels(count), False))
        for tree, labels, scan in cases:
            edges = list(zip(tree.edge_u.tolist(), tree.edge_v.tolist(), tree.edge_w.tolist()))
            got = propagate_labels(tree, labels)
            assert np.array_equal(got, propagate_reference(tree.n, edges, labels))
            if not scan:
                continue
            seeds = np.flatnonzero(labels)
            lengths = np.array([tree_path_lengths(tree.n, edges, int(s)) for s in seeds])
            for v in range(tree.n):
                if labels[v] > 0:
                    assert got[v] == labels[v]
                    continue
                dists = lengths[:, v]
                best = dists.min()
                candidates = labels[seeds[dists == best]]
                assert got[v] == candidates.min()


@st.composite
def _shuffled_trees(draw):
    """A tree of 2 to 60 vertices, random, a star or a chain, on shuffled ids,
    its rows shuffled and their ends flipped at random, its weights from a
    few values (many ties) or continuous."""
    n = draw(st.integers(min_value=2, max_value=60))
    shape = draw(st.sampled_from(["random", "star", "chain"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        parents = [int(rng.integers(0, v)) for v in range(1, n)]
    else:
        parents = [0] * (n - 1) if shape == "star" else list(range(n - 1))
    ids = rng.permutation(n)
    u, v = ids[parents], ids[1:]
    flip = rng.random(n - 1) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    if draw(st.booleans()):
        w = rng.integers(0, draw(st.integers(1, 3)), n - 1).astype(float)
    else:
        w = rng.uniform(0.0, 1.0, n - 1)
    rows = rng.permutation(n - 1)
    return n, u[rows], v[rows], w[rows]


class TestDendrogramOrder:
    @given(_shuffled_trees())
    @settings(max_examples=200, deadline=None)
    @example((2, np.array([1]), np.array([0]), np.array([0.0])))
    def test_matches_the_reference_loop(self, case):
        n, u, v, w = case
        for tree in (SpanningTree(n, u, v, w), SpanningTree._spanning(n, u, v, w, "raw")):
            want = dendrogram_order_reference(n, tree.edge_u, tree.edge_v, tree.edge_w)
            for got, ref in zip((tree.order, tree.rank, tree.gap), want):
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("u, v", [([0, 1, 2], [1, 0, 3]), ([0, 1, 0], [1, 2, 2])])
    def test_builder_path_refuses_a_cycle_when_read(self, u, v):
        # A doubled edge, or a triangle beside a lone vertex: n - 1 edges
        # that do not span. The builders' path skips the constructor's pass,
        # and reading the order still refuses them.
        tree = SpanningTree._spanning(4, np.array(u), np.array(v), np.ones(3), "raw")
        with pytest.raises(ValueError, match="connected"):
            tree.order


@st.composite
def _run_table_trees(draw):
    """A raw or adjusted tree whose n - 1 gaps fill fewer than one, exactly
    one, or one and a bit of ``RUN_BLOCK``-gap blocks, or up to 300 vertices;
    random, a star or a chain on shuffled ids; its weights continuous, from
    {0, 1, 2}, or all zero."""
    n = draw(st.sampled_from([2, 3, 64, 65, 66, 129]) | st.integers(min_value=2, max_value=300))
    shape = draw(st.sampled_from(["random", "star", "chain"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "random":
        parents = [int(rng.integers(0, v)) for v in range(1, n)]
    else:
        parents = [0] * (n - 1) if shape == "star" else list(range(n - 1))
    ids = rng.permutation(n)
    weights = draw(st.sampled_from(["continuous", "ties", "zero"]))
    if weights == "continuous":
        w = rng.uniform(0.0, 1.0, n - 1)
    else:
        w = rng.integers(0, 3 if weights == "ties" else 1, n - 1).astype(float)
    tree = SpanningTree(n, ids[parents], ids[1:], w)
    if draw(st.booleans()):
        # k-distances with ties and zeros, floored like any other.
        tree = adjust_weights(tree, _density(rng.integers(0, 3, n) * rng.uniform(0.5, 1.5), 1))
    return tree


class TestRunTable:
    """``minmax_from_center`` reads its runs off the tree's block tables; they
    are the plain prefix-maximum scans outward from the center, bit for bit."""

    @given(_run_table_trees())
    @settings(max_examples=150, deadline=None)
    @example(SpanningTree(2, [0], [1], [0.0]))
    def test_every_center_matches_the_full_scans(self, tree):
        gap = tree.gap
        for center in range(tree.n):
            r, left, right = minmax_from_center(tree, center)
            assert r == tree.rank[center]
            for got, want in ((left, np.maximum.accumulate(gap[:r][::-1])),
                              (right, np.maximum.accumulate(gap[r:]))):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 64, 65, 66, 129, 5000])
    def test_a_round_scans_one_block_and_the_block_maxima(self, n):
        # Once the tables are built with the order, no scan in a round reads
        # more than one block's gaps or one maximum per block.
        rng = np.random.default_rng(n)
        ids = rng.permutation(n)
        raw = SpanningTree(n, ids[:-1], ids[1:], rng.uniform(0, 1, n - 1))
        tree = adjust_weights(raw, _density(rng.uniform(0.5, 1.5, n), 1))
        built = []
        table = mstgraph._run_table
        with mock.patch.object(mstgraph, "_run_table", lambda gap: built.append(len(gap)) or table(gap)):
            tree.order
        assert built == [n - 1, n - 1]
        scanned = []

        class Maximum:
            def __call__(self, *args, **kwargs):
                return np.maximum(*args, **kwargs)

            def accumulate(self, values, *args, **kwargs):
                scanned.append(np.size(values))
                return np.maximum.accumulate(values, *args, **kwargs)

        class Numpy:
            maximum = Maximum()

            def __getattr__(self, name):
                return getattr(np, name)

        with mock.patch.object(mstgraph, "_run_table", None), mock.patch.object(mstgraph, "np", Numpy()):
            for center in range(0, n, max(1, n // 200)):
                minmax_from_center(tree, center)
        assert scanned and max(scanned) <= max(mstgraph.RUN_BLOCK, -(-(n - 1) // mstgraph.RUN_BLOCK))


def _distances_reference(x, u, v):
    with np.errstate(over="ignore"):
        return np.sqrt(((x[u] - x[v]) ** 2).sum(axis=1))


class TestDistances:
    """``_distances`` gives the bits of the plain formula. numpy sums rows of
    8 or more values pairwise, so those widths are pinned too."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 16, 33])
    @pytest.mark.parametrize("scale", [1.0, 1e154, 1e-170])
    def test_bits_match_the_formula(self, dim, scale):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(50, dim)) * scale
        if scale > 1:
            # Half the points on the far side: squares of their gaps overflow.
            x[::2] = np.abs(x[::2]) + scale
            x[1::2] = -np.abs(x[1::2]) - scale
        x[::5] = x[0]  # repeated points
        u, v = rng.integers(0, 50, (2, 400))
        u[:20] = v[:20]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mstgraph._distances(x, u, v)
        want = _distances_reference(x, u, v)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if scale > 1:
            assert np.isinf(got).any() and np.isfinite(got).any()
            with pytest.raises(ValueError, match="overflow"):
                build_mst(PointSet(x))
        if scale < 1:
            assert not got.any()  # even distinct points: their squares underflow


class TestSpanningTreeInvariants:
    def test_rejects_disconnected_edges(self):
        # The right edge count, but a doubled edge, a triangle beside a lone
        # vertex or a self-loop leaves a vertex apart: refused at construction.
        for u, v in ([0, 1, 2], [1, 0, 3]), ([0, 1, 0], [1, 2, 2]), ([0, 1, 2], [1, 1, 3]):
            with pytest.raises(ValueError, match="connected"):
                SpanningTree(4, u, v, [1.0, 1.0, 1.0])

    def test_rejects_vertex_ids_out_of_range(self):
        with pytest.raises(ValueError, match="vertex id -1 out of range"):
            SpanningTree(3, [0, -1], [1, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match="vertex id 3 out of range"):
            SpanningTree(3, [0, 1], [1, 3], [1.0, 2.0])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="edges"):
            SpanningTree(3, [0], [1], [1.0])

    def test_prim_and_kruskal_totals_agree_on_distinct_weights(self):
        rng = np.random.default_rng(29)
        coords = rng.normal(size=(40, 2))
        total = build_mst(PointSet(coords)).total_weight
        assert total == pytest.approx(kruskal_mst_total(euclidean_matrix(coords)), rel=1e-12)


class TestCertifiedForest:
    """Point sets of 2 or more dimensions get a forest certified from kNN
    lists plus a Prim over its components: the canonical tree, with or
    without ties and duplicates."""

    @given(_tied_points_any_dim())
    @settings(max_examples=150, deadline=None)
    def test_tied_points_give_the_canonical_tree(self, coords):
        forests = []
        knn_forest = mstgraph._knn_forest

        def spy(n, cand_u, cand_v, cand_w, bound):
            picked, comp = knn_forest(n, cand_u, cand_v, cand_w, bound)
            # The first call certifies the forest over the sites; later ones
            # join its components and name blocks of them, not sites.
            if not forests:
                forests.append((cand_u[picked], cand_v[picked]))
            return picked, comp

        points = PointSet(coords)
        with _time_bound(), mock.patch.object(mstgraph, "_knn_forest", spy):
            tree = build_mst(points)
        ref = canonical_mst(points)
        _assert_edges(tree, ref)
        # The certified forest, over the sites named by their smallest ids,
        # lies inside the canonical tree.
        names = np.sort(np.unique(coords, axis=0, return_index=True)[1])
        tree_edges = set(zip(ref[0].tolist(), ref[1].tolist()))
        for a, b in forests:
            assert set(zip(names[a].tolist(), names[b].tolist())) <= tree_edges

    def test_ties_at_the_last_listed_distance(self):
        # 84 lattice points sqrt(50) from the center, each with more than
        # k_graph = 10 of the others nearer. Only the center lists a pair
        # between them, 10 of the 84 cut from the tie by the kd-tree, so an
        # edge at its last listed distance is not certified: an unlisted
        # one may precede it.
        shell = np.array([p for p in itertools.product(range(-7, 8), repeat=3)
                          if sum(c * c for c in p) == 50], float)
        coords = np.vstack([np.zeros((1, 3)), shell])
        rng = np.random.default_rng(59)
        for _ in range(10):
            points = PointSet(coords[rng.permutation(len(coords))])
            _assert_edges(build_mst(points), canonical_mst(points))

    def test_collinear_points_take_the_line_order(self):
        # The certified forest serves collinear and near-collinear 2-D sites
        # in about linear time instead of the dense Prim's O(N^2), although
        # its components outgrow their kNN lists along the line.
        rng = np.random.default_rng(47)
        t = rng.normal(size=6000)
        on_line = np.outer(t, [0.6, 0.8]) + [1.0, -2.0]
        near_line = on_line + 1e-9 * rng.normal(size=on_line.shape)
        with _time_bound(2.0):
            line = build_mst(PointSet(on_line))
        ref = build_mst(_points_1d(t))
        assert np.array_equal(line.edge_u, ref.edge_u)
        assert np.array_equal(line.edge_v, ref.edge_v)
        with _time_bound(2.0):
            build_mst(PointSet(near_line))
        want = minimum_spanning_tree(euclidean_matrix(near_line[:1500])).sum()
        assert build_mst(PointSet(near_line[:1500])).total_weight == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", ["tight blobs", "near-collinear", "uniform", "clumps",
                                      "duplicates", "grouped blobs", 1e150, 1e-150, 1e-170])
    def test_joined_components_give_the_canonical_tree(self, monkeypatch, kind):
        # Each input leaves the forest several components to join: 25 tight
        # blobs of 16 points; near-collinear 2-D sites; components whose
        # boxes overlap, of uniform points or of clumps scattered uniformly;
        # sites of five copies each; six far groups of 24 tight blobs; and a
        # blob grid scaled by 1e150, 1e-150 or 1e-170. The slab coordinates
        # must stay finite, and at 1e-170, where squared distances underflow
        # and many weigh 0, the rounds must still end. The grouped blobs
        # leave blocks whose 16 nearest centres all lie inside them, so two
        # of their rounds take the box-gap probe (checked by counting its
        # calls in a copy of the join).
        rng = np.random.default_rng(61)
        if kind == "tight blobs":
            coords = np.repeat(rng.uniform(0, 100, (25, 3)), 16, axis=0)
            coords += rng.normal(0, 0.05, coords.shape)
        elif kind == "near-collinear":
            coords = np.outer(rng.normal(size=500), [0.6, 0.8]) + rng.normal(0, 1e-6, (500, 2))
        elif kind == "uniform":
            coords = rng.uniform(size=(600, 2))
        elif kind == "clumps":
            coords = np.repeat(rng.uniform(size=(100, 2)), 6, axis=0) + rng.normal(0, 0.02, (600, 2))
        elif kind == "grouped blobs":
            blob_rng = np.random.default_rng(3)
            groups = blob_rng.uniform(0, 10000, (6, 3))
            centres = groups[:, None, :] + blob_rng.uniform(0, 60, (6, 24, 3))
            coords = np.repeat(centres.reshape(-1, 3), 16, axis=0)
            coords += blob_rng.normal(0, 0.05, coords.shape)
        elif kind == "duplicates":
            sites = np.repeat(rng.uniform(0, 50, (12, 3)), 8, axis=0) + rng.normal(0, 0.3, (96, 3))
            coords = np.repeat(sites, 5, axis=0)
        else:
            coords = _blob_grid(rng, 3, per_blob=16) * kind
        joined = []
        join = mstgraph._join_components

        def spy(x, comp, *args):
            joined.append(len(np.unique(comp)))
            return join(x, comp, *args)

        monkeypatch.setattr(mstgraph, "_join_components", spy)
        points = PointSet(coords[rng.permutation(len(coords))])
        with _time_bound():
            tree = build_mst(points)
        _assert_edges(tree, canonical_mst(points))
        assert joined[0] >= 2

    def test_overflowing_squared_distances_raise(self):
        # Squared distances between blobs pass the largest double. Where the
        # neighbour lists reach another blob, the kd-tree names no neighbour
        # there; where they do not, every join edge weighs inf. In 1-D the
        # chain's edge between the groups weighs inf. Each must end in a
        # clear error, not an IndexError or a loop without end, and without
        # a numpy warning on the way (pyproject.toml makes one an error).
        rng = np.random.default_rng(7)
        clouds = np.vstack([rng.normal(size=(100, 3)), rng.normal(size=(100, 3)) + [1e155, 0, 0]])
        line = np.concatenate([rng.normal(size=50) - 1e308, rng.normal(size=50) + 1e308])
        for points in (_overflowing_blob_grid(), PointSet(clouds), PointSet(line[:, None])):
            with _time_bound():
                with pytest.raises(ValueError, match="squared distances between the points overflow"):
                    build_mst(points)

    def test_tight_blobs_join_in_bounded_time(self):
        # 2000 blobs of 16 points each list only their own blob, so the join
        # merges 2000 components. About 0.2 s on a 2-CPU machine; a Prim over
        # the components took 0.72-0.85 s.
        rng = np.random.default_rng(67)
        coords = np.repeat(rng.uniform(0, 400, (2000, 3)), 16, axis=0)
        coords += rng.normal(0, 0.05, coords.shape)
        with _time_bound(0.7):
            tree = build_mst(PointSet(coords))
        # Each blob is joined by one edge to another blob.
        assert np.count_nonzero(tree.edge_w > 1) == 1999

    def test_near_collinear_sites_join_in_bounded_time(self):
        # On a line the forest's components outgrow their lists and stay
        # apart: about 800 of them at N = 60000. About 0.37 s on a 2-CPU
        # machine; a Prim over the components took 1.77-2.33 s.
        rng = np.random.default_rng(67)
        t = rng.normal(size=60000)
        coords = np.outer(t, [0.6, 0.8]) + rng.normal(0, 1e-6, (60000, 2))
        with _time_bound(1.5):
            tree = build_mst(PointSet(coords))
        # No heavier than the chain through the sites in the order of t.
        chain = np.diff(coords[np.argsort(t)], axis=0)
        assert tree.total_weight <= np.sqrt((chain * chain).sum(axis=1)).sum()

    def test_duplicate_heavy_points_collapse_into_sites(self):
        # 15 copies of each site: every copy lists only copies at distance
        # 0, so only the sites' own lists can certify an edge.
        rng = np.random.default_rng(53)
        sites = rng.normal(size=(1000, 3))
        coords = np.repeat(sites, 15, axis=0)[rng.permutation(15000)]
        with _time_bound():
            tree = build_mst(PointSet(coords))
        want = minimum_spanning_tree(euclidean_matrix(sites)).sum()
        assert tree.total_weight == pytest.approx(want, rel=1e-12)
        small = np.repeat(sites[:30], 15, axis=0)[rng.permutation(450)]
        _assert_edges(build_mst(PointSet(small)), canonical_mst(PointSet(small)))


@st.composite
def _lexsort_keys(draw):
    """1 to 4 int or float keys of one length in 0..300, each with few or
    many distinct values; float keys mix -0.0 and 0.0, hold +-inf and now
    and then NaN. The rows come as drawn, or already in key order."""
    n = draw(st.integers(min_value=0, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    keys = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        distinct = draw(st.sampled_from([1, 2, 3, 7, 40, 1000]))
        if draw(st.booleans()):
            dtype = draw(st.sampled_from([np.int32, np.int64]))
            keys.append(rng.integers(-distinct, distinct, n).astype(dtype))
        else:
            special = [-np.inf, -0.0, 0.0, np.inf] + [np.nan] * draw(st.booleans())
            keys.append(rng.choice(np.append(special, rng.normal(size=distinct)), n))
    if draw(st.booleans()):
        keys = [key[np.lexsort(keys)] for key in keys]
    return keys


_ARGSORT = np.argsort


def _ties_reversed(a):
    """An argsort that breaks ties by descending position."""
    return len(a) - 1 - _ARGSORT(a[::-1], kind="stable")


class TestKeyOrder:
    @settings(max_examples=300, deadline=None)
    @given(_lexsort_keys())
    @example([np.zeros(300), np.zeros(300), np.zeros(300)])
    @example([np.full(300, 7)])
    def test_equals_lexsort_whichever_unstable_sort_runs(self, keys):
        # numpy 1.24 sorts with introsort and numpy 2.x with SIMD sorts,
        # which leave ties in different orders; the result may not depend on it.
        want = np.lexsort(keys)
        for argsort in (_ARGSORT, lambda a: _ARGSORT(a, kind="heapsort"), _ties_reversed):
            with mock.patch.object(np, "argsort", argsort):
                got = key_order(*keys)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_run_makes_no_full_size_stable_sort(self, monkeypatch):
        # Continuous 3-D blobs leave few ties, so a stable sort in a run may
        # see only a small share of the rows. A full np.lexsort of the
        # coordinates, the candidate edges, the tree's rows or the centers,
        # or a stable float argsort, would see thousands.
        coords = _blob_grid(np.random.default_rng(19), 4, per_blob=47)
        lexsorted, stable, candidates = [], [], []
        knn_forest, lexsort, argsort = mstgraph._knn_forest, np.lexsort, np.argsort

        def spy_forest(n, cand_u, *args):
            candidates.append(len(cand_u))
            return knn_forest(n, cand_u, *args)

        def spy_lexsort(keys):
            lexsorted.append(len(keys[0]))
            return lexsort(keys)

        def spy_argsort(a, *args, **kwargs):
            if kwargs.get("kind") == "stable" and np.asarray(a).dtype.kind == "f":
                stable.append(len(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(mstgraph, "_knn_forest", spy_forest)
        monkeypatch.setattr(np, "lexsort", spy_lexsort)
        monkeypatch.setattr(np, "argsort", spy_argsort)
        run(PointSet(coords))
        assert candidates[0] > 5 * len(coords)
        assert max(lexsorted, default=0) < len(coords) // 4
        assert not stable
