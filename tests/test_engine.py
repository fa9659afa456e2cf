import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import pava.engine as engine_mod
import pava.neighbors as neighbors_mod
from pava.dataset import SHAPES, DissimilarityMatrix, PointSet, generate_synthetic
from pava.engine import ClusterModel, PavaConfig, extract_cluster, run, select_center
from pava.metrics import adjusted_rand_index
from pava.mstgraph import SpanningTree, adjust_weights, build_mst, forest_k_graph
from pava.neighbors import default_k, k_distance_all

from oracles import canonical_mst, claim_reference, euclidean_matrix
from test_mstgraph import _degenerate_sources, _overflowing_blob_grid, _tied_points, _time_bound


def _queue(kdist):
    """A fresh center queue: ids in descending stable k-distance order."""
    return np.argsort(np.asarray(kdist, dtype=float), kind="stable")[::-1].tolist()


def _two_far_blobs(per_blob=60, gap=100.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(per_blob, 2))
    b = rng.normal(size=(per_blob, 2)) + gap
    coords = np.vstack([a, b])
    membership = np.zeros(2 * per_blob, dtype=bool)
    membership[:per_blob] = True
    return PointSet(coords), membership


class TestSelectCenter:
    def test_argmin(self):
        assert select_center(_queue([3, 1, 2]), np.zeros(3, dtype=bool)) == 1

    def test_masked_argmin(self):
        labeled = np.array([False, True, False])
        assert select_center(_queue([3, 1, 2]), labeled) == 2

    def test_tie_breaks_to_smallest_index(self):
        assert select_center(_queue([1, 1, 5]), np.zeros(3, dtype=bool)) == 0

    def test_all_labeled_is_error(self):
        with pytest.raises(ValueError):
            select_center(_queue([1, 2]), np.ones(2, dtype=bool))


class TestExtractCluster:
    def test_claims_exactly_one_blob(self):
        # inter-blob minmax gap is ~50x the intra-blob maximum edge
        points, in_a = _two_far_blobs()
        tree = build_mst(points)
        center = int(np.flatnonzero(in_a)[0])
        claimed, radius, _ = extract_cluster(tree, center, PavaConfig(), np.zeros(points.n, dtype=bool))
        assert np.array_equal(np.sort(claimed), np.flatnonzero(in_a))
        assert radius > 0

    def test_engulf_fallback_claims_everything(self):
        rng = np.random.default_rng(1)
        points = PointSet(rng.normal(size=(120, 2)))
        tree = build_mst(points)
        claimed, radius, _ = extract_cluster(
            tree, 0, PavaConfig(), np.zeros(points.n, dtype=bool))
        # single cluster: either an engulf or a tail cut that the run loop mops up
        assert claimed.size >= int(0.9 * points.n)

    def test_boundary_distance_not_claimed(self, monkeypatch):
        # Dendrogram order 0 1 2 3 4 with the center 2 in the middle: 0 and 4,
        # one on each side of its position, sit exactly at the radius.
        points = PointSet(np.array([[-2.5, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.5, 0.0]]))
        tree = build_mst(points)
        assert tree.order.tolist() == [0, 1, 2, 3, 4]
        from pava.mstgraph import minmax_from_center

        _, left, right = minmax_from_center(tree, 2)
        boundary = 1.5
        assert left[-1] == right[-1] == boundary
        monkeypatch.setattr(engine_mod, "first_valley_radius", lambda h: boundary)
        claimed, radius, _ = extract_cluster(tree, 2, PavaConfig(), np.zeros(5, dtype=bool))
        assert radius == boundary
        assert claimed.tolist() == [1, 2, 3]

    def test_labeled_center_rejected(self):
        points, _ = _two_far_blobs(per_blob=5)
        tree = build_mst(points)
        labeled = np.zeros(points.n, dtype=bool)
        labeled[0] = True
        with pytest.raises(ValueError):
            extract_cluster(tree, 0, PavaConfig(), labeled)


def _last_round_degenerate():
    """8 copies of one point, then 900 of another. The 8 (k-distance 0, ids
    first) claim themselves off a two-spike histogram; every distance the
    900 copies' center keeps after the trim is 0, so the last round is
    degenerate."""
    return PointSet(np.repeat([[5.0, 0.0], [0.0, 0.0]], [8, 900], axis=0))


@st.composite
def _round_cases(draw):
    """A random tree with tied and zero weights, a center (often at the first
    or last dendrogram position), a labeled mask and the round's knobs."""
    n = draw(st.integers(min_value=2, max_value=40))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    # No subnormal weights: over a subnormal range np.histogram, which the
    # reference uses, can put a value in a bin its own edges do not give.
    weight = st.sampled_from([0.0, 1.0, 2.0, 0.5]) | st.floats(0.0, 10.0, allow_subnormal=False)
    weights = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    perm = np.array(draw(st.permutations(range(n))))
    tree = SpanningTree(n, perm[parents], perm[1:], np.array(weights))
    where = draw(st.sampled_from(["first", "last", "any"]))
    if where == "any":
        center = draw(st.integers(0, n - 1))
    else:
        center = int(tree.order[0 if where == "first" else -1])
    labeled = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    labeled[center] = False
    cfg = PavaConfig(trim_percentile=draw(st.sampled_from([1.0, 37.5, 90.0, 99.0, 100.0])),
                     bins=draw(st.sampled_from([3, 10, 200])),
                     smooth_window=draw(st.sampled_from([1, 3, 21])))
    return tree, center, labeled, cfg


class TestRoundInPositionSpace:
    @given(_round_cases())
    @settings(max_examples=300, deadline=None)
    @example((SpanningTree(2, [0], [1], [0.0]), 1, np.array([False, False]), PavaConfig()))
    @example((SpanningTree(2, [0], [1], [3.0]), 0, np.array([False, True]), PavaConfig()))
    def test_matches_the_by_id_reference(self, case):
        tree, center, labeled, cfg = case
        claimed, radius, hist = extract_cluster(tree, center, cfg, labeled)
        ref_claimed, ref_radius, ref_raw, ref_edges = claim_reference(
            tree, center, labeled, cfg.trim_percentile, cfg.bins, cfg.smooth_window)
        assert radius == ref_radius
        assert claimed.dtype == ref_claimed.dtype
        assert np.array_equal(claimed, ref_claimed)
        if ref_raw is None:
            assert hist is None
        else:
            assert np.array_equal(hist.raw_freq, ref_raw)
            assert np.array_equal(hist.bin_edges, ref_edges)

    @pytest.mark.parametrize("src, degenerate", [
        (generate_synthetic("blobs", 300, seed=2)[0], 0),
        (PointSet(np.zeros((30, 2))), 1),  # all distances equal
        (_last_round_degenerate(), 1),
    ], ids=["blobs-exact", "all-equal", "last-degenerate"])
    def test_run_calls_each_traced_step_once_per_round(self, monkeypatch, src, degenerate):
        # The benchmark's tracer wraps these engine globals; every round must
        # reach them by those names.
        names = ("select_center", "minmax_from_center", "cap_percentile", "build_histogram",
                 "smooth_profile", "first_valley_radius")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(engine_mod, name, counted(name, getattr(engine_mod, name)))
        model = run(src)
        full = model.m - degenerate
        assert sum(r.histogram is not None for r in model.rounds) == full
        assert calls == {"select_center": model.m, "minmax_from_center": model.m,
                         "cap_percentile": model.m, "build_histogram": model.m,
                         "smooth_profile": full, "first_valley_radius": full}

    def test_select_center_shares_one_queue(self):
        kdist = [2, 0, 2, 1, 0]
        queue = _queue(kdist)
        labeled = np.zeros(5, dtype=bool)
        picks = []
        for _ in range(5):
            picks.append(select_center(queue, labeled))
            assert picks[-1] == select_center(_queue(kdist), labeled)
            labeled[picks[-1]] = True
        assert picks == [1, 4, 3, 0, 2]
        with pytest.raises(ValueError):
            select_center(queue, labeled)


class TestRun:
    def test_twomoons_two_clusters(self):
        points, truth = generate_synthetic("twomoons", 600, seed=1)
        model = run(points)
        assert model.m == 2
        assert adjusted_rand_index(truth.labels, model.labels) >= 0.99

    def test_ccrings_two_clusters(self):
        points, truth = generate_synthetic("ccrings", 1200, seed=1)
        model = run(points)
        assert model.m == 2
        assert adjusted_rand_index(truth.labels, model.labels) >= 0.99

    def test_single_blob_one_cluster(self):
        points, _ = generate_synthetic("blobs", 300, seed=2,
                                       centers=[(0.0, 0.0)], spread=1.0)
        model = run(points)
        assert model.m == 1
        assert np.all(model.labels == 1)

    def test_labels_cover_one_to_m(self):
        points, _ = generate_synthetic("blobs", 240, seed=3)
        model = run(points)
        assert sorted(np.unique(model.labels).tolist()) == list(range(1, model.m + 1))

    def test_rounds_claim_disjoint_sets(self):
        points, _ = generate_synthetic("blobs", 240, seed=4)
        model = run(points)
        seen = set()
        for rnd in model.rounds:
            claimed = set(rnd.claimed.tolist())
            assert not (claimed & seen)
            seen |= claimed
        assert len(seen) <= points.n

    def test_deterministic(self):
        points, _ = generate_synthetic("twomoons_noise", 700, seed=5)
        a = run(points)
        b = run(points)
        assert np.array_equal(a.labels, b.labels)
        assert a.m == b.m
        assert [r.center for r in a.rounds] == [r.center for r in b.rounds]

    def test_matrix_mode_matches_point_mode(self):
        points, _ = generate_synthetic("blobs", 150, seed=6)
        matrix = DissimilarityMatrix(euclidean_matrix(points.coords))
        assert np.array_equal(run(points).labels, run(matrix).labels)

    def test_rigid_motion_leaves_labels_unchanged(self):
        points, _ = generate_synthetic("twomoons", 400, seed=7)
        base = run(points).labels
        rng = np.random.default_rng(8)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = PointSet(points.coords @ rot.T + rng.uniform(-5, 5, 2))
        assert np.array_equal(run(moved).labels, base)

    def test_uniform_scaling_leaves_labels_unchanged(self):
        points, _ = generate_synthetic("spiral", 300, seed=9)
        base = run(points).labels
        for s in (0.125, 8.0, 3.7):
            scaled = PointSet(points.coords * s)
            assert np.array_equal(run(scaled).labels, base)

    def test_adjustment_helps_on_bridge(self):
        wins = ties = 0
        for seed in range(6):
            points, truth = generate_synthetic("twomoons_bridge", 620, seed=seed)
            with_adj = adjusted_rand_index(truth.labels, run(points).labels)
            without = adjusted_rand_index(
                truth.labels, run(points, PavaConfig(use_adjusted=False)).labels)
            if with_adj > without:
                wins += 1
            elif with_adj == without:
                ties += 1
        assert wins + ties >= 4

    def test_k_over_n_rejected(self):
        points, _ = generate_synthetic("blobs", 30, seed=0)
        with pytest.raises(ValueError, match="k must be < N"):
            run(points, PavaConfig(k=30))

    def test_overflowing_squared_distances_rejected(self):
        with pytest.raises(ValueError, match="squared distances between the points overflow"):
            run(_overflowing_blob_grid())

    def test_tiny_dataset_still_labels_everything(self):
        # below min_unlabeled: the do-while loop still runs one round
        points = PointSet(np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]]))
        model = run(points, PavaConfig(k=1))
        assert np.all(model.labels >= 1)
        assert model.m >= 1

    def test_timings_and_report_fields(self):
        points, _ = generate_synthetic("blobs", 150, seed=10)
        model = run(points)
        assert isinstance(model, ClusterModel)
        for key in ("density_s", "mst_s", "extraction_s", "propagation_s", "total_s"):
            assert model.timings[key] >= 0.0
        for rnd in model.rounds:
            assert 0 <= rnd.center < points.n
            assert rnd.radius > 0
            assert rnd.claimed_count == rnd.claimed.size

    def test_keep_histograms(self):
        points, _ = generate_synthetic("twomoons", 300, seed=11)
        model = run(points)
        hists = [r.histogram for r in model.rounds if r.histogram is not None]
        assert hists
        assert all(h.smoothed_freq is not None for h in hists)

    @pytest.mark.parametrize("use_adjusted", [True, False])
    def test_model_carries_density_and_trees(self, use_adjusted):
        points, _ = generate_synthetic("twomoons", 300, seed=11)
        model = run(points, PavaConfig(use_adjusted=use_adjusted))
        assert np.array_equal(model.density.kdist, k_distance_all(points, default_k(300)).kdist)
        assert model.raw_tree.kind == "raw"
        assert model.raw_tree.total_weight == build_mst(points).total_weight
        if use_adjusted:
            assert model.tree.kind == "adjusted"
            assert np.array_equal(model.tree.edge_w,
                                  adjust_weights(model.raw_tree, model.density).edge_w)
        else:
            assert model.tree is model.raw_tree
        # The raw tree's dendrogram order is computed only when read.
        assert ("_leaves" in vars(model.raw_tree)) != use_adjusted

    @pytest.mark.parametrize("k", [4, 10, 13])
    def test_approximate_run_queries_neighbours_once(self, monkeypatch, k):
        # k below, equal to and above the kNN forest's k_graph (10 at N=400).
        points, _ = generate_synthetic("blobs", 400, seed=12)
        # A third coordinate sends the tree to the certified forest, which reads the lists.
        points = PointSet(np.column_stack([points.coords, np.random.default_rng(12).normal(size=400)]))
        assert forest_k_graph(points.n) == 10
        counts = []

        class CountingTree(cKDTree):
            def query(self, x, k, **kwargs):
                counts.append(k)
                return super().query(x, k, **kwargs)

        monkeypatch.setattr(neighbors_mod, "build_index", lambda p: CountingTree(p.coords))
        model = run(points, PavaConfig(k=k))
        monkeypatch.undo()
        assert counts == [max(k, 10) + 1]
        assert np.array_equal(model.density.kdist, k_distance_all(points, k).kdist)
        ref_u, ref_v, ref_w = canonical_mst(points)
        assert np.array_equal(model.raw_tree.edge_u, ref_u)
        assert np.array_equal(model.raw_tree.edge_v, ref_v)
        assert np.array_equal(model.raw_tree.edge_w, ref_w)
        assert set(vars(model.density)) == {"kdist", "k", "ksum"}

    @given(_degenerate_sources())
    @settings(max_examples=60, deadline=None)
    @example(DissimilarityMatrix(np.array([[0.0, 5e-324], [5e-324, 0.0]])))
    def test_degenerate_input_clusters(self, src):
        # Every such input is valid, so each configuration must cluster it.
        for use_adjusted in (True, False):
            with _time_bound():
                model = run(src, PavaConfig(use_adjusted=use_adjusted))
            assert len(model.labels) == src.n
            assert np.array_equal(np.unique(model.labels), np.arange(1, model.m + 1))

    @given(_tied_points())
    @settings(max_examples=60, deadline=None)
    def test_points_and_their_matrix_cluster_alike(self, coords):
        # Both forms build the canonical tree, so equal distances cannot
        # send them to different trees.
        with _time_bound():
            a = run(PointSet(coords))
            b = run(DissimilarityMatrix(euclidean_matrix(coords)))
        assert np.array_equal(a.labels, b.labels)
        assert [r.radius for r in a.rounds] == [r.radius for r in b.rounds]

    @given(st.sampled_from(SHAPES), st.integers(min_value=120, max_value=300),
           st.integers(min_value=0, max_value=2**16), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    @example("twomoons", 200, 1, 1)  # (w * kd_u) * kd_v gives a radius 1 ulp apart
    @example("spiral", 299, 461, 0)  # 103 and 107, mutual 6th neighbours, tie as centers
    def test_permuted_input_permutes_the_labels(self, shape, n, seed, perm_seed):
        # Continuous noise leaves no equal distances, but mutual k-th
        # neighbours share their k-distance, so centers often tie on it. The
        # sum of the k nearest distances settles such ties, so a permutation
        # changes only the ids: the labels follow it and every radius keeps
        # its bits.
        points, _ = generate_synthetic(shape, n, seed)
        perm = np.random.default_rng(perm_seed).permutation(n)
        matrix = euclidean_matrix(points.coords)
        pairs = [(points, PointSet(points.coords[perm])),
                 (DissimilarityMatrix(matrix), DissimilarityMatrix(matrix[np.ix_(perm, perm)]))]
        for src, moved in pairs:
            with _time_bound():
                a, b = run(src), run(moved)
            assert np.array_equal(b.labels, a.labels[perm])
            radii = [np.array([r.radius for r in m.rounds]).tobytes() for m in (a, b)]
            assert radii[0] == radii[1]


class TestPavaConfig:
    @pytest.mark.parametrize("kwargs", [
        {"stop_fraction": 0.0}, {"stop_fraction": 1.0}, {"bins": 2},
        {"smooth_window": 4}, {"trim_percentile": 0.0}, {"min_unlabeled": 0},
        {"trim_percentile": 100.5}, {"k": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PavaConfig(**kwargs)

    def test_defaults_valid(self):
        cfg = PavaConfig()
        assert cfg.use_adjusted and len(dataclasses.fields(cfg)) == 7
