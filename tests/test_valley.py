import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pava import valley
from pava.valley import (
    DegenerateHistogramError,
    DistanceHistogram,
    build_histogram,
    cap_percentile,
    first_valley_radius,
    smooth_profile,
)

from oracles import bin_counts_scalar, moving_average_scalar, percentile_linear


def _runs(values):
    """Values as the single ascending run the trim and the histogram take."""
    return (np.sort(np.asarray(values, dtype=np.float64)),)


def _kept(values, p):
    """The values cap_percentile retains, ascending."""
    return np.concatenate(cap_percentile(_runs(values), p))


def _full_pipeline_radius(values, bins=200, window=5, p=99.0):
    return first_valley_radius(smooth_profile(build_histogram(cap_percentile(_runs(values), p), bins), window))


def _hist_from_smoothed(smoothed):
    """Histogram shell around a hand-written smoothed profile."""
    b = len(smoothed)
    edges = np.linspace(0.0, float(b), b + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    raw = np.ones(b, dtype=np.int64)
    return DistanceHistogram(edges, centers, raw, raw - 1,
                             np.asarray(smoothed, dtype=float), smooth_window=5)


class TestCapPercentile:
    def test_one_to_hundred_drops_only_the_top(self):
        values = np.arange(1.0, 101.0)
        threshold = percentile_linear(values, 99.0)
        retained = _kept(values, 99.0)
        assert retained.size == 99
        assert retained.max() <= threshold
        assert 100.0 not in retained

    def test_threshold_matches_linear_interpolation_oracle(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(0, 10, 173)
        for p in (50.0, 90.0, 99.0):
            kept = _kept(values, p)
            threshold = percentile_linear(values, p)
            assert np.all(kept <= threshold + 1e-12)
            dropped = values[~np.isin(values, kept)]
            assert np.all(dropped > threshold - 1e-12)

    def test_constant_vector_passthrough(self):
        values = np.array([5.0, 5.0, 5.0, 5.0])
        for p in (1.0, 50.0, 99.0):
            assert _kept(values, p).size == 4

    def test_p_100_keeps_everything(self):
        values = np.arange(10.0)
        assert _kept(values, 100.0).size == 10

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            cap_percentile(_runs(np.arange(4.0)), 0.0)

    def test_rejects_a_plain_array(self):
        with pytest.raises(TypeError, match="runs"):
            cap_percentile(np.arange(4.0), 50.0)


class TestBuildHistogram:
    def test_four_values_four_bins(self):
        h = build_histogram(_runs(np.array([0.0, 1.0, 2.0, 3.0])), bins=4)
        assert h.raw_freq.tolist() == [1, 1, 1, 1]
        assert h.shifted_freq.tolist() == [0, 0, 0, 0]

    def test_skewed_two_bins(self):
        h = build_histogram(_runs(np.array([0.0, 0.0, 0.0, 10.0])), bins=2)
        assert h.raw_freq.tolist() == [3, 1]
        assert h.shifted_freq.tolist() == [2, 0]

    def test_counts_match_scalar_binning_oracle(self):
        rng = np.random.default_rng(37)
        values = rng.uniform(0, 1, 1000)
        h = build_histogram(_runs(values), bins=200)
        ref = bin_counts_scalar(values, 200, values.min(), values.max())
        assert np.array_equal(h.raw_freq, ref)
        assert h.raw_freq.sum() == 1000

    def test_equal_bin_widths(self):
        h = build_histogram(_runs(np.random.default_rng(0).uniform(0, 3, 500)), bins=77)
        widths = np.diff(h.bin_edges)
        assert np.allclose(widths, widths[0], rtol=1e-12)

    def test_degenerate_signal(self):
        with pytest.raises(DegenerateHistogramError):
            build_histogram(_runs(np.array([2.0, 2.0, 2.0])), bins=10)

    def test_range_too_narrow_for_the_bins(self):
        # [0, 5e-324] spans one subnormal step: no two of 201 edges differ.
        with pytest.raises(DegenerateHistogramError):
            build_histogram(_runs(np.array([0.0, 5e-324])), bins=200)
        # 1e-320 is about 2000 subnormal steps, enough for 3 bins.
        h = build_histogram(_runs(np.array([0.0, 1e-320])), bins=3)
        assert h.raw_freq.tolist() == [1, 0, 1]

    def test_too_few_bins(self):
        with pytest.raises(ValueError, match="bins"):
            build_histogram(_runs(np.arange(5.0)), bins=1)

    def test_rejects_a_plain_array(self):
        with pytest.raises(TypeError, match="runs"):
            build_histogram(np.arange(5.0), bins=4)


@st.composite
def _value_runs(draw):
    """Non-negative values with ties, or only a few ULPs (or subnormal steps)
    apart, split into one to three ascending runs, some of them empty."""
    kind = draw(st.sampled_from(["ties", "ulps", "subnormal", "free"]))
    size = draw(st.integers(min_value=1, max_value=60))
    if kind == "ties":
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=size, max_size=size))
    elif kind in ("ulps", "subnormal"):
        base = 0.0 if kind == "subnormal" else draw(st.floats(min_value=1e-250, max_value=1e6))
        steps = draw(st.lists(st.integers(0, 300 if kind == "subnormal" else 8),
                              min_size=size, max_size=size))
        values = [base + k * np.spacing(base) for k in steps]
    else:
        values = draw(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=size, max_size=size))
    values = np.array(values, dtype=np.float64)
    cuts = sorted(draw(st.lists(st.integers(0, size), min_size=0, max_size=2)))
    return tuple(np.sort(part) for part in np.split(values, cuts))


class TestAscendingRuns:
    @given(_value_runs(), st.floats(min_value=0.0, max_value=100.0, exclude_min=True)
           | st.sampled_from([1.0, 50.0, 99.0, 100.0]))
    @settings(max_examples=400, deadline=None)
    def test_percentile_matches_numpy(self, runs, p):
        values = np.concatenate(runs)
        threshold = np.percentile(values, p)
        assert valley._linear_percentile(runs, values.size, p) == threshold
        kept = cap_percentile(runs, p)
        assert len(kept) == len(runs)
        assert np.array_equal(np.sort(np.concatenate(kept)), np.sort(values[values <= threshold]))
        assert np.array_equal(cap_percentile(_runs(values), p)[0], np.sort(values[values <= threshold]))

    @given(_value_runs(), st.sampled_from([2, 3, 7, 200]))
    @settings(max_examples=400, deadline=None)
    def test_histogram_matches_numpy(self, runs, bins):
        values = np.concatenate(runs)
        lo, hi = values.min(), values.max()
        try:
            h = build_histogram(runs, bins)
        except DegenerateHistogramError:
            assert lo == hi or np.any(np.diff(np.linspace(lo, hi, bins + 1)) <= 0)
            return
        edges = np.linspace(lo, hi, bins + 1)
        assert np.array_equal(h.bin_edges, edges)
        # Half-open bins, the last one closed, read off the edges themselves.
        below = [np.count_nonzero(values < e) for e in edges[:-1]] + [values.size]
        assert np.array_equal(h.raw_freq, np.diff(below))
        assert np.array_equal(build_histogram(_runs(values), bins).raw_freq, h.raw_freq)
        if hi - lo >= np.finfo(np.float64).tiny:
            # Over a subnormal range np.histogram's index arithmetic can put
            # a value in a bin its own edges do not give; elsewhere it agrees.
            raw, np_edges = np.histogram(values, bins=bins, range=(lo, hi))
            assert np.array_equal(np_edges, edges)
            assert h.raw_freq.dtype == raw.dtype
            assert np.array_equal(h.raw_freq, raw)


class TestSmoothProfile:
    def test_constant_preserved(self):
        h = build_histogram(_runs(np.array([0.0, 1.0, 2.0, 3.0, 4.0])), bins=5)
        sm = smooth_profile(h, 5).smoothed_freq
        assert sm.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0]

    def test_shrinking_window_spike(self):
        h = build_histogram(_runs(np.array([2.0] + [0.0, 1.0, 3.0, 4.0])), bins=5)
        # shifted = [0, 0, 10, 0, 0] is hand-built below instead
        base = DistanceHistogram(h.bin_edges, h.bin_centers,
                                 np.array([1, 1, 11, 1, 1]), np.array([0, 0, 10, 0, 0]))
        sm = smooth_profile(base, 5).smoothed_freq
        assert sm.tolist() == [0.0, 10.0 / 3.0, 2.0, 10.0 / 3.0, 0.0]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(41)
        h = build_histogram(_runs(rng.uniform(0, 1, 300)), bins=64)
        for window in (1, 3, 5, 9):
            sm = smooth_profile(h, window).smoothed_freq
            ref = moving_average_scalar(h.shifted_freq.tolist(), window)
            assert np.allclose(sm, ref, rtol=1e-12, atol=1e-12)

    def test_interior_average_is_window_mean(self):
        rng = np.random.default_rng(43)
        h = build_histogram(_runs(rng.uniform(0, 1, 500)), bins=50)
        sm = smooth_profile(h, 5).smoothed_freq
        y = h.shifted_freq
        for i in range(2, 48):
            assert sm[i] == pytest.approx(y[i - 2 : i + 3].sum() / 5.0, rel=1e-12)

    def test_bits_match_the_prefix_sum_formula(self):
        # The window bounds are cached per (bins, window); interleaved sizes
        # must not share them, and the result must not alias the cache.
        rng = np.random.default_rng(47)
        for bins, window in ((64, 5), (200, 21), (64, 21), (7, 21), (200, 5), (64, 5)):
            h = build_histogram(_runs(rng.uniform(0, 1, 400)), bins=bins)
            got = smooth_profile(h, window)
            idx = np.arange(bins)
            half = np.minimum(np.minimum(idx, bins - 1 - idx), (window - 1) // 2)
            cum = np.concatenate([[0.0], np.cumsum(h.shifted_freq.astype(np.float64))])
            want = (cum[idx + half + 1] - cum[idx - half]) / (2 * half + 1)
            assert got.smoothed_freq.tobytes() == want.tobytes()
            assert got.smooth_window == window
            assert got.raw_freq is h.raw_freq and got.bin_edges is h.bin_edges
            assert h.smoothed_freq is None
            got.smoothed_freq[:] = 0.0
            assert smooth_profile(h, window).smoothed_freq.tobytes() == want.tobytes()

    def test_even_window_rejected(self):
        h = build_histogram(_runs(np.arange(5.0)), bins=5)
        with pytest.raises(ValueError, match="odd"):
            smooth_profile(h, 4)


class TestFirstValleyRadius:
    def test_two_separated_mounds_radius_in_gap(self):
        values = np.concatenate([np.linspace(0, 1, 100), np.linspace(2, 3, 100)])
        for window in (5, 21):
            radius = _full_pipeline_radius(values, bins=200, window=window)
            assert 1.0 < radius < 2.0

    def test_monotone_profile_falls_back_to_engulf(self):
        h = _hist_from_smoothed(np.arange(1.0, 11.0))
        radius = first_valley_radius(h)
        assert radius > h.max_distance

    def test_plateau_rule_fires_at_second_bin(self):
        h = _hist_from_smoothed([5.0, 1.0, 1.0, 4.0, 6.0, 7.0])
        assert first_valley_radius(h) == h.bin_centers[1]

    def test_sparse_run_of_half_a_window_is_a_valley(self):
        # Window 5: a run of 3 sub-zero bins between mounds cuts at its last
        # bin; a run of 2 is a dip inside a mound, and the next long run cuts.
        h = _hist_from_smoothed([2.0, 2.0, -1.0, -1.0, -1.0, 2.0, 2.0])
        assert first_valley_radius(h) == h.bin_centers[4]
        h = _hist_from_smoothed([2.0, -1.0, -1.0, 2.0, -1.0, -1.0, -1.0, 2.0])
        assert first_valley_radius(h) == h.bin_centers[6]

    def test_unsmoothed_histogram_rejected(self):
        h = build_histogram(_runs(np.arange(6.0)), bins=3)
        with pytest.raises(ValueError, match="smooth"):
            first_valley_radius(h)

    def test_radius_always_in_bounds(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            values = rng.uniform(0, rng.uniform(0.5, 50), rng.integers(30, 400))
            radius = _full_pipeline_radius(values)
            assert 0.0 < radius <= values.max() * (1 + 1e-9) * (1 + 1e-12)

    def test_deterministic(self):
        values = np.random.default_rng(53).uniform(0, 4, 500)
        assert _full_pipeline_radius(values) == _full_pipeline_radius(values)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(59)
        values = np.concatenate([rng.uniform(0, 1, 150), rng.uniform(3, 4, 150)])
        base = _full_pipeline_radius(values)
        for s in (0.25, 2.0, 117.0):
            assert _full_pipeline_radius(values * s) == pytest.approx(base * s, rel=1e-12)

    def test_sparse_lead_before_first_mound_not_a_valley(self):
        # one near-zero value, a long empty stretch, then a single dense mound
        values = np.concatenate([[0.0], np.linspace(5.0, 6.0, 300)])
        radius = _full_pipeline_radius(values, bins=200, window=21, p=100.0)
        assert radius > 6.0  # engulfs: there is no second mound to split off

    def test_straggler_tail_not_a_valley(self):
        # dense mound then a thin trickle: no mass after the sparse stretch
        rng = np.random.default_rng(61)
        values = np.concatenate([rng.uniform(0, 1, 400), np.linspace(1.5, 4.0, 6)])
        radius = _full_pipeline_radius(values, bins=200, window=21, p=100.0)
        assert radius > 4.0  # engulfs: the trickle is not a second mound

    def test_extracted_set_grows_with_radius(self):
        rng = np.random.default_rng(67)
        dist = rng.uniform(0, 10, 300)
        radii = sorted(rng.uniform(0, 11, 10))
        sets = [frozenset(np.flatnonzero(dist < r).tolist()) for r in radii]
        for small, big in zip(sets, sets[1:]):
            assert small <= big


class TestFullPipelineOnMixtures:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_radius_splits_two_well_separated_uniform_groups(self, seed):
        rng = np.random.default_rng(seed)
        left = rng.uniform(0.0, 1.0, 200)
        right = rng.uniform(8.0, 9.0, 200)
        radius = _full_pipeline_radius(np.concatenate([left, right]), window=21)
        assert left.max() < radius <= 9.0
