import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pava.metrics import (
    _pair_counts,
    adjusted_rand_index,
    pairwise_f_score,
    rand_index,
)

from oracles import (
    adjusted_rand_index_bruteforce,
    f_score_bruteforce,
    pair_confusion_bruteforce,
    rand_index_bruteforce,
)


class TestRandIndex:
    def test_identical(self):
        assert rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_crossed(self):
        assert rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(2 / 6)

    def test_zero_agreement(self):
        assert rand_index([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            rand_index([1, 2], [1, 2, 3])


class TestAdjustedRandIndex:
    def test_identical(self):
        assert adjusted_rand_index([1, 2, 2, 3], [3, 1, 1, 2]) == 1.0

    def test_crossed_matches_oracle(self):
        got = adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2])
        ref = adjusted_rand_index_bruteforce([1, 1, 2, 2], [1, 2, 1, 2])
        assert got == pytest.approx(ref, abs=1e-12)
        assert got < 0

    def test_null_mean_near_zero(self):
        rng = np.random.default_rng(71)
        base = rng.integers(1, 6, size=1000)
        values = []
        for _ in range(100):
            values.append(adjusted_rand_index(base, rng.permutation(base)))
        assert abs(np.mean(values)) <= 0.02

    def test_degenerate_identical_all_singletons(self):
        assert adjusted_rand_index([1, 2, 3], [3, 1, 2]) == 1.0

    def test_degenerate_identical_one_cluster(self):
        assert adjusted_rand_index([4, 4, 4], [9, 9, 9]) == 1.0

    def test_degenerate_single_cluster_vs_singletons(self):
        assert adjusted_rand_index([1, 1, 1], [1, 2, 3]) == 0.0


class TestPairwiseFScore:
    def test_identical(self):
        assert pairwise_f_score([1, 1, 2], [2, 2, 1]) == 1.0

    def test_all_merged(self):
        assert pairwise_f_score([1, 1, 2, 2], [1, 1, 1, 1]) == 0.5

    def test_all_singletons_prediction(self):
        assert pairwise_f_score([1, 1, 2, 2], [1, 2, 3, 4]) == 0.0

    def test_no_pairs_anywhere(self):
        assert pairwise_f_score([1, 2, 3], [3, 2, 1]) == 1.0


class TestAgainstBruteForce:
    def test_random_partitions(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = int(rng.integers(2, 120))
            a = rng.integers(1, int(rng.integers(2, 8)) + 1, size=n)
            b = rng.integers(1, int(rng.integers(2, 8)) + 1, size=n)
            assert rand_index(a, b) == pytest.approx(rand_index_bruteforce(a, b), abs=1e-12)
            assert adjusted_rand_index(a, b) == pytest.approx(
                adjusted_rand_index_bruteforce(a, b), abs=1e-12)
            assert pairwise_f_score(a, b) == pytest.approx(f_score_bruteforce(a, b), abs=1e-12)


class TestRelabelInvariance:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_permuting_label_ids_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        a = rng.integers(1, 5, size=n)
        b = rng.integers(1, 5, size=n)
        perm = rng.permutation(6)
        b_renamed = perm[b]
        assert rand_index(a, b) == pytest.approx(rand_index(a, b_renamed), abs=1e-12)
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(a, b_renamed), abs=1e-12)
        assert pairwise_f_score(a, b) == pytest.approx(
            pairwise_f_score(a, b_renamed), abs=1e-12)

    def test_ranges(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            a = rng.integers(1, 4, size=40)
            b = rng.integers(1, 4, size=40)
            assert 0.0 <= rand_index(a, b) <= 1.0
            assert 0.0 <= pairwise_f_score(a, b) <= 1.0
            assert adjusted_rand_index(a, b) <= 1.0


class TestPairCounts:
    def test_matches_pair_loop(self):
        rng = np.random.default_rng(83)
        cases = [(np.zeros(n, int), rng.integers(1, 4, n)) for n in (0, 1, 2, 7)]
        cases += [(np.arange(n), rng.integers(1, 4, n)) for n in (1, 2, 7)]
        cases += [(np.ones(9, int), np.arange(9)), (np.arange(9), np.ones(9, int))]
        for _ in range(60):
            n = int(rng.integers(1, 121))
            a = rng.integers(1, int(rng.integers(1, 9)) + 1, size=n)
            b = rng.integers(1, int(rng.integers(1, 9)) + 1, size=n)
            cases.append((a, b))
        for a, b in cases:
            got = _pair_counts(a, b)
            assert got == pair_confusion_bruteforce(a, b)
            n = len(a)
            assert sum(got) == n * (n - 1) // 2
            if n < 2:  # no pairs: the partitions cannot disagree
                assert rand_index(a, b) == adjusted_rand_index(a, b) == pairwise_f_score(a, b) == 1.0
