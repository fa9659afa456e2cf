"""External clustering validity metrics: Rand index, adjusted Rand index, and
pairwise F-score, each a function of the pair counts (TP, FP, FN, TN) over the
n(n-1)/2 object pairs, and so invariant under relabeling of either partition.
``_pair_counts`` reads them off two label vectors' contingency table.
"""

from __future__ import annotations

import numpy as np


def _choose2(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def _pair_counts(a, b):
    """(TP, FP, FN, TN) over all object pairs of label vectors a and b, with
    a as the reference: pairs together in both, in b only, in a only, and in
    neither."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"partition lengths differ: {a.shape} vs {b.shape}")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    m1 = int(ai.max(initial=-1)) + 1  # 0 for no objects, which have no pairs
    m2 = int(bi.max(initial=-1)) + 1
    counts = np.bincount(ai * m2 + bi, minlength=m1 * m2).reshape(m1, m2)
    total = _choose2(a.size)
    tp = _choose2(counts).sum()
    fn = _choose2(counts.sum(axis=1)).sum() - tp
    fp = _choose2(counts.sum(axis=0)).sum() - tp
    tn = total - tp - fn - fp
    return tp, fp, fn, tn


def rand_index(a, b) -> float:
    """Fraction of object pairs on which the two partitions agree."""
    tp, fp, fn, tn = _pair_counts(a, b)
    total = tp + fp + fn + tn
    if total == 0:
        return 1.0
    return float((tp + tn) / total)


def adjusted_rand_index(a, b) -> float:
    """Rand index corrected for chance (Hubert & Arabie 1985): 1 for identical
    partitions, ~0 at random."""
    tp, fp, fn, tn = _pair_counts(a, b)
    sum_rows = tp + fn  # pairs together in a
    sum_cols = tp + fp  # pairs together in b
    total = tp + fp + fn + tn
    if total == 0:
        return 1.0
    expected = sum_rows * sum_cols / total
    denom = (sum_rows + sum_cols) / 2.0 - expected
    # With row and column pair shares x = sum_rows / total and y = sum_cols /
    # total, denom / total = (x + y) / 2 - xy, which vanishes on [0, 1]^2 only
    # at x = y = 0 or x = y = 1: both partitions all singletons or both one
    # cluster, so they are identical.
    if denom == 0:
        return 1.0
    return float((tp - expected) / denom)


def pairwise_f_score(a, b) -> float:
    """F1 over same-cluster pairs, with partition a as the ground truth."""
    tp, fp, fn, _ = _pair_counts(a, b)
    denom = 2.0 * tp + fp + fn
    if denom == 0:
        return 1.0
    return float(2.0 * tp / denom)
