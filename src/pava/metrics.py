"""External clustering validity metrics: Rand index, adjusted Rand index, and
pairwise F-score.

All three count agreement over object pairs and are therefore invariant under
relabeling of either partition. The fast paths work off the contingency table
between the two partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_labels(p) -> np.ndarray:
    labels = getattr(p, "labels", p)
    return np.asarray(labels)


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Co-occurrence counts between two partitions of the same n objects."""

    counts: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int

    @classmethod
    def from_partitions(cls, a, b) -> "ContingencyTable":
        a = _as_labels(a)
        b = _as_labels(b)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError(f"partition lengths differ: {a.shape} vs {b.shape}")
        _, ai = np.unique(a, return_inverse=True)
        _, bi = np.unique(b, return_inverse=True)
        m1 = int(ai.max()) + 1
        m2 = int(bi.max()) + 1
        counts = np.bincount(ai * m2 + bi, minlength=m1 * m2).reshape(m1, m2)
        return cls(counts, counts.sum(axis=1), counts.sum(axis=0), int(a.size))


def _choose2(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1.0) / 2.0


def _pair_counts(table: ContingencyTable):
    """(TP, FP, FN, TN) over all object pairs, with partition a as reference."""
    total = _choose2(table.n)
    tp = _choose2(table.counts).sum()
    fn = _choose2(table.row_marginals).sum() - tp
    fp = _choose2(table.col_marginals).sum() - tp
    tn = total - tp - fn - fp
    return tp, fp, fn, tn


def rand_index(a, b) -> float:
    """Fraction of object pairs on which the two partitions agree."""
    table = ContingencyTable.from_partitions(a, b)
    tp, fp, fn, tn = _pair_counts(table)
    total = tp + fp + fn + tn
    if total == 0:
        return 1.0
    return float((tp + tn) / total)


def adjusted_rand_index(a, b) -> float:
    """Rand index corrected for chance: 1 for identical partitions, ~0 at random."""
    table = ContingencyTable.from_partitions(a, b)
    sum_cells = _choose2(table.counts).sum()
    sum_rows = _choose2(table.row_marginals).sum()
    sum_cols = _choose2(table.col_marginals).sum()
    total = _choose2(table.n)
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
    return float((sum_cells - expected) / denom)


def pairwise_f_score(a, b) -> float:
    """F1 over same-cluster pairs, with partition a as the ground truth."""
    table = ContingencyTable.from_partitions(a, b)
    tp, fp, fn, _ = _pair_counts(table)
    denom = 2.0 * tp + fp + fn
    if denom == 0:
        return 1.0
    return float(2.0 * tp / denom)
