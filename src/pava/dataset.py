"""Dataset ingestion, synthetic benchmark generators, and ground-truth labels.

Coordinate data and dissimilarity matrices are the two entry points of the
pipeline: everything downstream consumes either a :class:`PointSet` (with
Euclidean dissimilarity) or an explicit :class:`DissimilarityMatrix`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Relative tolerance for matrix symmetry / diagonal checks.
SYMMETRY_RTOL = 1e-9

SHAPES = ("twomoons", "twomoons_noise", "twomoons_bridge", "ccrings", "spiral", "blobs")


@dataclass(frozen=True)
class PointSet:
    """N objects with d real-valued coordinates each."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError(f"coords must be 2-D (N x d), got shape {coords.shape}")
        if coords.shape[0] < 2:
            raise ValueError(f"need at least 2 points, got {coords.shape[0]}")
        if coords.shape[1] < 1:
            raise ValueError("need at least 1 coordinate dimension")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords contain non-finite values")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric N x N matrix of non-negative dissimilarities with a zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"matrix must be square, got shape {values.shape}")
        if values.shape[0] < 2:
            raise ValueError(f"need at least 2 objects, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix contains non-finite values")
        if np.any(values < 0):
            raise ValueError("matrix contains negative entries")
        largest = values.max()
        tol = SYMMETRY_RTOL * max(largest, 1.0)
        # One N x N buffer serves the symmetry check and then the result.
        out = np.subtract(values, values.T)
        if np.abs(out, out=out).max() > tol:
            raise ValueError("matrix is not symmetric within tolerance")
        if np.abs(np.diag(values)).max() > tol:
            raise ValueError("matrix diagonal is not zero")
        # Canonicalize: exact symmetry, exact zero diagonal.
        with np.errstate(over="ignore"):
            np.add(values, values.T, out=out)
        np.divide(out, 2.0, out=out)
        if largest > np.finfo(np.float64).max / 2:
            # Where a + b overflowed, a / 2 + b / 2 is their mean.
            over = np.isinf(out)
            out[over] = values[over] / 2 + values.T[over] / 2
        np.fill_diagonal(out, 0.0)
        object.__setattr__(self, "values", out)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LabeledPartition:
    """Length-N label vector with values exactly 1..m, each occurring at least once."""

    labels: np.ndarray
    m: int = field(default=0)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D vector")
        distinct = np.unique(labels)
        m = self.m if self.m else int(distinct.size)
        if distinct[0] < 1 or distinct[-1] > m or distinct.size != m:
            raise ValueError(f"labels must cover 1..{m} exactly, got values {distinct}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return self.labels.size

    @classmethod
    def from_raw(cls, raw) -> "LabeledPartition":
        """Remap arbitrary label tokens to 1..m in order of first appearance."""
        _, first, inverse = np.unique(np.asarray(raw), return_index=True, return_inverse=True)
        number = np.empty(len(first), dtype=np.int64)
        number[np.argsort(first)] = np.arange(1, len(first) + 1)
        return cls(number[inverse.ravel()], len(first))


def _parse_numeric(token: str, row: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"parse error at row {row}, column {col}: {token!r} is not numeric") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value at row {row}, column {col}: {token!r}")
    return value


def _is_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _read_rows(path) -> list[list[str]]:
    path = Path(path)
    with open(path, newline="") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    # Header row: first row with no numeric field at all.
    if not any(_is_numeric(tok) for tok in rows[0]):
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: no data rows after header")
    return rows


def _load_table(path):
    """The data rows, under ``_read_rows``' header rule, as a float64 array
    read by numpy's C parser; None when the per-cell scan must run instead:
    a cell numpy cannot read, ragged rows, a non-finite value or no data row.
    What numpy reads, Python's ``float`` reads to the same bits, so the scan
    only names the bad cell or reads what only ``csv`` and ``float`` accept
    (rows ended by a lone CR, ``1_0``, non-ASCII digits).
    """
    try:
        table = _loadtxt(path, ndmin=2)
    except (ValueError, csv.Error):
        return None
    if table.size == 0 or not np.isfinite(table).all():
        return None
    return table


def _load_last_column(path):
    """The last cell of each data row, under ``_read_rows``' header rule, as
    stripped strings read by numpy's C parser; None when there is no data row
    or numpy rejects the file.
    """
    try:
        # encoding=None decodes as open() does (numpy < 2 defaults to latin-1).
        cells = _loadtxt(path, dtype=str, usecols=-1, ndmin=1, encoding=None)
    except (ValueError, csv.Error):
        return None
    return np.char.strip(cells) if cells.size else None


def _loadtxt(path, **kwargs):
    """``np.loadtxt`` of a CSV's data rows, quoted cells read as ``csv``
    reads them: the first non-empty row is a header, and skipped, when none
    of its cells is numeric."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next((row for row in reader if row), [])
        header = not any(_is_numeric(tok.strip()) for tok in first)
        skip = reader.line_num if header else 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(path, delimiter=",", comments=None, quotechar='"',
                          skiprows=skip, **kwargs)


def _scan_table(path, square=False):
    """Per-cell reader of a table whose rows are all as wide as the first,
    or with ``square`` as wide as the table is long."""
    rows = _read_rows(path)
    width = len(rows) if square else len(rows[0])
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            shape = "matrix is not square: " if square else ""
            raise ValueError(f"{shape}row {r} has {len(row)} columns, expected {width}")
    values = np.empty((len(rows), width), dtype=np.float64)
    for r, row in enumerate(rows, start=1):
        for c, token in enumerate(row, start=1):
            values[r - 1, c - 1] = _parse_numeric(token, r, c)
    return values


def load_points_csv(path) -> PointSet:
    """Load a points CSV, one point per data row. Row/column positions in
    error messages are 1-based over data rows (header excluded)."""
    coords = _load_table(path)
    return PointSet(_scan_table(path) if coords is None else coords)


def load_matrix_csv(path) -> DissimilarityMatrix:
    """Load a square dissimilarity matrix; small asymmetry is averaged away."""
    values = _load_table(path)
    if values is None:
        values = _scan_table(path, square=True)
    elif values.shape[0] != values.shape[1]:
        n, width = values.shape
        raise ValueError(f"matrix is not square: row 1 has {width} columns, expected {n}")
    return DissimilarityMatrix(values)


def write_csv(path, columns, fmts, header=None) -> None:
    """Write equal-length columns as comma-separated rows, each cell formatted
    by its column's printf-style format, under an optional header line."""
    line = ",".join(fmts) + "\n"
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.write("".join(line % row for row in rows))


def save_points_csv(path, points: PointSet) -> None:
    write_csv(path, points.coords.T, ["%.17g"] * points.dim)


def save_labels_csv(path, labels) -> None:
    arr = labels.labels if isinstance(labels, LabeledPartition) else np.asarray(labels)
    write_csv(path, [arr.ravel()], ["%d"])


def load_labels_csv(path) -> LabeledPartition:
    """Labels from the last column of a CSV, numbered 1..m in order of first
    appearance; each cell is a token compared as stripped text."""
    tokens = _load_last_column(path)
    if tokens is None:
        tokens = [row[-1] for row in _read_rows(path)]
    return LabeledPartition.from_raw(tokens)


# --- synthetic shapes ------------------------------------------------------
#
# The moons are the classic pair of interlocking unit half-circles: the first
# arches up from (-1, 0) to (1, 0); the second is its point reflection, dipping
# through (1, -0.5) between (0, 0.5) and (2, 0.5). Both get isotropic Gaussian
# jitter. Noise variants attach the label of the nearest clean (jitter-free)
# structural point so external metrics stay defined over all objects.

MOON_JITTER = 0.08
BRIDGE_JITTER = 0.04
BRIDGE_COUNT = 20
NOISE_COUNT = 100
# Inner tips of the two moons; the bridge runs between them.
BRIDGE_TIPS = ((1.0, 0.0), (0.0, 0.5))


def _moon_arcs(n: int, rng: np.random.Generator):
    n1 = (n + 1) // 2
    n2 = n - n1
    t1 = rng.uniform(0.0, np.pi, n1)
    t2 = rng.uniform(0.0, np.pi, n2)
    arc1 = np.column_stack([np.cos(t1), np.sin(t1)])
    arc2 = np.column_stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)])
    clean = np.vstack([arc1, arc2])
    labels = np.concatenate([np.ones(n1, dtype=np.int64), np.full(n2, 2, dtype=np.int64)])
    return clean, labels


def _nearest_structural_label(noise, clean, labels):
    d2 = ((noise[:, None, :] - clean[None, :, :]) ** 2).sum(-1)
    return labels[np.argmin(d2, axis=1)]


def _gen_twomoons(n, rng, jitter=MOON_JITTER):
    if n < 4:
        raise ValueError("twomoons needs n >= 4")
    clean, labels = _moon_arcs(n, rng)
    coords = clean + rng.normal(0.0, jitter, clean.shape)
    return coords, labels


def _gen_twomoons_noise(n, rng, jitter=MOON_JITTER, noise_count=NOISE_COUNT):
    if n < noise_count + 4:
        raise ValueError(f"twomoons_noise needs n >= {noise_count + 4}")
    clean, labels = _moon_arcs(n - noise_count, rng)
    moons = clean + rng.normal(0.0, jitter, clean.shape)
    lo = clean.min(axis=0)
    hi = clean.max(axis=0)
    margin = 0.1 * (hi - lo)
    noise = rng.uniform(lo - margin, hi + margin, (noise_count, 2))
    coords = np.vstack([moons, noise])
    all_labels = np.concatenate([labels, _nearest_structural_label(noise, clean, labels)])
    return coords, all_labels


def _gen_twomoons_bridge(n, rng, jitter=MOON_JITTER, bridge_count=BRIDGE_COUNT,
                         bridge_jitter=BRIDGE_JITTER):
    if n < bridge_count + 4:
        raise ValueError(f"twomoons_bridge needs n >= {bridge_count + 4}")
    clean, labels = _moon_arcs(n - bridge_count, rng)
    moons = clean + rng.normal(0.0, jitter, clean.shape)
    a = np.asarray(BRIDGE_TIPS[0])
    b = np.asarray(BRIDGE_TIPS[1])
    frac = rng.uniform(0.0, 1.0, bridge_count)
    bridge = a + frac[:, None] * (b - a) + rng.normal(0.0, bridge_jitter, (bridge_count, 2))
    coords = np.vstack([moons, bridge])
    all_labels = np.concatenate([labels, _nearest_structural_label(bridge, clean, labels)])
    return coords, all_labels


def _gen_ccrings(n, rng, radii=(1.0, 2.0), jitter=0.05):
    radii = tuple(radii)
    if n < 2 * len(radii):
        raise ValueError(f"ccrings needs n >= {2 * len(radii)}")
    counts = _split_counts(n, len(radii))
    parts, labels = [], []
    for ring, (radius, count) in enumerate(zip(radii, counts), start=1):
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        r = radius + rng.normal(0.0, jitter, count)
        parts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        labels.append(np.full(count, ring, dtype=np.int64))
    return np.vstack(parts), np.concatenate(labels)


def _gen_spiral(n, rng, arms=3, t_min=0.4, t_max=2.5, winding=3.0, jitter=0.02):
    if n < 2 * arms:
        raise ValueError(f"spiral needs n >= {2 * arms}")
    counts = _split_counts(n, arms)
    parts, labels = [], []
    for arm, count in enumerate(counts):
        # Even arc coverage; jitter supplies the randomness.
        t = np.linspace(t_min, t_max, count)
        theta = winding * t + 2.0 * np.pi * arm / arms
        xy = np.column_stack([t * np.cos(theta), t * np.sin(theta)])
        parts.append(xy + rng.normal(0.0, jitter, xy.shape))
        labels.append(np.full(count, arm + 1, dtype=np.int64))
    return np.vstack(parts), np.concatenate(labels)


def _gen_blobs(n, rng, centers=((0.0, 0.0), (6.0, 0.0), (3.0, 5.0)), spread=0.5):
    centers = np.asarray(centers, dtype=np.float64)
    if n < 2 * len(centers):
        raise ValueError(f"blobs needs n >= {2 * len(centers)}")
    counts = _split_counts(n, len(centers))
    parts, labels = [], []
    for blob, (center, count) in enumerate(zip(centers, counts), start=1):
        parts.append(center + rng.normal(0.0, 1.0, (count, centers.shape[1])) * spread)
        labels.append(np.full(count, blob, dtype=np.int64))
    return np.vstack(parts), np.concatenate(labels)


def _split_counts(n: int, groups: int) -> list[int]:
    base, extra = divmod(n, groups)
    return [base + (1 if g < extra else 0) for g in range(groups)]


_GENERATORS = {
    "twomoons": _gen_twomoons,
    "twomoons_noise": _gen_twomoons_noise,
    "twomoons_bridge": _gen_twomoons_bridge,
    "ccrings": _gen_ccrings,
    "spiral": _gen_spiral,
    "blobs": _gen_blobs,
}


def generate_synthetic(shape: str, n: int, seed: int, **params):
    """Generate a synthetic benchmark shape.

    Deterministic for fixed (shape, n, seed, params): all randomness comes from
    a generator seeded with `seed`. Returns (PointSet, LabeledPartition).
    """
    if shape not in _GENERATORS:
        raise ValueError(f"unknown shape {shape!r}; choose one of {', '.join(SHAPES)}")
    rng = np.random.default_rng(seed)
    coords, labels = _GENERATORS[shape](n, rng, **params)
    return PointSet(coords), LabeledPartition(labels)
