"""Path-based valley-seeking clustering (PaVa).

Arbitrary-shaped cluster boundaries become spherical shells under the minmax
(path) distance computed on a density-adjusted minimum spanning tree; clusters
are then extracted one at a time by locating the first valley of each center's
smoothed distance histogram. The number of clusters is discovered, not given.
"""

__version__ = "0.1.0"

from .dataset import (
    DissimilarityMatrix,
    LabeledPartition,
    PointSet,
    generate_synthetic,
    load_matrix_csv,
    load_points_csv,
)
from .engine import ClusterModel, ClusterRound, PavaConfig, extract_cluster, run, select_center, sweep
from .metrics import adjusted_rand_index, pairwise_f_score, rand_index
from .mstgraph import SpanningTree, adjust_weights, build_mst, minmax_from_center, propagate_labels
from .neighbors import DensityProfile, build_index, default_k, k_distance_all
from .valley import (
    DegenerateHistogramError,
    DistanceHistogram,
    build_histogram,
    cap_percentile,
    first_valley_radius,
    smooth_profile,
)

__all__ = [
    "ClusterModel",
    "ClusterRound",
    "DegenerateHistogramError",
    "DensityProfile",
    "DissimilarityMatrix",
    "DistanceHistogram",
    "LabeledPartition",
    "PavaConfig",
    "PointSet",
    "SpanningTree",
    "adjust_weights",
    "adjusted_rand_index",
    "build_histogram",
    "build_index",
    "build_mst",
    "cap_percentile",
    "default_k",
    "extract_cluster",
    "first_valley_radius",
    "generate_synthetic",
    "k_distance_all",
    "load_matrix_csv",
    "load_points_csv",
    "minmax_from_center",
    "pairwise_f_score",
    "propagate_labels",
    "rand_index",
    "run",
    "select_center",
    "smooth_profile",
    "sweep",
]
