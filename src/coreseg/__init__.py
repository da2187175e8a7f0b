"""Toolkit for budget-driven volumetric instance segmentation experiments.

The package covers the file-level stages of an annotation-efficient
segmentation pipeline: dense 3D volume I/O, patch tiling and reassembly,
fusion of per-slice masks into 3D instances via connected components,
k-center greedy core-set selection over embedding features, instance
matching metrics (F1, precision, recall, accuracy, panoptic quality),
and learning-curve reporting. Neural models are treated as external
producers and consumers of files and are never invoked here.

The two volume hot loops (component labeling and overlap counting) are
plain NumPy, with one implementation each.
"""

__version__ = "0.1.0"

from .coreset import (
    DistanceMatrix,
    EmbeddingMatrix,
    SelectionManifest,
    cosine_distance_matrix,
    coverage_radius,
    kcenter_greedy,
    normalize_rows,
    random_select,
)
from .errors import (
    ConfigError,
    CoresegError,
    FusionError,
    GridError,
    InternalError,
    MetricsError,
    OverwriteRefused,
    ReportError,
    SelectionError,
    VolumeFormatError,
)
from .instance_metrics import (
    MatchResult,
    MetricsRecord,
    compute_metrics,
    evaluate,
    match_instances,
    overlap_histogram,
    pool_matches,
)
from .label_fusion import (
    CONN_FACE6,
    CONN_FULL26,
    Connectivity,
    binarize,
    component_count,
    connected_components,
    stack_slices,
)
from .patch_grid import PatchId, PatchSpec, extract_patch, plan_grid, reassemble, tile
from .report import (
    LearningCurve,
    build_curve,
    comparison_table,
    first_surpass,
    percent_of_full,
)
from .volume_io import (
    KIND_INSTANCE,
    KIND_MASK,
    LabelVolume,
    VolumeHeader,
    new_volume,
    read_volume,
    write_volume,
)

__all__ = [
    "__version__",
    "CONN_FACE6",
    "CONN_FULL26",
    "ConfigError",
    "Connectivity",
    "CoresegError",
    "DistanceMatrix",
    "EmbeddingMatrix",
    "FusionError",
    "GridError",
    "InternalError",
    "KIND_INSTANCE",
    "KIND_MASK",
    "LabelVolume",
    "LearningCurve",
    "MatchResult",
    "MetricsError",
    "MetricsRecord",
    "OverwriteRefused",
    "PatchId",
    "PatchSpec",
    "ReportError",
    "SelectionError",
    "SelectionManifest",
    "VolumeFormatError",
    "VolumeHeader",
    "binarize",
    "build_curve",
    "comparison_table",
    "component_count",
    "compute_metrics",
    "connected_components",
    "cosine_distance_matrix",
    "coverage_radius",
    "evaluate",
    "extract_patch",
    "first_surpass",
    "kcenter_greedy",
    "match_instances",
    "new_volume",
    "normalize_rows",
    "overlap_histogram",
    "percent_of_full",
    "plan_grid",
    "pool_matches",
    "random_select",
    "read_volume",
    "reassemble",
    "stack_slices",
    "tile",
    "write_volume",
]
