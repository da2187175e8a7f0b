"""Toolkit for budget-driven volumetric instance segmentation experiments.

The package covers the file-level stages of an annotation-efficient
segmentation pipeline: dense 3D volume I/O, patch tiling and reassembly,
fusion of per-slice masks into 3D instances via connected components,
k-center greedy core-set selection over embedding features, instance
matching metrics (F1, precision, recall, accuracy, panoptic quality),
and learning-curve reporting. Neural models are treated as external
producers and consumers of files and are never invoked here.

The two volume hot loops, component labeling (label_fusion) and overlap
counting (instance_metrics), are plain NumPy, with one implementation
each.

Importing the package loads no submodule: each name in ``__all__`` is
imported from its submodule on first use (PEP 562), so ``coreseg.cli``
can configure the process before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "DistanceMatrix": "coreset",
    "EmbeddingMatrix": "coreset",
    "SelectionManifest": "coreset",
    "cosine_distance_matrix": "coreset",
    "coverage_radius": "coreset",
    "kcenter_greedy": "coreset",
    "normalize_rows": "coreset",
    "random_select": "coreset",
    "ConfigError": "errors",
    "CoresegError": "errors",
    "FusionError": "errors",
    "GridError": "errors",
    "InternalError": "errors",
    "MetricsError": "errors",
    "OverwriteRefused": "errors",
    "ReportError": "errors",
    "SelectionError": "errors",
    "VolumeFormatError": "errors",
    "MatchResult": "instance_metrics",
    "evaluate": "instance_metrics",
    "match_instances": "instance_metrics",
    "overlap_histogram": "instance_metrics",
    "CONN_FACE6": "label_fusion",
    "CONN_FULL26": "label_fusion",
    "Connectivity": "label_fusion",
    "connected_components": "label_fusion",
    "PatchId": "patch_grid",
    "PatchSpec": "patch_grid",
    "plan_grid": "patch_grid",
    "reassemble": "patch_grid",
    "tile": "patch_grid",
    "LearningCurve": "report",
    "MetricsRecord": "report",
    "build_curve": "report",
    "first_surpass": "report",
    "percent_of_full": "report",
    "KIND_INSTANCE": "volume_io",
    "KIND_MASK": "volume_io",
    "LabelVolume": "volume_io",
    "VolumeHeader": "volume_io",
    "new_volume": "volume_io",
    "read_volume": "volume_io",
    "write_volume": "volume_io",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
