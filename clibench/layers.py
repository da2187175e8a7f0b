"""Per-layer metrics from the spans of one traced pass.

Times and sizes are totals over the pass, except cli.import_s (median
per operation) and the ratios. A `*_peak_x` metric is the tracemalloc
peak of the largest such call divided by that call's payload bytes.
A layer a workload never calls reports 0.
"""

from __future__ import annotations

import statistics

MIB = 1024 * 1024

PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.hashed_mib", "MiB"),
    ("volume_io.read_s", "s"),
    ("volume_io.read_calls", "count"),
    ("volume_io.read_mib", "MiB"),
    ("volume_io.write_s", "s"),
    ("volume_io.write_mib", "MiB"),
    ("volume_io.read_peak_x", "x"),
    ("volume_io.write_peak_x", "x"),
    ("patch_grid.tile_s", "s"),
    ("patch_grid.patches", "count"),
    ("patch_grid.tile_peak_x", "x"),
    ("label_fusion.cc_s", "s"),
    ("label_fusion.stack_s", "s"),
    ("label_fusion.mvox_per_s", "Mvox/s"),
    ("label_fusion.components", "count"),
    ("label_fusion.cc_peak_x", "x"),
    ("instance_metrics.overlap_s", "s"),
    ("instance_metrics.match_self_s", "s"),
    ("instance_metrics.pairs", "count"),
    ("coreset.read_s", "s"),
    ("coreset.normalize_s", "s"),
    ("coreset.greedy_s", "s"),
    ("coreset.random_s", "s"),
    ("coreset.picks_computed", "count"),
    ("coreset.pick_yield", "ratio"),
    ("coreset.manifest_write_s", "s"),
    ("report.build_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _self_times(spans: list[dict]) -> list[float]:
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= _duration(s)
    return own


def _peak_x(spans: list[dict]) -> float:
    if not spans:
        return 0.0
    largest = max(spans, key=lambda s: s["bytes"])
    return largest["peak_bytes"] / largest["bytes"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layers(records: list[dict]) -> dict[str, float]:
    """Aggregate the span records of one traced pass (one record per op)."""
    by_name: dict[str, list[dict]] = {}
    self_by_name: dict[str, float] = {}
    for record in records:
        spans = record["spans"]
        for span, own in zip(spans, _self_times(spans)):
            by_name.setdefault(span["name"], []).append(span)
            self_by_name[span["name"]] = self_by_name.get(span["name"], 0.0) + own

    def spans(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return sum(_duration(s) if key is None else s[key] for s in spans(name))

    reads, writes = spans("volume_io.read_volume"), spans("volume_io.write_volume")
    cc_s = total("label_fusion.connected_components")
    picks = [s["picks"] for s in spans("coreset.kcenter_greedy")]
    return {
        "cli.import_s": statistics.median(r["import_s"] for r in records),
        "cli.self_s": self_by_name.get("cli.main", 0.0),
        "cli.hashed_mib": sum(r["hashed_bytes"] for r in records) / MIB,
        "volume_io.read_s": total("volume_io.read_volume"),
        "volume_io.read_calls": len(reads),
        "volume_io.read_mib": total("volume_io.read_volume", "bytes") / MIB,
        "volume_io.write_s": total("volume_io.write_volume"),
        "volume_io.write_mib": total("volume_io.write_volume", "bytes") / MIB,
        "volume_io.read_peak_x": _peak_x(reads),
        "volume_io.write_peak_x": _peak_x(writes),
        "patch_grid.tile_s": total("patch_grid.tile"),
        "patch_grid.patches": total("patch_grid.tile", "patches"),
        "patch_grid.tile_peak_x": _peak_x(spans("patch_grid.tile")),
        "label_fusion.cc_s": cc_s,
        "label_fusion.stack_s": total("label_fusion.stack_slices"),
        "label_fusion.mvox_per_s": _ratio(
            total("label_fusion.connected_components", "voxels") / 1e6, cc_s
        ),
        "label_fusion.components": total("label_fusion.component_count", "components"),
        "label_fusion.cc_peak_x": _peak_x(spans("label_fusion.connected_components")),
        "instance_metrics.overlap_s": total("instance_metrics.overlap_histogram"),
        "instance_metrics.match_self_s": self_by_name.get("instance_metrics.match_instances", 0.0),
        "instance_metrics.pairs": total("instance_metrics.overlap_histogram", "pairs"),
        "coreset.read_s": total("coreset.read_embeddings"),
        "coreset.normalize_s": total("coreset.normalize_rows"),
        "coreset.greedy_s": total("coreset.kcenter_greedy"),
        "coreset.random_s": total("coreset.random_select"),
        "coreset.picks_computed": sum(picks),
        "coreset.pick_yield": _ratio(max(picks, default=0), sum(picks)),
        "coreset.manifest_write_s": total("coreset.write_selection_manifest"),
        "report.build_s": sum(
            _duration(s) for name, group in by_name.items()
            if name.startswith("report.") for s in group
        ),
    }
