"""Traced child process: runs coreseg's CLI with spans around each layer.

Usage: python launcher.py SPANS_JSON COMMAND [ARG...]

It imports coreseg, replaces every coreseg function bound in coreseg.cli
(plus instance_metrics.match_instances and overlap_histogram, for nested
spans) with a wrapper that records a span, then calls cli.main. Spans stay
in memory and are written to SPANS_JSON when the child exits, with
t_main, the time.perf_counter() at which cli.main is entered. On Linux
every process reads the same monotonic clock, so the benchmark subtracts
its spawn time from t_main to get the import time.

tracemalloc runs only inside the calls whose memory peak is reported
(_MEMORY_PROBED); their spans carry the peak of traced memory over the
call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

# Extra span fields, derived from a call's arguments and result.
_ATTRS = {
    "volume_io.read_volume": lambda a, r: {"bytes": r.header.payload_bytes},
    "volume_io.write_volume": lambda a, r: {"bytes": a[0].header.payload_bytes},
    "patch_grid.tile": lambda a, r: {"bytes": a[0].header.payload_bytes, "patches": len(r)},
    "label_fusion.connected_components": lambda a, r: {
        "bytes": a[0].header.payload_bytes,
        "voxels": a[0].header.voxel_count,
    },
    "label_fusion.component_count": lambda a, r: {"components": r},
    "instance_metrics.overlap_histogram": lambda a, r: {"pairs": len(r[0])},
    "coreset.kcenter_greedy": lambda a, r: {"picks": len(r.selected)},
    "coreset.random_select": lambda a, r: {"picks": len(r.selected)},
}


# Calls whose tracemalloc peak is reported. tracemalloc runs only inside
# them, so that it slows no other layer; none of them calls another.
_MEMORY_PROBED = {
    "volume_io.read_volume",
    "volume_io.write_volume",
    "patch_grid.tile",
    "label_fusion.connected_components",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.hashed_bytes = 0

    def call(self, name, fn, args, kwargs):
        span = {"name": name, "parent": self.stack[-1] if self.stack else -1}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        probed = name in _MEMORY_PROBED
        if probed:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
            if probed:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if name in _ATTRS:
            span.update(_ATTRS[name](args, result))
        return result

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def count_hashed(self, write_run_manifest):
        # Run manifests hash every input; count the bytes without a span, so
        # that the hashing stays in the calling command's self time.
        def counted(path, command, cfg, inputs, outputs):
            self.hashed_bytes += sum(Path(p).stat().st_size for _, p in inputs)
            return write_run_manifest(path, command, cfg, inputs, outputs)

        return counted

    def dump(self, path: str, t_main: float) -> None:
        record = {"t_main": t_main, "hashed_bytes": self.hashed_bytes, "spans": self.spans}
        Path(path).write_text(json.dumps(record), encoding="utf-8")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from coreseg import cli, instance_metrics

    tracer = Tracer()
    for name, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("coreseg.") and module != cli.__name__:
            setattr(cli, name, tracer.wrap(value))
    for name in ("match_instances", "overlap_histogram"):
        setattr(instance_metrics, name, tracer.wrap(getattr(instance_metrics, name)))
    cli._write_run_manifest = tracer.count_hashed(cli._write_run_manifest)
    t_main = time.perf_counter()
    try:
        return tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        tracer.dump(spans_path, t_main)


if __name__ == "__main__":
    sys.exit(main())
