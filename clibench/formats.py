"""The benchmark's own readers and writers for coreseg's file formats.

Inputs are written and outputs are parsed here, never through coreseg,
so an oracle cannot agree with the program by sharing its code.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

KIND_INSTANCE = "instance_labels"
KIND_MASK = "binary_mask"


class FormatError(ValueError):
    """An output file does not follow its documented format."""


def write_vol3d(path: Path, voxels: np.ndarray, kind: str) -> None:
    """Write a 3D array as a .vol3d file: ASCII header, blank line, u32 LE payload."""
    z, y, x = voxels.shape
    header = f"shape={z},{y},{x}\nkind={kind}\nwidth=4\norder=zyx\n\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        np.ascontiguousarray(voxels, dtype="<u4").tofile(f)


def read_vol3d(path: Path) -> tuple[str, np.ndarray]:
    """Parse a .vol3d file into (kind, uint32 array)."""
    blob = Path(path).read_bytes()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise FormatError(f"{path}: no header terminator")
    fields = dict(line.split("=", 1) for line in blob[:sep].decode("ascii").split("\n"))
    if fields.get("width") != "4" or fields.get("order") != "zyx":
        raise FormatError(f"{path}: unexpected header {fields}")
    shape = tuple(int(c) for c in fields["shape"].split(","))
    payload = np.frombuffer(blob, dtype="<u4", offset=sep + 2)
    if payload.size != int(np.prod(shape)):
        raise FormatError(f"{path}: payload holds {payload.size} voxels for shape {shape}")
    return fields["kind"], payload.reshape(shape).astype(np.uint32)


def write_embeddings(stem: Path, ids: list[str], values: np.ndarray) -> None:
    """Write the <stem>.meta/.f32/.ids embedding set."""
    n, dim = values.shape
    Path(f"{stem}.meta").write_text(f"count={n}\ndim={dim}\ndtype=f32le\n", encoding="ascii")
    Path(f"{stem}.f32").write_bytes(np.ascontiguousarray(values, dtype="<f4").tobytes())
    Path(f"{stem}.ids").write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")


def read_kv(path: Path) -> dict[str, str]:
    """Parse a flat key=value text file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def read_selection(path: Path) -> tuple[dict[str, str], list[str], list[float]]:
    """Parse a selection manifest into (fields, selected ids, radius trace)."""
    text = Path(path).read_text(encoding="utf-8")
    head, sep, tail = text.partition("selected:\n")
    if not sep:
        raise FormatError(f"{path}: no 'selected:' block")
    fields = dict(line.split("=", 1) for line in head.splitlines() if line)
    trace_text = fields.get("radius_trace", "")
    trace = [float(v) for v in trace_text.split(",")] if trace_text else []
    return fields, [line for line in tail.splitlines() if line], trace
