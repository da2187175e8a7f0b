"""Volume padding, patch extraction, and reassembly.

A volume is padded at the high end of each axis to the next multiple of
the patch shape (end-padding keeps patch offsets = grid_index *
patch_shape), then cut into a non-overlapping grid of fixed-size patches.
Reassembly places the in-bounds part of every patch back, so
reassemble(tile(v)) == v voxel for voxel.

Padding modes:
    zero: padded margin voxels are 0.
    reflect: mirror about the last in-bounds plane, without duplicating
        the edge plane, e.g. [a, b, c] padded to length 5 -> [a, b, c, b, a];
        a pad longer than the axis bounces back and forth (numpy's "reflect").

Both modes fill a patch by one copy path, without gathering voxel by
voxel. On each axis the window splits into (patch slice, source slice)
runs: zero padding's is the in-bounds run alone, over a zeroed block;
reflect's are the maximal runs stepping +1 or -1 through the mirrored
index map, a mirrored run read through a negative-step view. A patch is
produced plane by plane (patch_planes): its z runs name each plane's
source plane, and one reused plane buffer is filled by one basic-slice
copy per (y, x) run pair. Writing a patch so holds one plane, and
extract_patch, which copies each plane into its block, the patch plus
one plane. Every window starts inside the axis, as the pad is shorter
than a patch. reassemble copies each patch's in-bounds run straight into
one volume of the original shape, and holds no more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from ._fields import decode_lines, parse_ints, split_fields
from .errors import CoresegError, GridError
from .volume_io import LabelVolume, VolumeHeader, VolumePlanes

PAD_ZERO = "zero"
PAD_REFLECT = "reflect"
_PAD_MODES = (PAD_ZERO, PAD_REFLECT)
_NAME_FORBIDDEN = ("/", "\\", "\0", "\r", "\n")

GRID_MANIFEST_VERSION = 1
_GRID_KEYS = (
    "format_version",
    "volume_name",
    "original_shape",
    "patch_shape",
    "pad_mode",
    "padded_shape",
    "grid_dims",
)


def check_pad_mode(pad_mode: str, error: type[CoresegError]) -> str:
    """Return pad_mode if it is zero or reflect, else raise error."""
    if pad_mode not in _PAD_MODES:
        raise error(f"pad_mode must be zero or reflect, got {pad_mode!r}")
    return pad_mode


def check_volume_name(name: str, error: type[CoresegError]) -> str:
    """Return name if it is a plain file-name prefix, else raise error.

    Patch files are named `<name>_z.._y.._x...vol3d` inside the output
    directory and the name is one grid manifest line, so it may hold no
    path separator, NUL, CR or LF and may not be empty, `.` or `..`.
    """
    if not name:
        raise error("volume_name must not be empty")
    if name in (".", "..") or any(c in name for c in _NAME_FORBIDDEN):
        raise error(
            "volume_name must be a plain name without /, \\, NUL, CR or LF "
            f"and not . or .., got {name!r}"
        )
    return name


@dataclass(frozen=True)
class PatchSpec:
    """Geometry of one tiling: shapes, padding, and grid dimensions.

    Attributes:
        patch_shape: (z, y, x) size of every patch.
        pad_mode: "zero" or "reflect".
        original_shape: (z, y, x) of the source volume.
        padded_shape: original rounded up to patch_shape multiples.
        grid_dims: (nz, ny, nx) patch counts per axis.
    """

    patch_shape: tuple[int, int, int]
    pad_mode: str
    original_shape: tuple[int, int, int]
    padded_shape: tuple[int, int, int]
    grid_dims: tuple[int, int, int]

    @property
    def patch_count(self) -> int:
        nz, ny, nx = self.grid_dims
        return nz * ny * nx


@dataclass(frozen=True)
class PatchId:
    """Identity of one patch: source volume name plus grid position."""

    volume_name: str
    grid_index: tuple[int, int, int]


def plan_grid(
    original_shape: tuple[int, int, int],
    patch_shape: tuple[int, int, int],
    pad_mode: str = PAD_REFLECT,
) -> PatchSpec:
    """Compute the padded shape and grid dimensions for a tiling.

    Args:
        original_shape: (z, y, x) of the volume to tile, all >= 1.
        patch_shape: (z, y, x) patch size, all >= 1.
        pad_mode: "zero" or "reflect".

    Returns:
        A PatchSpec with padded_shape[i] = ceil(original[i]/patch[i]) *
        patch[i] and grid_dims[i] = padded[i] / patch[i].

    Raises:
        GridError: On a zero- or negative-sized axis or unknown pad mode.
    """
    check_pad_mode(pad_mode, GridError)
    for name, shape in (("original", original_shape), ("patch", patch_shape)):
        if len(shape) != 3 or any(int(c) < 1 for c in shape):
            raise GridError(f"{name} shape must be three positive integers, got {shape}")
    original = tuple(int(c) for c in original_shape)
    patch = tuple(int(c) for c in patch_shape)
    grid = tuple(math.ceil(o / p) for o, p in zip(original, patch))
    padded = tuple(g * p for g, p in zip(grid, patch))
    return PatchSpec(
        patch_shape=patch,
        pad_mode=pad_mode,
        original_shape=original,
        padded_shape=padded,
        grid_dims=grid,
    )


def patch_ids(spec: PatchSpec, volume_name: str) -> list[PatchId]:
    """Return one PatchId per grid cell, in z-major grid order."""
    return [PatchId(volume_name, idx) for idx in np.ndindex(*spec.grid_dims)]


def _axis_runs(spec: PatchSpec, pid: PatchId, pad_mode: str) -> list[list[tuple[slice, slice]]]:
    """Return, per axis, the (patch slice, source slice) runs of pid's window.

    Zero padding gives the in-bounds run alone. Reflect padding splits
    numpy's "reflect" map into maximal +1/-1 runs covering the window; a
    length-1 axis maps every position to 0, in single-element runs.
    """
    axes = []
    for length, padded, p, i in zip(
        spec.original_shape, spec.padded_shape, spec.patch_shape, pid.grid_index
    ):
        start = int(i) * p
        if pad_mode == PAD_ZERO:
            end = min(start + p, length)
            axes.append([(slice(0, end - start), slice(start, end))])
            continue
        m = np.pad(np.arange(length), (0, padded - length), mode="reflect")
        m = m[start : start + p].tolist()
        runs, j = [], 0
        while j < p:
            step = -1 if j + 1 < p and m[j + 1] < m[j] else 1
            k = j + 1
            while k < p and m[k] - m[k - 1] == step:
                k += 1
            end = m[k - 1] + step
            runs.append((slice(j, k), slice(m[j], end if end >= 0 else None, step)))
            j = k
        axes.append(runs)
    return axes


def _check_id(spec: PatchSpec, pid: PatchId) -> None:
    idx = pid.grid_index
    if len(idx) != 3 or any(int(i) < 0 for i in idx):
        raise GridError(f"grid index must be three non-negative integers, got {idx}")
    if any(int(i) >= d for i, d in zip(idx, spec.grid_dims)):
        raise GridError(f"grid index {tuple(idx)} outside grid dims {spec.grid_dims}")


def patch_planes(vol: LabelVolume, spec: PatchSpec, pid: PatchId) -> VolumePlanes:
    """Return one patch as its header and its z-planes, produced in order.

    The patch's z runs are expanded to source planes (a mirrored run steps
    downwards), and each plane is filled from its source plane by the
    (y, x) run pairs into one reused plane buffer; a zero-padded plane
    past the volume is zeroed. So write_volume writes the patch holding
    one plane, not the patch.

    Raises:
        GridError: On an out-of-range id or shape mismatch.
    """
    _check_id(spec, pid)
    if tuple(vol.voxels.shape) != spec.original_shape:
        raise GridError(
            f"volume shape {tuple(vol.voxels.shape)} does not match "
            f"spec original shape {spec.original_shape}"
        )
    z_runs, y_runs, x_runs = _axis_runs(spec, pid, spec.pad_mode)
    sources = [z for _, sz in z_runs for z in range(spec.original_shape[0])[sz]]
    yx_runs = list(itertools.product(y_runs, x_runs))

    def planes() -> Iterator[np.ndarray]:
        # Reflect runs cover the whole plane; zero runs leave its margin at 0.
        new = np.zeros if spec.pad_mode == PAD_ZERO else np.empty
        plane = new(spec.patch_shape[1:], dtype=np.uint32)
        for z in sources:
            for (dy, sy), (dx, sx) in yx_runs:
                plane[dy, dx] = vol.voxels[z, sy, sx]
            yield plane
        if len(sources) < spec.patch_shape[0]:
            plane.fill(0)
            for _ in range(spec.patch_shape[0] - len(sources)):
                yield plane

    header = VolumeHeader(shape=spec.patch_shape, value_kind=vol.header.value_kind)
    return VolumePlanes(header, planes())


def extract_patch(vol: LabelVolume, spec: PatchSpec, pid: PatchId) -> LabelVolume:
    """Extract one patch, padding margins according to spec.pad_mode.

    The patch is filled plane by plane from patch_planes, so extraction
    holds the patch plus one plane.

    Args:
        vol: Source volume; shape must equal spec.original_shape.
        spec: Tiling geometry.
        pid: Which grid cell to extract.

    Returns:
        A LabelVolume of spec.patch_shape with vol's value kind. Voxels
        inside the original extent copy the source; margin voxels follow
        the pad mode.

    Raises:
        GridError: On an out-of-range id or shape mismatch.
    """
    patch = patch_planes(vol, spec, pid)
    block = np.empty(spec.patch_shape, dtype=np.uint32)
    for k, plane in enumerate(patch.planes):
        block[k] = plane
    return LabelVolume(patch.header, block)


def tile(
    vol: LabelVolume, spec: PatchSpec, volume_name: str
) -> dict[PatchId, LabelVolume]:
    """Extract every patch of the grid in z-major grid order.

    Args:
        vol: Source volume matching spec.original_shape.
        spec: Tiling geometry.
        volume_name: Name stamped into every PatchId.

    Returns:
        Mapping from PatchId to patch volume, one entry per grid cell.
    """
    return {pid: extract_patch(vol, spec, pid) for pid in patch_ids(spec, volume_name)}


def reassemble(patches: Mapping[PatchId, LabelVolume], spec: PatchSpec) -> LabelVolume:
    """Rebuild the original volume from a complete patch set.

    Args:
        patches: Exactly one patch per grid cell, each of spec.patch_shape.
        spec: Tiling geometry.

    Returns:
        A LabelVolume of spec.original_shape; the padded margin is dropped.

    Raises:
        GridError: On a missing or extraneous PatchId, mixed volume names or
            value kinds, or a wrong patch shape.
    """
    if not patches:
        raise GridError("reassemble requires at least one patch")
    names = {pid.volume_name for pid in patches}
    if len(names) > 1:
        raise GridError(f"patches mix volume names {sorted(names)}")
    name = next(iter(names))
    kinds = {p.header.value_kind for p in patches.values()}
    if len(kinds) > 1:
        raise GridError(f"patches mix value kinds {sorted(kinds)}")
    expected = set(patch_ids(spec, name))
    extra = set(patches) - expected
    if extra:
        pid = sorted(extra, key=lambda q: q.grid_index)[0]
        raise GridError(f"unexpected patch at grid index {pid.grid_index}")
    missing = expected - set(patches)
    if missing:
        pid = sorted(missing, key=lambda q: q.grid_index)[0]
        raise GridError(f"missing patch at grid index {pid.grid_index}")
    # The complete patch set covers every voxel, so no voxel stays unset.
    voxels = np.empty(spec.original_shape, dtype=np.uint32)
    for pid, patch in patches.items():
        if tuple(patch.voxels.shape) != spec.patch_shape:
            raise GridError(
                f"patch {pid.grid_index} has shape {tuple(patch.voxels.shape)}, "
                f"expected {spec.patch_shape}"
            )
        for (dz, sz), (dy, sy), (dx, sx) in itertools.product(*_axis_runs(spec, pid, PAD_ZERO)):
            voxels[sz, sy, sx] = patch.voxels[dz, dy, dx]
    return LabelVolume(
        VolumeHeader(shape=spec.original_shape, value_kind=next(iter(kinds))), voxels
    )


def patch_filename(pid: PatchId) -> str:
    """Return the on-disk name `<volume_name>_z<iz>_y<iy>_x<ix>.vol3d`."""
    iz, iy, ix = pid.grid_index
    return f"{pid.volume_name}_z{iz}_y{iy}_x{ix}.vol3d"


def write_grid_manifest(spec: PatchSpec, volume_name: str, path: str | Path) -> None:
    """Write the grid manifest: spec fields plus every patch filename.

    The manifest lists patches in z-major grid order so the file is a
    deterministic function of (spec, volume_name). It is UTF-8, as the
    volume name is the user's.
    """
    lines = [
        f"format_version={GRID_MANIFEST_VERSION}",
        f"volume_name={volume_name}",
        "original_shape=" + ",".join(str(c) for c in spec.original_shape),
        "patch_shape=" + ",".join(str(c) for c in spec.patch_shape),
        f"pad_mode={spec.pad_mode}",
        "padded_shape=" + ",".join(str(c) for c in spec.padded_shape),
        "grid_dims=" + ",".join(str(c) for c in spec.grid_dims),
    ]
    lines += [f"patch={patch_filename(pid)}" for pid in patch_ids(spec, volume_name)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_grid_manifest(path: str | Path) -> tuple[PatchSpec, str, list[str]]:
    """Read a grid manifest back into (spec, volume_name, patch filenames).

    The volume name must pass check_volume_name, and the patch list must be
    exactly the one write_grid_manifest writes for the spec and name.

    Raises:
        GridError: On malformed or version-mismatched manifests.
    """
    context = f"{path}: malformed grid manifest"
    lines = decode_lines(Path(path).read_bytes(), GridError, context, "utf-8")
    # The patch= lines are the one repeated key; the rest are fields.
    patches = [line[len("patch="):] for line in lines if line.startswith("patch=")]
    rest = [line for line in lines if not line.startswith("patch=")]
    fields = split_fields(rest, _GRID_KEYS, GridError, context, version=GRID_MANIFEST_VERSION)
    original, patch, padded, grid = (
        parse_ints(fields[key], GridError, f"{context} {key}", 3)
        for key in ("original_shape", "patch_shape", "padded_shape", "grid_dims")
    )
    spec = plan_grid(original, patch, fields["pad_mode"])
    if (spec.padded_shape, spec.grid_dims) != (padded, grid):
        raise GridError(f"{path}: manifest geometry is internally inconsistent")
    try:
        name = check_volume_name(fields["volume_name"], GridError)
    except GridError as exc:
        raise GridError(f"{context}: {exc}") from None
    filenames = [patch_filename(pid) for pid in patch_ids(spec, name)]
    if patches != filenames:
        raise GridError(f"{context}: patch list is not the grid's {len(filenames)} patch files")
    return spec, name, filenames
