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
runs: zero padding's is the in-bounds run alone, its margin left at 0;
reflect's are the maximal runs stepping +1 or -1 through the mirrored
index map, a mirrored run read through a negative-step view. Patches
are filled by one scatter (_scatter_planes) that takes the source
z-planes once, in file order: each source plane is copied, per (y, x)
cell of the grid, into one reused plane buffer by one basic-slice copy
per (y, x) run pair, and handed on as plane k of every patch whose z
runs map k to it. A reflect run can map several k of one patch, or of
two patches, to the same source plane. So `tile` writes every patch
file from one read of the volume holding two planes, and tile() holds
the patches plus one plane.
Every window starts inside the axis, as the pad is shorter than a
patch. reassemble copies each patch's in-bounds run straight into one
volume of the original shape, and holds no more.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CoresegError, GridError
from .volume_io import LabelVolume, VolumeHeader

PAD_ZERO = "zero"
PAD_REFLECT = "reflect"
_PAD_MODES = (PAD_ZERO, PAD_REFLECT)
_NAME_FORBIDDEN = ("/", "\\", "\0", "\r", "\n")

GRID_MANIFEST_VERSION = 1


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


def _runs(spec: PatchSpec, axis: int, i: int, pad_mode: str) -> list[tuple[slice, slice]]:
    """Return the (patch slice, source slice) runs of window i on one axis.

    Zero padding gives the in-bounds run alone. Reflect padding splits
    numpy's "reflect" map into maximal +1/-1 runs covering the window; a
    length-1 axis maps every position to 0, in single-element runs.
    """
    length, padded, p = (shape[axis] for shape in (
        spec.original_shape, spec.padded_shape, spec.patch_shape))
    start = int(i) * p
    if pad_mode == PAD_ZERO:
        end = min(start + p, length)
        return [(slice(0, end - start), slice(start, end))]
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
    return runs


def _scatter_planes(
    spec: PatchSpec, planes: Iterable[np.ndarray], pids: Sequence[PatchId]
) -> Iterator[tuple[PatchId, int, np.ndarray]]:
    """Yield (pid, k, plane) once for each plane k of each patch in pids.

    planes yields the source volume's spec.original_shape[0] z-planes in
    order, and is read to its end, one plane at a time. Each source plane
    is copied, per (y, x) cell, into one reused plane buffer, whose margin
    past a zero-padded cell's runs is cleared, and yielded for every
    (pid, k) of that cell whose z runs map k to it. The planes past a
    zero-padded volume follow, as zeros, once the source is read. Every
    plane yielded is that buffer, so use it before asking for the next.
    """
    mode = spec.pad_mode
    depth, span = spec.original_shape[0], range(spec.patch_shape[0])
    z_runs = functools.cache(lambda iz: _runs(spec, 0, iz, mode))
    # For each source plane, the (pid, k) it fills, grouped by (y, x) cell;
    # each cell's (y, x) run pairs, and the extent they fill; and the
    # zero-padded (pid, k) past the volume.
    uses: list[dict[tuple[int, int], list]] = [{} for _ in range(depth)]
    cells = {}
    blank = []
    for pid in pids:
        iz, iy, ix = pid.grid_index
        runs = z_runs(iz)
        for dz, sz in runs:
            for k, z in zip(span[dz], range(depth)[sz]):
                uses[z].setdefault((iy, ix), []).append((pid, k))
        blank += [(pid, k) for k in span[runs[-1][0].stop :]]
        if (iy, ix) not in cells:
            y_runs, x_runs = _runs(spec, 1, iy, mode), _runs(spec, 2, ix, mode)
            pairs = list(itertools.product(y_runs, x_runs))
            cells[iy, ix] = pairs, y_runs[-1][0].stop, x_runs[-1][0].stop
    buffer = np.empty(spec.patch_shape[1:], dtype=np.uint32)
    for z, source in enumerate(planes):
        for cell, takers in uses[z].items():
            pairs, height, width = cells[cell]
            for (dy, sy), (dx, sx) in pairs:
                buffer[dy, dx] = source[sy, sx]
            # Reflect runs fill the plane; zero runs leave a margin to clear.
            buffer[height:] = 0
            buffer[:height, width:] = 0
            for pid, k in takers:
                yield pid, k, buffer
    buffer.fill(0)
    for pid, k in blank:
        yield pid, k, buffer


def tile(
    vol: LabelVolume, spec: PatchSpec, volume_name: str
) -> dict[PatchId, LabelVolume]:
    """Extract every patch of the grid in z-major grid order.

    The patches are filled by _scatter_planes from one pass over vol's
    planes, so tiling holds the patches plus one plane.

    Args:
        vol: Source volume matching spec.original_shape.
        spec: Tiling geometry.
        volume_name: Name stamped into every PatchId.

    Returns:
        Mapping from PatchId to patch volume, one entry per grid cell.

    Raises:
        GridError: On a shape mismatch.
    """
    if tuple(vol.voxels.shape) != spec.original_shape:
        raise GridError(
            f"volume shape {tuple(vol.voxels.shape)} does not match "
            f"spec original shape {spec.original_shape}"
        )
    pids = patch_ids(spec, volume_name)
    blocks = {pid: np.empty(spec.patch_shape, dtype=np.uint32) for pid in pids}
    for pid, k, plane in _scatter_planes(spec, vol.voxels, pids):
        blocks[pid][k] = plane
    header = VolumeHeader(shape=spec.patch_shape, value_kind=vol.header.value_kind)
    return {pid: LabelVolume(header, block) for pid, block in blocks.items()}


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
        # Zero padding gives one in-bounds run per axis.
        runs = (_runs(spec, axis, i, PAD_ZERO)[0] for axis, i in enumerate(pid.grid_index))
        (dz, sz), (dy, sy), (dx, sx) = runs
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
