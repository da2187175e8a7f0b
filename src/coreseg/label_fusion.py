"""Fuse per-slice 2D masks into 3D instances via connected components.

Stacks of 2D pseudo-label masks carry no cross-slice identity, so fusion
first reduces them to foreground and stacks them along z, then
partitions the foreground into 3D connected components. Components are
numbered canonically: 1..C by ascending position of each component's
first voxel in z-major scan order, so the labeling is a pure function of
(mask, connectivity) and is byte-identical across thread counts.

Component labeling is one of the two volume hot loops of the pipeline
(overlap counting in instance_metrics is the other); it has one plain
NumPy implementation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CoresegError, FusionError, VolumeFormatError
from .volume_io import KIND_INSTANCE, KIND_MASK, LabelVolume, VolumeHeader

_CONNECTIVITY_FLAGS = {"6": "face6", "26": "full26", "face6": "face6", "full26": "full26"}


def connectivity_kind(flag: str, error: type[CoresegError]) -> str:
    """Return the kind that flag names ("6", "26", "face6", "full26"), else raise error."""
    if flag not in _CONNECTIVITY_FLAGS:
        raise error(f"connectivity must be 6 or 26, got {flag!r}")
    return _CONNECTIVITY_FLAGS[flag]


def _prev_offsets(kind: str) -> np.ndarray:
    # Scan-order-previous neighbors: all adjacent offsets lexicographically
    # below (0, 0, 0). face6 keeps the three axis-aligned ones; full26 keeps
    # all thirteen.
    offsets = []
    for dz, dy, dx in itertools.product((-1, 0, 1), repeat=3):
        if (dz, dy, dx) >= (0, 0, 0):
            continue
        if kind == "face6" and abs(dz) + abs(dy) + abs(dx) != 1:
            continue
        offsets.append((dz, dy, dx))
    return np.array(offsets, dtype=np.int64)


@dataclass(frozen=True)
class Connectivity:
    """Neighborhood rule for 3D component labeling.

    Attributes:
        kind: "face6" (share a face) or "full26" (share a face, edge,
            or corner).
    """

    kind: str
    prev_offsets: np.ndarray = field(compare=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.kind not in _CONNECTIVITY_FLAGS.values():
            raise FusionError(f"unknown connectivity {self.kind!r}")
        object.__setattr__(self, "prev_offsets", _prev_offsets(self.kind))

    @staticmethod
    def from_flag(flag: str) -> "Connectivity":
        """Map a CLI flag ("6", "26", "face6", "full26") to a Connectivity."""
        return Connectivity(connectivity_kind(flag, FusionError))


CONN_FACE6 = Connectivity("face6")
CONN_FULL26 = Connectivity("full26")


# Entries per vectorised step: foreground voxels while edges are built
# and labels written, edges while they are hooked, and voxels (whole
# planes, at least one) while ids are assigned. It bounds the scratch of
# each step at any density.
_CHUNK = 1 << 16


def _step_flags(size: int, axis: int) -> np.ndarray:
    """Per coordinate along one axis, the unit steps that stay inside it.

    Bit 2*axis is set where the coordinate can step down by one, bit
    2*axis + 1 where it can step up; axis 0 is z, 1 is y and 2 is x.
    """
    coord = np.arange(size)
    down = (coord >= 1).astype(np.uint8) << (2 * axis)
    return down | (coord <= size - 2).astype(np.uint8) << (2 * axis + 1)


def _shortcut(parent: np.ndarray) -> None:
    """Point every entry of parent straight at its root, in place.

    Entries only ever point at smaller ones, so by the time a chunk is
    reached every earlier entry points at a root already, and pointer
    jumping within the chunk settles it.
    """
    for lo in range(0, parent.size, _CHUNK):
        p = parent[lo : lo + _CHUNK]
        grand = parent[p]
        while not np.array_equal(grand, p):
            p[:] = grand
            grand = parent[p]


def _union_round(parent: np.ndarray, a: np.ndarray, b: np.ndarray):
    """One hook-and-shortcut round over the open edges (a, b).

    parent must be fully shortcut on entry (every entry is a root); a and
    b hold roots with a != b on every edge and are overwritten. Each root
    is hooked to the smallest root it shares an edge with, when that root
    is smaller, and parent is shortcut again. Returns the edges still open
    afterwards, as pairs of their endpoints' roots.
    """
    for lo in range(0, a.size, _CHUNK):
        ca, cb = a[lo : lo + _CHUNK], b[lo : lo + _CHUNK]
        np.minimum.at(parent, np.maximum(ca, cb), np.minimum(ca, cb))
    _shortcut(parent)
    for lo in range(0, a.size, _CHUNK):
        ca, cb = a[lo : lo + _CHUNK], b[lo : lo + _CHUNK]
        ca[:] = parent[ca]
        cb[:] = parent[cb]
    open_ = a != b
    return a[open_], b[open_]


def _offset_edges(out, f, flags, parent, offset):
    """Yield the open edges that one neighbor offset adds, chunk by chunk.

    out holds compact id + 1 at every foreground voxel and 0 elsewhere, f
    the foreground's flat positions in ascending order, and flags their
    _step_flags or-ed over the three axes. A voxel's neighbor is its flat
    position plus the offset's linear delta, looked up only where flags
    say the offset stays inside the volume, so no lookup wraps across a
    row or plane. Pairs that already share a root are dropped; the rest
    are yielded as (root, root).
    """
    dz, dy, dx = (int(d) for d in offset)
    delta = (dz * out.shape[1] + dy) * out.shape[2] + dx
    need = sum(1 << (2 * axis + (d > 0)) for axis, d in enumerate(offset) if d)
    flat = out.reshape(-1)
    for lo in range(0, f.size, _CHUNK):
        here = f[lo : lo + _CHUNK][(flags[lo : lo + _CHUNK] & need) == need]
        there = flat[here + delta]
        hit = there != 0
        here = flat[here[hit]]
        there = there[hit]
        here -= 1
        there -= 1
        ra = parent[here]
        rb = parent[there]
        keep = ra != rb
        yield ra[keep], rb[keep]


def label_components(mask: np.ndarray, prev_offsets: np.ndarray) -> np.ndarray:
    """Canonically label the connected components of a 3D binary mask.

    Union-find on the foreground only, run as vectorised hook-and-shortcut
    rounds in the spirit of two-pass labeling (Wu, Otoo & Suzuki, 2009).
    Each foreground voxel gets a compact id in z-major scan order, kept as
    id + 1 in the zero-filled output, which is thus also the id map. Each
    scan-order-previous offset contributes, from the sorted foreground
    positions, every voxel and its in-bounds foreground neighbor as an
    edge, and every hook points a root at a smaller one. A component's
    root is therefore its smallest compact id, i.e. its first voxel in scan
    order, and a running count of roots is the canonical numbering, which
    overwrites the ids at the end.

    Args:
        mask: 3D array, nonzero = foreground.
        prev_offsets: (K, 3) int array of scan-order-previous neighbor
            offsets (dz, dy, dx), each lexicographically below (0, 0, 0).

    Returns:
        uint32 array of the mask's shape with components numbered 1..C by
        ascending position of each component's first voxel in z-major scan
        order; background stays 0.
    """
    out = np.zeros(mask.shape, np.uint32)
    flat = out.reshape(-1)
    n = int(np.count_nonzero(mask))
    id_dtype = np.int32 if mask.size < 2**31 else np.int64
    f = np.empty(n, dtype=id_dtype)
    flags = np.empty(n, dtype=np.uint8)
    z_flags, y_flags, x_flags = map(_step_flags, mask.shape, range(3))
    yx_flags = y_flags[:, None] | x_flags
    plane = mask.shape[1] * mask.shape[2]
    step = max(1, _CHUNK // max(plane, 1))
    k = 0
    for z in range(0, mask.shape[0], step):
        pos = np.flatnonzero(mask[z : z + step])
        slab_flags = z_flags[z : z + step, None, None] | yx_flags
        flags[k : k + pos.size] = slab_flags.reshape(-1)[pos]
        pos += z * plane
        f[k : k + pos.size] = pos
        flat[pos] = np.arange(k + 1, k + pos.size + 1, dtype=np.uint32)
        k += pos.size
    parent = np.arange(n, dtype=id_dtype)
    a = b = np.empty(0, dtype=id_dtype)
    # One round per offset keeps only the edges still open, so the edge
    # lists stay small on solid foreground.
    for offset in prev_offsets:
        parts = list(_offset_edges(out, f, flags, parent, offset))
        a = np.concatenate([a, *(pa for pa, _ in parts)])
        b = np.concatenate([b, *(pb for _, pb in parts)])
        del parts
        a, b = _union_round(parent, a, b)
    while a.size:
        a, b = _union_round(parent, a, b)
    # Number the roots in scan order, in place: a root's entry becomes its
    # label before any later entry, whose root is smaller, reads it.
    count = 0
    for lo in range(0, n, _CHUNK):
        p = parent[lo : lo + _CHUNK]
        roots = p == np.arange(lo, lo + p.size, dtype=id_dtype)
        found = int(np.count_nonzero(roots))
        p[roots] = np.arange(count + 1, count + found + 1, dtype=id_dtype)
        count += found
        rest = ~roots
        p[rest] = parent[p[rest]]
        flat[f[lo : lo + _CHUNK]] = p
    return out


def stack_slices(slices: Sequence[np.ndarray]) -> LabelVolume:
    """Stack 2D label grids along z into one binary mask volume.

    Per-slice instance identities are discarded: an output voxel is 1 iff
    the corresponding 2D pixel has any label > 0.

    Args:
        slices: Ordered 2D integer arrays, all of the same (y, x) shape.

    Returns:
        A binary_mask LabelVolume of shape (len(slices), y, x).

    Raises:
        FusionError: On an empty list, a slice that is not 2D, or
            inconsistent slice shapes.
    """
    if not slices:
        raise FusionError("stack_slices requires at least one slice")
    grids = [np.asarray(item) for item in slices]
    shape = grids[0].shape
    for i, arr in enumerate(grids):
        if arr.ndim != 2:
            raise FusionError(f"slice {i} is {arr.ndim}D, expected 2D")
        if arr.shape != shape:
            raise FusionError(
                f"slice {i} shape {arr.shape} does not match slice 0 shape {shape}"
            )
    stacked = (np.stack(grids, axis=0) > 0).astype(np.uint32)
    return LabelVolume(
        VolumeHeader(shape=tuple(stacked.shape), value_kind=KIND_MASK), stacked
    )


def connected_components(
    vol: LabelVolume,
    conn: Connectivity = CONN_FULL26,
) -> LabelVolume:
    """Label the connected components of a binary mask volume.

    Args:
        vol: A binary_mask LabelVolume.
        conn: Neighborhood rule; defaults to full26.

    Returns:
        An instance_labels LabelVolume with components numbered 1..C by
        first-voxel scan order; background stays 0.

    Raises:
        VolumeFormatError: If vol is not a valid binary mask.
    """
    if vol.header.value_kind != KIND_MASK:
        raise VolumeFormatError(
            f"connected_components requires a binary_mask volume, got "
            f"{vol.header.value_kind!r}"
        )
    vol.validate()
    labels = label_components(vol.voxels, conn.prev_offsets)
    return LabelVolume(
        VolumeHeader(shape=vol.header.shape, value_kind=KIND_INSTANCE), labels
    )


def component_count(vol: LabelVolume) -> int:
    """Return the number of instances in a canonical instance volume."""
    return int(vol.voxels.max()) if vol.voxels.size else 0
