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


def _pair_views(shape, offset) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slices (here, there) such that there[i] is here[i] shifted by offset."""
    here = tuple(slice(max(0, -d), n - max(0, d)) for n, d in zip(shape, offset))
    there = tuple(slice(max(0, d), n - max(0, -d)) for n, d in zip(shape, offset))
    return here, there


def _union_round(parent: np.ndarray, a: np.ndarray, b: np.ndarray):
    """One hook-and-shortcut round over the edges (a, b).

    parent must be fully shortcut on entry (every entry is a root) and is
    again on return. Edges whose endpoints already share a root are
    dropped; each remaining root is hooked to the smallest root it shares
    an edge with, when that root is smaller. Returns the edges that were
    still open at the start of the round.
    """
    ra = parent[a]
    rb = parent[b]
    open_ = ra != rb
    a, b, ra, rb = a[open_], b[open_], ra[open_], rb[open_]
    np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent[:] = grand
    return a, b


def label_components(mask: np.ndarray, prev_offsets: np.ndarray) -> np.ndarray:
    """Canonically label the connected components of a 3D binary mask.

    Union-find on the foreground only, run as vectorised hook-and-shortcut
    rounds: each foreground voxel gets a compact id in z-major scan order,
    each scan-order-previous offset contributes the foreground pairs of
    two shifted views of the mask as edges, and every hook points a root
    at a smaller one. A component's root is therefore its smallest compact
    id, i.e. its first voxel in scan order, and a running count of roots
    is the canonical numbering.

    Args:
        mask: 3D array, nonzero = foreground.
        prev_offsets: (K, 3) int array of scan-order-previous neighbor
            offsets (dz, dy, dx), each lexicographically below (0, 0, 0).

    Returns:
        uint32 array of the mask's shape with components numbered 1..C by
        ascending position of each component's first voxel in z-major scan
        order; background stays 0.
    """
    fg = np.ascontiguousarray(mask != 0)
    n = int(np.count_nonzero(fg))
    id_dtype = np.int32 if n < 2**31 else np.int64
    ids = np.cumsum(fg, dtype=id_dtype).reshape(fg.shape)
    ids -= 1
    parent = np.arange(n, dtype=id_dtype)
    a = b = np.empty(0, dtype=id_dtype)
    # One round per offset keeps only the edges still open, so the edge
    # lists stay small on solid foreground.
    for offset in prev_offsets:
        here, there = _pair_views(fg.shape, offset)
        pairs = fg[here] & fg[there]
        a = np.concatenate([a, ids[here][pairs]])
        b = np.concatenate([b, ids[there][pairs]])
        del pairs
        a, b = _union_round(parent, a, b)
    del ids
    while a.size:
        a, b = _union_round(parent, a, b)
    canonical = np.cumsum(parent == np.arange(n, dtype=id_dtype), dtype=np.uint32)
    out = np.zeros(fg.shape, np.uint32)
    out[fg] = canonical[parent]
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
