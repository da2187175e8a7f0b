"""Fuse per-slice 2D masks into 3D instances via connected components.

Stacks of 2D pseudo-label masks carry no cross-slice identity, so fusion
first binarizes and stacks them along z, then partitions the foreground
into 3D connected components. Components are numbered canonically: 1..C
by ascending position of each component's first voxel in z-major scan
order, so the labeling is a pure function of (mask, connectivity) and is
byte-identical across thread counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
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


def stack_slices(slices: Sequence[np.ndarray | LabelVolume]) -> LabelVolume:
    """Binarize 2D label grids and stack them along z into one mask volume.

    Per-slice instance identities are discarded: an output voxel is 1 iff
    the corresponding 2D pixel has any label > 0.

    Args:
        slices: Ordered 2D integer arrays, or single-slice LabelVolumes of
            shape (1, y, x); all must share the same (y, x) shape.

    Returns:
        A binary_mask LabelVolume of shape (len(slices), y, x).

    Raises:
        FusionError: On an empty list or inconsistent slice shapes.
    """
    if not slices:
        raise FusionError("stack_slices requires at least one slice")
    grids = []
    for i, item in enumerate(slices):
        arr = item.voxels if isinstance(item, LabelVolume) else np.asarray(item)
        if arr.ndim == 3:
            if arr.shape[0] != 1:
                raise FusionError(f"slice {i} has z-size {arr.shape[0]}, expected 1")
            arr = arr[0]
        if arr.ndim != 2:
            raise FusionError(f"slice {i} is {arr.ndim}D, expected 2D")
        grids.append(arr)
    shape = grids[0].shape
    for i, arr in enumerate(grids):
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
    labels = _kernels.label_components(vol.voxels, conn.prev_offsets)
    return LabelVolume(
        VolumeHeader(shape=vol.header.shape, value_kind=KIND_INSTANCE), labels
    )


def binarize(vol: LabelVolume) -> LabelVolume:
    """Map every positive voxel to 1, producing a binary_mask volume."""
    mask = (vol.voxels > 0).astype(np.uint32)
    return LabelVolume(VolumeHeader(shape=vol.header.shape, value_kind=KIND_MASK), mask)


def component_count(vol: LabelVolume) -> int:
    """Return the number of instances in a canonical instance volume."""
    return int(vol.voxels.max()) if vol.voxels.size else 0
