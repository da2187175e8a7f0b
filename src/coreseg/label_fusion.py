"""Fuse per-slice 2D masks into 3D instances via connected components.

Stacks of 2D pseudo-label masks carry no cross-slice identity, so fusion
reduces each slice to its foreground, one z-plane of a 3D mask, then
partitions the foreground into 3D connected components. Components are
numbered canonically: 1..C by ascending position of each component's
first voxel in z-major scan order, so the labeling is a pure function of
(mask, connectivity) and is byte-identical across thread counts.

Labeling is one of the pipeline's two volume hot loops (overlap counting
in instance_metrics is the other); it joins x-runs, not voxels. Both
loops take the voxels in volume_io's row blocks: the runs are listed,
and the labels painted, at most a block of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CoresegError, FusionError, VolumeFormatError
from .volume_io import (
    KIND_INSTANCE,
    KIND_MASK,
    LabelVolume,
    VolumeHeader,
    block_rows,
    row_blocks,
)

_CONNECTIVITY_FLAGS = {"6": "face6", "26": "full26", "face6": "face6", "full26": "full26"}

# The neighborhood, as the earlier rows a voxel touches in scan order:
# (dz, dy, x slack), a neighbor's |dx| being at most the slack. The voxel
# before in its own row, (0, 0, -1), is in its x-run already.
_ROW_STEPS = {
    "full26": ((-1, -1, 1), (-1, 0, 1), (-1, 1, 1), (0, -1, 1)),
    "face6": ((-1, 0, 0), (0, -1, 0)),
}


def connectivity_kind(flag: str, error: type[CoresegError]) -> str:
    """Return the kind that flag names ("6", "26", "face6", "full26"), else raise error."""
    if flag not in _CONNECTIVITY_FLAGS:
        raise error(f"connectivity must be 6 or 26, got {flag!r}")
    return _CONNECTIVITY_FLAGS[flag]


@dataclass(frozen=True)
class Connectivity:
    """Neighborhood rule for 3D component labeling.

    Attributes:
        kind: "face6" (share a face) or "full26" (share a face, edge,
            or corner).
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _ROW_STEPS:
            raise FusionError(f"unknown connectivity {self.kind!r}")


CONN_FACE6 = Connectivity("face6")
CONN_FULL26 = Connectivity("full26")


# Runs or edges per vectorised step, bounding their scratch. Voxels are
# taken in volume_io's row blocks.
_CHUNK = 1 << 16


def _runs(
    shape: tuple[int, int, int], planes: Iterable[np.ndarray], dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """Return the x-runs' first and last keys, listed row block by row block.

    A voxel's key is row * (X + 1) + x, with row = z * Y + y. No voxel has
    x = X, so a run that ends a row never abuts one that starts the next.
    """
    width = shape[2]
    starts, ends = [np.empty(0, dtype)], [np.empty(0, dtype)]
    for row, block in row_blocks(shape, planes):
        key = np.flatnonzero(block != 0).astype(dtype)
        key += key // width + row * (width + 1)
        first = np.diff(key, prepend=-2) != 1
        starts.append(key[first])
        ends.append(key[np.roll(first, -1)])
    return np.concatenate(starts), np.concatenate(ends)


def _below(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.searchsorted(keys, q) for ascending q, by one sort: all doubled,
    the keys made odd, so a q sorts before an equal key."""
    lo, hi = np.searchsorted(keys, q[[0, -1]])
    both = np.concatenate((q * 2, keys[lo:hi] * 2 + 1))
    both.sort()
    return np.flatnonzero((both & 1) == 0) - np.arange(-lo, q.size - lo)


def _touching(starts, ends, parent, shape, row_step):
    """Yield, chunk by chunk, each run's open edges into one earlier row.

    Shifted by (dz * Y + dy) * (X + 1), a run's keys land in that row, where
    it touches the runs ending at or after its start - slack and starting at
    or before its end + slack. Rows past the y border are not reached.
    """
    dz, dy, slack = row_step
    height, width = shape[1], shape[2] + 1
    delta = dz * height + dy
    for lo in range(0, starts.size, _CHUNK):
        s = starts[lo : lo + _CHUNK]
        first = _below(ends, s + (delta * width - slack))
        count = _below(starts, ends[lo : lo + _CHUNK] + (delta * width + slack + 1))
        count -= first
        if dy:
            y = s // width % height + dy
            count[(y < 0) | (y >= height)] = 0
        a = parent[np.repeat(np.arange(lo, lo + s.size), count)]
        b = parent[np.arange(a.size) - np.repeat(np.cumsum(count) - count - first, count)]
        keep = a != b
        yield a[keep], b[keep]


def _union_round(parent: np.ndarray, a: np.ndarray, b: np.ndarray, k: int) -> int:
    """One hook-and-shortcut round over the open edges (a[:k], b[:k]).

    Edges join differing roots of a fully shortcut parent. A root hooks to
    the smallest root it shares an edge with, if smaller, so pointer jumping
    settles parent chunk by chunk. Returns the count of open edges, moved to
    the front of a and b as roots.
    """
    for lo in range(0, k, _CHUNK):
        ca, cb = a[lo:k][:_CHUNK], b[lo:k][:_CHUNK]
        np.minimum.at(parent, np.maximum(ca, cb), np.minimum(ca, cb))
    for lo in range(0, parent.size, _CHUNK):
        p = parent[lo : lo + _CHUNK]
        grand = parent[p]
        while not np.array_equal(grand, p):
            p[:] = grand
            grand = parent[p]
    kept = 0
    for lo in range(0, k, _CHUNK):
        ca, cb = parent[a[lo:k][:_CHUNK]], parent[b[lo:k][:_CHUNK]]
        open_ = ca != cb
        n = int(np.count_nonzero(open_))
        a[kept : kept + n], b[kept : kept + n] = ca[open_], cb[open_]
        kept += n
    return kept


def _label_planes(
    shape: tuple[int, int, int], planes: Iterable[np.ndarray], conn: Connectivity
) -> tuple[int, Iterator[np.ndarray]]:
    """Label the components of a mask given as its z-planes, one at a time.

    The planes, nonzero = foreground, are read to the end and the runs
    joined before this returns, so the mask need never be whole.

    Returns:
        The count of components, and a one-pass iterator over the labeled
        z-planes, each painted into one reused uint32 buffer.
    """
    depth, height, width = shape
    # _below doubles the keys.
    dtype = np.int32 if depth * height * (width + 1) < 2**30 else np.int64
    starts, ends = _runs(shape, planes, dtype)
    parent = np.arange(starts.size, dtype=dtype)
    # At most two edges per run in a row step.
    a, b = np.empty((2, 2 * starts.size), dtype)
    for row_step in _ROW_STEPS[conn.kind]:
        k = 0
        for ea, eb in _touching(starts, ends, parent, shape, row_step):
            a[k : k + ea.size], b[k : k + ea.size] = ea, eb
            k += ea.size
        while k:
            k = _union_round(parent, a, b, k)
    del a, b
    roots = int(np.count_nonzero(parent == np.arange(parent.size, dtype=dtype)))
    return roots, _painted(shape, starts, ends, parent)


def _painted(shape, starts, ends, parent):
    """Yield the labeled z-planes, numbering the roots in scan order.

    Each plane is painted into one reused buffer a row block at a time,
    the block's runs found by their start keys.
    """
    depth, height, width = shape
    rows = block_rows(width)
    plane = np.empty((height, width), np.uint32)
    count = 0
    for z in range(depth):
        plane.fill(0)
        first = z * height
        cuts = np.array([*range(first, first + height, rows), first + height], starts.dtype)
        bounds = np.searchsorted(starts, cuts * (width + 1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            # Number the roots in scan order, in place: an entry's root is
            # smaller, so numbered before the entry reads it.
            p = parent[lo:hi]
            roots = p == np.arange(lo, hi, dtype=p.dtype)
            found = int(np.count_nonzero(roots))
            p[roots] = np.arange(count + 1, count + found + 1, dtype=p.dtype)
            count += found
            p[~roots] = parent[p[~roots]]
            # A run's voxels: its first voxel's index in the plane plus 0, 1, ...
            s = starts[lo:hi] - first * (width + 1)
            length = ends[lo:hi] - starts[lo:hi] + 1
            voxel = np.repeat(s - s // (width + 1) - np.cumsum(length) + length, length)
            voxel += np.arange(voxel.size)
            plane.reshape(-1)[voxel] = np.repeat(p.astype(np.uint32), length)
        yield plane


def _check_mask_kind(header: VolumeHeader) -> None:
    if header.value_kind != KIND_MASK:
        raise VolumeFormatError(
            f"connected_components requires a binary_mask volume, got {header.value_kind!r}"
        )


def connected_components(
    vol: LabelVolume,
    conn: Connectivity = CONN_FULL26,
) -> LabelVolume:
    """Label the connected components of a binary mask volume.

    Run-based two-scan labeling (He, Chao & Suzuki, 2008): union-find on
    the x-runs in scan order, as vectorised hook-and-shortcut rounds (Wu,
    Otoo & Suzuki, 2009). A run links to the runs it touches in each of
    conn's earlier rows; hooks point at smaller roots, so a component's
    root is its first run, and roots are numbered in order. The runs are
    listed, and the labels painted, a row block at a time, so the
    labeler's own state is the runs and a plane: cc and fuse stream their
    planes through it, and this function gathers the labeled planes into
    the volume it returns.

    Args:
        vol: A binary_mask LabelVolume.
        conn: Neighborhood rule; defaults to full26.

    Returns:
        An instance_labels LabelVolume with components numbered 1..C by
        first-voxel scan order; background stays 0.

    Raises:
        VolumeFormatError: If vol is not a valid binary mask.
    """
    _check_mask_kind(vol.header)
    vol.validate()
    _, planes = _label_planes(vol.header.shape, vol.voxels, conn)
    labels = np.empty(vol.header.shape, np.uint32)
    for z, plane in enumerate(planes):
        labels[z] = plane
    return LabelVolume(
        VolumeHeader(shape=vol.header.shape, value_kind=KIND_INSTANCE), labels
    )
