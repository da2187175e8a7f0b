"""Fuse per-slice 2D masks into 3D instances via connected components.

Stacks of 2D pseudo-label masks carry no cross-slice identity, so fusion
first reduces them to foreground and stacks them along z, then
partitions the foreground into 3D connected components. Components are
numbered canonically: 1..C by ascending position of each component's
first voxel in z-major scan order, so the labeling is a pure function of
(mask, connectivity) and is byte-identical across thread counts.

Labeling is one of the pipeline's two volume hot loops (overlap counting
in instance_metrics is the other); it joins x-runs, not voxels.
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


# Entries per vectorised step (whole rows, at least one, when runs are
# listed or painted), bounding the scratch.
_CHUNK = 1 << 16


def _runs(mask: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Return the x-runs' first and last keys, and each row block's first run.

    A voxel's key is row * (X + 1) + x, with row = z * Y + y. No voxel has
    x = X, so a run that ends a row never abuts one that starts the next.
    """
    depth, height, width = mask.shape
    rows = mask.reshape(depth * height, width)
    step = max(1, _CHUNK // max(width, 1))
    starts, ends, blocks = [np.empty(0, dtype)], [np.empty(0, dtype)], [0]
    for r in range(0, rows.shape[0], step):
        key = np.flatnonzero(rows[r : r + step] != 0).astype(dtype)
        key += key // width + r * (width + 1)
        first = np.diff(key, prepend=-2) != 1
        starts.append(key[first])
        ends.append(key[np.roll(first, -1)])
        blocks.append(blocks[-1] + starts[-1].size)
    return np.concatenate(starts), np.concatenate(ends), blocks


def _row_steps(prev_offsets: np.ndarray, height: int) -> list[tuple[int, int, int]]:
    # (row delta, dy, x slack) of each earlier row a run touches: one per
    # (dz, dy), within the offsets' largest |dx|.
    slack: dict[tuple[int, int], int] = {}
    for dz, dy, dx in prev_offsets.tolist():
        if dz or dy:
            slack[dz, dy] = max(slack.get((dz, dy), 0), abs(dx))
    return [(dz * height + dy, dy, s) for (dz, dy), s in slack.items()]


def _below(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.searchsorted(keys, q) for ascending q, by one sort: all doubled,
    the keys made odd, so a q sorts before an equal key."""
    lo, hi = np.searchsorted(keys, q[[0, -1]])
    both = np.concatenate((q * 2, keys[lo:hi] * 2 + 1))
    both.sort()
    return np.flatnonzero((both & 1) == 0) - np.arange(-lo, q.size - lo)


def _touching(starts, ends, parent, shape, row_step):
    """Yield, chunk by chunk, each run's open edges into one earlier row.

    Shifted by delta * (X + 1), a run's keys land in that row, where it
    touches the runs ending at or after its start - slack and starting at
    or before its end + slack. Rows past the y border are not reached.
    """
    delta, dy, slack = row_step
    height, width = shape[1], shape[2] + 1
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


def label_components(mask: np.ndarray, prev_offsets: np.ndarray) -> np.ndarray:
    """Canonically label the connected components of a 3D binary mask.

    Run-based two-scan labeling (He, Chao & Suzuki, 2008): union-find on
    the x-runs in scan order, as vectorised hook-and-shortcut rounds (Wu,
    Otoo & Suzuki, 2009). A run links to the runs it touches in each
    earlier row that prev_offsets reaches; hooks point at smaller roots, so
    a component's root is its first run, and roots are numbered in order.

    Args:
        mask: 3D array, nonzero = foreground.
        prev_offsets: (K, 3) int array of the neighbor offsets
            (dz, dy, dx) before a voxel in scan order, (0, 0, -1) among them.

    Returns:
        uint32 array of the mask's shape with components numbered 1..C by
        ascending position of each component's first voxel in z-major scan
        order; background stays 0.
    """
    depth, height, width = mask.shape
    # _below doubles the keys.
    dtype = np.int32 if depth * height * (width + 1) < 2**30 else np.int64
    starts, ends, blocks = _runs(mask, dtype)
    parent = np.arange(starts.size, dtype=dtype)
    # At most two edges per run in a row step.
    a, b = np.empty((2, 2 * starts.size), dtype)
    for row_step in _row_steps(prev_offsets, height):
        k = 0
        for ea, eb in _touching(starts, ends, parent, mask.shape, row_step):
            a[k : k + ea.size], b[k : k + ea.size] = ea, eb
            k += ea.size
        while k:
            k = _union_round(parent, a, b, k)
    del a, b
    out = np.zeros(mask.shape, np.uint32)
    count = 0
    for lo, hi in zip(blocks[:-1], blocks[1:]):
        # Number the roots in scan order, in place: an entry's root is
        # smaller, so numbered before the entry reads it.
        p = parent[lo:hi]
        roots = p == np.arange(lo, hi, dtype=dtype)
        found = int(np.count_nonzero(roots))
        p[roots] = np.arange(count + 1, count + found + 1, dtype=dtype)
        count += found
        p[~roots] = parent[p[~roots]]
        # A run's voxels: its first voxel's flat index plus 0, 1, ...
        s = starts[lo:hi]
        length = ends[lo:hi] - s + 1
        voxel = np.repeat(s - s // (width + 1) - np.cumsum(length) + length, length)
        voxel += np.arange(voxel.size)
        out.reshape(-1)[voxel] = np.repeat(p.astype(np.uint32), length)
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
    stacked = np.empty((len(grids), *shape), np.uint32)
    for z, arr in enumerate(grids):
        np.greater(arr, 0, out=stacked[z])
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
