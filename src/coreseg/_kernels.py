"""The two volume hot loops of the pipeline, in plain NumPy.

3D connected-component labeling and instance-overlap pair counting
dominate the runtime of the volume commands. Each has exactly one
implementation, and neither depends on thread count, so canonical outputs
are byte-identical on every machine.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# 3D connected-component labeling
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Instance-overlap pair counting
# ---------------------------------------------------------------------------


def overlap_pairs(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count co-labeled voxels for every overlapping (pred, gt) id pair.

    Args:
        pred: Flat uint32 label array.
        gt: Flat uint32 label array of the same size.

    Returns:
        (keys, counts) where keys = (pred_id << 32) | gt_id, ascending, and
        counts holds the matching voxel tallies. Background (0) never
        participates.
    """
    pred_flat = np.ascontiguousarray(pred.ravel(), dtype=np.uint32)
    gt_flat = np.ascontiguousarray(gt.ravel(), dtype=np.uint32)
    both = (pred_flat > 0) & (gt_flat > 0)
    keys = pred_flat[both].astype(np.uint64) << np.uint64(32)
    keys |= gt_flat[both].astype(np.uint64)
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq.astype(np.uint64), counts.astype(np.int64)
