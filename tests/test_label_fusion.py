"""Tests for slice stacking and 3D connected-component labeling."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coreseg import label_fusion
from coreseg.errors import FusionError, VolumeFormatError
from coreseg.label_fusion import (
    CONN_FACE6,
    CONN_FULL26,
    Connectivity,
    component_count,
    connected_components,
    label_components,
    stack_slices,
)
from coreseg.volume_io import KIND_INSTANCE, KIND_MASK

from helpers import bfs_label, instance_volume, mask_volume, neighbor_offsets, random_mask


def test_row_steps_are_the_oracles_earlier_rows():
    # The flood-fill oracle's neighbors in earlier rows, in scan order, one
    # (dz, dy, x slack) per row with the largest |dx| there as the slack.
    for kind in ("face6", "full26"):
        slack: dict[tuple[int, int], int] = {}
        for dz, dy, dx in neighbor_offsets(kind):
            if (dz, dy) < (0, 0):
                slack[dz, dy] = max(slack.get((dz, dy), 0), abs(dx))
        steps = tuple((dz, dy, s) for (dz, dy), s in slack.items())
        assert label_fusion._ROW_STEPS[kind] == steps, kind


def test_connectivity_from_flag():
    assert Connectivity.from_flag("6").kind == "face6"
    assert Connectivity.from_flag("26").kind == "full26"
    assert Connectivity.from_flag("face6").kind == "face6"
    assert Connectivity.from_flag("full26").kind == "full26"
    with pytest.raises(FusionError):
        Connectivity.from_flag("18")


def test_connectivity_rejects_unknown_kind():
    with pytest.raises(FusionError):
        Connectivity("face4")


def test_stack_slices_binarizes_and_orders():
    a = np.array([[0, 3], [0, 0]])
    b = np.array([[7, 0], [0, 9]])
    vol = stack_slices([a, b])
    assert vol.header.value_kind == KIND_MASK
    assert vol.header.shape == (2, 2, 2)
    np.testing.assert_array_equal(vol.voxels[0], [[0, 1], [0, 0]])
    np.testing.assert_array_equal(vol.voxels[1], [[1, 0], [0, 1]])


def test_stack_slices_rejects_empty():
    with pytest.raises(FusionError, match="at least one"):
        stack_slices([])


def test_stack_slices_rejects_shape_mismatch():
    with pytest.raises(FusionError, match="slice 1"):
        stack_slices([np.zeros((2, 2)), np.zeros((2, 3))])


def test_stack_slices_rejects_thick_volume():
    with pytest.raises(FusionError, match="slice 1 is 3D, expected 2D"):
        stack_slices([np.zeros((2, 2)), np.zeros((2, 2, 2))])


def test_opposite_corners_split_on_face6_join_on_full26():
    corners = np.zeros((2, 2, 2), dtype=np.uint32)
    corners[0, 0, 0] = 1
    corners[1, 1, 1] = 1
    vol = mask_volume(corners)
    assert component_count(connected_components(vol, CONN_FACE6)) == 2
    assert component_count(connected_components(vol, CONN_FULL26)) == 1


def test_labels_are_canonical_scan_order():
    # The blob whose first voxel appears earlier in z-major order gets 1.
    mask = np.zeros((1, 3, 5), dtype=np.uint32)
    mask[0, 0, 4] = 1  # first row, later column: scan position 4
    mask[0, 1, 0] = 1  # second row: scan position 5
    mask[0, 2, 2] = 1  # third row: scan position 12
    out = connected_components(mask_volume(mask), CONN_FACE6)
    assert out.voxels[0, 0, 4] == 1
    assert out.voxels[0, 1, 0] == 2
    assert out.voxels[0, 2, 2] == 3
    assert out.header.value_kind == KIND_INSTANCE


def test_labels_are_dense_from_one():
    rng = np.random.default_rng(5)
    vol = mask_volume(rng.random((8, 8, 8)) < 0.4)
    out = connected_components(vol, CONN_FACE6)
    labels = np.unique(out.voxels)
    assert labels[0] == 0
    np.testing.assert_array_equal(labels[1:], np.arange(1, labels.size))


@pytest.mark.parametrize("conn", [CONN_FACE6, CONN_FULL26])
def test_matches_flood_fill_oracle(conn):
    rng = np.random.default_rng(11)
    for _ in range(30):
        vol = random_mask(rng, max_edge=12)
        got = connected_components(vol, conn)
        expected = bfs_label(vol.voxels, conn.kind)
        np.testing.assert_array_equal(got.voxels, expected)


@st.composite
def masks(draw):
    # Edges start at 1, so size-1 axes are common; empty and full volumes
    # are drawn on purpose rather than left to chance.
    shape = draw(st.tuples(*[st.integers(1, 9)] * 3))
    fill = draw(st.sampled_from(["drawn", "seeded", "empty", "full"]))
    if fill == "empty":
        return np.zeros(shape, dtype=bool)
    if fill == "full":
        return np.ones(shape, dtype=bool)
    if fill == "seeded":
        # Uniform noise at a drawn density: many interleaved components.
        density = draw(st.floats(0.2, 0.8))
        seed = draw(st.integers(0, 2**32 - 1))
        return np.random.default_rng(seed).random(shape) < density
    return draw(hnp.arrays(np.bool_, shape))


@pytest.mark.parametrize("conn", [CONN_FACE6, CONN_FULL26])
@settings(max_examples=300, deadline=None)
@given(mask=masks())
def test_matches_flood_fill_property(conn, mask):
    got = connected_components(mask_volume(mask), conn).voxels
    assert got.dtype == np.uint32
    np.testing.assert_array_equal(got, bfs_label(mask, conn.kind))


def serpentine(size: int) -> np.ndarray:
    """One winding path: full rows joined by one pixel at alternate ends."""
    path = np.zeros((size, size), dtype=bool)
    path[0::2, :] = True
    for row in range(1, size, 2):
        path[row, -1 if (row // 2) % 2 == 0 else 0] = True
    return path


@pytest.mark.parametrize("conn", [CONN_FACE6, CONN_FULL26])
def test_serpentine_long_path_is_one_component(conn):
    # Slices 0 and 2 carry the path; slice 1 joins them at one end only,
    # so the single component winds through ~2.5k voxels.
    mask = np.zeros((3, 49, 49), dtype=bool)
    mask[0] = mask[2] = serpentine(49)
    mask[1, -1, -1] = True
    out = connected_components(mask_volume(mask), conn)
    assert out.voxels.dtype == np.uint32
    np.testing.assert_array_equal(out.voxels, mask.astype(np.uint32))


def test_all_background_and_all_foreground():
    empty = mask_volume(np.zeros((3, 3, 3), dtype=np.uint32))
    assert component_count(connected_components(empty)) == 0
    full = mask_volume(np.ones((3, 3, 3), dtype=np.uint32))
    out = connected_components(full, CONN_FACE6)
    assert component_count(out) == 1
    assert int(out.voxels.min()) == 1


def test_rejects_non_mask_volume():
    vol = instance_volume(np.zeros((2, 2, 2), dtype=np.uint32))
    with pytest.raises(VolumeFormatError, match="binary_mask"):
        connected_components(vol)


def test_fused_stack_labels_across_slices():
    # Foreground touching across z joins into one instance; a pixel more
    # than one step away in x on the last slice becomes a second one.
    s0 = np.array([[1, 1, 0, 0], [0, 0, 0, 0]])
    s1 = np.array([[0, 1, 0, 0], [0, 0, 0, 0]])
    s2 = np.array([[0, 0, 0, 0], [0, 0, 0, 1]])
    fused = connected_components(stack_slices([s0, s1, s2]), CONN_FULL26)
    assert component_count(fused) == 2
    assert fused.voxels[0, 0, 0] == fused.voxels[1, 0, 1] == 1
    assert fused.voxels[2, 1, 3] == 2


@pytest.mark.parametrize("conn", [CONN_FACE6, CONN_FULL26], ids=["face6", "full26"])
@pytest.mark.parametrize(
    "shape, first, second",
    [
        ((1, 3, 4), (0, 0, 3), (0, 1, 0)),  # a row's end, the next row's start
        ((2, 3, 4), (0, 2, 1), (1, 0, 1)),  # a plane's last row, the next's first
        ((2, 3, 1), (0, 2, 0), (1, 0, 0)),  # X = 1
        ((2, 1, 3), (0, 0, 2), (1, 0, 0)),  # Y = 1
    ],
    ids=["row-end", "plane-end", "x1", "y1"],
)
def test_linear_offsets_do_not_wrap(conn, shape, first, second):
    # The two voxels are not adjacent, but one neighbor offset's linear
    # delta leads from one to the other, so a lookup by flat index alone
    # would join them.
    assert max(abs(s - f) for s, f in zip(second, first)) > 1
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    gap = int(np.ravel_multi_index(second, shape) - np.ravel_multi_index(first, shape))
    assert -gap in np.array(neighbor_offsets(conn.kind)) @ strides
    mask = np.zeros(shape, dtype=np.uint32)
    mask[first] = mask[second] = 1
    out = connected_components(mask_volume(mask), conn).voxels
    assert (out[first], out[second]) == (1, 2)


# Peak traced allocation of label_components, as a multiple of its uint32
# mask, on 16x256x256 with full26. While the labeler kept a voxel-sized id
# map it peaked at 2.25x, 3.32x and 6.04x on these masks; the run labeler
# peaks at about 1.19x, 2.72x and 2.95x, so 60 % shares the 35 % bound.
@pytest.mark.parametrize("density, bound", [(0.05, 1.75), (0.35, 3.31), (0.60, 3.31)])
def test_label_components_peak_memory(density, bound):
    rng = np.random.default_rng(0)
    mask = (rng.random((16, 256, 256)) < density).astype(np.uint32)
    tracemalloc.start()
    try:
        label_components(mask, CONN_FULL26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * mask.nbytes, peak / mask.nbytes


# ROADMAP item 6's gate: the labeling peak stays within 2.5x the uint32 mask
# at any density. The voxel-based labeler peaked at 1.16x, 2.34x and 3.96x
# here; runs, their parents and one row step's edges take about 2 bytes per
# voxel at most.
@pytest.mark.parametrize("density", [0.05, 0.35, 0.60])
def test_label_components_peak_within_2_5x_of_the_mask(density):
    rng = np.random.default_rng(1)
    mask = (rng.random((32, 512, 512)) < density).astype(np.uint32)
    tracemalloc.start()
    try:
        label_components(mask, CONN_FULL26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * mask.nbytes, peak / mask.nbytes


def _two_runs(shape, first, second):
    # Two x-runs given as (z, y, x0, x1) with x1 inclusive.
    mask = np.zeros(shape, dtype=np.uint32)
    for z, y, x0, x1 in (first, second):
        mask[z, y, x0 : x1 + 1] = 1
    return mask


@pytest.mark.parametrize("conn", [CONN_FACE6, CONN_FULL26], ids=["face6", "full26"])
@pytest.mark.parametrize(
    "shape, first, second",
    [
        ((1, 2, 6), (0, 0, 3, 5), (0, 1, 0, 1)),  # a row's last x, the next row's x = 0
        ((2, 4, 6), (0, 3, 0, 5), (1, 0, 0, 5)),  # a plane's last row, the next's first
        ((2, 4, 6), (1, 0, 1, 4), (1, 3, 1, 4)),  # y = Y - 1 reaching y + 1 in z - 1
        ((3, 4, 6), (0, 3, 1, 4), (2, 0, 1, 4)),  # y = 0 reaching y - 1 in z - 1
        ((2, 1, 6), (0, 0, 0, 2), (1, 0, 4, 5)),  # Y = 1, runs apart in x
    ],
    ids=["row-end", "plane-end", "y-last-diagonal", "y-first-diagonal", "y1"],
)
def test_runs_across_a_row_or_plane_border_stay_apart(conn, shape, first, second):
    # Each pair is not adjacent, but its runs' keys lie one row step apart
    # or less, so a link that ignored the y border or the row's end would
    # join them.
    mask = _two_runs(shape, first, second)
    out = label_components(mask, conn)
    np.testing.assert_array_equal(out, bfs_label(mask, conn.kind))
    assert component_count(instance_volume(out)) == 2


@st.composite
def run_masks(draw):
    # Each row alternates gaps and runs with drawn mean lengths, so long
    # runs, runs that fill a row and runs that touch across rows all occur.
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 24)))
    gap, run = draw(st.floats(1.0, 4.0)), draw(st.floats(1.0, 24.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros(shape, dtype=bool)
    for row in mask.reshape(-1, shape[2]):
        x = int(rng.geometric(1 / gap)) - 1
        while x < shape[2]:
            length = int(rng.geometric(1 / run))
            row[x : x + length] = True
            x += length + int(rng.geometric(1 / gap))
    return mask


@pytest.mark.parametrize("conn", [CONN_FACE6, CONN_FULL26], ids=["face6", "full26"])
@settings(max_examples=200, deadline=None)
@given(mask=run_masks(), chunk=st.sampled_from([1, 3, 1 << 16]))
def test_run_masks_match_flood_fill(conn, mask, chunk):
    # A small chunk splits runs, edges and slabs across chunk boundaries.
    with mock.patch.object(label_fusion, "_CHUNK", chunk):
        got = label_components(mask, conn)
    np.testing.assert_array_equal(got, bfs_label(mask, conn.kind))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(-(2**29), 2**29), max_size=40),
    q=st.lists(st.integers(-(2**29), 2**29), min_size=1, max_size=40),
)
def test_below_counts_as_searchsorted(dtype, keys, q):
    # Queries equal to keys, before all and past all of them included.
    keys = np.sort(np.array(keys, dtype=dtype))
    q = np.sort(np.array(q + keys[::3].tolist(), dtype=dtype))
    np.testing.assert_array_equal(label_fusion._below(keys, q), np.searchsorted(keys, q))


def test_stack_slices_holds_only_the_mask():
    # Stacking, comparing and converting the whole stack took 2.25x the mask.
    rng = np.random.default_rng(2)
    grids = [rng.integers(0, 3, size=(512, 512), dtype=np.uint32) for _ in range(16)]
    tracemalloc.start()
    try:
        vol = stack_slices(grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(vol.voxels, (np.stack(grids) > 0).astype(np.uint32))
    assert peak <= 1.1 * vol.voxels.nbytes, peak / vol.voxels.nbytes
