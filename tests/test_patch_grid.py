"""Tests for grid planning, tiling, padding, and reassembly."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreseg.errors import ConfigError, GridError
from coreseg.patch_grid import (
    PAD_REFLECT,
    PAD_ZERO,
    PatchId,
    _scatter_planes,
    check_volume_name,
    patch_filename,
    patch_ids,
    plan_grid,
    reassemble,
    tile,
    write_grid_manifest,
)
from coreseg.volume_io import (
    KIND_INSTANCE,
    KIND_MASK,
    VolumeHeader,
    new_volume,
    write_header,
    write_plane,
    write_volume,
)

from helpers import instance_volume


def test_plan_grid_arithmetic():
    spec = plan_grid((5, 5, 5), (2, 3, 4), PAD_ZERO)
    assert spec.padded_shape == (6, 6, 8)
    assert spec.grid_dims == (3, 2, 2)
    assert spec.patch_count == 12


def test_plan_grid_divisible_needs_no_padding():
    spec = plan_grid((4, 6, 8), (2, 3, 4))
    assert spec.padded_shape == (4, 6, 8)
    assert spec.grid_dims == (2, 2, 2)
    assert spec.pad_mode == PAD_REFLECT


@pytest.mark.parametrize(
    "original,patch,mode",
    [
        ((0, 1, 1), (1, 1, 1), PAD_ZERO),
        ((1, 1, 1), (0, 1, 1), PAD_ZERO),
        ((1, 1), (1, 1, 1), PAD_ZERO),
        ((1, 1, 1), (1, 1, 1), "wrap"),
    ],
)
def test_plan_grid_rejects_bad_input(original, patch, mode):
    with pytest.raises(GridError):
        plan_grid(original, patch, mode)


def test_extract_zero_padding():
    vol = instance_volume(np.arange(1, 9, dtype=np.uint32).reshape(2, 2, 2))
    spec = plan_grid((2, 2, 2), (2, 2, 3), PAD_ZERO)
    patch = tile(vol, spec, "v")[PatchId("v", (0, 0, 0))]
    assert patch.voxels.shape == (2, 2, 3)
    np.testing.assert_array_equal(patch.voxels[:, :, :2], vol.voxels)
    assert int(patch.voxels[:, :, 2].max()) == 0


def test_extract_reflect_padding_mirrors_without_edge():
    # [a, b, c] padded to length 5 mirrors to [a, b, c, b, a].
    row = np.array([[[3, 7, 9]]], dtype=np.uint32)
    vol = instance_volume(row)
    spec = plan_grid((1, 1, 3), (1, 1, 5), PAD_REFLECT)
    patch = tile(vol, spec, "v")[PatchId("v", (0, 0, 0))]
    np.testing.assert_array_equal(patch.voxels[0, 0], [3, 7, 9, 7, 3])


def test_extract_reflect_single_plane_repeats():
    vol = instance_volume(np.array([[[5]]], dtype=np.uint32))
    spec = plan_grid((1, 1, 1), (1, 1, 4), PAD_REFLECT)
    patch = tile(vol, spec, "v")[PatchId("v", (0, 0, 0))]
    np.testing.assert_array_equal(patch.voxels[0, 0], [5, 5, 5, 5])


def test_extract_reflect_bounces_past_axis_length():
    vol = instance_volume(np.array([[[1, 2]]], dtype=np.uint32))
    spec = plan_grid((1, 1, 2), (1, 1, 7), PAD_REFLECT)
    patch = tile(vol, spec, "v")[PatchId("v", (0, 0, 0))]
    expected = np.array([1, 2])[np.pad(np.arange(2), (0, 5), mode="reflect")]
    np.testing.assert_array_equal(patch.voxels[0, 0], expected)


def test_extract_rejects_shape_mismatch():
    vol = instance_volume(np.zeros((2, 2, 2), dtype=np.uint32))
    spec = plan_grid((3, 2, 2), (2, 2, 2), PAD_ZERO)
    with pytest.raises(GridError, match="does not match"):
        tile(vol, spec, "v")[PatchId("v", (0, 0, 0))]


def test_tile_covers_grid_in_order():
    vol = instance_volume(np.arange(27, dtype=np.uint32).reshape(3, 3, 3))
    spec = plan_grid((3, 3, 3), (2, 2, 2), PAD_ZERO)
    patches = tile(vol, spec, "v")
    ids = list(patches)
    assert len(ids) == spec.patch_count == 8
    assert ids[0].grid_index == (0, 0, 0)
    assert ids[1].grid_index == (0, 0, 1)  # x fastest
    assert ids[-1].grid_index == (1, 1, 1)


@pytest.mark.parametrize("mode", [PAD_ZERO, PAD_REFLECT])
def test_round_trip_non_divisible(mode):
    rng = np.random.default_rng(0)
    vol = instance_volume(rng.integers(0, 9, size=(5, 7, 3), dtype=np.uint32))
    spec = plan_grid((5, 7, 3), (2, 3, 2), mode)
    assert reassemble(tile(vol, spec, "v"), spec) == vol


def test_round_trip_preserves_kind():
    vol = new_volume(np.ones((3, 3, 3), dtype=np.uint32), KIND_MASK)
    spec = plan_grid((3, 3, 3), (2, 2, 2), PAD_ZERO)
    assert reassemble(tile(vol, spec, "v"), spec).header.value_kind == KIND_MASK


def test_reassemble_rejects_missing_patch():
    vol = instance_volume(np.zeros((2, 2, 4), dtype=np.uint32))
    spec = plan_grid((2, 2, 4), (2, 2, 2), PAD_ZERO)
    patches = tile(vol, spec, "v")
    del patches[PatchId("v", (0, 0, 1))]
    with pytest.raises(GridError, match=r"missing patch at grid index \(0, 0, 1\)"):
        reassemble(patches, spec)


def test_reassemble_rejects_extra_patch():
    vol = instance_volume(np.zeros((2, 2, 2), dtype=np.uint32))
    spec = plan_grid((2, 2, 2), (2, 2, 2), PAD_ZERO)
    patches = tile(vol, spec, "v")
    patches[PatchId("v", (0, 0, 5))] = next(iter(patches.values()))
    with pytest.raises(GridError, match=r"unexpected patch at grid index \(0, 0, 5\)"):
        reassemble(patches, spec)


def test_reassemble_rejects_mixed_names():
    vol = instance_volume(np.zeros((2, 2, 4), dtype=np.uint32))
    spec = plan_grid((2, 2, 4), (2, 2, 2), PAD_ZERO)
    patches = tile(vol, spec, "v")
    patch = patches.pop(PatchId("v", (0, 0, 1)))
    patches[PatchId("w", (0, 0, 1))] = patch
    with pytest.raises(GridError, match="mix volume names"):
        reassemble(patches, spec)


def test_reassemble_rejects_mixed_value_kinds():
    vol = instance_volume(np.zeros((2, 2, 4), dtype=np.uint32))
    spec = plan_grid((2, 2, 4), (2, 2, 2), PAD_ZERO)
    patches = tile(vol, spec, "v")
    patches[PatchId("v", (0, 0, 1))] = new_volume(np.zeros((2, 2, 2), np.uint32), KIND_MASK)
    with pytest.raises(GridError, match=r"mix value kinds \['binary_mask', 'instance_labels'\]"):
        reassemble(patches, spec)


def test_reassemble_rejects_empty():
    spec = plan_grid((2, 2, 2), (2, 2, 2), PAD_ZERO)
    with pytest.raises(GridError, match="at least one patch"):
        reassemble({}, spec)


def test_reassemble_rejects_wrong_patch_shape():
    vol = instance_volume(np.zeros((2, 2, 2), dtype=np.uint32))
    spec = plan_grid((2, 2, 2), (2, 2, 2), PAD_ZERO)
    patches = tile(vol, spec, "v")
    bad = instance_volume(np.zeros((1, 2, 2), dtype=np.uint32))
    patches[PatchId("v", (0, 0, 0))] = bad
    with pytest.raises(GridError, match="has shape"):
        reassemble(patches, spec)


def test_patch_filename():
    assert patch_filename(PatchId("train", (1, 0, 7))) == "train_z1_y0_x7.vol3d"


def test_grid_manifest_text_lists_patches_in_grid_order(tmp_path):
    spec = plan_grid((5, 5, 5), (2, 3, 4), PAD_REFLECT)
    path = tmp_path / "grid_manifest.txt"
    write_grid_manifest(spec, "train", path)
    patches = [
        f"patch=train_z{iz}_y{iy}_x{ix}.vol3d\n"
        for iz in range(3) for iy in range(2) for ix in range(2)
    ]
    assert path.read_text(encoding="utf-8") == (
        "format_version=1\nvolume_name=train\noriginal_shape=5,5,5\npatch_shape=2,3,4\n"
        "pad_mode=reflect\npadded_shape=6,6,8\ngrid_dims=3,2,2\n" + "".join(patches)
    )


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 7)] * 3),
    patch=st.tuples(*[st.integers(1, 4)] * 3),
    mode=st.sampled_from([PAD_ZERO, PAD_REFLECT]),
    seed=st.integers(0, 2**16),
)
def test_round_trip_property(shape, patch, mode, seed):
    rng = np.random.default_rng(seed)
    vol = instance_volume(rng.integers(0, 5, size=shape, dtype=np.uint32))
    spec = plan_grid(shape, patch, mode)
    assert reassemble(tile(vol, spec, "v"), spec) == vol


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 9)] * 3),
    patch=st.tuples(*[st.integers(1, 12)] * 3),
    seed=st.integers(0, 2**16),
)
def test_every_cell_matches_numpy_pad(shape, patch, seed):
    # Patch axes up to 12 over axes down to 1 give pads longer than the
    # axis, so reflect margins bounce; every cell's margins are compared.
    rng = np.random.default_rng(seed)
    vol = instance_volume(rng.integers(0, 2**32, size=shape, dtype=np.uint32))
    for mode, np_mode in ((PAD_REFLECT, "reflect"), (PAD_ZERO, "constant")):
        spec = plan_grid(shape, patch, mode)
        pad = [(0, p - n) for n, p in zip(shape, spec.padded_shape)]
        padded = np.pad(vol.voxels, pad, mode=np_mode)
        patches = tile(vol, spec, "v")
        for pid in patch_ids(spec, "v"):
            window = tuple(slice(i * p, (i + 1) * p) for i, p in zip(pid.grid_index, patch))
            got = patches[pid].voxels
            np.testing.assert_array_equal(got, padded[window], err_msg=f"{mode} {pid}")
            assert got.dtype == np.uint32 and got.shape == spec.patch_shape
            assert got.flags.c_contiguous
            assert not np.shares_memory(got, vol.voxels)


@pytest.mark.parametrize("pad_mode", [PAD_ZERO, PAD_REFLECT])
def test_reflect_extraction_holds_no_more_than_the_patch(pad_mode):
    # Each patch is filled in place from one reused plane buffer: the
    # allocation peak of tiling stays within 10 % of the patches' own bytes,
    # over interior, mirrored and corner cells alike.
    rng = np.random.default_rng(3)
    shape, patch = (20, 70, 90), (16, 64, 64)
    vol = instance_volume(rng.integers(0, 9, size=shape, dtype=np.uint32))
    spec = plan_grid(shape, patch, pad_mode)
    patches_bytes = 4 * int(np.prod(patch)) * spec.patch_count
    tracemalloc.start()
    try:
        tile(vol, spec, "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * patches_bytes, peak / patches_bytes


@pytest.mark.parametrize("pad_mode", [PAD_ZERO, PAD_REFLECT])
def test_patch_written_plane_by_plane_holds_one_plane(tmp_path, pad_mode):
    # A patch written plane by plane from _scatter_planes fills one reused
    # plane buffer, so the write's allocation peak stays within 10 % of one
    # plane's bytes for every cell: (0,0,0) needs no padding, the others
    # mirror or zero one, two or all three axes, and z runs past the
    # volume's last plane.
    rng = np.random.default_rng(6)
    shape, patch = (6, 300, 290), (4, 256, 256)
    vol = instance_volume(rng.integers(0, 9, size=shape, dtype=np.uint32))
    spec = plan_grid(shape, patch, pad_mode)
    plane_bytes = 4 * patch[1] * patch[2]
    header = VolumeHeader(shape=patch, value_kind=KIND_INSTANCE)
    patches = tile(vol, spec, "v")
    for pid in patch_ids(spec, "v"):
        path = tmp_path / patch_filename(pid)
        tracemalloc.start()
        try:
            write_header(header, path)
            for _, k, plane in _scatter_planes(spec, vol.voxels, [pid]):
                write_plane(header, k, plane, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * plane_bytes, (pid.grid_index, peak / plane_bytes)
        whole = tmp_path / "whole.vol3d"
        write_volume(patches[pid], whole)
        assert path.read_bytes() == whole.read_bytes(), pid.grid_index


@pytest.mark.parametrize("pad_mode", [PAD_ZERO, PAD_REFLECT])
def test_reassemble_holds_no_more_than_the_volume(pad_mode):
    # Each patch's in-bounds run goes straight into the output, so the
    # allocation peak stays within 10 % of the original volume's bytes; a
    # padded copy cropped afterwards would need several volumes' worth.
    rng = np.random.default_rng(4)
    shape, patch = (20, 70, 90), (16, 64, 64)
    vol = instance_volume(rng.integers(0, 9, size=shape, dtype=np.uint32))
    spec = plan_grid(shape, patch, pad_mode)
    patches = tile(vol, spec, "v")
    tracemalloc.start()
    try:
        back = reassemble(patches, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.voxels, vol.voxels)
    assert peak <= 1.1 * vol.voxels.nbytes, peak / vol.voxels.nbytes


@pytest.mark.parametrize("name", ["train", "vol-1.b", "a b", "..x", "x..", "\u00e9"])
def test_check_volume_name_accepts_plain_names(name):
    assert check_volume_name(name, GridError) == name


@pytest.mark.parametrize(
    "name", ["../x", "a/b", "/abs", "a\\b", "a\0b", "a\rb", "a\nb", ".", "..", ""]
)
@pytest.mark.parametrize("error", [GridError, ConfigError])
def test_check_volume_name_refuses_paths_and_line_breaks(name, error):
    with pytest.raises(error, match="volume_name"):
        check_volume_name(name, error)


@pytest.mark.parametrize("error", [GridError, ConfigError])
def test_check_volume_name_names_the_empty_case(error):
    with pytest.raises(error) as info:
        check_volume_name("", error)
    assert str(info.value) == "volume_name must not be empty"
    # Every other refusal keeps the one message that lists the rule.
    with pytest.raises(error) as info:
        check_volume_name("..", error)
    assert str(info.value) == (
        "volume_name must be a plain name without /, \\, NUL, CR or LF "
        "and not . or .., got '..'"
    )
