"""Tests for .vol3d volume reading, writing, and validation."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coreseg import volume_io
from coreseg.errors import VolumeFormatError
from coreseg.volume_io import (
    KIND_INSTANCE,
    KIND_MASK,
    LabelVolume,
    VolumeHeader,
    new_volume,
    read_volume,
    write_header,
    write_plane,
    write_volume,
)

from helpers import shrink, shrink_payload, time_limit


def small_volume() -> LabelVolume:
    data = np.arange(24, dtype=np.uint32).reshape(2, 3, 4)
    return new_volume(data, KIND_INSTANCE)


def test_round_trip_equality(tmp_path):
    vol = small_volume()
    path = tmp_path / "v.vol3d"
    write_volume(vol, path)
    back = read_volume(path)
    assert back == vol
    assert back.voxels.dtype == np.uint32


def test_write_is_byte_deterministic(tmp_path):
    vol = small_volume()
    write_volume(vol, tmp_path / "a.vol3d")
    write_volume(vol, tmp_path / "b.vol3d")
    assert (tmp_path / "a.vol3d").read_bytes() == (tmp_path / "b.vol3d").read_bytes()


def test_on_disk_layout(tmp_path):
    vol = small_volume()
    path = tmp_path / "v.vol3d"
    write_volume(vol, path)
    blob = path.read_bytes()
    header = b"shape=2,3,4\nkind=instance_labels\nwidth=4\norder=zyx\n\n"
    assert blob.startswith(header)
    payload = blob[len(header):]
    assert payload == vol.voxels.astype("<u4").tobytes()
    # z-major linearization: voxel (z, y, x) sits at z*12 + y*4 + x
    flat = np.frombuffer(payload, dtype="<u4")
    assert flat[1 * 12 + 2 * 4 + 3] == vol.voxels[1, 2, 3]


def test_mask_round_trip(tmp_path):
    vol = new_volume(np.ones((2, 2, 2), dtype=np.uint32), KIND_MASK)
    path = tmp_path / "m.vol3d"
    write_volume(vol, path)
    assert read_volume(path).header.value_kind == KIND_MASK


def test_read_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_volume(tmp_path / "absent.vol3d")


def test_read_rejects_truncated_payload(tmp_path):
    vol = small_volume()
    path = tmp_path / "v.vol3d"
    write_volume(vol, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(VolumeFormatError, match="payload length"):
        read_volume(path)


def test_read_rejects_oversized_payload(tmp_path):
    vol = small_volume()
    path = tmp_path / "v.vol3d"
    write_volume(vol, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(VolumeFormatError, match="payload length"):
        read_volume(path)


MASK_HEADER = b"shape=2,3,4\nkind=binary_mask\nwidth=4\norder=zyx\n\n"


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"", "malformed header: missing blank-line terminator"),
        (MASK_HEADER, "payload length mismatch: expected 96 bytes, found 0"),
        (MASK_HEADER + b"\x00" * 92, "payload length mismatch: expected 96 bytes, found 92"),
        (MASK_HEADER + b"\x00" * 100, "payload length mismatch: expected 96 bytes, found 100"),
    ],
    ids=["empty", "header-only", "truncated", "oversized"],
)
def test_read_rejects_bad_length_with_exact_message(tmp_path, blob, message):
    path = tmp_path / "v.vol3d"
    path.write_bytes(blob)
    with pytest.raises(VolumeFormatError) as info:
        read_volume(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("shift", [-3, -2, -1, 0, 1, 2, 3])
def test_header_crossing_the_prefix_read_parses(tmp_path, shift):
    # Zero-padding the shape is valid and moves the end of the blank line
    # to just before, onto, or just past the end of the first prefix read.
    vol = small_volume()
    plain = b"shape=2,3,4\nkind=instance_labels\nwidth=4\norder=zyx\n\n"
    pad = volume_io._HEADER_PREFIX + shift - len(plain)
    header = b"shape=" + b"0" * pad + plain[len(b"shape="):]
    assert header.index(b"\n\n") + 2 == volume_io._HEADER_PREFIX + shift
    path = tmp_path / "v.vol3d"
    path.write_bytes(header + vol.voxels.astype("<u4").tobytes())
    digests = []
    assert read_volume(path, digests=digests) == vol
    assert [d.sha256 for d in digests] == [hashlib.sha256(path.read_bytes()).hexdigest()]


def test_header_shape_may_carry_leading_zeros_past_twenty_digits(tmp_path):
    # Twenty digits bound the value, not the text: int() never sees the zeros.
    path = tmp_path / "v.vol3d"
    header = f"shape={'0' * 4999}1,1,1\nkind=binary_mask\nwidth=4\norder=zyx\n\n"
    path.write_bytes(header.encode("ascii") + b"\x00" * 4)
    assert read_volume(path).header == VolumeHeader((1, 1, 1), KIND_MASK)


def test_header_parses_at_every_prefix_size(tmp_path, monkeypatch):
    # A prefix shorter than the header takes several doubling reads.
    path = tmp_path / "v.vol3d"
    write_volume(small_volume(), path)
    for prefix in range(1, len(MASK_HEADER) + 2):
        monkeypatch.setattr(volume_io, "_HEADER_PREFIX", prefix)
        assert read_volume(path) == small_volume()


def test_read_records_digest_of_the_file_bytes(tmp_path):
    path = tmp_path / "v.vol3d"
    write_volume(small_volume(), path)
    digests = []
    read_volume(path, digests=digests)
    read_volume(path)  # no list, nothing recorded
    assert len(digests) == 1
    assert digests[0].path == path
    assert digests[0].name == "v.vol3d"
    assert digests[0].sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_plane_reader_records_the_digest_of_the_file_bytes(tmp_path):
    path = tmp_path / "v.vol3d"
    write_volume(small_volume(), path)
    digests = []
    with volume_io._PlaneReader(path, digests) as reader:
        planes = [plane.copy() for plane in reader.planes()]
    np.testing.assert_array_equal(np.stack(planes), small_volume().voxels)
    read_volume(path, digests=digests)
    assert [d.sha256 for d in digests] == [hashlib.sha256(path.read_bytes()).hexdigest()] * 2


def test_plane_reader_appends_the_digest_with_the_last_plane(tmp_path):
    # A lockstep consumer (zip) may never ask past the last plane.
    path = tmp_path / "v.vol3d"
    write_volume(small_volume(), path)
    digests = []
    with volume_io._PlaneReader(path, digests) as reader:
        planes = reader.planes()
        next(planes)
        assert digests == []
        next(planes)
        assert len(digests) == 1


def mask_with_two_in_last_plane(path):
    voxels = np.zeros((3, 4, 5), dtype="<u4")
    voxels[-1, 3, 4] = 2
    path.write_bytes(b"shape=3,4,5\nkind=binary_mask\nwidth=4\norder=zyx\n\n" + voxels.tobytes())


def test_mask_value_in_the_last_plane_is_refused_there(tmp_path):
    path = tmp_path / "m.vol3d"
    mask_with_two_in_last_plane(path)
    digests = []
    with volume_io._PlaneReader(path, digests) as reader:
        planes = reader.planes()
        next(planes), next(planes)
        with pytest.raises(VolumeFormatError) as info:
            next(planes)
    assert str(info.value) == "binary_mask volume contains values greater than 1"
    assert digests == []
    with pytest.raises(VolumeFormatError) as info:
        read_volume(path, digests=digests)
    assert str(info.value) == "binary_mask volume contains values greater than 1"
    assert digests == []


def test_a_file_that_shrinks_after_its_size_check_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "m.vol3d"
    path.write_bytes(MASK_HEADER + b"\x00" * 96)
    message = f"{path}: payload length mismatch: expected 96 bytes, found 50"
    shrink(monkeypatch, path, 50)
    with pytest.raises(VolumeFormatError) as info:
        read_volume(path)
    assert str(info.value) == message
    path.write_bytes(MASK_HEADER + b"\x00" * 96)
    with volume_io._PlaneReader(path, []) as reader:
        planes = reader.planes()
        assert not next(planes).any()  # the first plane is whole
        with pytest.raises(VolumeFormatError) as info:
            next(planes)
    assert str(info.value) == message


def test_plane_reader_holds_one_plane(tmp_path):
    vol = new_volume(np.arange(16 * 256 * 256, dtype=np.uint32).reshape(16, 256, 256))
    path = tmp_path / "big.vol3d"
    write_volume(vol, path)

    def stream():
        with volume_io._PlaneReader(path, []) as reader:
            for _ in reader.planes():
                pass

    plane_bytes = vol.header.payload_bytes // 16
    assert traced_peak(stream) <= 1.1 * plane_bytes


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_and_write_peak_at_one_payload(tmp_path):
    vol = new_volume(np.arange(16 * 256 * 256, dtype=np.uint32).reshape(16, 256, 256))
    payload = vol.header.payload_bytes
    path = tmp_path / "big.vol3d"
    assert traced_peak(write_volume, vol, path) <= 1.1 * payload
    # The voxel array itself is one payload, so a read cannot be below it.
    assert payload <= traced_peak(read_volume, path, digests=[]) <= 1.1 * payload


def test_planes_written_in_place_in_any_order_make_the_volume(tmp_path):
    vol = small_volume()
    write_volume(vol, tmp_path / "whole.vol3d")
    path = tmp_path / "scattered.vol3d"
    write_header(vol.header, path)
    # From one reused buffer, refilled before each plane is written.
    buffer = np.empty(vol.header.shape[1:], dtype=np.uint32)
    for z in reversed(range(vol.header.shape[0])):
        buffer[...] = vol.voxels[z]
        write_plane(vol.header, z, buffer, path)
    assert path.read_bytes() == (tmp_path / "whole.vol3d").read_bytes()


@pytest.mark.parametrize(
    "z, shape",
    [(-1, (3, 4)), (2, (3, 4)), (0, (4, 3))],
    ids=["below", "past-the-end", "shape"],
)
def test_a_plane_written_in_place_must_fit_the_header(tmp_path, z, shape):
    header = VolumeHeader(shape=(2, 3, 4), value_kind=KIND_INSTANCE)
    path = tmp_path / "v.vol3d"
    write_header(header, path)
    with pytest.raises(VolumeFormatError, match=f"plane {z} of shape"):
        write_plane(header, z, np.zeros(shape, np.uint32), path)
    assert path.read_bytes() == volume_io._header_bytes(header)


def test_read_rejects_missing_blank_line(tmp_path):
    path = tmp_path / "v.vol3d"
    path.write_bytes(b"shape=1,1,1\nkind=binary_mask\nwidth=4\norder=zyx\n")
    with pytest.raises(VolumeFormatError, match="blank-line"):
        read_volume(path)


# A header longer than the first prefix read, without its blank line.
UNENDED_HEADER = b"shape=" + b"0" * 300 + b"1,1,1\nkind=binary_mask\nwidth=4\norder=zyx\n"


def test_header_read_ends_where_a_shrunk_file_ends(tmp_path, monkeypatch):
    # The file's size is taken at 1000 more bytes than it holds once it is
    # read, so only an empty read can end the growing header read.
    path = tmp_path / "v.vol3d"
    path.write_bytes(UNENDED_HEADER + b"\x00" * 1000)
    shrink_payload(monkeypatch, path, len(UNENDED_HEADER))
    with time_limit(10), pytest.raises(VolumeFormatError) as info:
        read_volume(path)
    assert str(info.value) == f"{path}: malformed header: missing blank-line terminator"


@pytest.mark.parametrize(
    "header_text,fragment",
    [
        ("shape=1,1,1\nkind=nonsense\nwidth=4\norder=zyx", "value kind"),
        ("shape=1,1,1\nkind=binary_mask\nwidth=8\norder=zyx", "width"),
        ("shape=1,1,1\nkind=binary_mask\nwidth=4\norder=xyz", "order"),
        ("shape=1,1\nkind=binary_mask\nwidth=4\norder=zyx", "shape"),
        ("shape=1,a,1\nkind=binary_mask\nwidth=4\norder=zyx", "shape"),
        ("shape=1,1,1\nkind=binary_mask\nwidth=4", "keys"),
        ("shape=1,1,1\nshape=1,1,1\nkind=binary_mask\nwidth=4\norder=zyx", "duplicate"),
        ("shape=1,1,1\nbogus\nwidth=4\norder=zyx", "header line"),
        pytest.param(
            "shape=1,1,1\nkind=binary_mask\nwidth=04\norder=zyx", "width", id="width-04"
        ),
        pytest.param(
            f"shape={'1' * 21},1,1\nkind=binary_mask\nwidth=4\norder=zyx", "shape",
            id="21-digit-shape",
        ),
        pytest.param(
            f"shape={'1' * 5000},1,1\nkind=binary_mask\nwidth=4\norder=zyx", "shape",
            id="5000-digit-shape",
        ),
        pytest.param(
            "shape=1,\u00b2,1\nkind=binary_mask\nwidth=4\norder=zyx", "not ASCII",
            id="superscript-shape",
        ),
    ],
)
def test_read_rejects_malformed_headers(tmp_path, header_text, fragment):
    path = tmp_path / "v.vol3d"
    path.write_bytes(header_text.encode() + b"\n\n" + b"\x00" * 4)
    with pytest.raises(VolumeFormatError, match=fragment):
        read_volume(path)


def test_read_rejects_mask_values_above_one(tmp_path):
    path = tmp_path / "m.vol3d"
    payload = np.array([2], dtype="<u4").tobytes()
    path.write_bytes(b"shape=1,1,1\nkind=binary_mask\nwidth=4\norder=zyx\n\n" + payload)
    with pytest.raises(VolumeFormatError, match="greater than 1"):
        read_volume(path)


def test_new_volume_accepts_bool():
    vol = new_volume(np.ones((1, 2, 3), dtype=bool), KIND_MASK)
    assert vol.voxels.dtype == np.uint32
    assert int(vol.voxels.sum()) == 6


def test_new_volume_accepts_int64():
    vol = new_volume(np.full((1, 1, 1), 2**32 - 1, dtype=np.int64))
    assert int(vol.voxels[0, 0, 0]) == 2**32 - 1


@pytest.mark.parametrize(
    "arr,kind",
    [
        (np.zeros((2, 2), dtype=np.uint32), KIND_INSTANCE),
        (np.zeros((2, 2, 2), dtype=np.float64), KIND_INSTANCE),
        (np.full((1, 1, 1), -1, dtype=np.int64), KIND_INSTANCE),
        (np.full((1, 1, 1), 2**32, dtype=np.int64), KIND_INSTANCE),
        (np.full((1, 1, 1), 2, dtype=np.uint32), KIND_MASK),
    ],
)
def test_new_volume_rejects_bad_input(arr, kind):
    with pytest.raises(VolumeFormatError):
        new_volume(arr, kind)


def test_header_rejects_zero_axis():
    with pytest.raises(VolumeFormatError, match="positive"):
        VolumeHeader(shape=(0, 1, 1), value_kind=KIND_MASK).validate()


@pytest.mark.parametrize(
    "voxels, match",
    [
        (np.zeros((1, 2, 3), dtype=np.uint32), r"voxel array shape \(1, 2, 3\) does not match "
         r"header shape \(1, 3, 2\)"),
        (np.zeros((1, 3, 2), dtype=np.int32), "voxel dtype must be uint32, got int32"),
    ],
    ids=["shape", "dtype"],
)
def test_volume_validate_rejects_voxels_that_disagree_with_header(voxels, match):
    vol = LabelVolume(VolumeHeader(shape=(1, 3, 2), value_kind=KIND_INSTANCE), voxels)
    with pytest.raises(VolumeFormatError, match=match):
        vol.validate()


def test_header_counts():
    h = VolumeHeader(shape=(2, 3, 4), value_kind=KIND_INSTANCE)
    assert h.voxel_count == 24
    assert h.payload_bytes == 96


def test_volume_equality():
    a = small_volume()
    b = small_volume()
    assert a == b
    b.voxels[0, 0, 0] += 1
    assert a != b
    assert a != "not a volume"


def test_volume_repr_names_shape_and_kind():
    assert repr(new_volume(np.zeros((2, 3, 4), dtype=np.uint32), KIND_MASK)) == (
        "LabelVolume(shape=(2, 3, 4), kind='binary_mask')"
    )


@settings(max_examples=25, deadline=None)
@given(
    arr=hnp.arrays(
        dtype=np.uint32,
        shape=hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
        elements=st.integers(min_value=0, max_value=2**32 - 1),
    )
)
def test_round_trip_property(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("vol") / "v.vol3d"
    vol = new_volume(arr, KIND_INSTANCE)
    write_volume(vol, path)
    assert read_volume(path) == vol


@pytest.mark.parametrize(
    "block_voxels, shape, rows, sizes",
    [
        # Gathered: two 3-row planes per block, the last block one plane.
        (24, (5, 3, 4), [0, 6, 12], [6, 6, 3]),
        # Gathered: a block of 7 rows holds two whole planes, not 2 1/3.
        (28, (5, 3, 4), [0, 6, 12], [6, 6, 3]),
        # Cut: 2-row views of 5-row planes, the last of each plane 1 row.
        (8, (2, 5, 4), [0, 2, 4, 5, 7, 9], [2, 2, 1, 2, 2, 1]),
        # Cut: a block holds one plane but not two, so the plane is its view.
        (36, (2, 5, 4), [0, 5], [5, 5]),
        # Cut: a row wider than a block is a block of its own.
        (3, (2, 2, 4), [0, 1, 2, 3], [1, 1, 1, 1]),
    ],
    ids=["gathered", "gathered-remainder", "cut", "cut-whole-plane", "cut-wide-row"],
)
def test_row_blocks_cover_the_rows_in_scan_order(monkeypatch, block_voxels, shape, rows, sizes):
    monkeypatch.setattr(volume_io, "_BLOCK_VOXELS", block_voxels)
    voxels = np.arange(np.prod(shape), dtype=np.uint32).reshape(shape)
    gathered = volume_io.block_rows(shape[2]) >= 2 * shape[1]
    got = []
    for row, block in volume_io.row_blocks(shape, iter(voxels)):
        assert block.ndim == 2 and block.shape[1] == shape[2]
        assert block.shape[0] <= volume_io.block_rows(shape[2])
        # Gathered blocks share one buffer; a cut block is a view of its plane.
        assert np.shares_memory(block, voxels) != gathered
        got.append((row, block.copy()))
    assert [row for row, _ in got] == rows
    assert [block.shape[0] for _, block in got] == sizes
    all_rows = voxels.reshape(-1, shape[2])
    for row, block in got:
        np.testing.assert_array_equal(block, all_rows[row : row + block.shape[0]])
    np.testing.assert_array_equal(np.concatenate([b for _, b in got]), all_rows)
