"""Dense 3D label volume I/O in a portable, bit-exact binary format.

The on-disk format (".vol3d") is a text header followed by a raw payload:

    shape=Z,Y,X
    kind=instance_labels|binary_mask
    width=4
    order=zyx
    <blank line>
    Z*Y*X little-endian unsigned 32-bit integers

The header is ASCII key=value lines terminated by one blank line, so the
format can be read or written from any language without third-party
parsers. Voxels are stored z-major: index = z*(Y*X) + y*X + x. Round
trips are byte-identical.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._fields import decode_lines, parse_ints, split_fields
from .errors import VolumeFormatError
from .provenance import InputDigest

KIND_INSTANCE = "instance_labels"
KIND_MASK = "binary_mask"
_KINDS = (KIND_INSTANCE, KIND_MASK)
_ELEMENT_WIDTH = 4
_STORAGE_ORDER = "zyx"
# Bytes read for the header at first; a valid header is about 60 bytes.
_HEADER_PREFIX = 256
# Voxels per block of rows that the volume hot loops, component labeling
# and overlap counting, take in one vectorised step (a 256 x 256 plane).
_BLOCK_VOXELS = 1 << 16


@dataclass(frozen=True)
class VolumeHeader:
    """Shape and value-kind metadata for one stored volume.

    Every volume stores 4-byte unsigned little-endian voxels in "zyx"
    (z-major) order, so neither is a field.

    Attributes:
        shape: (z, y, x) voxel counts, all positive.
        value_kind: "instance_labels" or "binary_mask".
    """

    shape: tuple[int, int, int]
    value_kind: str

    def validate(self) -> None:
        """Raise VolumeFormatError when any header invariant fails."""
        if len(self.shape) != 3 or any(
            not isinstance(c, int) or c < 1 for c in self.shape
        ):
            raise VolumeFormatError(
                f"shape must be three positive integers, got {self.shape!r}"
            )
        if self.value_kind not in _KINDS:
            raise VolumeFormatError(f"unknown value kind {self.value_kind!r}")

    @property
    def voxel_count(self) -> int:
        z, y, x = self.shape
        return z * y * x

    @property
    def payload_bytes(self) -> int:
        return self.voxel_count * _ELEMENT_WIDTH


class LabelVolume:
    """A dense 3D grid of 32-bit instance identifiers, 0 = background.

    Attributes:
        header: The VolumeHeader describing shape and value kind.
        voxels: C-contiguous uint32 array of header.shape.
    """

    def __init__(self, header: VolumeHeader, voxels: np.ndarray) -> None:
        self.header = header
        self.voxels = voxels

    def validate(self) -> None:
        """Raise VolumeFormatError when any volume invariant fails."""
        self.header.validate()
        if tuple(self.voxels.shape) != self.header.shape:
            raise VolumeFormatError(
                f"voxel array shape {tuple(self.voxels.shape)} does not match "
                f"header shape {self.header.shape}"
            )
        if self.voxels.dtype != np.uint32:
            raise VolumeFormatError(
                f"voxel dtype must be uint32, got {self.voxels.dtype}"
            )
        if self.header.value_kind == KIND_MASK and self.voxels.size:
            _check_mask_values(self.voxels)

    def planes(self) -> Iterator[np.ndarray]:
        """Yield the z-planes in z order, as a _PlaneReader's planes() does."""
        return iter(self.voxels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return self.header == other.header and np.array_equal(self.voxels, other.voxels)

    def __repr__(self) -> str:
        return f"LabelVolume(shape={self.header.shape}, kind={self.header.value_kind!r})"


def _check_mask_values(voxels: np.ndarray) -> None:
    if int(voxels.max()) > 1:
        raise VolumeFormatError("binary_mask volume contains values greater than 1")


def block_rows(width: int) -> int:
    """Return the rows of width voxels in one block: at least one."""
    return max(1, _BLOCK_VOXELS // width)


def row_blocks(
    shape: tuple[int, int, int], planes: Iterable[np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """Cut the z-planes of a volume of shape, drawn in z order, into blocks.

    Yields (row, block) in scan order: block is at most block_rows(X) whole
    rows of the volume, as a 2D array, and row = z * Y + y is the index of
    its first. Planes that a block holds at least twice are gathered, as
    many as fit, into one reused uint32 buffer; a larger plane is cut into
    views of itself, never copied. A block is valid until the next is drawn.
    """
    height, width = shape[1], shape[2]
    rows = block_rows(width)
    if rows < 2 * height:
        for z, plane in enumerate(planes):
            for y in range(0, height, rows):
                yield z * height + y, plane[y : y + rows]
        return
    buffer = np.empty((rows // height * height, width), np.uint32)
    row = n = 0
    for plane in planes:
        buffer[n : n + height] = plane
        n += height
        if n == buffer.shape[0]:
            yield row, buffer
            row, n = row + n, 0
    if n:
        yield row, buffer[:n]


def new_volume(voxels: np.ndarray, value_kind: str = KIND_INSTANCE) -> LabelVolume:
    """Build a validated LabelVolume from any non-negative integer array.

    Args:
        voxels: 3D integer array; values must fit in uint32.
        value_kind: "instance_labels" or "binary_mask".

    Raises:
        VolumeFormatError: On bad shape, negative or oversized values, or a
            binary_mask containing values above 1.
    """
    arr = np.asarray(voxels)
    if arr.ndim != 3:
        raise VolumeFormatError(f"voxel array must be 3D, got {arr.ndim}D")
    if not np.issubdtype(arr.dtype, np.integer) and arr.dtype != np.bool_:
        raise VolumeFormatError(f"voxel dtype must be integral, got {arr.dtype}")
    if arr.size and arr.dtype != np.bool_:
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi > 0xFFFFFFFF:
            raise VolumeFormatError(
                f"voxel values must lie in [0, 2^32), found range [{lo}, {hi}]"
            )
    vol = LabelVolume(
        VolumeHeader(shape=tuple(int(c) for c in arr.shape), value_kind=value_kind),
        np.ascontiguousarray(arr, dtype=np.uint32),
    )
    vol.validate()
    return vol


def _header_bytes(header: VolumeHeader) -> bytes:
    lines = (
        f"shape={header.shape[0]},{header.shape[1]},{header.shape[2]}\n"
        f"kind={header.value_kind}\n"
        f"width={_ELEMENT_WIDTH}\n"
        f"order={_STORAGE_ORDER}\n"
        "\n"
    )
    return lines.encode("ascii")


def _parse_header(raw: bytes, path: Path) -> VolumeHeader:
    context = f"{path}: malformed header"
    lines = decode_lines(raw, VolumeFormatError, context)
    fields = split_fields(lines, ("shape", "kind", "width", "order"), VolumeFormatError, context)
    for key, fixed in (("width", str(_ELEMENT_WIDTH)), ("order", _STORAGE_ORDER)):
        if fields[key] != fixed:
            raise VolumeFormatError(f"{context}: {key} must be {fixed!r}, got {fields[key]!r}")
    shape = parse_ints(fields["shape"], VolumeFormatError, f"{context} shape", 3)
    header = VolumeHeader(shape=shape, value_kind=fields["kind"])
    try:
        header.validate()
    except VolumeFormatError as exc:
        raise VolumeFormatError(f"{context}: {exc}") from None
    return header


class _PlaneReader:
    """A .vol3d file opened to be read one z-plane at a time.

    Opening reads the header from a small prefix and checks the file's
    size against it; what fails closes the file. No payload byte is read
    until planes() is iterated, so a caller can refuse a request on the
    header alone. planes() reads the payload once, in file order. Use it
    as a context manager, which closes the file.

    Attributes:
        header: The parsed, validated VolumeHeader.
    """

    def __init__(
        self,
        path: str | Path,
        digests: list[InputDigest] | None = None,
    ) -> None:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"volume file not found: {p}")
        # Unbuffered: a read buffer would be a second copy of a small volume.
        f = p.open("rb", buffering=0)
        try:
            size = os.fstat(f.fileno()).st_size
            head = f.read(_HEADER_PREFIX)
            # A header longer than the prefix is read on in growing steps.
            while (sep := head.find(b"\n\n")) < 0 and len(head) < size:
                more = f.read(len(head) + _HEADER_PREFIX)
                if not more:
                    break
                head += more
            if sep < 0:
                raise VolumeFormatError(f"{p}: malformed header: missing blank-line terminator")
            self.header = _parse_header(head[:sep], p)
            self._path = p
            self._check_length(size - sep - 2)
            f.seek(sep + 2)
        except BaseException:
            f.close()
            raise
        self._file = f
        self._digests = digests
        self._hash = None if digests is None else hashlib.sha256(head[: sep + 2])

    def __enter__(self) -> "_PlaneReader":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def _check_length(self, found: int) -> None:
        if found != self.header.payload_bytes:
            raise VolumeFormatError(
                f"{self._path}: payload length mismatch: expected "
                f"{self.header.payload_bytes} bytes, found {found}"
            )

    def planes(self, volume: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """Yield the z-planes in file order, each read into volume[z] if
        volume is given, else into one reused buffer.

        Each plane is hashed as it is read and, for a binary_mask, checked
        for values above 1. The SHA-256 of the whole file is appended to the
        reader's digests once the last plane is read, before it is yielded.
        """
        depth, height, width = self.header.shape
        buffer = np.empty((height, width), "<u4") if volume is None else None
        for z in range(depth):
            plane = buffer if volume is None else volume[z]
            raw = plane.reshape(-1).view(np.uint8)
            got = 0
            while got < raw.size and (n := self._file.readinto(raw[got:])):
                got += n
            # Short only if the file shrank since its size was checked.
            if got < raw.size:
                self._check_length(z * raw.size + got)
            if self.header.value_kind == KIND_MASK:
                _check_mask_values(plane)
            if self._hash is not None:
                self._hash.update(plane)
                if z == depth - 1:
                    self._digests.append(InputDigest(self._path, self._hash.hexdigest()))
            yield plane


def read_volume(path: str | Path, *, digests: list[InputDigest] | None = None) -> LabelVolume:
    """Read a .vol3d file into a validated LabelVolume.

    The file is opened and read once: the header from a small prefix, the
    payload plane by plane straight into the voxel array, so memory peaks
    at one payload. Of the commands, only fuse, whose slices are one plane
    each, reads a volume whole; the others read theirs one plane at a time
    through the same reader, which a caller that needs the header alone
    can open itself.

    Args:
        path: File to read.
        digests: If given, the SHA-256 of the bytes parsed (header, blank
            line and payload, i.e. the whole file) is appended to it.

    Raises:
        FileNotFoundError: If path does not exist.
        VolumeFormatError: On malformed header, payload length mismatch, or
            a binary_mask payload containing values above 1.
    """
    with _PlaneReader(path, digests) as reader:
        voxels = np.empty(reader.header.shape, "<u4")
        for _ in reader.planes(voxels):
            pass
    return LabelVolume(reader.header, voxels.astype(np.uint32, copy=False))


def write_volume(vol: LabelVolume, path: str | Path) -> None:
    """Write a volume to path in .vol3d format, one z-plane at a time.

    Output bytes are a pure function of the volume, so identical volumes
    produce identical files. The volume is validated before any write, so
    an invalid one leaves no partial file behind. The file is written as
    write_header and write_plane write it, plane by plane straight from
    the voxel array, without a copy.

    Args:
        vol: Volume to store.
        path: Destination file.

    Raises:
        VolumeFormatError: If vol violates an invariant.
        OSError: If the destination is unwritable.
    """
    vol.validate()
    write_header(vol.header, path)
    for z, plane in enumerate(vol.voxels):
        write_plane(vol.header, z, plane, path)


def write_header(header: VolumeHeader, path: str | Path) -> None:
    """Start a .vol3d file at path that holds header's bytes alone.

    write_plane then writes each of the volume's planes into it, in any
    order; once every plane is written, the file holds the volume. This
    pair is the one payload writer: write_volume writes through it too.
    """
    header.validate()
    Path(path).write_bytes(_header_bytes(header))


def write_plane(header: VolumeHeader, z: int, plane: np.ndarray, path: str | Path) -> None:
    """Write plane z of the volume with header into path, in place.

    The plane's bytes go at their offset in the file, past the header, so
    the planes of many files can be written in any order. The file is
    opened for this one write and closed again, so writing into any number
    of files holds one descriptor.

    Raises:
        VolumeFormatError: If z or the plane's shape does not fit header.
        OSError: If path is missing or unwritable.
    """
    shape = header.shape
    if not 0 <= z < shape[0] or plane.shape != shape[1:]:
        raise VolumeFormatError(
            f"plane {z} of shape {plane.shape} does not fit volume shape {shape}"
        )
    data = memoryview(np.ascontiguousarray(plane, dtype="<u4")).cast("B")
    offset = len(_header_bytes(header)) + z * data.nbytes
    fd = os.open(path, os.O_WRONLY)
    try:
        while data:
            written = os.pwrite(fd, data, offset)
            data, offset = data[written:], offset + written
    finally:
        os.close(fd)
