"""Digests of the bytes a reader parsed, for run manifests.

A reader that is handed a ``digests`` list appends one InputDigest per
file it reads, computed from the very bytes it parsed, so a run manifest
never hashes a file a second time and never records bytes the run did
not use.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class InputDigest:
    """An input file and the SHA-256 of the bytes read from it.

    It is path-like, so it can stand wherever a path is expected.
    """

    path: Path
    sha256: str

    @property
    def name(self) -> str:
        return self.path.name

    def __fspath__(self) -> str:
        return os.fspath(self.path)


def record_digest(digests: list[InputDigest] | None, path: str | Path, *chunks) -> None:
    """Append the SHA-256 of chunks, read from path, to digests if given.

    Each chunk is any C-contiguous buffer (bytes, a NumPy array); nothing
    is copied, and nothing is hashed when digests is None.
    """
    if digests is None:
        return
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    digests.append(InputDigest(Path(path), h.hexdigest()))


def read_digested(path: str | Path, digests: list[InputDigest] | None) -> bytes:
    """Read a whole file once and record the digest of what was read."""
    data = Path(path).read_bytes()
    record_digest(digests, path, data)
    return data
