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


def read_digested(path: str | Path, digests: list[InputDigest] | None) -> bytes:
    """Read a whole file once and, if digests is given, append the SHA-256
    of what was read to it."""
    data = Path(path).read_bytes()
    if digests is not None:
        digests.append(InputDigest(Path(path), hashlib.sha256(data).hexdigest()))
    return data
