"""The one grammar of coreseg's key=value text formats.

The .vol3d header, the embedding .meta file, the grid and selection
manifests share it: text lines of the form key=value, each expected key
exactly once, integers as comma-separated runs of ASCII digits, at
most 20 after any leading zeros, and floats as ASCII decimals.
Every failure raises the calling reader's own error class, with a
message that starts with the reader's context (the file and what it
holds).
"""

from __future__ import annotations

import re
from typing import Collection

from .errors import CoresegError

# Sign, leading zeros, and at most 20 digits that int() reads.
_INT = re.compile(r"(-?)0*([0-9]{1,20})")
# float()'s own grammar without "_", surrounding whitespace or non-ASCII
# digits: an optional sign, then a decimal with an optional exponent, or
# inf, infinity or nan in any case.
_FLOAT = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.ASCII | re.IGNORECASE,
)


def decode_lines(
    raw: bytes, error: type[CoresegError], context: str, encoding: str = "ascii"
) -> list[str]:
    """Decode raw and split it into lines, refusing undecodable bytes."""
    try:
        return raw.decode(encoding).splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{context}: not {encoding.upper()}") from exc


def split_fields(
    lines: list[str],
    keys: Collection[str],
    error: type[CoresegError],
    context: str,
) -> dict[str, str]:
    """Split key=value lines into one value per key of keys.

    A line without "=", a duplicate key, a missing key and an unknown key
    are each refused.
    """
    fields: dict[str, str] = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{context} line {line!r}")
        if key in fields:
            raise error(f"{context}: duplicate key {key!r}")
        fields[key] = value
    missing = set(keys) - set(fields)
    if missing:
        raise error(f"{context}: missing keys {sorted(missing)}")
    unknown = set(fields) - set(keys)
    if unknown:
        raise error(f"{context}: unknown keys {sorted(unknown)}")
    return fields


def parse_ints(
    text: str,
    error: type[CoresegError],
    context: str,
    count: int | None = None,
    *,
    signed: bool = False,
) -> tuple[int, ...]:
    """Parse comma-separated integers, exactly count of them if given.

    Each is ASCII digits, at most 20 after any leading zeros, after a "-"
    if signed. So int() is never handed text it could refuse.
    """
    matches = [_INT.fullmatch(p) for p in text.split(",")]
    if (count is not None and len(matches) != count) or not all(
        m and (signed or not m[1]) for m in matches
    ):
        raise error(f"{context} {text!r}")
    return tuple(int(m[1] + m[2]) for m in matches)


def parse_float(text: str, error: type[CoresegError], context: str) -> float:
    """Parse one ASCII decimal number; every repr(float) reads back.

    float() alone would also read "_" separators, surrounding whitespace
    and non-ASCII digits; those are refused with error(context text).
    """
    if not _FLOAT.fullmatch(text):
        raise error(f"{context} {text!r}")
    return float(text)
