"""Binary field files. A file is one or more records back to back, each a
32-byte textual header + row-major little-endian f64.

Header layout (ASCII, exactly 32 bytes):

    bytes  0-1   magic "GB"
    byte   2     dimension, '1' or '2'
    bytes  3-8   nodes along axis 0, zero-padded decimal, >= 1
    bytes  9-14  nodes along axis 1, zero-padded decimal, >= 1 ("000000" in 1D)
    bytes 15-30  time stamp as 16 uppercase hex digits of the IEEE-754 bits
    byte  31     newline

The hex-encoded time keeps the header textual while making round trips
bit-exact. This module alone decides how fields sit on disk: `write_fields`
writes a file of (u, t) records and `read_fields` reads them back in order.
"""
from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

HEADER_BYTES = 32
# the header's layout; decimal counts and uppercase hex time digits only,
# where int() would also take signs, blanks and underscores
_HEADER = re.compile(rb"GB([12])([0-9]{6})([0-9]{6})([0-9A-F]{16})\n")


class FieldFormatError(ValueError):
    """Malformed header, truncated payload, or a field the header cannot hold."""


def pack_field(u: np.ndarray, t: float) -> bytes:
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2):
        raise FieldFormatError(f"only 1D/2D fields are supported, got ndim={u.ndim}")
    n1 = u.shape[0]
    n2 = u.shape[1] if u.ndim == 2 else 0
    if not 0 < n1 < 10**6 or not (u.ndim == 1 or 0 < n2 < 10**6):
        raise FieldFormatError(f"axis counts {u.shape} do not fit the header's 1..999999")
    tbits = struct.unpack("<Q", struct.pack("<d", float(t)))[0]
    header = b"GB%1d%06d%06d%016X\n" % (u.ndim, n1, n2, tbits)
    assert len(header) == HEADER_BYTES
    payload = np.ascontiguousarray(u, dtype="<f8").tobytes(order="C")
    return header + payload


def _unpack_fields(data: bytes) -> list[tuple[np.ndarray, float]]:
    """Every (u, t) record of data, in order (see read_fields)."""
    records, pos = [], 0
    while pos < len(data) or not records:
        where = f"record {len(records)}"
        header = data[pos : pos + HEADER_BYTES]
        if len(header) < HEADER_BYTES:
            raise FieldFormatError(f"{where}: truncated header")
        m = _HEADER.fullmatch(header)
        if m is None:
            raise FieldFormatError(f"{where}: malformed header {header!r}")
        dim, n1, n2 = int(m[1]), int(m[2]), int(m[3])
        shape = (n1,) if dim == 1 else (n1, n2)
        if min(shape) < 1 or (dim == 1 and n2 != 0):
            raise FieldFormatError(f"{where}: bad axis counts {n1}, {n2} of a {dim}D field")
        count = int(np.prod(shape))
        pos += HEADER_BYTES
        if len(data) < pos + 8 * count:
            raise FieldFormatError(f"{where}: truncated payload, {8 * count} bytes expected")
        t = struct.unpack("<d", struct.pack("<Q", int(m[4], 16)))[0]
        records.append((np.frombuffer(data, "<f8", count, pos).reshape(shape).copy(), t))
        pos += 8 * count
    return records


def write_fields(path, records) -> None:
    """A field file of the (u, t) records, in order, packed one at a time."""
    with open(path, "wb") as f:
        f.writelines(pack_field(u, t) for u, t in records)


def read_fields(path) -> list[tuple[np.ndarray, float]]:
    """Every (u, t) record of a field file, in order. An empty file, or a
    truncated or malformed record, raises FieldFormatError naming the
    record's index (0 for the first)."""
    return _unpack_fields(Path(path).read_bytes())
