"""Binary tensor checkpoint format.

Layout (all integers little-endian):

    magic    4 bytes  b"LTVT"
    version  u32      currently 1
    count    u32      number of named arrays
    entries  count times:
        name_len u16, name UTF-8 bytes
        rank     u8
        dims     rank * u32
        payload  float32 values, C order
    checksum u64      sum of all payload bytes mod 2**64

Values are stored as float32 regardless of the in-memory dtype; loading
returns float64 arrays. Entries are written sorted by name so identical
parameter sets always serialize to identical bytes.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO, Mapping, Optional

import numpy as np

from .errors import FormatError

MAGIC = b"LTVT"
VERSION = 1


def payload_checksum(chunks: list[bytes]) -> int:
    total = np.uint64(0)
    for chunk in chunks:
        total += np.frombuffer(chunk, dtype=np.uint8).sum(dtype=np.uint64)
    return int(total)


def save_arrays(path: str, arrays: Mapping[str, np.ndarray]) -> None:
    chunks: list[bytes] = []
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float32)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            payload = arr.tobytes()
            chunks.append(payload)
            f.write(payload)
        f.write(struct.pack("<Q", payload_checksum(chunks)))


def _read_exact(f: BinaryIO, count: int, offset: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file while reading {what}", offset + len(data))
    return data


def load_arrays(path: str, offsets: Optional[dict[str, int]] = None) -> dict[str, np.ndarray]:
    """Load a checkpoint, validating magic, version and checksum; fill
    `offsets`, if given, with each entry's starting byte offset by name."""
    arrays: dict[str, np.ndarray] = {}
    chunks: list[bytes] = []
    with open(path, "rb") as f:
        offset = 0
        magic = _read_exact(f, 4, offset, "magic bytes")
        if magic != MAGIC:
            raise FormatError(f"bad magic bytes {magic!r}, expected {MAGIC!r}", 0)
        offset += 4
        version = struct.unpack("<I", _read_exact(f, 4, offset, "version"))[0]
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}, expected {VERSION}", offset)
        offset += 4
        count = struct.unpack("<I", _read_exact(f, 4, offset, "entry count"))[0]
        offset += 4
        for i in range(count):
            start = offset
            name_len = struct.unpack("<H", _read_exact(f, 2, offset, f"name length of entry {i}"))[0]
            offset += 2
            raw_name = _read_exact(f, name_len, offset, f"name of entry {i}")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"name of entry {i} is not valid UTF-8",
                                  offset + exc.start) from None
            if name in arrays:
                raise FormatError(f"duplicate entry name '{name}'", start)
            offset += name_len
            rank = struct.unpack("<B", _read_exact(f, 1, offset, f"rank of '{name}'"))[0]
            offset += 1
            dims_offset = offset
            dims = []
            for _ in range(rank):
                dims.append(struct.unpack("<I", _read_exact(f, 4, offset, f"dims of '{name}'"))[0])
                offset += 4
            # Python ints: hostile dims overflow int64 and must fail before any read
            n_bytes = 4 * math.prod(dims)
            left = os.fstat(f.fileno()).st_size - offset
            if n_bytes > left:
                raise FormatError(
                    f"truncated file: the dims of '{name}' at byte {dims_offset} declare "
                    f"a payload larger than the {left} bytes left", offset + left)
            payload = _read_exact(f, n_bytes, offset, f"payload of '{name}'")
            offset += n_bytes
            chunks.append(payload)
            values = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
            arrays[name] = values
            if offsets is not None:
                offsets[name] = start
        stored = struct.unpack("<Q", _read_exact(f, 8, offset, "checksum"))[0]
        computed = payload_checksum(chunks)
        if stored != computed:
            raise FormatError(
                f"checksum mismatch: stored {stored}, computed {computed}", offset
            )
        if f.read(1):
            raise FormatError("trailing bytes after checksum", offset + 8)
    return arrays
