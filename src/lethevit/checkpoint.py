"""One binary container for checkpoints (`.ltvt`) and datasets (`.ltds`).

Container, integers little-endian: magic (4 bytes, b"LTVT" or b"LTDS"),
version u32 (1), a format header, (descriptor, payload) pairs, and a u64
checksum, the sum of all payload bytes mod 2**64. The header and the
descriptors (names, ranks, dims) are outside the checksum. `Reader`
checks magic, version, truncation, checksum and trailing bytes, and
raises `FormatError` naming the byte offset.

Checkpoint layout: the header is the entry count u32; each entry is
name_len u16, UTF-8 name, rank u8 and rank u32 dims, then a float32
C-order payload. Loading returns float64 arrays. Entries are sorted by
name, so identical parameter sets serialize to identical bytes. Every
output file, containers and CSVs alike, is written through `replacing`.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from typing import IO, Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import FormatError

MAGIC = b"LTVT"
VERSION = 1


def payload_checksum(chunks: Iterable) -> int:
    """Sum of the bytes of every buffer in `chunks`, mod 2**64."""
    return sum(int(np.frombuffer(chunk, dtype=np.uint8).sum(dtype=np.uint64))
               for chunk in chunks) % 2**64


@contextlib.contextmanager
def replacing(path: str, mode: str = "wb") -> Iterator[IO]:
    """A file open for writing in `mode` whose contents replace `path`
    only when the block completes. It is a temporary file beside `path`,
    `os.replace`d onto it at the end (atomic within one POSIX
    filesystem), with the permissions a plain `open` gives. On any
    exception, KeyboardInterrupt included, the temporary file is removed
    and `path` keeps what it held."""
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode) as f:
            yield f
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


def write_container(path: str, magic: bytes, header: bytes,
                    entries: list[tuple[bytes, bytes]]) -> None:
    """Write magic, version, `header`, each (descriptor, payload) pair of
    `entries`, then the checksum of the payloads."""
    with replacing(path) as f:
        f.write(magic + struct.pack("<I", VERSION) + header)
        for descriptor, payload in entries:
            f.write(descriptor + payload)
        f.write(struct.pack("<Q", payload_checksum(payload for _, payload in entries)))


class Reader:
    """One whole container file, checked as it is read in order: magic and
    version at once, each `take` and `payload` in turn, the rest at `close`."""

    def __init__(self, path: str, magic: bytes):
        with open(path, "rb") as f:
            self.data = memoryview(f.read())
        self.offset = 0
        self.payloads: list[memoryview] = []
        found = bytes(self.take(4, "magic bytes"))
        if found != magic:
            raise FormatError(f"bad magic bytes {found!r}, expected {magic!r}", 0)
        version, = self.unpack("<I", "version")
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}, expected {VERSION}", 4)

    def take(self, count: int, what: str) -> memoryview:
        """The next `count` bytes (a Python int: a hostile size cannot overflow)."""
        end = self.offset + count
        if end > len(self.data):
            raise FormatError(f"truncated file while reading {what}", len(self.data))
        self.offset = end
        return self.data[end - count:end]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def payload(self, count: int, what: str) -> memoryview:
        """Like `take`, for bytes the checksum covers."""
        chunk = self.take(count, what)
        self.payloads.append(chunk)
        return chunk

    def close(self) -> None:
        """Check the checksum, then that no byte follows it."""
        at = self.offset
        stored, = self.unpack("<Q", "checksum")
        computed = payload_checksum(self.payloads)
        if stored != computed:
            raise FormatError(f"checksum mismatch: stored {stored}, computed {computed}", at)
        if self.offset != len(self.data):
            raise FormatError("trailing bytes after checksum", self.offset)


def save_arrays(path: str, arrays: Mapping[str, np.ndarray]) -> None:
    entries = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float32)
        encoded = name.encode("utf-8")
        entries.append((struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                                    arr.ndim, *arr.shape), arr.tobytes()))
    write_container(path, MAGIC, struct.pack("<I", len(entries)), entries)


def load_arrays(path: str, offsets: Optional[dict[str, int]] = None) -> dict[str, np.ndarray]:
    """Load a checkpoint, validating the container and each entry; fill
    `offsets`, if given, with each entry's starting byte offset by name."""
    arrays: dict[str, np.ndarray] = {}
    reader = Reader(path, MAGIC)
    count, = reader.unpack("<I", "entry count")
    for i in range(count):
        start = reader.offset
        name_len, = reader.unpack("<H", f"name length of entry {i}")
        try:
            name = str(reader.take(name_len, f"name of entry {i}"), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"name of entry {i} is not valid UTF-8",
                              start + 2 + exc.start) from None
        if name in arrays:
            raise FormatError(f"duplicate entry name '{name}'", start)
        rank, = reader.unpack("<B", f"rank of '{name}'")
        dims_offset = reader.offset
        dims = reader.unpack(f"<{rank}I", f"dims of '{name}'")
        payload = reader.payload(4 * math.prod(dims),
                                 f"the payload the dims of '{name}' at byte {dims_offset} declare")
        try:
            arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError:  # more dims than numpy allows: the payload fits when one is 0
            raise FormatError(f"rank {rank} of '{name}' is above numpy's limit",
                              dims_offset - 1) from None
        if offsets is not None:
            offsets[name] = start
    reader.close()
    return {name: values.astype(np.float64) for name, values in arrays.items()}
