"""Toy dataset generation, forget/retain splitting, and persistence.

The synthetic dataset separates class-level structure from
sample-specific detail on purpose: every image of a class shares the
same low-frequency orientation grating (a global, highly redundant
signal), while high-contrast marks at random positions and pixel noise
are unique per sample. Random zero-valued occlusion blocks are part of
the data distribution, so models trained on it stay robust to small
occlusions. A model can classify from the grating alone, but can only
tell one training sample from another by its marks, which is exactly
the separation the attention-guided masking exploits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, FormatError

MAGIC = b"LTDS"
VERSION = 1

# toy image composition
GRATING_CYCLES = 1.0
GRATING_AMPLITUDE = 0.8
MARKS_PER_SAMPLE = 3
MARK_SIZE = 3
MARK_AMPLITUDE = 2.5
OCCLUSIONS_PER_SAMPLE = 4
OCCLUSION_SIZE = 5
NOISE_STD = 1.2


@dataclass
class LabeledDataset:
    """Images in normalized (zero-mean, unit-ish) pixel space plus labels."""

    images: np.ndarray  # [n, C, S, S] float64
    labels: np.ndarray  # [n] int64
    class_count: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DimensionError(f"images must be [n, C, S, S], got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise DimensionError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.images) < 1:
            raise ContractError("dataset must contain at least one sample")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ConfigError(f"labels outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.images[indices], self.labels[indices], self.class_count)


@dataclass
class DataSplit:
    """Partition of a training set into forget and retain, plus a test set."""

    train: LabeledDataset
    forget: np.ndarray  # indices into train
    retain: np.ndarray  # indices into train
    test: LabeledDataset

    def __post_init__(self):
        forget = np.asarray(self.forget, dtype=np.int64)
        retain = np.asarray(self.retain, dtype=np.int64)
        n = len(self.train)
        combined = np.concatenate([forget, retain])
        if len(np.intersect1d(forget, retain)) != 0:
            raise ConfigError("forget and retain sets overlap")
        if len(combined) != n or len(np.unique(combined)) != n:
            raise ConfigError("forget and retain sets do not cover the training set")
        self.forget = forget
        self.retain = retain

    def forget_set(self) -> LabeledDataset:
        return self.train.subset(self.forget)

    def retain_set(self) -> LabeledDataset:
        return self.train.subset(self.retain)


def split_random_forget(
    train: LabeledDataset, test: LabeledDataset, ratio: float, seed: int
) -> DataSplit:
    """Draw floor(ratio * n) forget indices uniformly without replacement."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"forget ratio must be in (0, 1), got {ratio}")
    n = len(train)
    k = int(np.floor(ratio * n + 1e-9))
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    forget = np.sort(perm[:k])
    retain = np.sort(perm[k:])
    return DataSplit(train=train, forget=forget, retain=retain, test=test)


def _class_pattern(label: int, class_count: int, size: int) -> np.ndarray:
    """Low-frequency orientation grating shared by every sample of a class."""
    angle = np.pi * label / class_count
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    phase = xx * np.cos(angle) + yy * np.sin(angle)
    return GRATING_AMPLITUDE * np.cos(2.0 * np.pi * GRATING_CYCLES * phase)


def generate_toy_dataset(
    class_count: int,
    samples_per_class: int,
    image_size: int,
    seed: int,
    channels: int = 1,
) -> LabeledDataset:
    """Synthesize a dataset of `class_count * samples_per_class` images.

    Each image = class grating + per-sample high-contrast marks + noise
    + a few zero occlusion blocks, fully determined by `seed`.
    """
    if class_count < 2:
        raise ConfigError(f"need at least 2 classes, got {class_count}")
    if samples_per_class < 1 or image_size < MARK_SIZE:
        raise ConfigError("samples_per_class must be >= 1 and image_size >= mark size")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = class_count * samples_per_class
    images = np.empty((n, channels, image_size, image_size), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    patterns = [_class_pattern(c, class_count, image_size) for c in range(class_count)]
    lo = MARK_SIZE // 2
    hi = image_size - MARK_SIZE + lo  # top-left corner range keeps marks inside

    occ_hi = max(image_size - OCCLUSION_SIZE, 1)

    i = 0
    for c in range(class_count):
        for _ in range(samples_per_class):
            img = np.repeat(patterns[c][None, :, :], channels, axis=0).copy()
            for _ in range(MARKS_PER_SAMPLE):
                r = int(rng.integers(lo, hi))
                col = int(rng.integers(lo, hi))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                img[:, r - lo:r - lo + MARK_SIZE, col - lo:col - lo + MARK_SIZE] = (
                    sign * MARK_AMPLITUDE
                )
            img += rng.normal(0.0, NOISE_STD, size=img.shape)
            for _ in range(OCCLUSIONS_PER_SAMPLE):
                r = int(rng.integers(0, occ_hi))
                col = int(rng.integers(0, occ_hi))
                img[:, r:r + OCCLUSION_SIZE, col:col + OCCLUSION_SIZE] = 0.0
            images[i] = img
            labels[i] = c
            i += 1
    return LabeledDataset(images=images, labels=labels, class_count=class_count)


def save_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write the LTDS binary format (see `load_dataset` for the layout)."""
    n, channels, size, _ = dataset.images.shape
    pixels = np.ascontiguousarray(dataset.images, dtype="<f4").tobytes()
    labels = np.ascontiguousarray(dataset.labels, dtype="<u2").tobytes()
    payload = pixels + labels
    checksum = int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<IIII", n, dataset.class_count, size, channels))
        f.write(payload)
        f.write(struct.pack("<Q", checksum))


def load_dataset(path: str) -> LabeledDataset:
    """Read an LTDS file:

    magic "LTDS", version u32, then n / class_count / image_size /
    channels (u32 each), float32 pixels, u16 labels, u64 checksum over
    the pixel+label payload bytes. Round-trips are bit-exact at float32
    precision.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"bad magic bytes {data[:4]!r}, expected {MAGIC!r}", 0)
    if len(data) < 8:
        raise FormatError("truncated file while reading version", len(data))
    version = struct.unpack_from("<I", data, 4)[0]
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}, expected {VERSION}", 4)
    if len(data) < 24:
        raise FormatError("truncated file while reading header", len(data))
    n, class_count, size, channels = struct.unpack_from("<IIII", data, 8)
    pixel_bytes = 4 * n * channels * size * size
    label_bytes = 2 * n
    body_end = 24 + pixel_bytes + label_bytes
    if len(data) < body_end + 8:
        raise FormatError("truncated file while reading payload", len(data))
    if len(data) > body_end + 8:
        raise FormatError("trailing bytes after checksum", body_end + 8)
    payload = data[24:body_end]
    stored = struct.unpack_from("<Q", data, body_end)[0]
    computed = int(np.frombuffer(payload, dtype=np.uint8).sum(dtype=np.uint64))
    if stored != computed:
        raise FormatError(f"checksum mismatch: stored {stored}, computed {computed}", body_end)
    images = (
        np.frombuffer(payload[:pixel_bytes], dtype="<f4")
        .reshape(n, channels, size, size)
        .astype(np.float64)
    )
    labels = np.frombuffer(payload[pixel_bytes:], dtype="<u2").astype(np.int64)
    bad = np.flatnonzero(labels >= class_count)
    if bad.size:
        raise FormatError(
            f"label {int(labels[bad[0]])} outside [0, {class_count})",
            24 + pixel_bytes + 2 * int(bad[0]),
        )
    return LabeledDataset(images=images, labels=labels, class_count=class_count)
