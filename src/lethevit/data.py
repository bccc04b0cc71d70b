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

Datasets persist as LTDS, a layout on the one container of
`lethevit.checkpoint` (see `load_dataset`), which checks the file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import Reader, write_container
from .errors import ConfigError, ContractError, DimensionError, FormatError, require_nonnegative

MAGIC = b"LTDS"

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
        if self.labels.dtype.kind not in "iu":
            raise ConfigError(f"labels must be integers, got dtype {self.labels.dtype}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ConfigError(f"labels outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.images[indices], self.labels[indices], self.class_count)


def _indices(name: str, values, n: int) -> np.ndarray:
    """`values` as int64 indices into a set of `n` images; anything that is
    not a 1-D array of integers in [0, n) is a ConfigError naming `name`."""
    raw = np.asarray(values)
    if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
        raise ConfigError(f"{name} indices must be a 1-D integer array, "
                          f"got dtype {raw.dtype} and shape {raw.shape}")
    if raw.size and (raw.min() < 0 or raw.max() >= n):
        bad = raw[(raw < 0) | (raw >= n)][0]
        raise ConfigError(f"{name} index {bad} outside [0, {n})")
    return raw.astype(np.int64)


@dataclass
class DataSplit:
    """Partition of a training set into forget and retain, plus a test set."""

    train: LabeledDataset
    forget: np.ndarray  # indices into train
    retain: np.ndarray  # indices into train
    test: LabeledDataset

    def __post_init__(self):
        n = len(self.train)
        forget = _indices("forget", self.forget, n)
        retain = _indices("retain", self.retain, n)
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
    require_nonnegative(seed, "seed")
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
    if samples_per_class < 1 or image_size <= MARK_SIZE:  # the mark draws need hi > lo
        raise ConfigError(f"samples_per_class must be >= 1 and image_size > {MARK_SIZE} "
                          "(the mark size)")
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    require_nonnegative(seed, "seed")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = class_count * samples_per_class
    try:
        images = np.empty((n, channels, image_size, image_size), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: numpy's "array is too big"
        raise ConfigError(
            f"class_count {class_count} x samples_per_class {samples_per_class} x channels "
            f"{channels} x image_size {image_size}^2 float64 images need "
            f"{n * channels * image_size ** 2 * 8} bytes, which cannot be allocated") from None
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


# the LTDS header's u32 fields from byte 8 and their bounds; labels are u16
HEADER_FIELDS = (("n", 1, 2**32 - 1), ("class_count", 2, 2**16),
                 ("image_size", 1, 2**32 - 1), ("channels", 1, 2**32 - 1))


def _header_fault(header: tuple) -> tuple[str, int] | None:
    """The first header field outside its bounds, as (message, byte offset)."""
    for i, ((field, low, high), value) in enumerate(zip(HEADER_FIELDS, header)):
        if not low <= value <= high:
            return f"header field {field} = {value} is outside [{low}, {high}]", 8 + 4 * i
    return None


def save_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write the LTDS layout (see `load_dataset`); a header `load_dataset`
    would refuse raises `ConfigError` before the file is opened."""
    n, channels, size, _ = dataset.images.shape
    fault = _header_fault((n, dataset.class_count, size, channels))
    if fault:
        raise ConfigError(f"cannot save {path}: {fault[0]}")
    header = struct.pack("<IIII", n, dataset.class_count, size, channels)
    pixels = np.ascontiguousarray(dataset.images, dtype="<f4").tobytes()
    labels = np.ascontiguousarray(dataset.labels, dtype="<u2").tobytes()
    write_container(path, MAGIC, header, [(b"", pixels), (b"", labels)])


def load_dataset(path: str) -> LabeledDataset:
    """Read an LTDS file: the container of `lethevit.checkpoint` with
    magic "LTDS", a header of n / class_count / image_size / channels
    (`HEADER_FIELDS`) and two payloads, float32 pixels then u16 labels.
    Round-trips are bit-exact at float32 precision."""
    reader = Reader(path, MAGIC)
    header = reader.unpack("<IIII", "header")
    fault = _header_fault(header)
    if fault:
        raise FormatError(*fault)
    n, class_count, size, channels = header
    pixels = reader.payload(4 * n * channels * size * size, "pixels")
    labels_offset = reader.offset
    labels = np.frombuffer(reader.payload(2 * n, "labels"), dtype="<u2").astype(np.int64)
    reader.close()
    bad = np.flatnonzero(labels >= class_count)
    if bad.size:
        raise FormatError(f"label {int(labels[bad[0]])} outside [0, {class_count})",
                          labels_offset + 2 * int(bad[0]))
    images = np.frombuffer(pixels, dtype="<f4").reshape(n, channels, size, size)
    return LabeledDataset(images=images.astype(np.float64), labels=labels,
                          class_count=class_count)
