"""Attention-guided patch masking.

The frozen original model scores every patch by the attention its class
token pays to it (mean over heads, final block), the top fraction of
patches is selected, and the corresponding image pixels are replaced by
zeros or Gaussian noise.
`forward_chunks` runs every untracked, chunked forward of the package
on a thread pool (numpy's kernels release the GIL), with each chunk's
serial arithmetic and the results in chunk order: the same bytes.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, require_finite
from .tensor import DTYPE, stop_recording
from .vit import AttentionMap, ViTParams, forward


class MaskType(enum.Enum):
    ZERO = "zero"
    GAUSSIAN = "gaussian"


def patch_count(ratio: float, num_patches: int) -> int:
    """k = floor(ratio * N); the tiny epsilon absorbs float
    representation error in decimal ratios."""
    return int(np.floor(ratio * num_patches + 1e-9))


@dataclass(frozen=True)
class MaskSpec:
    """Masking policy: which fraction of patches, replaced with what."""

    ratio: float
    mask_type: MaskType = MaskType.ZERO
    gaussian_std: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"mask ratio must be in [0, 1], got {self.ratio}")
        if self.gaussian_std <= 0.0:
            raise ConfigError(f"gaussian_std must be positive, got {self.gaussian_std}")


@dataclass
class MaskedBatch:
    """Masked images plus, per sample, the ascending patch indices masked."""

    images: np.ndarray
    masked_indices: np.ndarray  # [batch, k] int, each row sorted ascending

    def __post_init__(self):
        idx = self.masked_indices
        if idx.ndim != 2:
            raise DimensionError(f"masked_indices must be [batch, k], got {idx.shape}")
        if idx.shape[1] > 1 and not (np.diff(idx, axis=1) > 0).all():
            raise DimensionError("masked indices must be strictly ascending per sample")


def class_token_attention(attn: AttentionMap) -> np.ndarray:
    """Head-averaged attention from the class token to each patch: [B, N]."""
    n = attn.weights.shape[-1] - 1
    if n < 1:
        raise ConfigError("attention map has no patch tokens")
    return attn.weights[:, :, 0, 1:].mean(axis=1)


def pool_size() -> int:
    """The CPUs this process may run on: the most workers a chunk map uses."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def forward_chunks(params: ViTParams, sets: Sequence[np.ndarray], chunk: int,
                   capture_attention: bool = False) -> list[list[np.ndarray]]:
    """Per array in `sets`, its logits [B, classes] and, when capturing,
    its class-token attention scores [B, N], from one untracked forward
    per `chunk` rows. The chunks run on min(`pool_size()`, chunks)
    threads while the caller blocks with no tape active; an error in a
    chunk is raised as the serial loop would have raised it."""
    jobs = [(images, start) for images in sets for start in range(0, len(images), chunk)]

    def run(job: tuple[np.ndarray, int]) -> list[np.ndarray]:
        images, start = job
        out = forward(params, images[start:start + chunk], capture_attention=capture_attention)
        return [out.logits.values] + ([class_token_attention(out.last_attention)]
                                      if capture_attention else [])

    with stop_recording(), ThreadPoolExecutor(max(1, min(pool_size(), len(jobs)))) as pool:
        results = iter(list(pool.map(run, jobs)))  # chunk order; joined before the tape returns
    return [[np.concatenate(parts, axis=0) for parts in zip(*islice(results, -(-len(s) // chunk)))]
            for s in sets]


def select_top_k(scores: np.ndarray, ratio: float) -> np.ndarray:
    """Indices of the k = floor(ratio*N) largest scores per row.

    Ties prefer the lower patch index; each output row is sorted
    ascending. Invariant under any positive rescaling of the scores.
    """
    scores = np.asarray(scores, dtype=DTYPE)
    if scores.ndim != 2:
        raise DimensionError(f"scores must be [batch, patches], got {scores.shape}")
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"ratio must be in [0, 1], got {ratio}")
    n = scores.shape[1]
    k = patch_count(ratio, n)
    order = np.argsort(-scores, axis=1, kind="stable")  # stable: lower index wins ties
    return np.sort(order[:, :k], axis=1)


def apply_mask(
    images: np.ndarray,
    indices: np.ndarray,
    spec: MaskSpec,
    patch_size: int,
    seed: int = 0,
) -> MaskedBatch:
    """Replace the pixels of the selected patches; all others unchanged.

    Gaussian replacement draws per sample from a generator seeded
    `seed + sample_index`, so samples can be processed independently.
    """
    images = np.asarray(images, dtype=DTYPE)
    if images.ndim != 4:
        raise DimensionError(f"images must be [B, C, S, S], got {images.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    b, c, s, _ = images.shape
    if indices.ndim != 2 or len(indices) != b:
        raise DimensionError(f"mask indices must be [{b}, k], got {indices.shape}")
    grid = s // patch_size
    n = grid * grid
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise IndexError(f"patch index outside [0, {n}) in mask indices")

    # pixel coordinates of every selected patch: rows [B, k, p, 1], cols [B, k, 1, p]
    p = patch_size
    offsets = np.arange(p)
    rows = (indices // grid * p)[:, :, None, None] + offsets[:, None]
    cols = (indices % grid * p)[:, :, None, None] + offsets
    out = images.copy()
    pixels = out.transpose(0, 2, 3, 1)  # [B, S, S, C] view: a patch pixel holds all channels
    if spec.mask_type is MaskType.ZERO:
        pixels[np.arange(b)[:, None, None, None], rows, cols] = 0.0
    else:
        for i in range(b):
            # one (k, c, p, p) draw is the stream of k successive (c, p, p) draws
            noise = np.random.Generator(np.random.PCG64(seed + i)).normal(
                0.0, spec.gaussian_std, (indices.shape[1], c, p, p))
            pixels[i, rows[i], cols[i]] = noise.transpose(0, 2, 3, 1)
    return MaskedBatch(images=out, masked_indices=indices)


def mask_from_scores(images: np.ndarray, scores: np.ndarray, spec: MaskSpec,
                     patch_size: int, seed: int = 0) -> MaskedBatch:
    """Mask the top `spec.ratio` fraction of patches by `scores` [B, N]."""
    return apply_mask(images, select_top_k(scores, spec.ratio), spec, patch_size, seed=seed)


def build_masked_view(
    model: ViTParams,
    images: np.ndarray,
    spec: MaskSpec,
    seed: int = 0,
) -> MaskedBatch:
    """Mask `images` guided by `model`'s own final-block attention.

    `model` is the frozen reference model; its forward pass runs with
    gradient recording suppressed.
    """
    with stop_recording():
        out = forward(model, images, capture_attention=True)
    scores = class_token_attention(out.last_attention)
    return mask_from_scores(images, scores, spec, model.config.patch_size, seed=seed)
