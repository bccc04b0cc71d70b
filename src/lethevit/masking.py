"""Attention-guided patch masking.

The frozen original model scores every patch by the attention its class
token pays to it (mean over heads, final block), the top fraction of
patches is selected, and the corresponding image pixels are replaced by
zeros or Gaussian noise. `apply_mask`, `mask_from_scores` and
`build_masked_view` return the masked [B, C, S, S] array; the masked
indices are the caller's, or `select_top_k(scores, ratio)`.
`forward_chunks` runs every untracked, chunked forward of the package
on a thread pool (numpy's kernels release the GIL), with each chunk's
serial arithmetic and the results in chunk order: the same bytes. The
forwards run on a gradient-free copy of the model (`ViTParams.frozen()`),
so they never record, even beside a tape open on another thread. A set
may be a `MaskedSet`, which the workers mask chunk by chunk just before
the forward, so a masked set never exists whole and its masking runs on
the pool too.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, require_finite
from .tensor import DTYPE
from .vit import ViTParams, forward


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


def class_token_attention(weights: np.ndarray) -> np.ndarray:
    """Head-averaged attention from the class token to each patch: [B, N],
    from the [B, H, 1, T] weights `forward` captures."""
    if weights.shape[-1] < 2:
        raise ConfigError("attention map has no patch tokens")
    return weights[:, :, 0, 1:].mean(axis=1)


def pool_size() -> int:
    """The CPUs this process may run on: the most workers a chunk map uses."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class MaskedSet(NamedTuple):
    """`images` masked by `mask_from_scores(images, scores, spec,
    patch_size, seed)`, as a set `forward_chunks` masks chunk by chunk."""

    images: np.ndarray
    scores: np.ndarray  # [B, N] class-token attention of `images`
    spec: MaskSpec
    seed: int = 0


def forward_chunks(params: ViTParams, sets: Sequence[np.ndarray | MaskedSet], chunk: int,
                   capture_attention: bool = False) -> list[list[np.ndarray]]:
    """Per set in `sets`, its logits [B, classes] and, when capturing,
    its class-token attention scores [B, N], from one untracked forward
    per `chunk` rows. A `MaskedSet` is masked by the workers, each chunk
    just before its forward, the chunk from row `start` seeded
    `seed + start`; as `apply_mask` seeds row i with `seed + i`, these
    are the rows of masking the whole set at once, but only the chunks
    in flight exist masked. The chunks run on min(`pool_size()`,
    chunks) threads and on one gradient-free copy of `params`, so none
    records on a tape, not even one the caller or another thread has
    open; an error in a chunk is raised as the serial loop would have
    raised it. An empty set is a `DimensionError`, as `forward` of zero
    rows is, raised before any chunk runs."""
    rows = [len(s.images if isinstance(s, MaskedSet) else s) for s in sets]
    if 0 in rows:
        raise DimensionError(f"set {rows.index(0)} of {len(rows)} has no images to forward")
    jobs = [(s, start) for s, n in zip(sets, rows) for start in range(0, n, chunk)]
    frozen = params.frozen()
    patch_size = params.config.patch_size

    def run(job: tuple[np.ndarray | MaskedSet, int]) -> list[np.ndarray]:
        s, start = job
        stop = start + chunk
        if isinstance(s, MaskedSet):
            images = mask_from_scores(s.images[start:stop], s.scores[start:stop], s.spec,
                                      patch_size, s.seed + start)
        else:
            images = s[start:stop]
        out = forward(frozen, images, capture_attention=capture_attention)
        return [out.logits.values] + ([class_token_attention(out.last_attention)]
                                      if capture_attention else [])

    with ThreadPoolExecutor(max(1, min(pool_size(), len(jobs)))) as pool:
        results = iter(list(pool.map(run, jobs)))  # chunk order
    return [[np.concatenate(parts, axis=0) for parts in zip(*islice(results, -(-n // chunk)))]
            for n in rows]


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
) -> np.ndarray:
    """A copy of `images` [B, C, S, S] with the pixels of the patches in
    `indices` [B, k] replaced; all others unchanged.

    Gaussian replacement draws per sample from a generator seeded
    `seed + sample_index`, so samples can be processed independently;
    a sample's draws fill its patches in the order of its row of
    `indices`.
    Square images that `patch_size` tiles exactly and patch indices in
    [0, N) are checked before any pixel is written (`DimensionError`).
    """
    images = np.asarray(images, dtype=DTYPE)
    if images.ndim != 4 or images.shape[2] != images.shape[3]:
        raise DimensionError(f"images must be [B, C, S, S], got {images.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    b, c, s, _ = images.shape
    if indices.ndim != 2 or len(indices) != b:
        raise DimensionError(f"mask indices must be [{b}, k], got {indices.shape}")
    if patch_size < 1 or s % patch_size:
        raise DimensionError(f"patch size {patch_size} does not tile images of shape "
                             f"{images.shape}")
    grid = s // patch_size
    n = grid * grid
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise DimensionError(f"patch index outside [0, {n}) in mask indices of shape "
                             f"{indices.shape}")

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
    return out


def mask_from_scores(images: np.ndarray, scores: np.ndarray, spec: MaskSpec,
                     patch_size: int, seed: int = 0) -> np.ndarray:
    """Mask the top `spec.ratio` fraction of patches by `scores` [B, N]."""
    return apply_mask(images, select_top_k(scores, spec.ratio), spec, patch_size, seed=seed)


def build_masked_view(
    model: ViTParams,
    images: np.ndarray,
    spec: MaskSpec,
    seed: int = 0,
) -> np.ndarray:
    """Mask `images` guided by `model`'s own final-block attention.

    `model` is the frozen reference model; its forward runs on a
    gradient-free copy, so it records on no tape.
    """
    out = forward(model.frozen(), images, capture_attention=True)
    scores = class_token_attention(out.last_attention)
    return mask_from_scores(images, scores, spec, model.config.patch_size, seed=seed)
