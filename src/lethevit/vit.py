"""A minimal Vision Transformer classifier with class-token pooling.

The forward pass is built entirely from the autodiff ops in
`lethevit.tensor` (the fused `attention` and `mlp` ops carry each
block), uses pre-norm blocks (norm -> attention -> residual,
norm -> MLP -> residual), learned positional embeddings, and can expose
the final block's post-softmax attention weights for masking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import checkpoint
from .errors import ConfigError, DimensionError
from .tensor import (
    DTYPE,
    Tensor,
    add,
    attention,
    concat,
    layer_norm,
    linear,
    mlp,
    repeat_batch,
    take_token,
)
# not called by `forward`; bound here because the per-layer benchmark
# trace (perfbench/layertrace.py) wraps these names on this module
from .tensor import gelu, matmul, reshape, scale, softmax_rows, transpose  # noqa: F401

INIT_STD = 0.02

# reserved checkpoint entry holding the architecture hyperparameters
_CONFIG_KEY = "__config__"


@dataclass(frozen=True)
class ViTConfig:
    """Architecture hyperparameters; all array shapes derive from these."""

    image_size: int = 32
    patch_size: int = 4
    channels: int = 1
    depth: int = 2
    heads: int = 2
    dim: int = 32
    mlp_ratio: int = 2
    num_classes: int = 3

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        for name in ("image_size", "patch_size", "channels", "depth", "heads", "dim",
                     "mlp_ratio", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def num_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @property
    def tokens(self) -> int:
        return self.num_patches + 1

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size

    def to_array(self) -> np.ndarray:
        return np.array(
            [self.image_size, self.patch_size, self.channels, self.depth,
             self.heads, self.dim, self.mlp_ratio, self.num_classes],
            dtype=DTYPE,
        )

    @staticmethod
    def from_array(values: np.ndarray) -> "ViTConfig":
        vals = [int(v) for v in np.asarray(values).ravel()]
        if len(vals) != 8:
            raise ConfigError(f"config entry must hold 8 values, got {len(vals)}")
        return ViTConfig(*vals)


@dataclass
class AttentionMap:
    """Post-softmax attention weights of one block: [batch, heads, T, T]."""

    weights: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 4 or self.weights.shape[-1] != self.weights.shape[-2]:
            raise DimensionError(f"attention map must be [B, H, T, T], got {self.weights.shape}")
        row_sums = self.weights.sum(axis=-1)
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            raise DimensionError("attention rows do not sum to 1")


@dataclass
class ForwardOutput:
    logits: Tensor
    last_attention: Optional[AttentionMap] = None


@dataclass
class ViTParams:
    """Named parameter tensors for one model instance."""

    config: ViTConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self.tensors.items())

    def copy(self) -> "ViTParams":
        fresh = {
            name: Tensor(t.values, requires_grad=True) for name, t in self.tensors.items()
        }
        return ViTParams(self.config, fresh)

    def replace(self, name: str, values: np.ndarray) -> None:
        self.tensors[name] = Tensor(values, requires_grad=True)


def parameter_shapes(config: ViTConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter name with its shape, in construction order."""
    d, pd, r, c = config.dim, config.patch_dim, config.mlp_ratio, config.num_classes
    shapes: dict[str, tuple[int, ...]] = {
        "patch.weight": (pd, d),
        "patch.bias": (d,),
        "cls_token": (1, d),
        "pos_embed": (config.tokens, d),
    }
    for i in range(config.depth):
        p = f"block{i}."
        shapes[p + "ln1.gain"] = (d,)
        shapes[p + "ln1.bias"] = (d,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + w] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[p + "attn." + b] = (d,)
        shapes[p + "ln2.gain"] = (d,)
        shapes[p + "ln2.bias"] = (d,)
        shapes[p + "mlp.w1"] = (d, r * d)
        shapes[p + "mlp.b1"] = (r * d,)
        shapes[p + "mlp.w2"] = (r * d, d)
        shapes[p + "mlp.b2"] = (d,)
    shapes["ln_final.gain"] = (d,)
    shapes["ln_final.bias"] = (d,)
    shapes["head.weight"] = (d, c)
    shapes["head.bias"] = (c,)
    return shapes


def _truncated_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            return out
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))


def init_params(config: ViTConfig, seed: int) -> ViTParams:
    """Fresh parameters, fully determined by `seed`.

    Weight matrices, the class token and positional embeddings draw from
    a truncated normal (std 0.02, clipped at two standard deviations);
    biases and layer-norm offsets start at zero, layer-norm gains at one.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    tensors: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        leaf = name.split(".")[-1]
        if leaf in ("bias", "bq", "bk", "bv", "bo", "b1", "b2"):
            values = np.zeros(shape, dtype=DTYPE)
        elif leaf == "gain":
            values = np.ones(shape, dtype=DTYPE)
        else:
            values = _truncated_normal(rng, shape, INIT_STD)
        tensors[name] = Tensor(values, requires_grad=True)
    return ViTParams(config, tensors)


def patchify(images: np.ndarray, config: ViTConfig) -> np.ndarray:
    """Cut [B, C, S, S] images into [B, N, C*P*P] flat patch vectors.

    Patches are ordered row-major over the image grid (top-left patch is
    index 0). Each patch vector is flattened channel-major, then row,
    then column.
    """
    images = np.asarray(images, dtype=DTYPE)
    if images.ndim != 4:
        raise DimensionError(f"images must be [B, C, S, S], got {images.shape}")
    b, c, s, s2 = images.shape
    if c != config.channels or s != config.image_size or s2 != config.image_size:
        raise DimensionError(
            f"image shape {images.shape[1:]} does not match config "
            f"({config.channels}, {config.image_size}, {config.image_size})"
        )
    if s % config.patch_size != 0:
        raise ConfigError(f"image size {s} not divisible by patch size {config.patch_size}")
    p = config.patch_size
    g = s // p
    patches = images.reshape(b, c, g, p, g, p)
    patches = patches.transpose(0, 2, 4, 1, 3, 5)  # [B, gy, gx, C, py, px]
    return patches.reshape(b, g * g, c * p * p)


def forward(params: ViTParams, images: np.ndarray, capture_attention: bool = False) -> ForwardOutput:
    """Run the classifier; optionally return the final block's attention."""
    cfg = params.config
    b = np.asarray(images).shape[0]

    x = Tensor(patchify(images, cfg))
    tokens = linear(x, params["patch.weight"], params["patch.bias"])
    cls = repeat_batch(params["cls_token"], b)
    tokens = concat([cls, tokens], axis=1)
    tokens = add(tokens, params["pos_embed"])

    captured: Optional[np.ndarray] = None
    for i in range(cfg.depth):
        p = f"block{i}."
        normed = layer_norm(tokens, params[p + "ln1.gain"], params[p + "ln1.bias"])
        attended, probs = attention(
            normed,
            params[p + "attn.wq"], params[p + "attn.bq"],
            params[p + "attn.wk"], params[p + "attn.bk"],
            params[p + "attn.wv"], params[p + "attn.bv"],
            params[p + "attn.wo"], params[p + "attn.bo"],
            cfg.heads,
        )
        if capture_attention and i == cfg.depth - 1:
            captured = probs
        tokens = add(tokens, attended)

        normed2 = layer_norm(tokens, params[p + "ln2.gain"], params[p + "ln2.bias"])
        tokens = add(tokens, mlp(normed2, params[p + "mlp.w1"], params[p + "mlp.b1"],
                                 params[p + "mlp.w2"], params[p + "mlp.b2"]))

    final = layer_norm(tokens, params["ln_final.gain"], params["ln_final.bias"])
    logits = linear(take_token(final, 0), params["head.weight"], params["head.bias"])
    last_attention = AttentionMap(captured) if captured is not None else None
    return ForwardOutput(logits=logits, last_attention=last_attention)


def params_checksum(params: ViTParams) -> int:
    """Byte-sum fingerprint of all parameter values (mutation guard)."""
    total = np.uint64(0)
    for name in sorted(params.tensors):
        buf = np.ascontiguousarray(params.tensors[name].values).tobytes()
        total += np.frombuffer(buf, dtype=np.uint8).sum(dtype=np.uint64)
    return int(total)


def save_params(params: ViTParams, path: str) -> None:
    arrays = {name: t.values for name, t in params.tensors.items()}
    arrays[_CONFIG_KEY] = params.config.to_array()
    checkpoint.save_arrays(path, arrays)


def load_params(path: str) -> ViTParams:
    arrays = checkpoint.load_arrays(path)
    if _CONFIG_KEY not in arrays:
        raise ConfigError(f"checkpoint {path} is missing the '{_CONFIG_KEY}' entry")
    config = ViTConfig.from_array(arrays.pop(_CONFIG_KEY))
    expected = parameter_shapes(config)
    tensors: dict[str, Tensor] = {}
    for name, shape in expected.items():
        if name not in arrays:
            raise ConfigError(f"checkpoint {path} is missing parameter '{name}'")
        values = arrays.pop(name)
        if values.shape != shape:
            raise ConfigError(
                f"checkpoint parameter '{name}' has shape {values.shape}, expected {shape}"
            )
        tensors[name] = Tensor(values, requires_grad=True)
    if arrays:
        raise ConfigError(f"checkpoint {path} has unexpected entries: {sorted(arrays)}")
    return ViTParams(config, tensors)
