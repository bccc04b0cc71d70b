"""A minimal Vision Transformer classifier with class-token pooling.

The forward pass is built entirely from the autodiff ops in
`lethevit.tensor` (the fused `attention` and `mlp` ops carry each
block), uses pre-norm blocks (norm -> attention -> residual,
norm -> MLP -> residual), learned positional embeddings, and can expose
the final block's post-softmax attention weights for masking.

The head reads only the class token, and past the final block's
attention queries every op works per token. So the final block's
attention computes the class token's query alone (its keys and values
still come from every token) and returns [batch, dim], the forward
keeps only the class token's row of the residual stream, and the final
residuals, MLP and layer norms run on [batch, dim] (the class-attention
stage of CaiT, Touvron et al., 2021). The captured weights,
`ForwardOutput.last_attention`, are the class token's row as the
read-only array the attention backward keeps, [batch, heads, 1, tokens].

A model's parameters live in one read-only vector (`ViTParams`), and
checkpoints store them as one named entry each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import checkpoint
from .errors import ConfigError, DimensionError, FormatError, NonFiniteError
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
        for name in ("image_size", "patch_size", "channels", "depth", "heads", "dim",
                     "mlp_ratio", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")

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
        values = np.asarray(values).ravel()
        vals = [int(v) for v in values]
        if len(vals) != 8 or vals != values.tolist():
            raise ConfigError(f"config entry must hold 8 integers, got {values.tolist()}")
        return ViTConfig(*vals)


@dataclass
class ForwardOutput:
    logits: Tensor
    last_attention: Optional[np.ndarray] = None  # final block's read-only weights [B, H, 1, T]


class ViTParams:
    """One model's parameters: `vector`, one read-only float64 array in
    `parameter_shapes` order, and `tensors`, a leaf `Tensor` per name over
    a view of its slice. An SGD step `assign`s a new vector, so `copy` and
    `frozen` share it. `grad`, in the same layout, is the one gradient
    buffer `attach_gradient` makes for training."""

    def __init__(self, config: ViTConfig, vector: np.ndarray, requires_grad: bool = True):
        self.config, self.grad, self._layout, self.tensors = config, None, _layout(config), {}
        self.assign(vector)
        self.tensors = {name: Tensor(view, requires_grad, _view=True)
                        for name, view in _views(self._layout, vector)}

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self.tensors.items())

    def copy(self) -> "ViTParams":
        return ViTParams(self.config, self.vector)

    def frozen(self) -> "ViTParams":
        """A gradient-free copy: no forward on it records on any tape."""
        return ViTParams(self.config, self.vector, requires_grad=False)

    def assign(self, vector: np.ndarray) -> None:
        """Own `vector` (read-only from now on) and point each leaf at its
        slice; NaN or Inf is a `NonFiniteError`."""
        size = self._layout[-1][1].stop
        if vector.dtype != DTYPE or vector.shape != (size,):
            raise DimensionError(f"a parameter vector must be float64 of shape ({size},), "
                                 f"got {vector.dtype} {vector.shape}")
        if not np.isfinite(vector).all():
            raise NonFiniteError("parameters contain NaN or Inf values")
        vector.setflags(write=False)
        self.vector = vector
        for t, (_, view) in zip(self.tensors.values(), _views(self._layout, vector)):
            t.values = view

    def attach_gradient(self) -> None:
        """Make the gradient buffer `grad` (once), each parameter's `.grad`
        its view, which `backward` fills and scans as one array; `forward`
        reads every parameter, so each step rewrites all of it."""
        if self.grad is None:
            self.grad = np.zeros(self.vector.shape, dtype=DTYPE)
            for t, (_, view) in zip(self.tensors.values(), _views(self._layout, self.grad)):
                t.grad = view


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


Layout = list[tuple[str, slice, tuple[int, ...]]]  # (name, slice of the vector, shape)


def _layout(config: ViTConfig) -> Layout:
    layout, stop = [], 0
    for name, shape in parameter_shapes(config).items():
        start, stop = stop, stop + math.prod(shape)
        layout.append((name, slice(start, stop), shape))
    return layout


def _views(layout: Layout, flat: np.ndarray) -> list[tuple[str, np.ndarray]]:
    return [(name, flat[where].reshape(shape)) for name, where, shape in layout]


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
    Parameters that cannot be allocated raise `ConfigError`.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    layout = _layout(config)
    size = layout[-1][1].stop
    try:
        vector = np.empty(size, dtype=DTYPE)
        for name, view in _views(layout, vector):
            leaf = name.split(".")[-1]
            if leaf in ("bias", "bq", "bk", "bv", "bo", "b1", "b2"):
                view[...] = 0.0
            elif leaf == "gain":
                view[...] = 1.0
            else:
                view[...] = _truncated_normal(rng, view.shape, INIT_STD)
    except (MemoryError, ValueError):  # ValueError: numpy's "array is too big"
        raise ConfigError(
            f"a model of dim {config.dim}, depth {config.depth} and mlp_ratio "
            f"{config.mlp_ratio} has {8 * size} bytes "
            "of float64 parameters, which cannot be allocated") from None
    return ViTParams(config, vector)


def patch_grid(images: np.ndarray, patch_size: int) -> np.ndarray:
    """The [B, g, g, C, p, p] view of C-contiguous [B, C, S, S] images that
    p = `patch_size` tiles (the callers check), g = S // p: patch k, row-major
    from the top left, is `[:, k // g, k % g]`."""
    b, c, s, _ = images.shape
    g = s // patch_size
    return images.reshape(b, c, g, patch_size, g, patch_size).transpose(0, 2, 4, 1, 3, 5)


def patchify(images: np.ndarray, config: ViTConfig) -> np.ndarray:
    """Cut [B, C, S, S] images into [B, N, C*P*P] flat patch vectors:
    `patch_grid`'s patches in its order, each flattened channel-major,
    then row, then column.
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
    patches = patch_grid(images, config.patch_size)
    return patches.reshape(b, config.num_patches, config.patch_dim)


def forward(params: ViTParams, images: np.ndarray, capture_attention: bool = False) -> ForwardOutput:
    """Run the classifier; optionally return the final block's attention."""
    cfg = params.config
    b = np.asarray(images).shape[0]

    x = Tensor(patchify(images, cfg))
    tokens = linear(x, params["patch.weight"], params["patch.bias"])
    cls = repeat_batch(params["cls_token"], b)
    tokens = concat([cls, tokens], axis=1)
    tokens = add(tokens, params["pos_embed"])

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
            class_only=i == cfg.depth - 1,
        )
        if i == cfg.depth - 1:  # from here on only the class token (module docstring)
            tokens = take_token(tokens, 0)
        tokens = add(tokens, attended)

        normed2 = layer_norm(tokens, params[p + "ln2.gain"], params[p + "ln2.bias"])
        tokens = add(tokens, mlp(normed2, params[p + "mlp.w1"], params[p + "mlp.b1"],
                                 params[p + "mlp.w2"], params[p + "mlp.b2"]))

    final = layer_norm(tokens, params["ln_final.gain"], params["ln_final.bias"])
    logits = linear(final, params["head.weight"], params["head.bias"])
    return ForwardOutput(logits=logits, last_attention=probs if capture_attention else None)


def params_checksum(params: ViTParams) -> int:
    """Byte-sum fingerprint of all parameter values (mutation guard)."""
    return checkpoint.payload_checksum([params.vector])


def save_params(params: ViTParams, path: str) -> None:
    """Write a model checkpoint of float32 entries. A parameter float32
    cannot hold (beyond its range, 1e39 included), which would be stored
    as the Inf `load_params` refuses, raises `NonFiniteError` naming it
    before the file is opened."""
    arrays = {name: t.values for name, t in params.tensors.items()}
    for name, values in arrays.items():
        with np.errstate(over="ignore"):  # an overflow is Inf, refused just below
            bad = checkpoint.first_non_finite(values.astype(np.float32))
        if bad is not None:
            raise NonFiniteError(f"cannot save {path}: parameter '{name}' element {bad} is "
                                 f"{values.flat[bad]}, not a finite float32")
    arrays[_CONFIG_KEY] = params.config.to_array()
    checkpoint.save_arrays(path, arrays)


def load_params(path: str) -> ViTParams:
    """Load a model checkpoint; a bad entry (misshapen, extra, or holding
    NaN or Inf) is a `FormatError` at its offset, a missing one at 0."""
    offsets: dict[str, int] = {}
    arrays = checkpoint.load_arrays(path, offsets)
    if _CONFIG_KEY not in arrays:
        raise FormatError(f"checkpoint {path} is missing the '{_CONFIG_KEY}' entry", 0)
    try:
        config = ViTConfig.from_array(arrays.pop(_CONFIG_KEY))
    except (ConfigError, ValueError, OverflowError) as exc:  # int() of NaN / inf
        raise FormatError(f"checkpoint entry '{_CONFIG_KEY}' is invalid: {exc}",
                          offsets[_CONFIG_KEY]) from None
    parts = []
    for name, shape in parameter_shapes(config).items():
        if name not in arrays:
            raise FormatError(f"checkpoint {path} is missing parameter '{name}'", 0)
        values = arrays.pop(name)
        if values.shape != shape:
            raise FormatError(f"checkpoint parameter '{name}' has shape {values.shape}, "
                              f"expected {shape}", offsets[name])
        if not np.isfinite(values).all():
            raise FormatError(f"checkpoint parameter '{name}' holds NaN or Inf values",
                              offsets[name])
        parts.append(values.ravel())
    if arrays:
        extra = sorted(arrays)
        raise FormatError(f"checkpoint {path} has unexpected entries: {extra}", offsets[extra[0]])
    return ViTParams(config, np.concatenate(parts))
