"""Contrastive unlearning pipeline and reference baselines.

The core method runs two strictly sequential phases, both plain SGD:

  phase 1 (forget): for each forget batch, mask the images using the
  frozen original model's attention, then pull the current model's
  logits toward the original model's logits for the masked images and
  away from its logits for the unmasked ones (`teacher_views`).

  phase 2 (retain): ordinary cross-entropy training on the retain set.

Baselines: retraining from scratch on the retain set (the reference
every other method is measured against), fine-tuning on the retain set,
gradient ascent on the forget set, and training with randomized forget
labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .data import DataSplit, LabeledDataset
from .errors import ConfigError, ContractError, DivergenceError, NonFiniteError
from .masking import MaskSpec, class_token_attention, mask_from_scores
from .masking import build_masked_view  # noqa: F401  unused; perfbench/layertrace.py wraps it
from .tensor import (
    Tape,
    Tensor,
    add,
    backward,
    cross_entropy,
    mean_all,
    row_cosine,
    scale,
    softplus,
    stop_recording,
)
from .vit import ViTConfig, ViTParams, forward, init_params, params_checksum


@dataclass
class TripletLogits:
    """Anchor from the model being unlearned; positive and negative from
    the frozen original (masked and unmasked input respectively)."""

    anchor: Tensor
    positive: Tensor
    negative: Tensor

    def __post_init__(self):
        if self.positive.requires_grad or self.negative.requires_grad:
            raise ContractError("positive/negative logits must be produced with gradients disabled")
        if self.anchor.shape != self.positive.shape or self.anchor.shape != self.negative.shape:
            raise ContractError(
                f"triplet shapes disagree: {self.anchor.shape}, "
                f"{self.positive.shape}, {self.negative.shape}"
            )


@dataclass(frozen=True)
class TrainConfig:
    """From-scratch training: architecture plus SGD hyperparameters."""

    model: ViTConfig
    epochs: int = 20
    learning_rate: float = 0.05
    batch_size: int = 32
    seed: int = 0
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.epochs < 0 or self.learning_rate <= 0 or self.batch_size < 1:
            raise ConfigError("epochs >= 0, learning_rate > 0 and batch_size >= 1 required")


@dataclass(frozen=True)
class UnlearnConfig:
    forget_epochs: int = 2
    retain_epochs: int = 8
    learning_rate: float = 0.01
    batch_size: int = 128
    temperature: float = 0.5
    mask_spec: MaskSpec = field(default_factory=lambda: MaskSpec(ratio=0.05))
    seed: int = 0
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.forget_epochs < 0 or self.retain_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.learning_rate <= 0 or self.temperature <= 0 or self.batch_size < 1:
            raise ConfigError("learning_rate, temperature and batch_size must be positive")


def teacher_views(original: ViTParams, images: np.ndarray, mask_spec: MaskSpec,
                  mask_seed: int) -> tuple[Tensor, Tensor]:
    """The frozen original's (positive, negative) logits in two forwards:
    the unmasked one gives the attention that picks the masked patches
    and the negative logits, the masked one the positive logits."""
    with stop_recording():
        plain = forward(original, images, capture_attention=True)
        scores = class_token_attention(plain.last_attention)
        masked = mask_from_scores(images, scores, mask_spec, original.config.patch_size, mask_seed)
        return forward(original, masked.images).logits, plain.logits


def contrastive_loss(triplet: TripletLogits, temperature: float) -> Tensor:
    """Batch-mean of -log( e^{s_p/t} / (e^{s_p/t} + e^{s_n/t}) ).

    s_p / s_n are per-row cosine similarities of the anchor to the
    positive / negative logits. Evaluated as softplus((s_n - s_p)/t),
    which is the max-subtracted form of the two-term log-sum-exp.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    s_p = row_cosine(triplet.anchor, triplet.positive)
    s_n = row_cosine(triplet.anchor, triplet.negative)
    gap = add(s_n, scale(s_p, -1.0))
    return mean_all(softplus(scale(gap, 1.0 / temperature)))


def _epoch_batches(
    indices: np.ndarray, batch_size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    shuffled = indices[rng.permutation(len(indices))]
    for start in range(0, len(shuffled), batch_size):
        yield shuffled[start:start + batch_size]


def _sgd_step(
    params: ViTParams,
    velocity: dict[str, np.ndarray],
    learning_rate: float,
    momentum: float,
    weight_decay: float,
    direction: float = -1.0,
) -> None:
    for name, t in params.items():
        if t.grad is None:
            continue
        g = t.grad
        if weight_decay:
            g = g + weight_decay * t.values
        if momentum:
            v = velocity.get(name)
            v = g if v is None else momentum * v + g
            velocity[name] = v
            g = v
        params.replace(name, t.values + direction * learning_rate * g)


def _train_cross_entropy(
    params: ViTParams,
    dataset: LabeledDataset,
    indices: np.ndarray,
    epochs: int,
    learning_rate: float,
    batch_size: int,
    rng: np.random.Generator,
    *,
    phase: str,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    direction: float = -1.0,
    allowed: Optional[np.ndarray] = None,
    on_batch: Optional[Callable[[int, np.ndarray], None]] = None,
) -> None:
    """Shared SGD loop over cross-entropy; mutates `params` in place."""
    velocity: dict[str, np.ndarray] = {}
    step = 0
    for _ in range(epochs):
        for batch in _epoch_batches(indices, batch_size, rng):
            if allowed is not None and not np.isin(batch, allowed).all():
                raise ContractError(f"training step touched indices outside the allowed set ({phase})")
            if on_batch is not None:
                on_batch(step, batch)
            try:
                with Tape() as tape:
                    logits = forward(params, dataset.images[batch]).logits
                    loss = cross_entropy(logits, dataset.labels[batch])
                backward(loss, tape)
            except NonFiniteError as exc:
                raise DivergenceError(phase, step, str(exc)) from exc
            _sgd_step(params, velocity, learning_rate, momentum, weight_decay, direction)
            step += 1


def train_model(
    dataset: LabeledDataset,
    config: TrainConfig,
    indices: Optional[np.ndarray] = None,
    *,
    allowed: Optional[np.ndarray] = None,
    on_batch: Optional[Callable[[int, np.ndarray], None]] = None,
) -> ViTParams:
    """Train a fresh model with cross-entropy SGD; the original-model recipe."""
    params = init_params(config.model, config.seed)
    if indices is None:
        indices = np.arange(len(dataset), dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    _train_cross_entropy(
        params, dataset, indices, config.epochs, config.learning_rate,
        config.batch_size, rng, phase="train",
        momentum=config.momentum, weight_decay=config.weight_decay,
        allowed=allowed, on_batch=on_batch,
    )
    return params


def retrain(
    split: DataSplit,
    config: TrainConfig,
    on_batch: Optional[Callable[[int, np.ndarray], None]] = None,
) -> ViTParams:
    """Train from scratch on the retain set only: the gold-standard
    reference. The batch loader verifies no forget index is ever used."""
    return train_model(
        split.train, config, indices=split.retain, allowed=split.retain, on_batch=on_batch
    )


def unlearn(
    original: ViTParams,
    split: DataSplit,
    config: UnlearnConfig,
    telemetry: Optional[dict] = None,
) -> ViTParams:
    """Two-phase contrastive unlearning starting from the original model.

    Phase 1 runs `forget_epochs` of contrastive SGD over the forget set,
    phase 2 runs `retain_epochs` of cross-entropy SGD over the retain
    set. Batch order reshuffles every epoch from `config.seed`. The
    original model is read-only throughout (checksum-guarded).
    """
    if config.forget_epochs > 0 and len(split.forget) == 0:
        raise ConfigError("forget set is empty but forget_epochs > 0")
    guard = params_checksum(original)
    theta = original.copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))

    start = time.perf_counter()
    velocity: dict[str, np.ndarray] = {}
    step = 0
    for epoch in range(config.forget_epochs):
        for batch in _epoch_batches(split.forget, config.batch_size, rng):
            images = split.train.images[batch]
            mask_seed = int(
                np.random.SeedSequence((config.seed, epoch, step)).generate_state(1, np.uint64)[0]
            )
            try:
                positive, negative = teacher_views(original, images, config.mask_spec, mask_seed)
                with Tape() as tape:
                    anchor = forward(theta, images).logits
                    loss = contrastive_loss(
                        TripletLogits(anchor, positive, negative), config.temperature
                    )
                backward(loss, tape)
            except NonFiniteError as exc:
                raise DivergenceError("forget", step, str(exc)) from exc
            _sgd_step(theta, velocity, config.learning_rate, config.momentum, config.weight_decay)
            step += 1
    phase1_seconds = time.perf_counter() - start

    start = time.perf_counter()
    _train_cross_entropy(
        theta, split.train, split.retain, config.retain_epochs, config.learning_rate,
        config.batch_size, rng, phase="retain",
        momentum=config.momentum, weight_decay=config.weight_decay,
    )
    phase2_seconds = time.perf_counter() - start

    if params_checksum(original) != guard:
        raise ContractError("original model parameters were mutated during unlearning")
    if telemetry is not None:
        telemetry["phase1_seconds"] = phase1_seconds
        telemetry["phase2_seconds"] = phase2_seconds
        telemetry["forget_steps"] = step
    return theta


def fine_tune(original: ViTParams, split: DataSplit, config: UnlearnConfig) -> ViTParams:
    """Continue cross-entropy training on the retain set only."""
    guard = params_checksum(original)
    theta = original.copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    _train_cross_entropy(
        theta, split.train, split.retain, config.retain_epochs, config.learning_rate,
        config.batch_size, rng, phase="fine_tune",
        momentum=config.momentum, weight_decay=config.weight_decay,
    )
    if params_checksum(original) != guard:
        raise ContractError("original model parameters were mutated during unlearning")
    return theta


def gradient_ascent(original: ViTParams, split: DataSplit, config: UnlearnConfig) -> ViTParams:
    """Ascend the cross-entropy loss on the forget set."""
    if config.forget_epochs > 0 and len(split.forget) == 0:
        raise ConfigError("forget set is empty but forget_epochs > 0")
    guard = params_checksum(original)
    theta = original.copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    _train_cross_entropy(
        theta, split.train, split.forget, config.forget_epochs, config.learning_rate,
        config.batch_size, rng, phase="gradient_ascent",
        momentum=config.momentum, weight_decay=config.weight_decay, direction=+1.0,
    )
    if params_checksum(original) != guard:
        raise ContractError("original model parameters were mutated during unlearning")
    return theta


def relabel_forget(
    labels: np.ndarray, forget: np.ndarray, class_count: int, seed: int
) -> np.ndarray:
    """Replace forget labels with uniform draws over the other classes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    new_labels = labels.copy()
    draws = rng.integers(0, class_count - 1, size=len(forget))
    draws[draws >= labels[forget]] += 1  # skip the true class
    new_labels[forget] = draws
    return new_labels


def random_labels(
    original: ViTParams, split: DataSplit, config: UnlearnConfig, seed: int
) -> ViTParams:
    """Train on the full set with the forget labels randomized (never the
    true label); `seed` drives the relabeling, `config.seed` the batches."""
    guard = params_checksum(original)
    theta = original.copy()
    relabeled = LabeledDataset(
        images=split.train.images,
        labels=relabel_forget(split.train.labels, split.forget, split.train.class_count, seed),
        class_count=split.train.class_count,
    )
    all_indices = np.arange(len(split.train), dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    _train_cross_entropy(
        theta, relabeled, all_indices, config.retain_epochs, config.learning_rate,
        config.batch_size, rng, phase="random_labels",
        momentum=config.momentum, weight_decay=config.weight_decay,
    )
    if params_checksum(original) != guard:
        raise ContractError("original model parameters were mutated during unlearning")
    return theta


def triplet_cosine_stats(
    current: ViTParams,
    original: ViTParams,
    dataset: LabeledDataset,
    indices: np.ndarray,
    mask_spec: MaskSpec,
    mask_seed: int = 0,
    batch_size: int = 64,
) -> tuple[float, float]:
    """Batch-mean cosine of current-model logits to the original model's
    masked (positive) and unmasked (negative) logits over `indices`."""
    sims_p: list[np.ndarray] = []
    sims_n: list[np.ndarray] = []
    with stop_recording():
        for start in range(0, len(indices), batch_size):
            batch = indices[start:start + batch_size]
            images = dataset.images[batch]
            positive, negative = teacher_views(original, images, mask_spec, mask_seed)
            anchor = forward(current, images).logits
            sims_p.append(row_cosine(anchor, positive).values)
            sims_n.append(row_cosine(anchor, negative).values)
    return float(np.concatenate(sims_p).mean()), float(np.concatenate(sims_n).mean())
