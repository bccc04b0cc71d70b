"""Contrastive unlearning pipeline and reference baselines.

Every method is a sequence of plain SGD phases run by one loop,
`_sgd_phase`; only the index set, the loss and the step direction vary.
`unlearn`, the core method, runs two phases from the original model:

  forget: for each forget batch, mask the images using the frozen
  original model's attention, then pull the current model's logits
  toward the original model's logits for the masked images and away
  from its logits for the unmasked ones. The unmasked logits and the
  attention depend on the image alone, so `frozen_teacher` computes
  them once per forget image, in one capture pass before the first
  step; a step then runs one forward of the original (the masked
  images) and one tracked forward of the model being unlearned.

  retain: ordinary cross-entropy training on the retain set.

Baselines, one cross-entropy phase each: retraining from scratch on the
retain set (the reference every other method is measured against),
fine-tuning on the retain set, gradient ascent on the forget set, and
training with randomized forget labels. Every entry point takes
`on_step(phase, step, batch)`, called after each SGD step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .data import DataSplit, LabeledDataset
from .errors import ConfigError, ContractError, DivergenceError, NonFiniteError, require_finite
from .masking import MaskSpec, forward_chunks, mask_from_scores
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
        require_finite(self)
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
        require_finite(self)
        if self.forget_epochs < 0 or self.retain_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.learning_rate <= 0 or self.temperature <= 0 or self.batch_size < 1:
            raise ConfigError("learning_rate, temperature and batch_size must be positive")


TeacherViews = Callable[[np.ndarray, int], tuple[Tensor, Tensor]]  # (batch, mask_seed)


def frozen_teacher(original: ViTParams, images: np.ndarray, indices: np.ndarray,
                   mask_spec: MaskSpec, chunk: int) -> TeacherViews:
    """The frozen original as the teacher of `images[indices]` (distinct
    indices). Its unmasked logits (the negatives) and the class-token
    attention that picks the masked patches depend on the image alone,
    so one capture pass of at most `chunk` rows per forward computes
    them once. The returned `views(batch, mask_seed)` masks
    `images[batch]` by those scores and runs the one forward that gives
    the positive logits; it returns (positive, negative)."""
    [[negatives, scores]] = forward_chunks(original, [images[indices]], chunk, True)
    row_of = np.zeros(len(images), dtype=np.int64)  # image index -> cached row
    row_of[indices] = np.arange(len(indices))

    def views(batch: np.ndarray, mask_seed: int) -> tuple[Tensor, Tensor]:
        rows = row_of[batch]
        masked = mask_from_scores(images[batch], scores[rows], mask_spec,
                                  original.config.patch_size, mask_seed)
        with stop_recording():
            return forward(original, masked.images).logits, Tensor(negatives[rows])

    return views


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


StepSink = Callable[[str, int, np.ndarray], None]  # (phase, step, batch)
StepLoss = Callable[[np.ndarray, int, int], Tensor]  # (batch, epoch, step) -> loss


def _sgd_phase(
    params: ViTParams,
    indices: np.ndarray,
    epochs: int,
    config: TrainConfig | UnlearnConfig,
    rng: np.random.Generator,
    phase: str,
    step_loss: StepLoss,
    *,
    direction: float = -1.0,
    allowed: Optional[np.ndarray] = None,
    on_step: Optional[StepSink] = None,
) -> None:
    """The one SGD loop, mutating `params`: `epochs` passes over `indices`
    reshuffled by `rng`, each step's loss built by `step_loss(batch,
    epoch, step)` on the active tape. Step count and momentum restart per
    phase; `on_step(phase, step, batch)` runs after each step."""
    if epochs > 0 and len(indices) == 0:
        raise ConfigError(f"the {phase} phase has {epochs} epochs over an empty index set")
    velocity: dict[str, np.ndarray] = {}
    step = 0
    for epoch in range(epochs):
        shuffled = indices[rng.permutation(len(indices))]
        for start in range(0, len(shuffled), config.batch_size):
            batch = shuffled[start:start + config.batch_size]
            if allowed is not None and not np.isin(batch, allowed).all():
                raise ContractError(f"training step touched indices outside the allowed set ({phase})")
            try:
                with Tape() as tape:
                    loss = step_loss(batch, epoch, step)
                backward(loss, tape)
            except NonFiniteError as exc:
                raise DivergenceError(phase, step, str(exc)) from exc
            _sgd_step(params, velocity, config.learning_rate, config.momentum,
                      config.weight_decay, direction)
            if on_step is not None:
                on_step(phase, step, batch)
            step += 1


def _cross_entropy(params: ViTParams, dataset: LabeledDataset) -> StepLoss:
    """The step loss of every cross-entropy phase."""
    def step_loss(batch: np.ndarray, epoch: int, step: int) -> Tensor:
        return cross_entropy(forward(params, dataset.images[batch]).logits, dataset.labels[batch])
    return step_loss


def _from_scratch(dataset: LabeledDataset, config: TrainConfig, indices: np.ndarray,
                  allowed: Optional[np.ndarray], on_step: Optional[StepSink]) -> ViTParams:
    params = init_params(config.model, config.seed)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    _sgd_phase(params, indices, config.epochs, config, rng, "train",
               _cross_entropy(params, dataset), allowed=allowed, on_step=on_step)
    return params


def train_model(dataset: LabeledDataset, config: TrainConfig, *,
                on_step: Optional[StepSink] = None) -> ViTParams:
    """Train a fresh model with cross-entropy SGD; the original-model recipe."""
    return _from_scratch(dataset, config, np.arange(len(dataset), dtype=np.int64), None, on_step)


def retrain(split: DataSplit, config: TrainConfig, *,
            on_step: Optional[StepSink] = None) -> ViTParams:
    """Train from scratch on the retain set only: the gold-standard
    reference. The batch loader verifies no forget index is ever used."""
    return _from_scratch(split.train, config, split.retain, split.retain, on_step)


def _from_original(original: ViTParams, config: UnlearnConfig,
                   run: Callable[[ViTParams, np.random.Generator], None]) -> ViTParams:
    """`run(theta, rng)` trains a copy of `original` with batches drawn
    from `config.seed`; the original is checksum-guarded throughout."""
    guard = params_checksum(original)
    theta = original.copy()
    run(theta, np.random.Generator(np.random.PCG64(config.seed)))
    if params_checksum(original) != guard:
        raise ContractError("original model parameters were mutated during unlearning")
    return theta


def unlearn(original: ViTParams, split: DataSplit, config: UnlearnConfig, *,
            on_step: Optional[StepSink] = None) -> ViTParams:
    """Two-phase contrastive unlearning starting from the original model:
    `forget_epochs` of contrastive SGD over the forget set (`forget`),
    then `retain_epochs` of cross-entropy SGD over the retain set
    (`retain`). One generator, seeded with `config.seed`, orders the
    batches of both phases; each mask is seeded from (seed, epoch, step).
    """
    def run(theta: ViTParams, rng: np.random.Generator) -> None:
        if config.forget_epochs and len(split.forget):  # only when a forget step will run
            teacher = frozen_teacher(original, split.train.images, split.forget,
                                     config.mask_spec, config.batch_size)

        def forget_loss(batch: np.ndarray, epoch: int, step: int) -> Tensor:
            mask_seed = int(
                np.random.SeedSequence((config.seed, epoch, step)).generate_state(1, np.uint64)[0]
            )
            positive, negative = teacher(batch, mask_seed)
            anchor = forward(theta, split.train.images[batch]).logits
            return contrastive_loss(TripletLogits(anchor, positive, negative), config.temperature)

        _sgd_phase(theta, split.forget, config.forget_epochs, config, rng, "forget",
                   forget_loss, on_step=on_step)
        _sgd_phase(theta, split.retain, config.retain_epochs, config, rng, "retain",
                   _cross_entropy(theta, split.train), on_step=on_step)

    return _from_original(original, config, run)


def fine_tune(original: ViTParams, split: DataSplit, config: UnlearnConfig, *,
              on_step: Optional[StepSink] = None) -> ViTParams:
    """Continue cross-entropy training on the retain set only."""
    return _from_original(original, config, lambda theta, rng: _sgd_phase(
        theta, split.retain, config.retain_epochs, config, rng, "fine_tune",
        _cross_entropy(theta, split.train), on_step=on_step))


def gradient_ascent(original: ViTParams, split: DataSplit, config: UnlearnConfig, *,
                    on_step: Optional[StepSink] = None) -> ViTParams:
    """Ascend the cross-entropy loss on the forget set."""
    return _from_original(original, config, lambda theta, rng: _sgd_phase(
        theta, split.forget, config.forget_epochs, config, rng, "gradient_ascent",
        _cross_entropy(theta, split.train), direction=+1.0, on_step=on_step))


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


def random_labels(original: ViTParams, split: DataSplit, config: UnlearnConfig, *,
                  on_step: Optional[StepSink] = None) -> ViTParams:
    """Train on the full set with the forget labels randomized (never the
    true label); `config.seed` drives both the relabeling and the batches."""
    train = split.train
    relabeled = LabeledDataset(
        images=train.images,
        labels=relabel_forget(train.labels, split.forget, train.class_count, config.seed),
        class_count=train.class_count,
    )
    return _from_original(original, config, lambda theta, rng: _sgd_phase(
        theta, np.arange(len(train), dtype=np.int64), config.retain_epochs, config, rng,
        "random_labels", _cross_entropy(theta, relabeled), on_step=on_step))


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
    masked (positive) and unmasked (negative) logits over the distinct
    `indices`, in batches of `batch_size` (each masked with `mask_seed`)."""
    if len(indices) == 0:
        raise ContractError("triplet cosine statistics need a nonempty index set")
    teacher = frozen_teacher(original, dataset.images, indices, mask_spec, batch_size)
    sims_p: list[np.ndarray] = []
    sims_n: list[np.ndarray] = []
    with stop_recording():
        for start in range(0, len(indices), batch_size):
            batch = indices[start:start + batch_size]
            positive, negative = teacher(batch, mask_seed)
            anchor = forward(current, dataset.images[batch]).logits
            sims_p.append(row_cosine(anchor, positive).values)
            sims_n.append(row_cosine(anchor, negative).values)
    return float(np.concatenate(sims_p).mean()), float(np.concatenate(sims_n).mean())
