"""Contrastive unlearning pipeline and reference baselines.

Every method is a sequence of plain SGD phases run by one loop,
`_sgd_phase`; each phase descends its own loss over its own index set,
and each step is one update of the model's parameter vector (`ViTParams`).
`unlearn`, the core method, runs two phases from the original model:

  forget: for each forget batch, mask the images using the frozen
  original model's attention, then `contrastive_loss(anchor, positive,
  negative, temperature)` pulls the current model's logits (the anchor)
  toward the original model's logits for the masked images (positive)
  and away from its logits for the unmasked ones (negative). The
  unmasked logits and the attention depend on the image alone, so
  `frozen_teacher` computes them once per forget image, in one capture
  pass before the first step. The masked forward of the original (the
  positives) depends on the batch, the mask seed and the frozen weights
  only, so on Linux a forked helper process computes every step's while
  this process runs the tracked forwards of the model being unlearned
  (`_run_ahead`); a thread would share the interpreter lock with them.
  The helper sends results only: a step it did not deliver, because its
  job raised or the helper died, computes its positives here.

  retain: ordinary cross-entropy training on the retain set.

Baselines, one cross-entropy phase each: retraining from scratch on the
retain set (the reference every other method is measured against),
fine-tuning on the retain set, gradient ascent on the forget set (its
loss negated), and training with randomized forget labels. Every entry
point takes `on_step(phase, step, batch)`, called after each SGD step.

Every cross-entropy step (training and every phase but forget) splits
its batch of n rows into two fixed halves, the first (n + 1) // 2 rows
and the rest, each half's loss scaled by its share of the rows, and
descends first + second (`_data_parallel`, the gradient all-reduce of
data-parallel SGD). On Linux a forked gradient helper keeps a replica
of the model and computes each step's second half while this process
computes the first. Per step the helper writes its half-gradient, this
process reads it after its own backward and then writes its own, and
both apply the same update. A step whose half the helper did not send,
and every later one, computes both halves here, as every step does
where the helper cannot fork: the same bytes, at about 8% less
throughput than an unsplit step on the benchmark's `train` workload.
"""

from __future__ import annotations

import contextlib
import os
import signal
import struct
import sys
import threading
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, Optional

import numpy as np

from .data import DataSplit, LabeledDataset
from .errors import (ConfigError, ContractError, DivergenceError, NonFiniteError,
                     require_finite, require_nonnegative)
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
)
from .vit import ViTConfig, ViTParams, forward, init_params, params_checksum


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
        for name in ("seed", "momentum", "weight_decay"):
            require_nonnegative(getattr(self, name), f"TrainConfig.{name}")
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
        for name in ("seed", "momentum", "weight_decay"):
            require_nonnegative(getattr(self, name), f"UnlearnConfig.{name}")
        if self.forget_epochs < 0 or self.retain_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.learning_rate <= 0 or self.temperature <= 0 or self.batch_size < 1:
            raise ConfigError("learning_rate, temperature and batch_size must be positive")


def frozen_teacher(original: ViTParams, images: np.ndarray, indices: np.ndarray,
                   mask_spec: MaskSpec, chunk: int
                   ) -> tuple[Callable[[np.ndarray, int], np.ndarray],
                              Callable[[np.ndarray], Tensor]]:
    """The frozen original as the teacher of `images[indices]` (distinct
    indices), as `(positives, negatives)`. Its unmasked logits (the
    negatives) and the class-token attention that picks the masked
    patches depend on the image alone, so one capture pass of at most
    `chunk` rows per forward computes them once; `negatives(batch)`
    gathers their rows. `positives(batch, mask_seed)` masks
    `images[batch]` by those scores and runs the one forward that gives
    the positive logits, as an array. `unlearn` passes `batch_size` as
    `chunk`, not evaluation's 64: at 64 rows the `forget` benchmark's
    peak RSS rose by about 3 MB at the same speed.

    The teacher runs on `original.frozen()`. An op records only when an
    input requires a gradient, so `positives` never touches a tape, not
    even one open on its own or another thread: it may run inside a
    tracked step, or in a process forked from one."""
    frozen = original.frozen()
    [[negatives, scores]] = forward_chunks(frozen, [images[indices]], chunk, True)
    row_of = np.zeros(len(images), dtype=np.int64)  # image index -> cached row
    row_of[indices] = np.arange(len(indices))

    def positives(batch: np.ndarray, mask_seed: int) -> np.ndarray:
        masked = mask_from_scores(images[batch], scores[row_of[batch]], mask_spec,
                                  frozen.config.patch_size, mask_seed)
        return forward(frozen, masked).logits.values

    return positives, lambda batch: Tensor(negatives[row_of[batch]])


@contextlib.contextmanager
def _helper(work: Callable[[BinaryIO, BinaryIO], None]
            ) -> Iterator[Optional[tuple[BinaryIO, BinaryIO]]]:
    """Runs `work(source, sink)` in a forked helper process while the
    block runs and yields this process's ends of the two pipes between
    them, `(source, sink)`: `source` reads what the helper writes to its
    `sink`, and the helper's `source` reads what this `sink` writes.
    Yields None where it cannot fork.

    It forks only on Linux, in a process with no other thread: `fork`
    copies only the calling thread; Windows has no `fork`, and on macOS
    forked children of system frameworks crash. The helper ignores
    SIGINT (the caller decides when it stops) and ends in `os._exit`
    however `work` ends, EPIPE or EOF once the caller is gone included:
    it never returns into the caller and never flushes the stdio it
    inherited. However the block ends, the pipes close and the helper
    is killed if still running and reaped, so no process outlives it."""
    if sys.platform != "linux" or threading.active_count() != 1:
        yield None
        return
    up, down = os.pipe(), os.pipe()  # (read end, write end): helper -> caller, caller -> helper
    pid = os.fork()
    if pid == 0:
        try:
            os.close(up[0])
            os.close(down[1])
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            work(os.fdopen(down[0], "rb"), os.fdopen(up[1], "wb"))
        finally:
            os._exit(0)
    os.close(up[1])
    os.close(down[0])
    source, sink = os.fdopen(up[0], "rb"), os.fdopen(down[1], "wb")
    try:
        yield source, sink
    finally:
        source.close()
        with contextlib.suppress(BrokenPipeError):  # the last write to a dead helper
            sink.close()
        if os.waitpid(pid, os.WNOHANG) == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# a `_run_ahead` record: (rows, columns) and then that float64 array
_RECORD = struct.Struct("=qq")


@contextlib.contextmanager
def _run_ahead(job: Callable[[int], np.ndarray], count: int
               ) -> Iterator[Callable[[int], np.ndarray]]:
    """Yields `result(k)`, which returns the 2-D float64 array `job(k)`
    and is called for k = 0, 1, ..., count - 1 in turn. `job` must be a
    function of k alone: the same k gives the same bytes or error.

    Where `_helper` can fork, the helper computes every `job(k)` in
    order while the caller works, and streams each to `result` through
    a pipe: the two share no interpreter lock. The helper sends results
    only: from the first step whose record it did not send (its job
    raised, or it died) on, and wherever it cannot fork, `result` runs
    `job` inline, so an error is raised as itself at its step."""
    def work(source: BinaryIO, sink: BinaryIO) -> None:
        for k in range(count):
            values = job(k)
            sink.write(_RECORD.pack(*values.shape) + values.tobytes())
            sink.flush()

    with _helper(work) as pipes:
        if pipes is None:
            yield job
            return
        source = pipes[0]

        def result(k: int) -> np.ndarray:
            header = source.read(_RECORD.size)
            if len(header) == _RECORD.size:
                rows, columns = _RECORD.unpack(header)
                payload = source.read(8 * rows * columns)
                if len(payload) == 8 * rows * columns:
                    return np.frombuffer(payload).reshape(rows, columns)
            return job(k)  # the stream has ended: this step and every later one run here

        yield result


def contrastive_loss(anchor: Tensor, positive: Tensor, negative: Tensor,
                     temperature: float) -> Tensor:
    """Batch-mean of -log( e^{s_p/t} / (e^{s_p/t} + e^{s_n/t}) ).

    s_p / s_n are per-row cosine similarities of the anchor to the
    positive / negative logits (module docstring). Evaluated as
    softplus((s_n - s_p)/t), the max-subtracted two-term log-sum-exp.
    """
    if positive.requires_grad or negative.requires_grad:
        raise ContractError("positive/negative logits must be produced with gradients disabled")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    s_p = row_cosine(anchor, positive)
    s_n = row_cosine(anchor, negative)
    gap = add(s_n, scale(s_p, -1.0))
    return mean_all(softplus(scale(gap, 1.0 / temperature)))


def _sgd_step(params: ViTParams, velocity: Optional[np.ndarray], learning_rate: float,
              momentum: float, weight_decay: float) -> Optional[np.ndarray]:
    """One update of the whole vector; returns the velocity. Each element
    sees g = grad + wd * theta, v = m * v + g (v = g at a phase's first
    step) and theta - lr * v, in place in arrays the update allocates."""
    theta, g = params.vector, params.grad
    new = np.empty_like(theta)
    if weight_decay:
        g = np.multiply(theta, weight_decay, out=new)
        g += params.grad
    if momentum:
        if velocity is None:
            velocity = g.copy()
        else:
            velocity *= momentum
            velocity += g
        g = velocity
    np.multiply(g, learning_rate, out=new)
    params.assign(np.subtract(theta, new, out=new))
    return velocity


StepSink = Callable[[str, int, np.ndarray], None]  # (phase, step, batch)
Gradient = Callable[[np.ndarray, int], None]  # (batch, step): fills the model's `grad`


def _batches(indices: np.ndarray, epochs: int, batch_size: int, rng: np.random.Generator,
             phase: str) -> list[tuple[int, np.ndarray]]:
    """A phase's steps as (epoch, batch) pairs: `epochs` passes over
    `indices`, each reshuffled by `rng`. Every permutation is drawn
    before the phase's first step, in the order the steps take them."""
    if epochs > 0 and len(indices) == 0:
        raise ConfigError(f"the {phase} phase has {epochs} epochs over an empty index set")
    batches = []
    for epoch in range(epochs):
        shuffled = indices[rng.permutation(len(indices))]
        batches += [(epoch, shuffled[start:start + batch_size])
                    for start in range(0, len(shuffled), batch_size)]
    return batches


def _sgd_phase(
    params: ViTParams,
    batches: list[tuple[int, np.ndarray]],
    config: TrainConfig | UnlearnConfig,
    phase: str,
    gradient: Gradient,
    *,
    on_step: Optional[StepSink] = None,
) -> None:
    """The one SGD loop, mutating `params`: one descent step per batch of
    `batches` (see `_batches`) along the gradient `gradient(batch, step)`
    leaves in `params.grad`, weight decay included. Step count and
    momentum restart per phase; `on_step(phase, step, batch)` runs after
    each step. A non-finite gradient or update is a `DivergenceError`."""
    params.attach_gradient()
    velocity = None
    for step, (_, batch) in enumerate(batches):
        try:
            gradient(batch, step)
            velocity = _sgd_step(params, velocity, config.learning_rate, config.momentum,
                                 config.weight_decay)
        except NonFiniteError as exc:
            raise DivergenceError(phase, step, str(exc)) from exc
        if on_step is not None:
            on_step(phase, step, batch)


def _halves(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A cross-entropy step's two fixed halves: the first (n + 1) // 2
    rows of its n, and the rest (empty for one row)."""
    middle = (len(batch) + 1) // 2
    return batch[:middle], batch[middle:]


@contextlib.contextmanager
def _data_parallel(params: ViTParams, batches: list[tuple[int, np.ndarray]],
                   config: TrainConfig | UnlearnConfig,
                   half: Callable[[np.ndarray, int], None]) -> Iterator[Gradient]:
    """Yields the `Gradient` of a cross-entropy phase over `batches`:
    a batch's gradient is that of its first half (`_halves`) plus, if it
    has a second, that of its second, in that order; `half(rows, n)`
    leaves in `params.grad` the gradient of `rows`, n rows' share of the
    batch. So the split is part of the arithmetic, not of the host.

    Where `_helper` can fork and some batch has two rows, the helper
    keeps a replica of `params` and computes each step's second half
    while this process computes the first. Per step, the helper writes
    its half-gradient, this process reads it after its own backward and
    then writes its own, which the helper reads: if both wrote first, a
    gradient larger than the 64 KB pipe buffer (149 KB at the benchmark's
    shapes) would block both writes. Both add the halves and apply the same `_sgd_step`, so the
    replicas keep the same bytes and only gradients cross the pipes.
    The helper sends results only: from the first step whose half it
    did not send (it raised, or died) on, and wherever it cannot fork,
    this process computes both halves, with the same bytes."""
    def work(source: BinaryIO, sink: BinaryIO) -> None:  # the helper's phase, on its replica
        velocity, theirs = None, np.empty_like(params.grad)
        for _, batch in batches:
            second = _halves(batch)[1]
            if len(second):
                half(second, len(batch))
                sink.write(params.grad)
                sink.flush()
            if source.readinto(theirs) != theirs.nbytes:
                return  # the caller has stopped
            if len(second):
                params.grad += theirs  # IEEE addition commutes: second + first is first + second
            else:
                np.copyto(params.grad, theirs)
            velocity = _sgd_step(params, velocity, config.learning_rate, config.momentum,
                                 config.weight_decay)

    params.attach_gradient()
    pairs = any(len(batch) > 1 for _, batch in batches)
    with _helper(work) if pairs else contextlib.nullcontext() as pipes:
        source, sink = pipes or (None, None)
        theirs = np.empty_like(params.grad)
        streaming = pipes is not None

        def gradient(batch: np.ndarray, step: int) -> None:
            nonlocal streaming
            first, second = _halves(batch)
            half(first, len(batch))
            if streaming and len(second):
                # once the stream has ended, this step and every later one run here
                streaming = source.readinto(theirs) == theirs.nbytes
            if streaming:
                with contextlib.suppress(BrokenPipeError):  # a helper gone after its half
                    sink.write(params.grad)
                    sink.flush()
                if len(second):
                    params.grad += theirs
            elif len(second):
                mine = params.grad.copy()
                half(second, len(batch))
                params.grad += mine

        yield gradient


def _cross_entropy_phase(params: ViTParams, dataset: LabeledDataset, indices: np.ndarray,
                         epochs: int, config: TrainConfig | UnlearnConfig,
                         rng: np.random.Generator, phase: str,
                         on_step: Optional[StepSink], sign: float = 1.0) -> None:
    """A cross-entropy SGD phase over `dataset[indices]`: training and
    every phase but `unlearn`'s forget phase; `sign` -1 descends the
    negated loss (gradient ascent). Each half of a batch contributes its
    share of the rows times its own mean cross-entropy, so at an even
    batch every row's upstream gradient is exactly 1 / n."""
    batches = _batches(indices, epochs, config.batch_size, rng, phase)

    def half(rows: np.ndarray, n: int) -> None:
        with Tape() as tape:
            logits = forward(params, dataset.images[rows]).logits
            loss = scale(cross_entropy(logits, dataset.labels[rows]), sign * len(rows) / n)
        backward(loss, tape)

    with _data_parallel(params, batches, config, half) as gradient:
        _sgd_phase(params, batches, config, phase, gradient, on_step=on_step)


def _from_scratch(dataset: LabeledDataset, config: TrainConfig, indices: np.ndarray,
                  on_step: Optional[StepSink]) -> ViTParams:
    params = init_params(config.model, config.seed)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    _cross_entropy_phase(params, dataset, indices, config.epochs, config, rng, "train", on_step)
    return params


def train_model(dataset: LabeledDataset, config: TrainConfig, *,
                on_step: Optional[StepSink] = None) -> ViTParams:
    """Train a fresh model with cross-entropy SGD; the original-model recipe."""
    return _from_scratch(dataset, config, np.arange(len(dataset), dtype=np.int64), on_step)


def retrain(split: DataSplit, config: TrainConfig, *,
            on_step: Optional[StepSink] = None) -> ViTParams:
    """Train from scratch on the retain set only: the gold-standard
    reference. The forget set is excluded by construction: every batch
    is drawn from `split.retain`, which `DataSplit` keeps disjoint from
    `split.forget`."""
    return _from_scratch(split.train, config, split.retain, on_step)


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
    Every forget batch is known before the first step, and a step's
    positives depend on the guarded `original.frozen()`, its batch and
    its mask seed alone, so those of every step are computed ahead, in
    step order, while the steps run (`_run_ahead`).
    """
    def run(theta: ViTParams, rng: np.random.Generator) -> None:
        forget = _batches(split.forget, config.forget_epochs, config.batch_size, rng, "forget")
        if forget:
            positives, negatives = frozen_teacher(original, split.train.images, split.forget,
                                                  config.mask_spec, config.batch_size)

            def teacher(step: int) -> np.ndarray:
                epoch, batch = forget[step]
                return positives(batch, int(np.random.SeedSequence(
                    (config.seed, epoch, step)).generate_state(1, np.uint64)[0]))

            with _run_ahead(teacher, len(forget)) as positive:
                def gradient(batch: np.ndarray, step: int) -> None:
                    with Tape() as tape:
                        anchor = forward(theta, split.train.images[batch]).logits
                        loss = contrastive_loss(anchor, Tensor(positive(step)),
                                                negatives(batch), config.temperature)
                    backward(loss, tape)

                _sgd_phase(theta, forget, config, "forget", gradient, on_step=on_step)
        _cross_entropy_phase(theta, split.train, split.retain, config.retain_epochs, config, rng,
                             "retain", on_step)

    return _from_original(original, config, run)


def fine_tune(original: ViTParams, split: DataSplit, config: UnlearnConfig, *,
              on_step: Optional[StepSink] = None) -> ViTParams:
    """Continue cross-entropy training on the retain set only."""
    return _from_original(original, config, lambda theta, rng: _cross_entropy_phase(
        theta, split.train, split.retain, config.retain_epochs, config, rng, "fine_tune",
        on_step))


def gradient_ascent(original: ViTParams, split: DataSplit, config: UnlearnConfig, *,
                    on_step: Optional[StepSink] = None) -> ViTParams:
    """Ascend the cross-entropy loss on the forget set by descending its
    negation, so that weight decay shrinks the weights as in every phase."""
    return _from_original(original, config, lambda theta, rng: _cross_entropy_phase(
        theta, split.train, split.forget, config.forget_epochs, config, rng, "gradient_ascent",
        on_step, sign=-1.0))


def relabel_forget(
    labels: np.ndarray, forget: np.ndarray, class_count: int, seed: int
) -> np.ndarray:
    """Replace forget labels with uniform draws over the other classes."""
    if class_count < 2:
        raise ConfigError(f"relabeling needs class_count >= 2, got {class_count}")
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
    return _from_original(original, config, lambda theta, rng: _cross_entropy_phase(
        theta, relabeled, np.arange(len(train), dtype=np.int64), config.retain_epochs, config,
        rng, "random_labels", on_step))

