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
  pass before the first step; each step runs the masked forward of the
  original (the positives) beside the tracked forward.

  retain: ordinary cross-entropy training on the retain set.

Baselines, one cross-entropy phase each: retraining from scratch on the
retain set (the reference every other method is measured against),
fine-tuning on the retain set, gradient ascent on the forget set (its
loss negated), and training with randomized forget labels. Every entry
point takes `on_step(phase, step, batch)`, called after each SGD step.

Every step of every phase splits its batch into two fixed halves and
descends the sum of their gradients (data-parallel SGD); on Linux with a
second CPU one helper, forked once per call (`_session`), computes the
second half of every step of every phase of the call, and `unlearn`'s
helper also half of the teacher's capture pass.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Optional

import numpy as np

from .data import DataSplit, LabeledDataset
from .errors import (ConfigError, ContractError, DivergenceError, NonFiniteError,
                     require_finite, require_nonnegative)
from .masking import _RECORD, MaskSpec, _helper, class_token_attention, mask_from_scores
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
        _require_finite_reciprocal(self.temperature, "UnlearnConfig.temperature")


def _require_finite_reciprocal(temperature: float, name: str) -> None:
    """The contrastive loss scales by 1 / temperature: below about
    5.6e-309 a positive temperature makes that scale Inf, and the loss
    NaN."""
    if math.isinf(1.0 / temperature):
        raise ConfigError(f"{name} must have a finite reciprocal, got {temperature}")


_TOKEN = b"\x01"  # one step's "my half is in my slot", or "I have read yours"


class _Link:
    """One process's end of a `_session`: the pipes to the other process
    and the two gradient slots, `mine` and `theirs`; or, made with no
    pipes, a closed end, with which this process computes everything.
    `helper` marks the forked process's end.

    The helper sends first at every exchange. Where the stream from the
    helper ends (it raised, was killed or died), this process closes its
    end for good and computes the rest of the call itself; where the
    stream from this process ends (it has stopped), the helper raises
    `EOFError`, which ends it."""

    def __init__(self, pipes: Optional[tuple[BinaryIO, BinaryIO]] = None,
                 slots: Optional[np.ndarray] = None, helper: bool = False):
        self.source, self.sink = pipes or (None, None)
        self.open, self.helper = pipes is not None, helper
        if slots is not None:
            self.mine, self.theirs = slots[::-1] if helper else slots

    def _send(self, data: bytes) -> None:
        if self.open:
            with contextlib.suppress(BrokenPipeError):  # the other is gone: its end is read next
                self.sink.write(data)
                self.sink.flush()

    def _receive(self, size: int) -> Optional[bytes]:
        data = self.source.read(size) if self.open else b""
        if len(data) == size:
            return data
        if self.helper:
            raise EOFError("the caller has stopped")
        self.open = False
        return None

    def _send_array(self, values: np.ndarray) -> None:
        self._send(_RECORD.pack(*values.shape) + values.tobytes())

    def _receive_array(self) -> Optional[np.ndarray]:
        header = self._receive(_RECORD.size)
        if header is None:
            return None
        rows, columns = _RECORD.unpack(header)
        payload = self._receive(8 * rows * columns)
        return None if payload is None else np.frombuffer(payload).reshape(rows, columns)

    def split(self, job: Callable[[int], np.ndarray], count: int) -> list[np.ndarray]:
        """`[job(0), ..., job(count - 1)]`, 2-D float64 arrays, with job k
        run in process k % 2 on an open link; `job` must be a function of
        k alone. The helper runs its jobs, sending each result, and then
        takes this process's results; this process runs its jobs between
        taking the helper's, in job order, and then sends its own. So
        neither writes while the other is blocked writing, whatever the
        results' size. A job the helper did not deliver runs here, so an
        error is raised here as itself."""
        if self.helper:
            results = {}
            for k in range(1, count, 2):
                results[k] = job(k)
                self._send_array(results[k])
            return [results[k] if k % 2 else self._receive_array() for k in range(count)]
        results = []
        for k in range(count):
            theirs = self._receive_array() if k % 2 else None
            results.append(job(k) if theirs is None else theirs)
        for values in results[::2]:
            self._send_array(values)
        return results

    def reduce(self, grad: np.ndarray, paired: bool) -> bool:
        """The all-reduce of one SGD step: `grad` holds this process's half
        of the step (in the helper, nothing at a step with no second half,
        `paired` false), and then first half + second half, the same bytes
        in both processes since IEEE addition commutes. The helper writes
        its slot and sends a token, then takes this process's token and
        adds this process's slot. This process takes the helper's token,
        writes its slot, adds the helper's and then sends its token. So a
        side rewrites its slot only once the other has read it: this
        process after the helper's token of the next step, the helper after
        this process's token of the step before. False, with `grad`
        untouched, where this process's end is closed or closes now."""
        if self.helper:
            if paired:
                np.copyto(self.mine, grad)
            self._send(_TOKEN)
            self._receive(1)
            if paired:
                grad += self.theirs
            else:
                np.copyto(grad, self.theirs)
            return True
        if self._receive(1) is None:
            return False
        np.copyto(self.mine, grad)
        if paired:
            grad += self.theirs
        self._send(_TOKEN)
        return True


def _session(params: ViTParams, fork: bool, run: Callable[[_Link], None]) -> None:
    """Runs `run(link)`, the SGD phases of one training or unlearning call
    on `params` (and `unlearn`'s capture pass), in this process and, where
    `fork` and `_helper` forks, in one helper forked for the whole call,
    each process with its end of the link. The helper starts from this
    process's `params` and keeps its replica in step with them. The two
    gradient slots, one per side, live in a shared anonymous mapping made
    before the fork, so a step passes a 1-byte token each way through the
    pipes, not a half-gradient (149 KB at the benchmark's shapes)."""
    if not fork:
        run(_Link())
        return
    slots = np.frombuffer(mmap.mmap(-1, 2 * params.vector.nbytes)).reshape(2, -1)
    with _helper(lambda source, sink: run(_Link((source, sink), slots, helper=True))) as pipes:
        run(_Link(pipes, slots))


def frozen_teacher(original: ViTParams, images: np.ndarray, indices: np.ndarray,
                   mask_spec: MaskSpec, chunk: int, link: Optional[_Link] = None
                   ) -> tuple[Callable[[np.ndarray, int], np.ndarray],
                              Callable[[np.ndarray], Tensor]]:
    """The frozen original as the teacher of `images[indices]` (distinct
    indices), as `(positives, negatives)`. Its unmasked logits (the
    negatives) and the class-token attention that picks the masked
    patches depend on the image alone, so one capture pass of at most
    `chunk` rows per forward computes them once; `negatives(batch)`
    gathers their rows. `positives(batch, mask_seed)` masks
    `images[batch]` by those scores, row i seeded `mask_seed + i`, and
    runs the one forward that gives the positive logits, as an array.
    `unlearn` passes `batch_size` as `chunk`, not evaluation's 64: at 64
    rows the `forget` benchmark's peak RSS rose by about 3 MB at the
    same speed.

    Given an open `link` (see `_session`), each of the two processes
    calls this, and capture chunk k runs in process k % 2 (`_Link.split`):
    the chunk's forward gives the same bytes in either, so both hold the
    same cache. Otherwise this process runs every chunk.

    The teacher runs on `original.frozen()`. An op records only when an
    input requires a gradient, so `positives` never touches a tape, not
    even one open on its own or another thread: it may run inside a
    tracked step, or in a process forked from one."""
    frozen = original.frozen()

    def capture(k: int) -> np.ndarray:
        """Chunk k's logits, and then its scores as further columns."""
        out = forward(frozen, images[indices[k * chunk:(k + 1) * chunk]], capture_attention=True)
        return np.concatenate([out.logits.values, class_token_attention(out.last_attention)],
                              axis=1)

    cache = np.concatenate((link or _Link()).split(capture, -(-len(indices) // chunk)))
    classes = frozen.config.num_classes
    negatives, scores = cache[:, :classes], cache[:, classes:]
    row_of = np.zeros(len(images), dtype=np.int64)  # image index -> cached row
    row_of[indices] = np.arange(len(indices))

    def positives(batch: np.ndarray, mask_seed: int) -> np.ndarray:
        masked = mask_from_scores(images[batch], scores[row_of[batch]], mask_spec,
                                  frozen.config.patch_size, mask_seed)
        return forward(frozen, masked).logits.values

    return positives, lambda batch: Tensor(negatives[row_of[batch]])


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
    _require_finite_reciprocal(temperature, "temperature")
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


def _halves(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A step's two fixed halves: the first (n + 1) // 2 rows of its n,
    and the rest (empty for one row)."""
    middle = (len(batch) + 1) // 2
    return batch[:middle], batch[middle:]


def _pairs(batches: list[tuple[int, np.ndarray]]) -> bool:
    """Whether some step of `batches` has a second half to give a helper."""
    return any(len(batch) > 1 for _, batch in batches)


def _sgd_phase(params: ViTParams, batches: list[tuple[int, np.ndarray]],
               config: TrainConfig | UnlearnConfig, phase: str,
               half: Callable[[int, np.ndarray, int, int], None], link: _Link, *,
               on_step: Optional[StepSink] = None) -> None:
    """The one SGD loop, mutating `params`: one descent step per batch of
    `batches` (see `_batches`). A batch's gradient is that of its first
    half (`_halves`) plus, if it has a second, that of its second, in
    that order: `half(step, rows, n, offset)` leaves in `params.grad` the
    gradient of `rows`, the part of step `step`'s n-row batch that starts
    at row `offset`. So the split is part of the arithmetic, not of the
    host. Step count and momentum restart per phase; `on_step(phase,
    step, batch)` runs after each step. A non-finite gradient or update
    is a `DivergenceError`.

    Both processes of a `_session` run the loop: on an open `link` the
    helper computes each step's second half and this process its first,
    `_Link.reduce` exchanges them, and both apply the same `_sgd_step`,
    so the replicas keep the same bytes; the helper calls no `on_step`.
    Where the link is closed, and from the first step whose half the
    helper did not deliver (it raised, was killed or died) on, this
    process computes both halves, with the same bytes."""
    params.attach_gradient()
    velocity = None
    for step, (_, batch) in enumerate(batches):
        first, second = _halves(batch)
        try:
            if link.helper:
                if len(second):
                    half(step, second, len(batch), len(first))
                link.reduce(params.grad, len(second) > 0)
            else:
                half(step, first, len(batch), 0)
                if not link.reduce(params.grad, len(second) > 0) and len(second):
                    mine = params.grad.copy()
                    half(step, second, len(batch), len(first))
                    params.grad += mine
            velocity = _sgd_step(params, velocity, config.learning_rate, config.momentum,
                                 config.weight_decay)
        except NonFiniteError as exc:
            raise DivergenceError(phase, step, str(exc)) from exc
        if on_step is not None and not link.helper:
            on_step(phase, step, batch)


def _cross_entropy_half(params: ViTParams, dataset: LabeledDataset,
                        sign: float = 1.0) -> Callable[[int, np.ndarray, int, int], None]:
    """The `half` of a cross-entropy phase over `dataset`: each half of a
    batch contributes its share of the rows times its own mean
    cross-entropy, so at an even batch every row's upstream gradient is
    exactly 1 / n; `sign` -1 descends the negated loss (gradient ascent)."""
    def half(step: int, rows: np.ndarray, n: int, offset: int) -> None:
        with Tape() as tape:
            logits = forward(params, dataset.images[rows]).logits
            loss = scale(cross_entropy(logits, dataset.labels[rows]), sign * len(rows) / n)
        backward(loss, tape)

    return half


def _cross_entropy_phase(params: ViTParams, dataset: LabeledDataset, indices: np.ndarray,
                         epochs: int, config: TrainConfig | UnlearnConfig,
                         rng: np.random.Generator, phase: str,
                         on_step: Optional[StepSink], sign: float = 1.0) -> None:
    """A call of one cross-entropy SGD phase over `dataset[indices]`, in
    its own `_session`: training and every method but `unlearn`."""
    batches = _batches(indices, epochs, config.batch_size, rng, phase)
    half = _cross_entropy_half(params, dataset, sign)
    _session(params, _pairs(batches), lambda link: _sgd_phase(
        params, batches, config, phase, half, link, on_step=on_step))


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
    batches of both phases, all drawn before the first step; each mask is
    seeded from (seed, epoch, step), and a half from row `offset` on
    masks with that seed plus `offset`, so every row keeps the noise of
    masking its whole batch at once. One `_session` runs the teacher's
    capture pass and both phases, so at most one helper forks per call."""
    def run(theta: ViTParams, rng: np.random.Generator) -> None:
        forget = _batches(split.forget, config.forget_epochs, config.batch_size, rng, "forget")
        retain = _batches(split.retain, config.retain_epochs, config.batch_size, rng, "retain")
        chunks = -(-len(split.forget) // config.batch_size) if forget else 0

        def session(link: _Link) -> None:
            if forget:
                positives, negatives = frozen_teacher(original, split.train.images, split.forget,
                                                      config.mask_spec, config.batch_size, link)

                def half(step: int, rows: np.ndarray, n: int, offset: int) -> None:
                    mask_seed = np.random.SeedSequence((config.seed, forget[step][0], step))
                    positive = positives(rows,
                                         int(mask_seed.generate_state(1, np.uint64)[0]) + offset)
                    with Tape() as tape:
                        anchor = forward(theta, split.train.images[rows]).logits
                        loss = scale(contrastive_loss(anchor, Tensor(positive), negatives(rows),
                                                      config.temperature), len(rows) / n)
                    backward(loss, tape)

                _sgd_phase(theta, forget, config, "forget", half, link, on_step=on_step)
            _sgd_phase(theta, retain, config, "retain", _cross_entropy_half(theta, split.train),
                       link, on_step=on_step)

        _session(theta, chunks > 1 or _pairs(forget + retain), session)

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

