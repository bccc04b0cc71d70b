"""Attention-guided patch masking.

The frozen original model scores every patch by the attention its class
token pays to it (mean over heads, final block), the top fraction of
patches is selected, and the corresponding image pixels are replaced by
zeros or Gaussian noise. `apply_mask`, `mask_from_scores` and
`build_masked_view` return the masked [B, C, S, S] array; the masked
indices are the caller's, or `select_top_k(scores, ratio)`.

`forward_chunks` runs evaluation's untracked, chunked forwards with the
serial loop's bytes; on Linux with a second CPU a forked helper process
(`_run_ahead`) computes chunks holding about half of the rows. A set may
be a `MaskedSet`, which each chunk masks just before its forward.

`_helper` is the package's one way to use the second core: it forks the
one gradient helper of each training or unlearning call of
`unlearning` (`unlearn`'s also computes half of its teacher's capture
pass) and the helper of `forward_chunks`. No code in the package starts
a thread.
"""

from __future__ import annotations

import contextlib
import enum
import os
import signal
import struct
import sys
import threading
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, require_finite
from .tensor import DTYPE
from .vit import ViTParams, forward, patch_grid


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
    """The CPUs this process may run on; `_helper` forks only given two."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@contextlib.contextmanager
def _helper(work: Callable[[BinaryIO, BinaryIO], None]
            ) -> Iterator[Optional[tuple[BinaryIO, BinaryIO]]]:
    """Runs `work(source, sink)` in a forked helper process while the
    block runs and yields this process's ends of the two pipes between
    them, `(source, sink)`: `source` reads what the helper writes to its
    `sink`, and the helper's `source` reads what this `sink` writes.
    Yields None where it does not fork, or where a pipe or the fork
    fails (`OSError`), having closed whatever it opened.

    It forks only on Linux, from the main thread with no other thread
    alive, given at least two CPUs (`pool_size()`): `fork` copies only
    the calling thread, and only the main thread may swap the SIGINT
    handler, one set from Python; Windows has no `fork`, and on macOS forked children of
    system frameworks crash; on one CPU a helper would only time-share
    the core, at the cost of the fork and of the copy-on-write faults
    the parent takes afterwards. An at-fork hook would swallow the
    `KeyboardInterrupt` of a SIGINT handled in it, so one that comes
    while it forks is noted, and raised once the block is set up. The
    helper ignores SIGINT (the caller decides when it stops), turns every
    warning into an error, which fails the job it comes from (the caller
    reruns a job the helper did not deliver, and prints its warning
    itself), and ends in `os._exit` however `work` ends, EPIPE or EOF
    once the caller is gone included: it never returns into the caller,
    never writes to the stdio it inherited and never flushes it. However
    the block ends, the pipes close and the helper is killed if still
    running and reaped, so no process outlives it."""
    if (sys.platform != "linux" or threading.enumerate() != [threading.main_thread()]
            or pool_size() < 2 or signal.getsignal(signal.SIGINT) is None):
        yield None
        return
    pid, fds, interrupted = None, [], []
    handler = signal.signal(signal.SIGINT, lambda *_: interrupted.append(True))
    try:  # two pipes, (read end, write end): helper -> caller, then caller -> helper
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:  # EMFILE, or EAGAIN at the process limit: the caller runs the work
        for fd in fds:
            os.close(fd)
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            warnings.simplefilter("error")  # a warning fails the job, which the caller reruns
            os.close(fds[0])
            os.close(fds[3])
            with os.fdopen(fds[2], "rb") as source, os.fdopen(fds[1], "wb") as sink:
                work(source, sink)
        finally:
            os._exit(0)
    pipes = None
    if pid:
        os.close(fds[1])
        os.close(fds[2])
        pipes = os.fdopen(fds[0], "rb"), os.fdopen(fds[3], "wb")
    try:
        signal.signal(signal.SIGINT, handler)
        if interrupted:
            signal.raise_signal(signal.SIGINT)
        yield pipes
    finally:
        if pipes:
            pipes[0].close()
            with contextlib.suppress(BrokenPipeError):  # the last write to a dead helper
                pipes[1].close()
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

    Where `_helper` forks (never for `count` 0), the helper computes
    every `job(k)` in order while the caller works, and streams each to
    `result` through a pipe: the two share no interpreter lock. The
    helper sends results only: from the first step whose record it did
    not send (its job raised, or it died) on, and wherever it does not
    fork, `result` runs `job` inline, so an error is raised as itself at
    its step."""
    def work(source: BinaryIO, sink: BinaryIO) -> None:
        for k in range(count):
            values = job(k)
            sink.write(_RECORD.pack(*values.shape) + values.tobytes())
            sink.flush()

    with _helper(work) if count else contextlib.nullcontext() as pipes:
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


class MaskedSet(NamedTuple):
    """`images` masked by `mask_from_scores(images, scores, spec,
    patch_size, seed)`, as a set `forward_chunks` masks chunk by chunk."""

    images: np.ndarray
    scores: np.ndarray  # [B, N] class-token attention of `images`
    spec: MaskSpec
    seed: int = 0


def forward_chunks(models: Sequence[ViTParams], sets: Sequence[np.ndarray | MaskedSet],
                   chunk: int, capture_attention: bool | Sequence[bool] = False
                   ) -> list[list[np.ndarray]]:
    """Per set in `sets`, the logits [B, classes] of the model at its
    place in `models` and, when capturing (one flag for every set, or
    one per set), its class-token attention scores [B, N], from one
    untracked forward per `chunk` rows. A `MaskedSet` is masked each
    chunk just before its forward, the chunk from row `start` seeded
    `seed + start`; as `apply_mask` seeds row i with `seed + i`, these
    are the rows of masking the whole set at once, but only the chunks
    in flight exist masked.

    The chunks of all sets form one job list in chunk order, and each
    job goes to the process that has the fewer rows so far, this one on
    a tie: alternation would give one process both of a short test set's
    long chunks in every sweep setting. Where `_helper` forks, its
    helper computes its jobs in order (`_run_ahead`) and this process
    the others, taking results in job order: so an error in a chunk is
    raised as itself, at the first failing chunk, as the serial loop
    would have raised it. Every forward runs on a gradient-free copy of
    its model, so none records on a tape, not even one the caller has
    open. An empty set is a `DimensionError`, as `forward` of zero rows
    is, raised before any chunk runs."""
    if len(models) != len(sets):
        raise ContractError(f"{len(models)} models for {len(sets)} sets")
    captures = ([capture_attention] * len(sets) if isinstance(capture_attention, bool)
                else list(capture_attention))
    rows = [len(s.images if isinstance(s, MaskedSet) else s) for s in sets]
    if 0 in rows:
        raise DimensionError(f"set {rows.index(0)} of {len(rows)} has no images to forward")
    frozen = {id(model): model.frozen() for model in models}
    jobs = [(frozen[id(model)], s, start, capture, min(chunk, n - start))
            for model, s, capture, n in zip(models, sets, captures, rows)
            for start in range(0, n, chunk)]
    load, helper_jobs = [0, 0], []
    for k, job in enumerate(jobs):
        side = int(load[0] > load[1])
        load[side] += job[-1]
        if side:
            helper_jobs.append(k)
    helper_index = {k: i for i, k in enumerate(helper_jobs)}

    def run(k: int) -> np.ndarray:
        """Job k's logits, and then its scores as further columns."""
        model, s, start, capture, _ = jobs[k]
        stop = start + chunk
        if isinstance(s, MaskedSet):
            images = mask_from_scores(s.images[start:stop], s.scores[start:stop], s.spec,
                                      model.config.patch_size, s.seed + start)
        else:
            images = s[start:stop]
        out = forward(model, images, capture_attention=capture)
        if not capture:
            return out.logits.values
        return np.concatenate([out.logits.values, class_token_attention(out.last_attention)],
                              axis=1)

    with _run_ahead(lambda i: run(helper_jobs[i]), len(helper_jobs)) as theirs:
        results = iter([theirs(helper_index[k]) if k in helper_index else run(k)
                        for k in range(len(jobs))])
    out = []
    for model, capture, n in zip(models, captures, rows):
        parts = list(islice(results, -(-n // chunk)))
        classes = model.config.num_classes
        out.append([np.concatenate([p[:, :classes] for p in parts]),
                    np.concatenate([p[:, classes:] for p in parts])] if capture
                   else [np.concatenate(parts)])
    return out


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
    `indices` [B, k] replaced, through `vit.patch_grid`'s view of the
    copy; all others unchanged.

    Gaussian replacement draws per sample from a generator seeded
    `seed + sample_index`, so samples can be processed independently;
    a sample's one (k, C, p, p) draw fills its patches in the order of
    its row of `indices`.
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

    out = images.copy()
    patches = patch_grid(out, patch_size)  # [B, g, g, C, p, p] view of `out`
    rows, cols = np.divmod(indices, grid)
    if spec.mask_type is MaskType.ZERO:
        patches[np.arange(b)[:, None], rows, cols] = 0.0
    else:
        for i in range(b):
            patches[i, rows[i], cols[i]] = np.random.Generator(np.random.PCG64(seed + i)).normal(
                0.0, spec.gaussian_std, (indices.shape[1], c, patch_size, patch_size))
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
