"""Attention-guided patch masking.

The frozen original model scores every patch by the attention its class
token pays to it (mean over heads, final block), the top fraction of
patches is selected, and the corresponding image pixels are replaced by
zeros or Gaussian noise. `apply_mask`, `mask_from_scores` and
`build_masked_view` return the masked [B, C, S, S] array; the masked
indices are the caller's, or `select_top_k(scores, ratio)`.

`forward_chunks` runs the package's untracked, chunked forwards with the
serial loop's bytes; on Linux with a second CPU a forked helper process
computes chunks holding about half of the rows. A set may be a
`MaskedSet`, which each chunk masks just before its forward.

`_helper` is the package's one way to use the second core, and
`_session` its one user: it forks one helper for a whole call and gives
each process its end of a `_Link`. `_Link.split` is the one exchange of
results, used by `forward_chunks` (evaluation, the masking sweep, whose
two passes share a session, and `unlearn`'s capture pass), and
`_Link.reduce` the all-reduce of every SGD step of `unlearning`. No code
in the package starts a thread.
"""

from __future__ import annotations

import contextlib
import enum
import mmap
import os
import signal
import struct
import sys
import threading
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, Optional, Sequence

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
    fails (`OSError`), having closed whatever it opened. Its one caller
    is `_session`, whose `_Link` is all that crosses the pipes.

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


_RECORD = struct.Struct("=qq")  # a result's (rows, columns), sent before its float64 bytes
_TOKEN = b"\x01"  # one step's "my half is in my slot", or "I have read yours"


class _Link:
    """One process's end of a `_session`: the pipes to the other process
    and, for an SGD call, the two gradient slots, `mine` and `theirs`; or,
    made with no pipes, a closed end, with which this process computes
    everything. `helper` marks the forked process's end.

    The helper sends first at every exchange. Where the stream from the
    helper ends (it raised, was killed or died), this process closes its
    end for good and computes the rest of the session itself; where the
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

    def split(self, job: Callable[[int], np.ndarray], count: int,
              sides: Sequence[int]) -> list[np.ndarray]:
        """`[job(0), ..., job(count - 1)]`, 2-D float64 arrays, in both
        processes, with job k run in the helper where `sides[k]` is 1 on
        an open link, and here otherwise; `job` must be a function of k
        alone, and both processes pass the same `sides`. The helper runs
        its jobs, sending each result, and then takes this process's
        results; this process runs its jobs between taking the helper's,
        in job order, and then sends its own. So neither writes while the
        other is blocked writing, whatever the results' size. A job the
        helper did not deliver runs here, so an error is raised here as
        itself, at the first failing job."""
        if self.helper:
            results = {}
            for k in range(count):
                if sides[k]:
                    results[k] = job(k)
                    self._send_array(results[k])
            return [results[k] if sides[k] else self._receive_array() for k in range(count)]
        results = []
        for k in range(count):
            theirs = self._receive_array() if sides[k] else None
            results.append(job(k) if theirs is None else theirs)
        for k in range(count):
            if not sides[k]:
                self._send_array(results[k])
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


def _session(fork: bool, run: Callable[[_Link], Any], params: Optional[ViTParams] = None) -> Any:
    """Returns `run(link)` of this process, having run `run` in this
    process and, where `fork` and `_helper` forks, in one helper forked
    for the whole session, each process with its end of the link; the
    helper's value is dropped. Given the `params` of an SGD call, the
    helper starts from this process's `params` and keeps its replica in
    step with them, and the two gradient slots, one per side, live in a
    shared anonymous mapping made before the fork, so a step passes a
    1-byte token each way through the pipes, not a half-gradient (149 KB
    at the benchmark's shapes)."""
    if not fork:
        return run(_Link())
    slots = (None if params is None else
             np.frombuffer(mmap.mmap(-1, 2 * params.vector.nbytes)).reshape(2, -1))
    with _helper(lambda source, sink: run(_Link((source, sink), slots, helper=True))) as pipes:
        return run(_Link(pipes, slots))


class MaskedSet(NamedTuple):
    """`images` masked by `mask_from_scores(images, scores, spec,
    patch_size, seed)`, as a set `forward_chunks` masks chunk by chunk."""

    images: np.ndarray
    scores: np.ndarray  # [B, N] class-token attention of `images`
    spec: MaskSpec
    seed: int = 0


def forward_chunks(models: Sequence[ViTParams], sets: Sequence[np.ndarray | MaskedSet],
                   chunk: int, capture_attention: bool | Sequence[bool] = False,
                   link: Optional[_Link] = None) -> list[list[np.ndarray]]:
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
    long chunks in every sweep setting. `_Link.split` runs the jobs on
    `link`, which both processes of the caller's `_session` pass, or
    else in a `_session` of the call's own, forked given two jobs or
    more: so an error in a chunk is raised as itself, at the first
    failing chunk, as the serial loop would have raised it. Every
    forward runs on a gradient-free copy of its model, made once per
    distinct model, so none records on a tape, not even one the caller
    has open. An empty set is a `DimensionError`, as `forward` of zero
    rows is, raised before any chunk runs."""
    if len(models) != len(sets):
        raise ContractError(f"{len(models)} models for {len(sets)} sets")
    captures = ([capture_attention] * len(sets) if isinstance(capture_attention, bool)
                else list(capture_attention))
    if len(captures) != len(sets):
        raise ContractError(f"{len(captures)} capture flags for {len(sets)} sets")
    rows = [len(s.images if isinstance(s, MaskedSet) else s) for s in sets]
    if 0 in rows:
        raise DimensionError(f"set {rows.index(0)} of {len(rows)} has no images to forward")
    frozen = {key: model.frozen() for key, model in {id(m): m for m in models}.items()}
    jobs = [(frozen[id(model)], s, start, capture, min(chunk, n - start))
            for model, s, capture, n in zip(models, sets, captures, rows)
            for start in range(0, n, chunk)]
    load, sides = [0, 0], []
    for *_, size in jobs:
        sides.append(int(load[0] > load[1]))
        load[sides[-1]] += size

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

    results = iter(link.split(run, len(jobs), sides) if link is not None else
                   _session(len(jobs) > 1, lambda link: link.split(run, len(jobs), sides)))
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
