"""Reverse-mode automatic differentiation over dense numpy buffers.

The engine is deliberately small: a `Tensor` wraps an immutable float64
numpy array, a `Tape` records differentiable operations in execution
order, and `backward` replays the tape once in reverse. Operations run
outside any active tape compute plain values and track no gradients.
The threading contract is one rule: gradient-free tensors never
record, and one tape is open at a time. An op records only when an
input requires a gradient, so a frozen model's forward (on
`ViTParams.frozen()`) may run beside an open tape;
entering a `Tape` while one is open raises `ContractError`.

Shapes are explicit everywhere; the only broadcasting is trailing-shape
bias addition in `add` and the affine ops. Every operation validates
its inputs and checks its output for NaN/Inf so a diverging training
run fails loudly.

The ViT runs on three fused ops, each one tape record with a
hand-written backward: `linear` (x @ w + b), `attention` (Q/K/V
projections, scaled scores, softmax, context and head merge) and `mlp`
(linear, exact-erf GELU, linear). A fused op checks only its one
output for NaN/Inf, not its intermediates; a non-finite intermediate
still surfaces there, except where the softmax maps a -inf score to an
exact zero weight. Each fused op runs the same numpy expressions, in
the same order, as the composition of fine-grained ops it replaces,
so both produce identical bytes; `attention(class_only=True)` agrees
with row 0 of the all-token op to rounding level. The kernels run each
elementwise chain in place (`out=`, `+=`, `*=`) in arrays the same call
allocated, keeping every expression's operands and their association,
so the bytes are those of the out-of-place forms. A kernel never writes
into an input array, an upstream gradient (`add` hands the same one to
both inputs) or an array that a backward closure or the caller keeps
(`xhat`, `pre`, `cdf`, the attention weights, an op's output). One
training step of the depth-2 model records 20 ops: per block
`layer_norm`, `attention`, `add`, `layer_norm`, `mlp`, `add`, plus the
patch embedding, one `take_token` after the final (class-only)
attention, the final `layer_norm`, the head and the loss.

Every step allocates its tape's arrays and frees them all in
`backward`, each record's as soon as its backward has run. `keep_heap`
sets the C heap policy that suits that pattern, and
`pin_blas_threads` runs OpenBLAS on one thread, so the bytes do not
depend on the thread count; the program calls both once at start-up,
never at import.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import (
    ContractError,
    DegenerateVectorError,
    DimensionError,
    LabelError,
    NonFiniteError,
)

DTYPE = np.float64

# norms below this are treated as zero vectors
_NORM_FLOOR = 1e-12

_LN_EPS = 1e-5

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient.

    Values are frozen at construction (the numpy buffer is marked
    read-only), so tensors can be shared freely across threads; only
    `grad` is written afterwards, and a model parameter's `values`
    when `ViTParams.assign` points it at the model's next vector. A
    leaf's `grad` is None until a `backward` reaches it (see there).
    """

    __slots__ = ("values", "requires_grad", "grad", "is_leaf")

    def __init__(self, values, requires_grad: bool = False, *, _leaf: bool = True,
                 _view: bool = False):
        # a private copy of user data; op results are fresh, and a model
        # parameter (`_view`) is a view of its model's checked read-only vector
        arr = (np.array if _leaf and not _view else np.asarray)(values, dtype=DTYPE)
        if not _view and not np.isfinite(arr).all():
            raise NonFiniteError("tensor contains NaN or Inf values")
        if arr.flags.writeable:
            arr.setflags(write=False)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.is_leaf = _leaf

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.ndim != 0:
            raise ContractError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.values)

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flags})"


@dataclass
class _OpRecord:
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


@dataclass
class Tape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around the forward pass being
    differentiated; one tape is open at a time in the process.
    Appending at execution time keeps the record topologically ordered,
    so `backward` can walk it in reverse and visit each operation
    exactly once. A tape is single-use.
    """

    _records: list[_OpRecord] = field(default_factory=list)
    consumed: bool = False

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise ContractError("tape context entered while a tape is open")
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None

    def __len__(self) -> int:
        return len(self._records)


# the tape ops record on: the open `with Tape()`, or None
_active: Optional[Tape] = None


def _result(inputs: tuple[Tensor, ...], out_values: np.ndarray, backward_fn) -> Tensor:
    tracked = _active is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_values, requires_grad=tracked, _leaf=False)
    if tracked:
        if _active.consumed:
            raise ContractError("tape already consumed by a backward pass")
        _active._records.append(_OpRecord(inputs, out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Copy d(loss)/d(leaf) into the `.grad` of every leaf on `tape`.

    `loss` must be a scalar produced while `tape` was active. `.grad` is
    an array the leaf owns, made on its first backward (a parameter's is
    its view of `ViTParams.grad`), and holds this backward's gradient,
    not a sum; a leaf off the path to the loss gets exact zeros. Each
    array the `.grad`s view is scanned once for NaN/Inf (a model's one
    buffer, not each view). The tape is consumed: each record is
    dropped, and its arrays freed, as soon as its backward has run.
    """
    if loss.values.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ContractError("tape already consumed by a backward pass")

    tape.consumed = True
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=DTYPE)}
    leaves: dict[int, Tensor] = {}
    while tape._records:
        rec = tape._records.pop()  # each record's arrays go once it has run
        for t in rec.inputs:
            if t.requires_grad and t.is_leaf:
                leaves[id(t)] = t
        g_out = grads.pop(id(rec.output), None)
        if g_out is None:
            continue
        in_grads = rec.backward(g_out)
        for t, g_in in zip(rec.inputs, in_grads):
            if g_in is None or not t.requires_grad:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = g_in if acc is None else acc + g_in

    owners: dict[int, np.ndarray] = {}
    for key, t in leaves.items():
        g = grads.pop(key, None)
        if t.grad is None:
            t.grad = np.empty(t.shape, dtype=DTYPE)
        np.copyto(t.grad, 0.0 if g is None else g)
        owner = t.grad if t.grad.base is None else t.grad.base
        owners[id(owner)] = owner
    if not all(np.isfinite(owner).all() for owner in owners.values()):
        raise NonFiniteError("gradient contains NaN or Inf values")


# ---------------------------------------------------------------------------
# heap policy
# ---------------------------------------------------------------------------

# glibc mallopt(3) parameter numbers and the values keep_heap sets.
# Every array the engine makes is under 3.5 MB; 32 MiB is glibc's
# largest mmap threshold on 64-bit hosts, so all of them come from the
# heap. One arena lets any thread reuse the main heap's freed pages.
_HEAP_SETTINGS = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 256 << 20),
                  "M_ARENA_MAX": (-8, 1)}

_heap_applied: Optional[dict[str, int]] = None


def keep_heap() -> Optional[dict[str, int]]:
    """Make the C heap keep the memory the engine frees.

    A training step allocates a tape's worth of arrays and `backward`
    frees them all, record by record. Under glibc's default policy the
    freed top of the heap goes back to the OS and large arrays get fresh
    `mmap`s, so every step faults in megabytes of new pages. Raising the
    mmap and trim thresholds and keeping one arena for all threads lets
    numpy reuse warm heap pages instead. No value changes, only where it lives.

    Returns the applied settings, or None where libc has no `mallopt`
    (macOS, musl, Windows) or rejects a value; then nothing is applied.
    Calling it again is harmless. Importing the package does not call
    it: the CLI's `main` and the test suite do.
    """
    global _heap_applied
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not all(mallopt(param, value) == 1 for param, value in _HEAP_SETTINGS.values()):
        return None
    _heap_applied = {name: value for name, (_, value) in _HEAP_SETTINGS.items()}
    return heap_policy()


def heap_policy() -> Optional[dict[str, int]]:
    """The settings `keep_heap` applied in this process, None if none."""
    return None if _heap_applied is None else dict(_heap_applied)


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS numpy runs on, with the thread symbols of the
    scipy-openblas build numpy's wheels bundle, or None without them.
    The lookup goes through numpy's own extension, so it finds the copy
    numpy loaded, wherever it lives."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        lib.scipy_openblas_set_num_threads64_.argtypes = (ctypes.c_int,)
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_num_threads64_.argtypes = ()
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_get_corename64_.argtypes = ()
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    except (AttributeError, OSError):
        return None
    return lib


def pin_blas_threads() -> Optional[dict]:
    """Run numpy's OpenBLAS on one thread, whatever `OPENBLAS_NUM_THREADS`
    says. Checkpoint bytes depend on the BLAS thread count: a
    weight-gradient product over a partial batch is split differently
    between two threads. One thread per process also leaves the second
    core to the package's own parallel work: its forked helpers, which
    inherit the pin.

    Returns `blas_threads()`, or None where the OpenBLAS symbols are
    missing; then nothing is applied. Importing the package does not
    call it: the CLI's `main` and the test suite do."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
    return blas_threads()


def blas_threads() -> Optional[dict]:
    """`{"threads": count, "core": kernel name}` of numpy's OpenBLAS now,
    or None where its symbols are missing."""
    lib = _openblas()
    if lib is None:
        return None
    return {"threads": lib.scipy_openblas_get_num_threads64_(),
            "core": lib.scipy_openblas_get_corename64_().decode()}


# ---------------------------------------------------------------------------
# numeric kernels shared by the fine-grained and the fused ops
# ---------------------------------------------------------------------------


# Each kernel runs its chain in one array it allocated (or `out`, which
# the caller owns and gives up) and writes into none of its arguments.


def _softmax(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """e / e.sum(-1) for e = exp(x - x.max(-1)); `out` may be `x` itself."""
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(g - (g * y).sum(-1)) * y."""
    gy = g * y
    np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
    gy *= y
    return gy


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x * cdf, cdf) for cdf = 0.5 * (1 + erf(x / sqrt 2))."""
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_backward(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """g * (cdf + x * pdf) for pdf = exp(-0.5 * x * x) / sqrt(2 pi)."""
    t = -0.5 * x
    t *= x
    np.exp(t, out=t)
    t *= _INV_SQRT_2PI
    t *= x
    t += cdf
    t *= g
    return t


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2-D x 2-D, batched x 2-D weight, and
    batched x batched with identical leading dimensions."""
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(f"matmul requires rank >= 2 operands, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {av.shape} vs {bv.shape}")
    if bv.ndim == 2:
        pass  # weight case: any-rank a times 2-D b
    elif av.ndim == bv.ndim and av.shape[:-2] == bv.shape[:-2]:
        pass  # batched case with matching leading dims
    else:
        raise DimensionError(f"matmul shapes not supported: {av.shape} vs {bv.shape}")
    out = av @ bv

    def bwd(g: np.ndarray):
        if bv.ndim == 2 and av.ndim > 2:
            ga = g @ bv.T
            k, n = bv.shape
            gb = av.reshape(-1, k).T @ g.reshape(-1, n)
        else:
            ga = g @ np.swapaxes(bv, -1, -2)
            gb = np.swapaxes(av, -1, -2) @ g
        return ga, gb

    return _result((a, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; `b` may be a trailing-shape bias of `a`."""
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        if bv.ndim >= av.ndim or av.shape[av.ndim - bv.ndim:] != bv.shape:
            raise DimensionError(f"add requires equal or trailing shapes: {av.shape} vs {bv.shape}")
    out = av + bv

    def bwd(g: np.ndarray):
        gb = g
        if bv.shape != g.shape:
            gb = g.sum(axis=tuple(range(g.ndim - bv.ndim)))
        return g, gb

    return _result((a, b), out, bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply every element by a python scalar."""
    factor = float(factor)
    out = a.values * factor

    def bwd(g: np.ndarray):
        return (g * factor,)

    return _result((a,), out, bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute axes; `axes` must be a permutation of range(ndim)."""
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose axes {axes} are not a permutation for shape {a.shape}")
    inverse = tuple(int(i) for i in np.argsort(axes))
    out = a.values.transpose(axes)

    def bwd(g: np.ndarray):
        return (g.transpose(inverse),)

    return _result((a,), out, bwd)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} (size {a.size}) to {shape}")
    out = a.values.reshape(shape)
    src_shape = a.shape

    def bwd(g: np.ndarray):
        return (g.reshape(src_shape),)

    return _result((a,), out, bwd)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along `axis`; all other dimensions must agree."""
    if not parts:
        raise DimensionError("concat requires at least one tensor")
    ref = parts[0].shape
    for p in parts[1:]:
        if p.ndim != len(ref) or any(
            i != axis and p.shape[i] != ref[i] for i in range(p.ndim)
        ):
            raise DimensionError(f"concat shapes disagree: {ref} vs {p.shape} on axis {axis}")
    out = np.concatenate([p.values for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g: np.ndarray):
        return tuple(np.split(g, offsets, axis=axis))

    return _result(tuple(parts), out, bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"softmax_rows requires a non-empty last dimension, got {x.shape}")
    y = _softmax(x.values)

    def bwd(g: np.ndarray):
        return (_softmax_backward(g, y),)

    return _result((x,), y, bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    n = x.shape[-1] if x.ndim else 0
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )
    # centre once; the variance is np.var's own arithmetic on the centred rows
    xhat = x.values - x.values.mean(axis=-1, keepdims=True)
    sq = xhat * xhat
    inv = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / n + _LN_EPS)
    xhat *= inv
    out = np.multiply(xhat, gain.values, out=sq)  # xhat * gain + bias
    out += bias.values
    lead = tuple(range(x.ndim - 1))

    def bwd(g: np.ndarray):
        # dx = inv * (dxhat - dxhat.mean(-1) - xhat * (dxhat * xhat).mean(-1))
        t = g * xhat
        dgain = t.sum(axis=lead)
        dbias = g.sum(axis=lead)
        dx = g * gain.values  # dxhat
        np.multiply(dx, xhat, out=t)
        m = t.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, m, out=t)
        dx *= inv
        return dx, dgain, dbias

    return _result((x, gain, bias), out, bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit: 0.5 x (1 + erf(x / sqrt 2))."""
    out, cdf = _gelu(x.values)

    def bwd(g: np.ndarray):
        return (_gelu_backward(g, x.values, cdf),)

    return _result((x,), out, bwd)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) computed without overflow for large |x|."""
    v = x.values
    out = np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    def bwd(g: np.ndarray):
        sig = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.clip(v, 0, None))),
                       np.exp(np.clip(v, None, 0)) / (1.0 + np.exp(np.clip(v, None, 0))))
        return (g * sig,)

    return _result((x,), out, bwd)


def mean_all(x: Tensor) -> Tensor:
    out = x.values.mean()
    shape, n = x.shape, x.size

    def bwd(g: np.ndarray):
        return (np.full(shape, float(g) / n, dtype=DTYPE),)

    return _result((x,), out, bwd)


def _log_softmax(logits: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Row log-softmax of [batch, classes] logits, after checking that
    `labels` holds one in-range class per row; returns (logp, labels)."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects [batch, classes] logits, got {logits.shape}")
    labels = np.asarray(labels)
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch size {batch}")
    bad = (labels < 0) | (labels >= classes)
    if bad.any():
        idx = int(np.argmax(bad))
        raise LabelError(f"label {int(labels[idx])} at index {idx} outside [0, {classes})")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse, labels


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class over the batch."""
    logp, labels = _log_softmax(logits.values, labels)
    batch = len(labels)
    loss = -logp[np.arange(batch), labels].mean()

    def bwd(g: np.ndarray):
        grad = np.exp(logp)
        grad[np.arange(batch), labels] -= 1.0
        return (grad * (float(g) / batch),)

    return _result((logits,), loss, bwd)


def per_sample_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Non-differentiable helper: one cross-entropy value per row."""
    logp, labels = _log_softmax(np.asarray(logits, dtype=DTYPE), labels)
    return -logp[np.arange(len(labels)), labels]


def row_cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of matching rows of two [batch, n] tensors."""
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionError(f"row_cosine expects matching [batch, n] shapes, got {a.shape} and {b.shape}")
    av, bv = a.values, b.values
    na = np.linalg.norm(av, axis=-1)
    nb = np.linalg.norm(bv, axis=-1)
    if na.min() < _NORM_FLOOR or nb.min() < _NORM_FLOOR:
        raise DegenerateVectorError("cosine similarity of a (near-)zero vector")
    s = (av * bv).sum(axis=-1) / (na * nb)

    def bwd(g: np.ndarray):
        gc = g[:, None]
        denom = (na * nb)[:, None]
        sc = s[:, None]
        ga = gc * (bv / denom - sc * av / (na * na)[:, None])
        gb = gc * (av / denom - sc * bv / (nb * nb)[:, None])
        return ga, gb

    return _result((a, b), s, bwd)


def repeat_batch(x: Tensor, count: int) -> Tensor:
    """Stack `count` copies of `x` along a new leading batch axis."""
    if count < 1:
        raise DimensionError(f"repeat_batch count must be >= 1, got {count}")
    out = np.broadcast_to(x.values, (count,) + x.shape)

    def bwd(g: np.ndarray):
        return (g.sum(axis=0),)

    return _result((x,), out, bwd)


def take_token(x: Tensor, index: int) -> Tensor:
    """Select one token position from a [batch, tokens, dim] tensor."""
    if x.ndim != 3:
        raise DimensionError(f"take_token expects [batch, tokens, dim], got {x.shape}")
    if not 0 <= index < x.shape[1]:
        raise DimensionError(f"token index {index} outside [0, {x.shape[1]})")
    out = x.values[:, index, :]
    shape = x.shape

    def bwd(g: np.ndarray):
        full = np.zeros(shape, dtype=DTYPE)
        full[:, index, :] = g
        return (full,)

    return _result((x,), out, bwd)


# ---------------------------------------------------------------------------
# fused model-path ops
# ---------------------------------------------------------------------------


def _check_affine(name: str, in_shape: tuple[int, ...], weight: Tensor, bias: Tensor) -> None:
    if len(in_shape) < 2 or weight.ndim != 2:
        raise DimensionError(
            f"{name} requires rank >= 2 input and a 2-D weight, got {in_shape} and {weight.shape}"
        )
    if in_shape[-1] != weight.shape[0]:
        raise DimensionError(f"{name} inner dimensions disagree: {in_shape} vs {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise DimensionError(
            f"{name} bias must have shape ({weight.shape[1]},), got {bias.shape}"
        )


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in the product's own array."""
    out = x @ w
    out += b
    return out


def _affine_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray, need_x: bool = True):
    """Gradients of x @ w + b for upstream `g`: (gx or None, gw, gb).

    The expressions are those of the `matmul` and bias-`add` backwards,
    so a fused op's gradients equal its composition's bit for bit.
    """
    k, n = w.shape
    gx = g @ w.T if need_x else None
    gw = x.reshape(-1, k).T @ g.reshape(-1, n)
    gb = g.sum(axis=tuple(range(g.ndim - 1)))
    return gx, gw, gb


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias over the last axis of a rank >= 2 input."""
    _check_affine("linear", x.shape, weight, bias)
    xv, wv = x.values, weight.values
    out = _affine(xv, wv, bias.values)
    need_x = x.requires_grad

    def bwd(g: np.ndarray):
        return _affine_backward(xv, wv, g, need_x)

    return _result((x, weight, bias), out, bwd)


def attention(
    x: Tensor,
    wq: Tensor, bq: Tensor,
    wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor,
    wo: Tensor, bo: Tensor,
    heads: int,
    class_only: bool = False,
) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention over [batch, tokens, dim] as one op.

    Projects Q, K and V, splits `heads` heads, applies softmax to the
    1/sqrt(head_dim)-scaled scores, merges the heads' context and
    projects it with `wo`/`bo`. Returns the output, [batch, tokens, dim],
    and the read-only post-softmax weights, [batch, heads, tokens,
    tokens]. With `class_only` only token 0 queries (CaiT's class
    attention): K and V still come from every token, the output is
    [batch, dim] and the weights [batch, heads, 1, tokens].
    """
    if x.ndim != 3:
        raise DimensionError(f"attention expects [batch, tokens, dim], got {x.shape}")
    b, t, d = x.shape
    if heads < 1 or d % heads != 0:
        raise DimensionError(f"attention dim {d} not divisible by heads {heads}")
    for weight, bias in ((wq, bq), (wk, bk), (wv, bv), (wo, bo)):
        if weight.shape != (d, d) or bias.shape != (d,):
            raise DimensionError(
                f"attention weights must be ({d}, {d}) and biases ({d},), "
                f"got {weight.shape} and {bias.shape}"
            )
    hd = d // heads
    factor = float(1.0 / np.sqrt(hd))
    nq = 1 if class_only else t
    xv, xq = x.values, x.values[:, :nq]

    def split(a: np.ndarray) -> np.ndarray:  # [B, n, D] -> [B, H, n, hd]
        return a.reshape(b, a.shape[1], heads, hd).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray) -> np.ndarray:  # [B, H, n, hd] -> [B, n, D]
        return a.transpose(0, 2, 1, 3).reshape(b, a.shape[2], d)

    qh = split(_affine(xq, wq.values, bq.values))
    kh = split(_affine(xv, wk.values, bk.values))
    vh = split(_affine(xv, wv.values, bv.values))
    kt = kh.transpose(0, 1, 3, 2)
    scores = qh @ kt
    scores *= factor
    probs = _softmax(scores, out=scores)
    probs.setflags(write=False)
    merged = merge(probs @ vh).reshape((b, d) if class_only else (b, t, d))
    out = _affine(merged, wo.values, bo.values)

    def bwd(g: np.ndarray):
        g_merged, g_wo, g_bo = _affine_backward(merged, wo.values, g)
        g_ctx = split(g_merged.reshape(b, nq, d))
        g_probs = g_ctx @ np.swapaxes(vh, -1, -2)
        g_vh = np.swapaxes(probs, -1, -2) @ g_ctx
        g_scores = _softmax_backward(g_probs, probs)
        g_scores *= factor
        g_qh = g_scores @ np.swapaxes(kt, -1, -2)
        g_kt = np.swapaxes(qh, -1, -2) @ g_scores
        gx_v, g_wv, g_bv = _affine_backward(xv, wv.values, merge(g_vh))
        gx_k, g_wk, g_bk = _affine_backward(xv, wk.values, merge(g_kt.transpose(0, 1, 3, 2)))
        gx_q, g_wq, g_bq = _affine_backward(xq, wq.values, merge(g_qh))
        gx = gx_v  # gx_v + gx_k: for all-token queries, the order the tape summed the branches in
        gx += gx_k
        gx[:, :nq] += gx_q
        return gx, g_wq, g_bq, g_wk, g_bk, g_wv, g_bv, g_wo, g_bo

    return _result((x, wq, bq, wk, bk, wv, bv, wo, bo), out, bwd), probs


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer perceptron x -> linear -> exact-erf GELU -> linear, as one op."""
    _check_affine("mlp", x.shape, w1, b1)
    _check_affine("mlp", x.shape[:-1] + w1.shape[1:], w2, b2)
    xv = x.values
    pre = _affine(xv, w1.values, b1.values)
    hidden, cdf = _gelu(pre)
    out = _affine(hidden, w2.values, b2.values)

    def bwd(g: np.ndarray):
        g_hidden, g_w2, g_b2 = _affine_backward(hidden, w2.values, g)
        g_pre = _gelu_backward(g_hidden, pre, cdf)
        gx, g_w1, g_b1 = _affine_backward(xv, w1.values, g_pre)
        return gx, g_w1, g_b1, g_w2, g_b2

    return _result((x, w1, b1, w2, b2), out, bwd)
