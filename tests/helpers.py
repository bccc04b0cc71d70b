"""Shared test utilities: the central finite-difference gradient oracle
and the fine-grained reference compositions of the fused model ops."""

import numpy as np

from lethevit import tensor as T
from lethevit.tensor import Tape, Tensor, backward

FD_STEP = 1e-5


def fd_gradients(build, arrays, step=FD_STEP):
    """Central finite-difference gradients of a scalar-valued composition.

    `build` maps a list of leaf Tensors to a scalar Tensor; it is
    evaluated forward-only (no tape), twice per coordinate.
    """
    def value(arrs):
        return build([Tensor(a) for a in arrs]).item()

    grads = []
    for i, arr in enumerate(arrays):
        g = np.zeros_like(arr, dtype=np.float64)
        for idx in np.ndindex(*arr.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[i][idx] += step
            minus[i][idx] -= step
            g[idx] = (value(plus) - value(minus)) / (2.0 * step)
        grads.append(g)
    return grads


def autodiff_gradients(build, arrays):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(tensors)
    backward(loss, tape)
    return [t.grad for t in tensors]


def max_relative_error(computed, reference):
    scale = max(float(np.abs(reference).max()), 1e-8)
    return float(np.abs(computed - reference).max()) / scale


def assert_gradients_match(build, arrays, rel_tol=1e-4, step=FD_STEP):
    """Autodiff gradients must match central finite differences."""
    ad = autodiff_gradients(build, arrays)
    fd = fd_gradients(build, arrays, step=step)
    for i, (g_ad, g_fd) in enumerate(zip(ad, fd)):
        err = max_relative_error(g_ad, g_fd)
        assert err < rel_tol, f"input {i}: relative error {err:.3e} >= {rel_tol}"


def reference_linear(x, weight, bias):
    """`linear` as the composition it replaced."""
    return T.add(T.matmul(x, weight), bias)


def reference_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """`attention` as the composition of fine-grained ops it replaced;
    returns (output, post-softmax weights)."""
    b, t, d = x.shape
    hd = d // heads

    def split(a):
        return T.transpose(T.reshape(a, (b, t, heads, hd)), (0, 2, 1, 3))

    qh = split(reference_linear(x, wq, bq))
    kh = split(reference_linear(x, wk, bk))
    vh = split(reference_linear(x, wv, bv))
    scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    probs = T.softmax_rows(scores)
    merged = T.reshape(T.transpose(T.matmul(probs, vh), (0, 2, 1, 3)), (b, t, d))
    return reference_linear(merged, wo, bo), probs.values


def reference_mlp(x, w1, b1, w2, b2):
    """`mlp` as the composition of fine-grained ops it replaced."""
    return reference_linear(T.gelu(reference_linear(x, w1, b1)), w2, b2)
