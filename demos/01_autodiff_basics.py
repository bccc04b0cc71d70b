"""Tour of the autodiff engine: tensors, tapes, and gradient checking,
on the ops a model's training step runs (`linear`, `cross_entropy`,
`mean_all`).

Run: python demos/01_autodiff_basics.py
"""
import numpy as np

from lethevit.tensor import Tape, Tensor, backward, cross_entropy, linear, mean_all

print("== forward values ==")
a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
w = Tensor([[0.0], [1.0]], requires_grad=True)
b = Tensor([0.5], requires_grad=True)
affine = linear(a, w, b)
print("linear([[1,2],[3,4]], [[0],[1]], [0.5]) ->", affine.values.ravel(), "(expect [2.5 4.5])")

print("mean_all([[1,2],[3,4]]) ->", mean_all(a).item(), "(expect 2.5)")

loss = cross_entropy(Tensor([[1.0, 2.0]]), np.array([1]))
print(f"cross_entropy([[1,2]], label 1) -> {loss.item():.6f} (expect 0.313262)")

print("\n== reverse-mode gradients ==")
with Tape() as tape:
    out = mean_all(linear(a, w, b))
backward(out, tape)
print("d(mean(a@w+b))/da =", a.grad.ravel(), " d/dw =", w.grad.ravel(), " d/db =", b.grad)

print("\n== gradient check against central finite differences ==")
rng = np.random.default_rng(0)
values = [rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=3)]  # x, w, b
labels = np.array([0, 2, 1])


def loss_value(x_val, w_val, b_val):
    return cross_entropy(linear(Tensor(x_val), Tensor(w_val), Tensor(b_val)), labels).item()


tensors = [Tensor(v, requires_grad=True) for v in values]
with Tape() as tape:
    out = cross_entropy(linear(*tensors), labels)
backward(out, tape)

step = 1e-5
for name, which in (("x", 0), ("w", 1), ("b", 2)):
    fd = np.zeros_like(values[which])
    for idx in np.ndindex(*fd.shape):
        plus = [v.copy() for v in values]
        minus = [v.copy() for v in values]
        plus[which][idx] += step
        minus[which][idx] -= step
        fd[idx] = (loss_value(*plus) - loss_value(*minus)) / (2 * step)
    err = np.abs(tensors[which].grad - fd).max() / max(np.abs(fd).max(), 1e-8)
    print(f"d/d{name}: max relative error autodiff vs finite differences: {err:.2e}")
    assert err < 1e-4
print("gradient check passed")
