"""Shared test utilities: the central finite-difference gradient oracle
and its `sum_all` reduction, the out-of-place expressions of the shared
softmax and GELU kernels, the fine-grained reference compositions of
the fused model ops, the `x.var` layer norm, the all-token ViT forward,
the recompute-everything reference compositions of the evaluation,
masking sweep and teacher paths, the per-patch masking loop, the
per-method training loops the one SGD phase loop replaced (each
cross-entropy step split in two halves), the per-parameter SGD step
the one vector update replaced, a copy of a model with one parameter
changed, a call log that forked processes append to, and a
forward-call counter with a sorter for the chunks it logs from a
thread pool."""

import json
import os
import tempfile
import weakref
from collections.abc import Sequence

import numpy as np
from scipy.special import erf

from lethevit import evaluation, masking, unlearning, vit
from lethevit.data import LabeledDataset
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


def sum_all(x):
    """Sum of every element as a scalar Tensor: the reduction the
    gradient checks put on a non-scalar op's output."""
    shape = x.shape

    def bwd(g):
        return (np.full(shape, float(g), dtype=T.DTYPE),)

    return T._result((x,), x.values.sum(), bwd)


def assert_gradients_match(build, arrays, rel_tol=1e-4, step=FD_STEP):
    """Autodiff gradients must match central finite differences."""
    ad = autodiff_gradients(build, arrays)
    fd = fd_gradients(build, arrays, step=step)
    for i, (g_ad, g_fd) in enumerate(zip(ad, fd)):
        err = max_relative_error(g_ad, g_fd)
        assert err < rel_tol, f"input {i}: relative error {err:.3e} >= {rel_tol}"


def reference_softmax(x):
    """`tensor._softmax` as the out-of-place expressions it replaced."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_softmax_backward(g, y):
    """`tensor._softmax_backward` as the out-of-place expressions it replaced."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - dot) * y


def reference_gelu(x):
    """`tensor._gelu` as the out-of-place expressions it replaced."""
    cdf = 0.5 * (1.0 + erf(x * T._INV_SQRT2))
    return x * cdf, cdf


def reference_gelu_backward(g, x, cdf):
    """`tensor._gelu_backward` as the out-of-place expressions it replaced."""
    pdf = np.exp(-0.5 * x * x) * T._INV_SQRT_2PI
    return g * (cdf + x * pdf)


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


def reference_layer_norm(x, gain, bias):
    """`layer_norm` with the `x.var` forward it replaced; same backward."""
    mu = x.values.mean(axis=-1, keepdims=True)
    var = x.values.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T._LN_EPS)
    xhat = (x.values - mu) * inv
    lead = tuple(range(x.ndim - 1))

    def bwd(g):
        dxhat = g * gain.values
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return T._result((x, gain, bias), xhat * gain.values + bias.values, bwd)


def reference_mlp(x, w1, b1, w2, b2):
    """`mlp` as the composition of fine-grained ops it replaced."""
    return reference_linear(T.gelu(reference_linear(x, w1, b1)), w2, b2)


def reference_forward(params, images, capture_attention=False):
    """`vit.forward` as the all-token composition it replaced: the final
    block's residual, `ln2`, `mlp` and `ln_final` run over every token
    and the head takes the class token last."""
    cfg = params.config
    tokens = T.linear(Tensor(vit.patchify(images, cfg)), params["patch.weight"],
                      params["patch.bias"])
    cls = T.repeat_batch(params["cls_token"], len(images))
    tokens = T.add(T.concat([cls, tokens], axis=1), params["pos_embed"])
    captured = None
    for i in range(cfg.depth):
        p = f"block{i}."
        normed = T.layer_norm(tokens, params[p + "ln1.gain"], params[p + "ln1.bias"])
        attended, captured = T.attention(
            normed, *(params[p + "attn." + n] for n in ("wq", "bq", "wk", "bk", "wv", "bv",
                                                         "wo", "bo")), cfg.heads)
        tokens = T.add(tokens, attended)
        normed2 = T.layer_norm(tokens, params[p + "ln2.gain"], params[p + "ln2.bias"])
        tokens = T.add(tokens, T.mlp(normed2, *(params[p + "mlp." + n]
                                               for n in ("w1", "b1", "w2", "b2"))))
    final = T.layer_norm(tokens, params["ln_final.gain"], params["ln_final.bias"])
    logits = T.linear(T.take_token(final, 0), params["head.weight"], params["head.bias"])
    return vit.ForwardOutput(logits, captured if capture_attention else None)


def reference_fit_loss_threshold(member_losses, nonmember_losses):
    """`fit_loss_threshold` as the candidate loop it replaced."""
    member_losses = np.asarray(member_losses, dtype=np.float64)
    nonmember_losses = np.asarray(nonmember_losses, dtype=np.float64)
    values = np.unique(np.concatenate([member_losses, nonmember_losses]))
    if len(values) == 1:
        candidates = values
    else:
        midpoints = (values[:-1] + values[1:]) / 2.0
        candidates = np.concatenate([[-np.inf], midpoints, [np.inf]])
    best_t = candidates[0]
    best_acc = -1.0
    for t in candidates:
        tpr = float((member_losses < t).mean())
        tnr = float((nonmember_losses >= t).mean())
        balanced = 0.5 * (tpr + tnr)
        if balanced > best_acc:
            best_acc = balanced
            best_t = float(t)
    return best_t


def _reference_logits(params, images):
    outputs = []
    for start in range(0, len(images), 256):
        outputs.append(vit.forward(params, images[start:start + 256]).logits.values)
    return np.concatenate(outputs, axis=0)


def _reference_accuracy(params, images, labels):
    predictions = np.argmax(_reference_logits(params, images), axis=1)
    return 100.0 * float((predictions == labels).mean())


def _reference_losses(params, images, labels):
    return T.per_sample_cross_entropy(_reference_logits(params, images), labels)


def _reference_mia(forget_losses, member_losses, nonmember_losses):
    threshold = reference_fit_loss_threshold(member_losses, nonmember_losses)
    return 100.0 * float((np.asarray(forget_losses) < threshold).mean())


def reference_evaluate_model(params, split):
    """`evaluate_model` as the composition it replaced: accuracy and
    per-sample losses each run their own forward over each set."""
    sets = (split.forget_set(), split.retain_set(), split.test)
    fa, ra, ta = (_reference_accuracy(params, s.images, s.labels) for s in sets)
    losses = [_reference_losses(params, s.images, s.labels) for s in sets]
    return evaluation.MetricsReport(fa=fa, ra=ra, ta=ta, mia=_reference_mia(*losses))


def reference_apply_mask(images, indices, spec, patch_size, seed=0):
    """`apply_mask` as the per-patch loop it replaced: one assignment and,
    for a Gaussian mask, one `(c, p, p)` draw per selected patch."""
    out = np.array(images, dtype=np.float64)
    c, s = out.shape[1], out.shape[2]
    grid = s // patch_size
    p = patch_size
    for i in range(len(out)):
        rng = np.random.Generator(np.random.PCG64(seed + i))
        for patch in indices[i]:
            row, col = divmod(int(patch), grid)
            r0, c0 = row * p, col * p
            if spec.mask_type is masking.MaskType.ZERO:
                out[i, :, r0:r0 + p, c0:c0 + p] = 0.0
            else:
                out[i, :, r0:r0 + p, c0:c0 + p] = rng.normal(0.0, spec.gaussian_std, (c, p, p))
    return out


def reference_build_masked_view(model, images, spec, seed=0):
    """Attention-guided masking as one unchunked capture forward."""
    out = vit.forward(model, images, capture_attention=True)
    indices = masking.select_top_k(masking.class_token_attention(out.last_attention), spec.ratio)
    return masking.apply_mask(images, indices, spec, model.config.patch_size, seed=seed)


def reference_masking_sweep(params, forget, retain, test, ratios, types,
                            gaussian_std=1.0, seed=0):
    """`masking_sweep` as the composition it replaced: the attention
    forward reruns for every (ratio, type) pair and set."""
    member_losses = _reference_losses(params, retain.images, retain.labels)
    nonmember_losses = _reference_losses(params, test.images, test.labels)
    rows = []
    for ratio in ratios:
        for mask_type in types:
            spec = masking.MaskSpec(ratio=ratio, mask_type=mask_type, gaussian_std=gaussian_std)
            masked_test = reference_build_masked_view(params, test.images, spec, seed=seed)
            ta = _reference_accuracy(params, masked_test, test.labels)
            masked_forget = reference_build_masked_view(params, forget.images, spec, seed=seed)
            forget_losses = _reference_losses(params, masked_forget, forget.labels)
            mia = _reference_mia(forget_losses, member_losses, nonmember_losses)
            rows.append(evaluation.SweepRow(ratio=ratio, mask_type=mask_type.value, ta=ta, mia=mia))
    return rows


def reference_teacher_views(original, images, mask_spec, mask_seed):
    """The frozen teacher as the per-step 3-forward composition that
    `frozen_teacher`'s capture-once cache replaced: the masking forward,
    then separate masked (positive) and unmasked (negative) forwards,
    all of one batch."""
    masked = reference_build_masked_view(original, images, mask_spec, seed=mask_seed)
    frozen = original.frozen()
    positive = vit.forward(frozen, masked).logits
    negative = vit.forward(frozen, images).logits
    return positive, negative


def reference_triplet_cosine_stats(current, original, dataset, indices, mask_spec,
                                   mask_seed=0, batch_size=64):
    """Batch-mean cosine of `current`'s logits to the original model's
    masked (positive) and unmasked (negative) logits over `indices`, in
    batches of `batch_size` (each masked with `mask_seed`), on the
    per-batch 3-forward teacher."""
    sims_p, sims_n = [], []
    for start in range(0, len(indices), batch_size):
        images = dataset.images[indices[start:start + batch_size]]
        positive, negative = reference_teacher_views(original, images, mask_spec, mask_seed)
        anchor = vit.forward(current, images).logits
        sims_p.append(T.row_cosine(anchor, positive).values)
        sims_n.append(T.row_cosine(anchor, negative).values)
    return float(np.concatenate(sims_p).mean()), float(np.concatenate(sims_n).mean())


def _reference_batches(indices, batch_size, rng):
    shuffled = indices[rng.permutation(len(indices))]
    for start in range(0, len(shuffled), batch_size):
        yield shuffled[start:start + batch_size]


def with_entry(params, name, values):
    """A fresh model equal to `params` but for parameter `name`, which
    holds `values`."""
    assert np.shape(values) == params[name].shape, name
    return vit.ViTParams(params.config, np.concatenate(
        [np.ravel(values) if key == name else t.values.ravel() for key, t in params.items()]))


def reference_sgd_step(params, velocity, learning_rate, momentum, weight_decay):
    """`unlearning._sgd_step` as the per-parameter loop with a dict
    velocity that the one vector update replaced. It returns the
    stepped model, fresh leaves whose `.grad` is None, where the loop
    replaced each parameter in place."""
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
        params = with_entry(params, name, t.values - learning_rate * g)
    return params


def reference_split_gradient(params, dataset, batch, sign=1.0):
    """Leave in each parameter's `.grad` the gradient of `batch`'s first
    (n + 1) // 2 rows plus that of the rest, each half's cross-entropy
    scaled by `sign` times its share of the batch's n rows: the
    arithmetic of every cross-entropy step, from two backwards of the
    per-parameter leaves."""
    middle = (len(batch) + 1) // 2
    total = {}
    for rows in (batch[:middle], batch[middle:]):
        if not len(rows):
            continue
        with Tape() as tape:
            logits = vit.forward(params, dataset.images[rows]).logits
            loss = T.scale(T.cross_entropy(logits, dataset.labels[rows]),
                           sign * len(rows) / len(batch))
        backward(loss, tape)
        for name, t in params.items():
            total[name] = t.grad.copy() if name not in total else total[name] + t.grad
    for name, t in params.items():
        t.grad = total[name]


def reference_train_cross_entropy(params, dataset, indices, epochs, config, rng,
                                  negate=False):
    """The cross-entropy SGD loop every cross-entropy phase had its own
    call of before the phase loop took a loss closure, each step's
    gradient split in two halves (`reference_split_gradient`); `negate`
    descends the negated cross-entropy (gradient ascent). Returns the
    trained model."""
    velocity = {}
    for _ in range(epochs):
        for batch in _reference_batches(indices, config.batch_size, rng):
            reference_split_gradient(params, dataset, batch, -1.0 if negate else 1.0)
            params = reference_sgd_step(params, velocity, config.learning_rate,
                                        config.momentum, config.weight_decay)
    return params


def reference_forget_phase(theta, original, split, config, rng):
    """`unlearn`'s hand-written phase-1 loop: the per-step 3-forward
    teacher outside the tape, the contrastive loss on it. Returns the
    stepped model."""
    velocity = {}
    step = 0
    for epoch in range(config.forget_epochs):
        for batch in _reference_batches(split.forget, config.batch_size, rng):
            images = split.train.images[batch]
            mask_seed = int(
                np.random.SeedSequence((config.seed, epoch, step)).generate_state(1, np.uint64)[0]
            )
            positive, negative = reference_teacher_views(original, images, config.mask_spec,
                                                         mask_seed)
            with Tape() as tape:
                anchor = vit.forward(theta, images).logits
                loss = unlearning.contrastive_loss(anchor, positive, negative,
                                                   config.temperature)
            backward(loss, tape)
            theta = reference_sgd_step(theta, velocity, config.learning_rate, config.momentum,
                                       config.weight_decay)
            step += 1
    return theta


def reference_train_model(dataset, config, indices=None):
    """`train_model` (or, given the retain indices, `retrain`) on the
    reference loop."""
    params = vit.init_params(config.model, config.seed)
    if indices is None:
        indices = np.arange(len(dataset), dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    return reference_train_cross_entropy(params, dataset, indices, config.epochs, config, rng)


def reference_from_original(method, original, split, config):
    """`unlearn`, `fine_tune`, `gradient_ascent` or `random_labels` (by
    name) on the reference loops."""
    theta = original.copy()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    train = split.train
    if method == "unlearn":
        theta = reference_forget_phase(theta, original, split, config, rng)
        theta = reference_train_cross_entropy(theta, train, split.retain, config.retain_epochs,
                                              config, rng)
    elif method == "fine_tune":
        theta = reference_train_cross_entropy(theta, train, split.retain, config.retain_epochs,
                                              config, rng)
    elif method == "gradient_ascent":
        theta = reference_train_cross_entropy(theta, train, split.forget, config.forget_epochs,
                                              config, rng, negate=True)
    else:
        labels = unlearning.relabel_forget(train.labels, split.forget, train.class_count,
                                           config.seed)
        relabeled = LabeledDataset(images=train.images, labels=labels,
                                   class_count=train.class_count)
        theta = reference_train_cross_entropy(theta, relabeled,
                                              np.arange(len(train), dtype=np.int64),
                                              config.retain_epochs, config, rng)
    return theta


class CallLog(Sequence):
    """A log that calls append entries to, whether they run in this
    process or in a process forked from it: one JSON line per entry,
    written with O_APPEND to one unlinked temporary file, so the lines
    of both processes land whole, in the order they were written. Reads
    see every line written so far, with JSON lists read back as tuples."""

    def __init__(self):
        fd, path = tempfile.mkstemp(prefix="lethevit-calls-")
        os.close(fd)
        self._fd = os.open(path, os.O_RDWR | os.O_APPEND)
        os.unlink(path)
        weakref.finalize(self, os.close, self._fd)

    def append(self, entry):
        os.write(self._fd, (json.dumps(entry) + "\n").encode())

    def _entries(self):
        lines = os.pread(self._fd, os.fstat(self._fd).st_size, 0).decode().splitlines()
        return [tuple(e) if isinstance(e, list) else e for e in map(json.loads, lines)]

    def __len__(self):
        return len(self._entries())

    def __getitem__(self, index):
        return self._entries()[index]

    def __iter__(self):
        return iter(self._entries())

    def __eq__(self, other):
        return list(self) == list(other)


def count_forwards(monkeypatch, captured=None):
    """Route `forward` in every module that calls it through a counter;
    returns the `CallLog` that receives (images, capture_attention,
    tracked) per call, from this process or a forked teacher. A
    `captured` list receives the images of each capture forward; those
    run in this process."""
    calls = CallLog()
    real = vit.forward

    def counted(params, images, capture_attention=False):
        out = real(params, images, capture_attention)
        calls.append((len(images), capture_attention, out.logits.requires_grad))
        if capture_attention and captured is not None:
            captured.append(np.array(images))
        return out

    for module in (evaluation, masking, unlearning):
        monkeypatch.setattr(module, "forward", counted)
    return calls


def in_set_order(chunks, images):
    """Image chunks a pool logged in completion order, sorted by where
    each starts in `images`."""
    def start(chunk):
        return int(np.flatnonzero((images == chunk[0]).all(axis=(1, 2, 3)))[0])
    return sorted(chunks, key=start)
