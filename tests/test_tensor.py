"""Tensor engine tests: op semantics, error contracts, and the
finite-difference gradient oracle for every differentiable op."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lethevit.errors import (
    ContractError,
    DegenerateVectorError,
    DimensionError,
    LabelError,
    NonFiniteError,
)
from lethevit import tensor as T
from lethevit.tensor import (
    Tape,
    Tensor,
    add,
    attention,
    backward,
    concat,
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    matmul,
    mean_all,
    mlp,
    per_sample_cross_entropy,
    repeat_batch,
    reshape,
    row_cosine,
    scale,
    softmax_rows,
    softplus,
    take_token,
    transpose,
)

from helpers import (
    assert_gradients_match,
    autodiff_gradients,
    reference_attention,
    reference_gelu,
    reference_gelu_backward,
    reference_layer_norm,
    reference_linear,
    reference_mlp,
    reference_softmax,
    reference_softmax_backward,
    sum_all,
)

RNG = np.random.default_rng(20240811)


class TestTensorBasics:
    def test_values_are_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.values[0] = 5.0

    def test_leaf_copies_user_data(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.values[0] == 1.0

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_rejected_at_op_boundary(self):
        t = Tensor([1e308])
        with pytest.raises(NonFiniteError):
            scale(scale(t, 10.0), 10.0)

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).item()


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.values, m)

    def test_direct_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
        np.testing.assert_array_equal(out.values, [[2.0], [4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_rank_one_rejected(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_gradients_2d(self):
        a, b = RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3))
        assert_gradients_match(lambda t: sum_all(matmul(t[0], t[1])), [a, b])

    def test_gradients_batched(self):
        a, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(2, 4, 2))
        assert_gradients_match(lambda t: sum_all(matmul(t[0], t[1])), [a, b])

    def test_gradients_weight_broadcast(self):
        a, w = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5))
        assert_gradients_match(lambda t: sum_all(matmul(t[0], t[1])), [a, w])


class TestSoftmaxRows:
    def test_zeros_are_uniform(self):
        out = softmax_rows(Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.values, 0.25)

    def test_closed_form(self):
        out = softmax_rows(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.values, [0.25, 0.75], atol=1e-15)

    def test_large_values_stable(self):
        out = softmax_rows(Tensor([[1e9, 0.0]]))
        assert abs(out.values.sum() - 1.0) < 1e-12

    def test_empty_last_dim_rejected(self):
        with pytest.raises(DimensionError):
            softmax_rows(Tensor(np.zeros((2, 0))))

    def test_gradients(self):
        x = RNG.normal(size=(3, 5))
        weights = RNG.normal(size=(3, 5))
        assert_gradients_match(
            lambda t: sum_all(matmul(softmax_rows(t[0]), transpose(t[1], (1, 0)))), [x, weights]
        )

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
                      elements=st.floats(-50, 50)))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_distributions(self, x):
        y = softmax_rows(Tensor(x)).values
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)


class TestCosineSimilarity:
    """`row_cosine` on one row: the cosine of two vectors."""

    def test_identical_vectors(self):
        v = Tensor([[1.0, 2.0, -3.0]])
        assert row_cosine(v, v).values[0] == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self):
        u = Tensor([[1.0, 2.0]])
        v = Tensor([[-1.0, -2.0]])
        assert row_cosine(u, v).values[0] == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert row_cosine(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])).values[0] == 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateVectorError):
            row_cosine(Tensor([[0.0, 0.0]]), Tensor([[1.0, 0.0]]))

    def test_gradients(self):
        u, v = RNG.normal(size=(1, 4)), RNG.normal(size=(1, 4))
        assert_gradients_match(lambda t: mean_all(row_cosine(t[0], t[1])), [u, v])

    def test_row_cosine_gradients(self):
        a, b = RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))
        assert_gradients_match(lambda t: mean_all(row_cosine(t[0], t[1])), [a, b])

    @given(hnp.arrays(np.float64, st.integers(1, 8).map(lambda n: (1, n)),
                      elements=st.floats(-100, 100)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_range(self, u, seed):
        v = np.random.default_rng(seed).normal(size=u.shape)
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            return
        s = row_cosine(Tensor(u), Tensor(v)).values[0]
        assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((1, 10)))
        assert cross_entropy(logits, np.array([7])).item() == pytest.approx(np.log(10.0), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1e6
        assert cross_entropy(Tensor(logits), np.array([2])).item() == pytest.approx(0.0, abs=1e-9)

    def test_closed_form(self):
        loss = cross_entropy(Tensor([[1.0, 2.0]]), np.array([1]))
        assert loss.item() == pytest.approx(0.313262, abs=1e-6)

    def test_label_out_of_range_names_index(self):
        with pytest.raises(LabelError) as exc:
            cross_entropy(Tensor(np.zeros((3, 2))), np.array([0, 5, 1]))
        assert "index 1" in str(exc.value)

    def test_gradients(self):
        logits = RNG.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        assert_gradients_match(lambda t: cross_entropy(t[0], labels), [logits])

    @pytest.mark.parametrize("logits,labels", [
        (np.zeros((5, 3)), np.array([0])),  # one label for five rows
        (np.zeros(3), np.array([0])),  # 1-D logits
    ], ids=["label-count", "1d-logits"])
    def test_per_sample_rejects_bad_shapes(self, logits, labels):
        with pytest.raises(DimensionError):
            per_sample_cross_entropy(logits, labels)

    def test_per_sample_matches_mean(self):
        logits = RNG.normal(size=(5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        per = per_sample_cross_entropy(logits, labels)
        mean = cross_entropy(Tensor(logits), labels).item()
        assert per.mean() == pytest.approx(mean, abs=1e-12)


class TestBackward:
    def test_square_gradient(self):
        x = Tensor([[3.0]], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(matmul(x, x))
        backward(loss, tape)
        assert x.grad[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_matmul_sum_against_finite_differences(self):
        a, b = RNG.normal(size=(3, 3)), RNG.normal(size=(3, 3))
        assert_gradients_match(lambda t: sum_all(matmul(t[0], t[1])), [a, b])

    def test_detached_parameter_grad_is_zero(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = Tensor([[5.0]], requires_grad=True)
        with Tape() as tape:
            _unused = matmul(y, y)
            loss = sum_all(matmul(x, x))
        backward(loss, tape)
        assert y.grad is not None
        np.testing.assert_array_equal(y.grad, 0.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = scale(x, 2.0)
        with pytest.raises(ContractError):
            backward(y, tape)

    def test_tape_is_single_use(self):
        x = Tensor([[1.0]], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(matmul(x, x))
        backward(loss, tape)
        with pytest.raises(ContractError):
            backward(loss, tape)

    def test_records_are_freed_as_backward_walks(self):
        """A record goes before the one recorded ahead of it runs, so its
        arrays are freed early; the tape counts as consumed from the start."""
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        left = []

        def watched(t):
            return T._result((t,), t.values.copy(), lambda g: (left.append(len(tape)) or g,))

        with Tape() as tape:
            loss = sum_all(scale(watched(x), 3.0))
        assert len(tape) == 3
        backward(loss, tape)
        assert left == [0] and tape.consumed
        np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])

    def test_reused_tensor_accumulates(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            doubled = add(x, x)
            loss = sum_all(doubled)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])

    @pytest.mark.parametrize("op", [add, lambda a, b: concat([a, b], axis=1)],
                             ids=["add", "concat"])
    def test_leaves_share_no_gradient_memory(self, op):
        """`add` hands its one upstream gradient to both inputs and
        `concat`'s backward splits one into views; each leaf still gets
        an array of its own."""
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        y = Tensor([[3.0, 4.0]], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(op(x, y))
        backward(loss, tape)
        assert not np.shares_memory(x.grad, y.grad)
        assert x.grad.base is None and y.grad.base is None  # not views of one array
        x.grad *= 10.0
        np.testing.assert_array_equal(y.grad, [[1.0, 1.0]])

    def test_each_backward_replaces_the_gradient(self):
        """Two backwards on fresh tapes leave one pass's gradient, in the
        array the leaf's first backward made."""
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(scale(x, 3.0))
        backward(loss, tape)
        first = x.grad
        with Tape() as tape:
            loss = sum_all(scale(x, 3.0))
        backward(loss, tape)
        assert x.grad is first
        np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_leaf_gradient_overflow_raises(self):
        """Finite forward (1e-300 * 1e200 * 1e200 = 1e100), infinite backward
        (1e200 * 1e200): the leaf's scan raises."""
        x = Tensor([1e-300], requires_grad=True)
        with Tape() as tape:
            loss = mean_all(scale(scale(x, 1e200), 1e200))
        with pytest.raises(NonFiniteError):
            backward(loss, tape)

    def test_no_tape_means_no_tracking(self):
        x = Tensor([[1.0]], requires_grad=True)
        y = matmul(x, x)
        assert not y.requires_grad

    def test_entering_an_open_tape_raises(self):
        """One tape is open at a time: entering it again, or entering a
        second tape, raises and leaves the first active and recording."""
        x = Tensor([[1.0]], requires_grad=True)
        with Tape() as tape:
            with pytest.raises(ContractError):
                tape.__enter__()
            with pytest.raises(ContractError):
                with Tape():
                    pass
            assert T._active is tape
            matmul(x, x)
        assert len(tape) == 1
        assert not matmul(x, x).requires_grad


class TestRemainingOpGradients:
    """Finite-difference oracle for each op not covered above."""

    def test_add_same_shape(self):
        a, b = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))
        assert_gradients_match(lambda t: sum_all(add(t[0], t[1])), [a, b])

    def test_add_bias_broadcast(self):
        a, b = RNG.normal(size=(2, 4, 3)), RNG.normal(size=3)
        assert_gradients_match(lambda t: sum_all(add(t[0], t[1])), [a, b])

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_scale(self):
        x = RNG.normal(size=(3, 2))
        assert_gradients_match(lambda t: sum_all(scale(t[0], -1.7)), [x])

    def test_transpose(self):
        x = RNG.normal(size=(2, 3, 4))
        assert_gradients_match(
            lambda t: sum_all(matmul(transpose(t[0], (1, 0, 2)), t[1])),
            [x, RNG.normal(size=(3, 4, 2))],
        )

    def test_transpose_bad_axes(self):
        with pytest.raises(DimensionError):
            transpose(Tensor(np.zeros((2, 3))), (0, 0))

    def test_reshape(self):
        x = RNG.normal(size=(2, 6))
        assert_gradients_match(
            lambda t: sum_all(matmul(reshape(t[0], (3, 4)), t[1])), [x, RNG.normal(size=(4, 2))]
        )

    def test_reshape_size_mismatch(self):
        with pytest.raises(DimensionError):
            reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_concat(self):
        a, b = RNG.normal(size=(2, 2)), RNG.normal(size=(2, 3))
        w = RNG.normal(size=(5, 2))
        assert_gradients_match(lambda t: sum_all(matmul(concat([t[0], t[1]], 1), t[2])), [a, b, w])

    def test_concat_shape_mismatch(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3)))], 1)

    def test_layer_norm(self):
        x = RNG.normal(size=(2, 5))
        gain = RNG.normal(size=5) + 1.0
        bias = RNG.normal(size=5)
        probe = RNG.normal(size=(2, 5))
        assert_gradients_match(
            lambda t: sum_all(matmul(layer_norm(t[0], t[1], t[2]), transpose(t[3], (1, 0)))),
            [x, gain, bias, probe],
        )

    def test_gelu(self):
        x = RNG.normal(size=(3, 4)) * 2.0
        assert_gradients_match(lambda t: sum_all(gelu(t[0])), [x])

    def test_gelu_values(self):
        # gelu(0) = 0; large positive is identity-like; large negative ~ 0
        y = gelu(Tensor([0.0, 10.0, -10.0])).values
        assert y[0] == 0.0
        assert y[1] == pytest.approx(10.0, abs=1e-9)
        assert y[2] == pytest.approx(0.0, abs=1e-9)

    def test_softplus(self):
        x = RNG.normal(size=(2, 3)) * 3.0
        assert_gradients_match(lambda t: sum_all(softplus(t[0])), [x])

    def test_softplus_extreme_stability(self):
        y = softplus(Tensor([-1e9, 0.0, 1e9])).values
        assert y[0] == 0.0
        assert y[1] == pytest.approx(np.log(2.0), abs=1e-15)
        assert y[2] == pytest.approx(1e9)

    def test_mean_all(self):
        x = RNG.normal(size=(4, 2))
        assert_gradients_match(lambda t: mean_all(t[0]), [x])

    def test_sum_all(self):
        x = RNG.normal(size=(2, 2))
        assert_gradients_match(lambda t: sum_all(t[0]), [x])

    def test_repeat_batch(self):
        x = RNG.normal(size=(1, 4))
        w = RNG.normal(size=(3, 1, 4))
        assert_gradients_match(
            lambda t: sum_all(matmul(repeat_batch(t[0], 3), transpose(t[1], (0, 2, 1)))), [x, w]
        )

    def test_take_token(self):
        x = RNG.normal(size=(2, 3, 4))
        w = RNG.normal(size=(4, 2))
        assert_gradients_match(lambda t: sum_all(matmul(take_token(t[0], 1), t[1])), [x, w])

    def test_take_token_bad_index(self):
        with pytest.raises(DimensionError):
            take_token(Tensor(np.zeros((1, 2, 3))), 2)

    def test_linear(self):
        x = RNG.normal(size=(2, 3))
        w = RNG.normal(size=(3, 4))
        b = RNG.normal(size=4)
        assert_gradients_match(lambda t: sum_all(linear(t[0], t[1], t[2])), [x, w, b])


def _attention_inputs(b=2, t=5, d=4, rng=RNG):
    arrays = [rng.normal(size=(b, t, d))]
    for _ in range(4):
        arrays += [rng.normal(size=(d, d)), rng.normal(size=d) * 0.1]
    return arrays


def _mlp_inputs(b=2, t=3, d=4, hidden=6):
    return [RNG.normal(size=(b, t, d)), RNG.normal(size=(d, hidden)), RNG.normal(size=hidden),
            RNG.normal(size=(hidden, d)), RNG.normal(size=d)]


class TestFusedOps:
    """The fused model-path ops: gradient oracle, equality with the
    fine-grained compositions they replace, and the output contract."""

    def test_linear_rank3_gradients(self):
        x, w, b = RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)), RNG.normal(size=5)
        probe = RNG.normal(size=(5, 2))
        assert_gradients_match(lambda t: sum_all(matmul(linear(t[0], t[1], t[2]), t[3])),
                               [x, w, b, probe])

    def test_attention_gradients(self):
        # a key bias shifts every score of a query row by the same amount,
        # so its exact gradient is zero and central differences see only
        # rounding noise: hold it fixed and check the zero separately
        arrays = _attention_inputs()
        bk = Tensor(arrays.pop(4))
        probe = RNG.normal(size=(4, 3))

        def build(t):
            return sum_all(matmul(attention(*t[:4], bk, *t[4:8], heads=2)[0], t[8]))

        assert_gradients_match(build, arrays + [probe])
        tensors = [Tensor(a, requires_grad=True) for a in _attention_inputs()]
        with Tape() as tape:
            loss = sum_all(attention(*tensors, heads=2)[0])
        backward(loss, tape)
        assert np.abs(tensors[4].grad).max() < 1e-12

    def test_mlp_gradients(self):
        probe = RNG.normal(size=(4, 3))
        assert_gradients_match(lambda t: sum_all(matmul(mlp(*t[:5]), t[5])),
                               _mlp_inputs() + [probe])

    @pytest.mark.parametrize("fused,reference,inputs", [
        (lambda t: linear(*t), reference_linear,
         lambda: [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)), RNG.normal(size=5)]),
        (lambda t: linear(*t), reference_linear,
         lambda: [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 5)), RNG.normal(size=5)]),
        (lambda t: attention(*t, heads=2)[0], lambda *t: reference_attention(*t, heads=2)[0],
         _attention_inputs),
        (lambda t: mlp(*t), reference_mlp, _mlp_inputs),
        (lambda t: layer_norm(*t), reference_layer_norm,
         lambda: [RNG.normal(size=(4, 26, 32)), RNG.normal(size=32), RNG.normal(size=32)]),
        (lambda t: layer_norm(*t), reference_layer_norm,
         lambda: [RNG.normal(size=(7, 5)), RNG.normal(size=5), RNG.normal(size=5)]),
        (lambda t: layer_norm(*t), reference_layer_norm,
         lambda: [1e3 + 1e-2 * RNG.normal(size=(3, 6, 17)), RNG.normal(size=17),
                  RNG.normal(size=17)]),
    ], ids=["linear_rank3", "linear_rank2", "attention", "mlp", "layer_norm_rank3",
            "layer_norm_rank2", "layer_norm_offset"])
    def test_matches_reference_composition_bit_for_bit(self, fused, reference, inputs):
        arrays = inputs()
        out = fused([Tensor(a) for a in arrays]).values
        probe = RNG.normal(size=out.shape)
        np.testing.assert_array_equal(out, reference(*[Tensor(a) for a in arrays]).values)
        fused_grads = autodiff_gradients(lambda t: sum_all(_probe_dot(fused(t), probe)),
                                         arrays)
        reference_grads = autodiff_gradients(
            lambda t: sum_all(_probe_dot(reference(*t), probe)), arrays)
        for g_fused, g_reference in zip(fused_grads, reference_grads):
            np.testing.assert_array_equal(g_fused, g_reference)

    def test_attention_probabilities_match_reference(self):
        arrays = _attention_inputs(b=3, t=6, d=8)
        out, probs = attention(*[Tensor(a) for a in arrays], heads=2)
        ref_out, ref_probs = reference_attention(*[Tensor(a) for a in arrays], heads=2)
        assert probs.shape == (3, 2, 6, 6)
        np.testing.assert_array_equal(probs, ref_probs)
        np.testing.assert_array_equal(out.values, ref_out.values)
        with pytest.raises(ValueError):
            probs[0, 0, 0, 0] = 1.0

    def test_class_only_is_row_zero_of_all_token(self):
        """Class-token-only queries give row 0 of the all-token op: the
        output, the weights and every input gradient, up to the rounding
        of the one-row products' other summation order."""
        rng = np.random.default_rng(1003)
        arrays = _attention_inputs(b=3, t=6, d=8, rng=rng)
        probe = rng.normal(size=(3, 8))
        out, probs = attention(*[Tensor(a) for a in arrays], heads=2)
        cls_out, cls_probs = attention(*[Tensor(a) for a in arrays], heads=2, class_only=True)
        grads = autodiff_gradients(
            lambda t: sum_all(_probe_dot(take_token(attention(*t, heads=2)[0], 0), probe)),
            arrays)
        cls_grads = autodiff_gradients(
            lambda t: sum_all(_probe_dot(attention(*t, heads=2, class_only=True)[0], probe)),
            arrays)
        assert cls_out.shape == (3, 8) and cls_probs.shape == (3, 2, 1, 6)
        largest = max(float(np.abs(g).max()) for g in grads)
        for new, old, scale in [(cls_out.values, out.values[:, 0], np.abs(out.values).max()),
                                (cls_probs, probs[:, :, :1], probs.max())] + [
                                   (g_cls, g, largest) for g_cls, g in zip(cls_grads, grads)]:
            assert new.shape == old.shape
            assert np.abs(new - old).max() <= 1e-12 * scale

    def test_one_record_each(self):
        tensors = [Tensor(a, requires_grad=True) for a in _attention_inputs()]
        with Tape() as tape:
            attention(*tensors, heads=2)
            mlp(tensors[0], *[Tensor(a, requires_grad=True) for a in _mlp_inputs(d=4)[1:]])
            linear(*tensors[:3])
        assert len(tape) == 3

    def test_shape_errors(self):
        arrays = [Tensor(a) for a in _attention_inputs(d=4)]
        with pytest.raises(DimensionError):
            attention(*arrays, heads=3)
        with pytest.raises(DimensionError):
            attention(Tensor(np.zeros((5, 4))), *arrays[1:], heads=2)
        with pytest.raises(DimensionError):
            attention(arrays[0], Tensor(np.zeros((4, 2))), *arrays[2:], heads=2)
        x, w1, b1, w2, b2 = [Tensor(a) for a in _mlp_inputs()]
        with pytest.raises(DimensionError):
            mlp(x, w1, b1, Tensor(np.zeros((5, 4))), b2)
        with pytest.raises(DimensionError):
            linear(x, w1, b2)
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros(4)), w1, b1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_attention_overflow_raises_at_fused_output(self):
        arrays = _attention_inputs()
        arrays[1] = arrays[1] * 1e200  # wq
        arrays[3] = arrays[3] * 1e200  # wk: the scores overflow to +-inf
        with pytest.raises(NonFiniteError):
            attention(*[Tensor(a) for a in arrays], heads=2)
        with pytest.raises(NonFiniteError):
            attention(*[Tensor(a) for a in arrays], heads=2, class_only=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mlp_overflow_raises_at_fused_output(self):
        x, w1, b1, w2, b2 = _mlp_inputs()
        # the hidden pre-activation overflows to +-inf inside the op
        with pytest.raises(NonFiniteError):
            mlp(Tensor(x * 1e200), Tensor(w1 * 1e200), Tensor(b1), Tensor(w2), Tensor(b2))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def assert_same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    np.testing.assert_array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


class TestKernels:
    """The shared softmax and GELU kernels give the bytes of the
    out-of-place expressions they replaced (`tests/helpers.py`) and
    write into none of their (read-only) arguments."""

    @pytest.mark.parametrize("shape,view", [
        ((5, 7), None), ((3, 6, 9), None), ((2, 3, 5, 26), None),
        ((3, 9, 6), lambda a: a.swapaxes(1, 2)),
    ], ids=["rank2", "rank3", "rank4", "rank3_strided"])
    def test_match_out_of_place_expressions(self, shape, view):
        rng = np.random.default_rng(len(shape))
        x = 3.0 * rng.normal(size=shape)  # many |x| > 1: erf's other branch
        # in every other row, scores 700-760 below the row's largest:
        # exp gives normal, subnormal and zero weights there
        x[..., ::2, 1::2] = -700.0 - 60.0 * rng.random(x[..., ::2, 1::2].shape)
        g = rng.normal(size=shape)
        if view is not None:
            x, g = view(x), view(g)
        x, g = _read_only(x), _read_only(g)

        y = _read_only(T._softmax(x))
        assert_same_bytes(y, reference_softmax(x))
        assert (y == 0).any() and ((y > 0) & (y < np.finfo(np.float64).tiny)).any()
        scores = np.array(x)
        assert_same_bytes(T._softmax(scores, out=scores), y)
        assert_same_bytes(T._softmax_backward(g, y), reference_softmax_backward(g, y))

        hidden, cdf = T._gelu(x)
        ref_hidden, ref_cdf = reference_gelu(x)
        assert (np.abs(x) > 1).any() and (np.abs(x) < 1).any()
        assert_same_bytes(hidden, ref_hidden)
        assert_same_bytes(cdf, ref_cdf)
        cdf = _read_only(cdf)
        assert_same_bytes(T._gelu_backward(g, x, cdf), reference_gelu_backward(g, x, cdf))


class TestOwnership:
    """The backward of a fused op, or of an op that hands its upstream
    gradient straight to a shared kernel, writes into neither that
    gradient nor what its closure keeps: run twice on a read-only gradient, it
    raises nothing, returns the same gradients both times and leaves the
    op's output and attention weights as they were."""

    @pytest.mark.parametrize("op,inputs", [
        (linear, lambda: [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5)),
                          RNG.normal(size=5)]),
        (layer_norm, lambda: [RNG.normal(size=(4, 26, 32)), RNG.normal(size=32),
                              RNG.normal(size=32)]),
        (lambda *t: attention(*t, heads=2), _attention_inputs),
        (lambda *t: attention(*t, heads=2, class_only=True), _attention_inputs),
        (mlp, _mlp_inputs),
        (softmax_rows, lambda: [RNG.normal(size=(2, 3, 5))]),
        (gelu, lambda: [RNG.normal(size=(2, 3, 5))]),
    ], ids=["linear", "layer_norm", "attention", "attention_class_only", "mlp", "softmax_rows",
            "gelu"])
    def test_backward_twice_on_a_read_only_gradient(self, op, inputs):
        tensors = [Tensor(a, requires_grad=True) for a in inputs()]
        with Tape() as tape:
            result = op(*tensors)
        kept = list(result) if isinstance(result, tuple) else [result]
        kept = [a.values if isinstance(a, Tensor) else a for a in kept]  # output, weights
        before = [a.copy() for a in kept]
        [record] = tape._records
        g = _read_only(RNG.normal(size=kept[0].shape))
        first, second = record.backward(g), record.backward(g)
        assert len(first) == len(tensors)
        for a, b in zip(first, second, strict=True):
            assert_same_bytes(a, b)
        for a, b in zip(kept, before, strict=True):
            assert_same_bytes(a, b)


def _probe_dot(out: Tensor, probe: np.ndarray) -> Tensor:
    """The dot product of `out` with a fixed probe array, as a [1, 1] tensor."""
    return matmul(reshape(out, (1, out.size)), Tensor(probe.reshape(-1, 1)))


class TestDeterminism:
    def test_forward_is_bit_identical(self):
        a = RNG.normal(size=(8, 8))
        b = RNG.normal(size=(8, 8))
        first = softmax_rows(matmul(Tensor(a), Tensor(b))).values
        second = softmax_rows(matmul(Tensor(a), Tensor(b))).values
        assert np.array_equal(first, second)
