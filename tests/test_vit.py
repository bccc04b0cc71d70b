"""ViT model tests: patch extraction, forward contracts, attention
properties, initialization determinism, and the full-model gradient
oracle on a one-block instance."""

import numpy as np
import pytest

from lethevit.errors import ConfigError, DimensionError
from lethevit.masking import class_token_attention, select_top_k
from lethevit.tensor import Tape, Tensor, backward, cross_entropy
from lethevit.vit import (
    ViTConfig,
    forward,
    init_params,
    params_checksum,
    parameter_shapes,
    patchify,
)

from helpers import assert_gradients_match, reference_forward

TINY = ViTConfig(image_size=8, patch_size=4, channels=1, depth=1,
                 heads=2, dim=8, mlp_ratio=2, num_classes=3)


class TestConfig:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ConfigError):
            ViTConfig(image_size=10, patch_size=4)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            ViTConfig(dim=30, heads=4)

    def test_derived_quantities(self):
        cfg = ViTConfig(image_size=32, patch_size=4, dim=32, heads=2)
        assert cfg.num_patches == 64
        assert cfg.tokens == 65
        assert cfg.head_dim == 16


class TestPatchify:
    def test_patch_zero_holds_top_left_pixels(self):
        image = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cfg = ViTConfig(image_size=4, patch_size=2, channels=1)
        patches = patchify(image, cfg)
        assert patches.shape == (1, 4, 4)
        # pixels (0,0), (0,1), (1,0), (1,1)
        np.testing.assert_array_equal(patches[0, 0], [0.0, 1.0, 4.0, 5.0])
        # patch 1 is to the right of patch 0 (row-major grid)
        np.testing.assert_array_equal(patches[0, 1], [2.0, 3.0, 6.0, 7.0])

    def test_channel_major_flattening(self):
        image = np.stack([np.zeros((2, 2)), np.ones((2, 2))])[None]  # [1, 2, 2, 2]
        cfg = ViTConfig(image_size=2, patch_size=2, channels=2)
        patches = patchify(image, cfg)
        np.testing.assert_array_equal(patches[0, 0], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_constant_image_gives_equal_patches(self):
        cfg = ViTConfig(image_size=8, patch_size=4, channels=1)
        patches = patchify(np.full((2, 1, 8, 8), 3.5), cfg)
        assert (patches == 3.5).all()
        assert patches.shape == (2, 4, 16)

    def test_whole_image_patch(self):
        cfg = ViTConfig(image_size=4, patch_size=4, channels=1)
        image = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        patches = patchify(image, cfg)
        assert patches.shape == (1, 1, 16)
        np.testing.assert_array_equal(patches[0, 0], np.arange(16))

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            patchify(np.zeros((2, 1, 16, 16)), TINY)


class TestForward:
    def test_logits_shape(self):
        params = init_params(TINY, seed=0)
        out = forward(params, np.random.default_rng(0).normal(size=(5, 1, 8, 8)))
        assert out.logits.shape == (5, 3)
        assert out.last_attention is None

    def test_attention_rows_sum_to_one(self):
        params = init_params(TINY, seed=1)
        out = forward(params, np.random.default_rng(1).normal(size=(3, 1, 8, 8)),
                      capture_attention=True)
        weights = out.last_attention
        assert weights.shape == (3, TINY.heads, 1, TINY.tokens)
        assert not weights.flags.writeable  # the very array the attention backward keeps
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert (weights >= 0.0).all()

    def test_zero_query_key_gives_uniform_attention(self):
        params = init_params(TINY, seed=2)
        params.replace("block0.attn.wq", np.zeros((TINY.dim, TINY.dim)))
        params.replace("block0.attn.wk", np.zeros((TINY.dim, TINY.dim)))
        out = forward(params, np.random.default_rng(2).normal(size=(2, 1, 8, 8)),
                      capture_attention=True)
        np.testing.assert_allclose(out.last_attention, 1.0 / TINY.tokens, atol=1e-12)

    def test_batch_permutation_covariance(self):
        params = init_params(TINY, seed=3)
        images = np.random.default_rng(3).normal(size=(6, 1, 8, 8))
        perm = np.array([4, 0, 5, 2, 1, 3])
        direct = forward(params, images).logits.values
        permuted = forward(params, images[perm]).logits.values
        np.testing.assert_array_equal(direct[perm], permuted)

    def test_wrong_image_shape_rejected(self):
        params = init_params(TINY, seed=0)
        with pytest.raises(DimensionError):
            forward(params, np.zeros((2, 3, 8, 8)))


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(TINY, seed=42)
        b = init_params(TINY, seed=42)
        assert params_checksum(a) == params_checksum(b)
        for name, tensor in a.items():
            assert np.array_equal(tensor.values, b[name].values)

    def test_different_seeds_differ(self):
        a = init_params(TINY, seed=1)
        b = init_params(TINY, seed=2)
        assert not np.array_equal(a["patch.weight"].values, b["patch.weight"].values)

    def test_layer_norm_gain_is_exactly_one(self):
        params = init_params(TINY, seed=0)
        np.testing.assert_array_equal(params["block0.ln1.gain"].values, 1.0)
        np.testing.assert_array_equal(params["ln_final.gain"].values, 1.0)

    def test_biases_are_exactly_zero(self):
        params = init_params(TINY, seed=0)
        for name in ("patch.bias", "block0.attn.bq", "block0.mlp.b1", "head.bias",
                     "block0.ln1.bias", "ln_final.bias"):
            np.testing.assert_array_equal(params[name].values, 0.0)

    def test_weights_truncated_at_two_std(self):
        cfg = ViTConfig(image_size=16, patch_size=4, channels=1, depth=2,
                        heads=2, dim=32, mlp_ratio=2, num_classes=3)
        params = init_params(cfg, seed=7)
        w = params["block0.mlp.w1"].values
        assert np.abs(w).max() <= 0.04 + 1e-12
        assert 0.01 < w.std() < 0.03

    def test_all_shapes_match_declaration(self):
        params = init_params(TINY, seed=0)
        for name, shape in parameter_shapes(TINY).items():
            assert params[name].shape == shape

    def test_copy_is_independent(self):
        params = init_params(TINY, seed=0)
        clone = params.copy()
        clone.replace("head.bias", np.ones(TINY.num_classes))
        np.testing.assert_array_equal(params["head.bias"].values, 0.0)

    def test_frozen_copy_keeps_the_bytes_and_records_nothing(self):
        params = init_params(TINY, seed=0)
        frozen = params.frozen()
        assert frozen.config == params.config and frozen.names() == params.names()
        for name, t in frozen.items():
            assert t.values.tobytes() == params[name].values.tobytes(), name
            assert not t.requires_grad, name
        images = np.random.default_rng(3).normal(size=(2, 1, 8, 8))
        with Tape() as tape:
            out = forward(frozen, images)
        assert len(tape) == 0 and not out.logits.requires_grad
        assert out.logits.values.tobytes() == forward(params, images).logits.values.tobytes()


class TestModelGradients:
    def test_full_model_matches_finite_differences(self):
        """Cross-entropy gradient through the complete one-block model."""
        params = init_params(TINY, seed=9)
        images = np.random.default_rng(9).normal(size=(2, 1, 8, 8))
        labels = np.array([0, 2])
        names = params.names()

        def build(tensors):
            probe = params.copy()
            for name, tensor in zip(names, tensors):
                probe.tensors[name] = tensor
            return cross_entropy(forward(probe, images).logits, labels)

        arrays = [params[name].values.copy() for name in names]
        assert_gradients_match(build, arrays, rel_tol=1e-3)


def _committed_shapes(depth, seed):
    """The benchmark's model shapes at `depth`, every parameter perturbed
    away from its zero / unit initial value."""
    cfg = ViTConfig(image_size=20, patch_size=4, channels=1, depth=depth,
                    heads=2, dim=32, mlp_ratio=2, num_classes=3)
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed)
    for name, tensor in list(params.items()):
        params.replace(name, tensor.values + 0.1 * rng.normal(size=tensor.shape))
    return params


def _tracked_step(run, params, images, labels):
    """Forward a fresh copy of `params` under a tape and run backward;
    returns the output, the tape's records and the copy, which holds the
    gradients."""
    probe = params.copy()
    with Tape() as tape:
        out = run(probe, images, capture_attention=True)
        loss = cross_entropy(out.logits, labels)
    records = list(tape._records)
    backward(loss, tape)
    return out, records, probe


def _assert_close(new, old):
    """`new` within 1e-12 of the largest magnitude in `old`."""
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


class TestClassTokenTail:
    """The final attention queries from the class token only and the
    forward runs on it alone from there; it agrees with the all-token
    composition it replaced up to the rounding of a reordered sum."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 32, 256])
    def test_equals_all_token_forward(self, depth, batch):
        params = _committed_shapes(depth, seed=40 + depth)
        rng = np.random.default_rng(batch)
        images = rng.normal(size=(batch, 1, 20, 20))
        labels = rng.integers(0, 3, size=batch)

        frozen = params.frozen()
        untracked = (forward(frozen, images, capture_attention=True),
                     reference_forward(frozen, images, capture_attention=True))
        got, _, got_params = _tracked_step(forward, params, images, labels)
        want, _, want_params = _tracked_step(reference_forward, params, images, labels)
        assert got.logits.requires_grad and not untracked[0].logits.requires_grad
        for new, old in (untracked, (got, want)):
            # a one-row query and a one-row tail reach BLAS through other
            # kernels (stacked [1, hd] products, gemv), which sum each dot
            # product in another order
            _assert_close(new.last_attention, old.last_attention[:, :, :1])
            _assert_close(new.logits.values, old.logits.values)
            for ratio in (0.1, 0.25):
                np.testing.assert_array_equal(
                    select_top_k(class_token_attention(new.last_attention), ratio),
                    select_top_k(class_token_attention(old.last_attention), ratio))
        largest = max(float(np.abs(t.grad).max()) for _, t in want_params.items())
        for name, t in got_params.items():
            assert np.abs(t.grad - want_params[name].grad).max() <= 1e-12 * largest, name

    def test_tail_records_are_class_token_sized(self):
        params = _committed_shapes(2, seed=5)
        b, d = 9, params.config.dim
        images = np.random.default_rng(5).normal(size=(b, 1, 20, 20))
        _, records, params = _tracked_step(forward, params, images, np.zeros(b, dtype=int))
        assert len(records) == 20

        def reading(name):
            return next(i for i, rec in enumerate(records)
                        if any(t is params[name] for t in rec.inputs))

        # the class-only attention, take_token, add, ln2, mlp, add, ln_final,
        # then the head and the loss
        tail = records[reading("block1.attn.wq"):]
        assert len(tail) == 9
        assert all(rec.output.shape == (b, d) for rec in tail[:7])
        for name in ("block1.ln2.gain", "block1.mlp.w1", "ln_final.gain", "head.weight"):
            assert records[reading(name)].inputs[0].shape == (b, d), name
