"""Masking tests: class-token attention scores, top-k selection against
a sort-based oracle, pixel replacement semantics, the composed masked
view against an independent brute-force recomputation, and the thread
pool that runs chunked forwards."""

import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethevit import masking, tensor
from lethevit.errors import ConfigError, DimensionError, NonFiniteError
from lethevit.masking import (
    MaskedSet,
    MaskSpec,
    MaskType,
    apply_mask,
    build_masked_view,
    class_token_attention,
    forward_chunks,
    mask_from_scores,
    patch_count,
    select_top_k,
)
from lethevit.tensor import Tape, Tensor, linear
from lethevit.vit import ViTConfig, forward, init_params, patchify

from helpers import reference_apply_mask, with_entry

RNG = np.random.default_rng(77)

TINY = ViTConfig(image_size=8, patch_size=4, channels=1, depth=1,
                 heads=2, dim=8, mlp_ratio=2, num_classes=3)


def _attention_with_class_rows(rows):
    """Attention weights whose class-token rows are given; other rows uniform."""
    rows = np.asarray(rows, dtype=float)  # [H, N+1]
    heads, tokens = rows.shape
    weights = np.full((1, heads, tokens, tokens), 1.0 / tokens)
    weights[0, :, 0, :] = rows
    return weights


class TestClassTokenAttention:
    def test_two_head_average(self):
        attn = _attention_with_class_rows([[0.2, 0.5, 0.3], [0.4, 0.1, 0.5]])
        scores = class_token_attention(attn)
        np.testing.assert_allclose(scores, [[0.30, 0.40]], atol=1e-12)

    def test_uniform_attention(self):
        tokens = 5
        attn = np.full((2, 3, tokens, tokens), 1.0 / tokens)
        scores = class_token_attention(attn)
        np.testing.assert_allclose(scores, 1.0 / tokens)
        assert scores.shape == (2, tokens - 1)

    def test_single_head_passthrough(self):
        row = np.array([0.1, 0.2, 0.3, 0.4])
        attn = _attention_with_class_rows([row])
        np.testing.assert_allclose(class_token_attention(attn), [row[1:]], atol=1e-12)

    def test_no_patches_rejected(self):
        with pytest.raises(ConfigError):
            class_token_attention(np.ones((1, 1, 1, 1)))


class TestSelectTopK:
    def test_simple_argmax(self):
        out = select_top_k(np.array([[0.3, 0.4]]), ratio=0.5)
        np.testing.assert_array_equal(out, [[1]])

    def test_paper_scale_count(self):
        scores = RNG.random((2, 196))
        out = select_top_k(scores, ratio=0.05)
        assert out.shape == (2, 9)

    def test_tie_break_prefers_lower_index(self):
        out = select_top_k(np.ones((1, 4)), ratio=0.5)
        np.testing.assert_array_equal(out, [[0, 1]])

    def test_zero_ratio_gives_empty(self):
        out = select_top_k(RNG.random((3, 10)), ratio=0.0)
        assert out.shape == (3, 0)

    def test_floor_counts(self):
        for ratio, n, expected in [(0.0, 64, 0), (0.05, 64, 3), (1.0, 64, 64),
                                   (0.05, 196, 9), (0.3, 10, 3), (0.1, 99, 9)]:
            assert patch_count(ratio, n) == expected

    def test_against_sort_oracle_1000_vectors(self):
        for trial in range(1000):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(1, 40))
            ratio = float(rng.random())
            scores = np.round(rng.normal(size=(1, n)), 2)  # rounding forces ties
            got = select_top_k(scores, ratio)[0]
            k = patch_count(ratio, n)
            # oracle: stable sort on (-score, index) pairs
            order = sorted(range(n), key=lambda i: (-scores[0, i], i))
            expected = sorted(order[:k])
            np.testing.assert_array_equal(got, expected)

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 1000.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_rescaling_invariance(self, seed, factor):
        rng = np.random.default_rng(seed)
        scores = rng.random((2, 12))
        base = select_top_k(scores, 0.4)
        scaled = select_top_k(scores * factor, 0.4)
        np.testing.assert_array_equal(base, scaled)


class TestApplyMask:
    IMAGES = RNG.normal(size=(3, 1, 8, 8))

    def test_full_mask_zeroes_everything(self):
        indices = select_top_k(RNG.random((3, 4)), 1.0)
        out = apply_mask(self.IMAGES, indices, MaskSpec(1.0), patch_size=4)
        assert (out == 0.0).all()

    def test_empty_mask_is_identity(self):
        indices = np.zeros((3, 0), dtype=np.int64)
        out = apply_mask(self.IMAGES, indices, MaskSpec(0.0), patch_size=4)
        np.testing.assert_array_equal(out, self.IMAGES)

    def test_zero_mask_idempotent(self):
        indices = np.array([[0, 3], [1, 2], [0, 1]])
        once = apply_mask(self.IMAGES, indices, MaskSpec(0.5), patch_size=4)
        twice = apply_mask(once, indices, MaskSpec(0.5), patch_size=4)
        np.testing.assert_array_equal(once, twice)

    def test_unmasked_pixels_bit_identical(self):
        indices = np.array([[1], [2], [0]])
        out = apply_mask(self.IMAGES, indices, MaskSpec(0.25), patch_size=4)
        for sample in range(3):
            patch = indices[sample, 0]
            row, col = divmod(int(patch), 2)
            mask = np.zeros((1, 8, 8), dtype=bool)
            mask[:, row * 4:(row + 1) * 4, col * 4:(col + 1) * 4] = True
            # complement untouched, selected patch fully zero: an exact partition
            np.testing.assert_array_equal(out[sample][~mask], self.IMAGES[sample][~mask])
            assert (out[sample][mask] == 0.0).all()

    def test_gaussian_mask_deterministic_per_seed(self):
        indices = np.array([[0], [1], [3]])
        spec = MaskSpec(0.25, MaskType.GAUSSIAN, gaussian_std=0.7)
        a = apply_mask(self.IMAGES, indices, spec, patch_size=4, seed=5)
        b = apply_mask(self.IMAGES, indices, spec, patch_size=4, seed=5)
        c = apply_mask(self.IMAGES, indices, spec, patch_size=4, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gaussian_replaces_rather_than_adds(self):
        images = np.full((1, 1, 8, 8), 100.0)
        spec = MaskSpec(0.25, MaskType.GAUSSIAN, gaussian_std=1.0)
        out = apply_mask(images, np.array([[0]]), spec, patch_size=4, seed=0)
        assert np.abs(out[0, 0, :4, :4]).max() < 50.0  # draws ~N(0,1), not 100+noise

    @pytest.mark.parametrize("mask_type", [MaskType.ZERO, MaskType.GAUSSIAN])
    @pytest.mark.parametrize("batch,channels", [(7, 1), (32, 3), (150, 1)])
    def test_equals_per_patch_loop(self, mask_type, batch, channels):
        """One assignment per sample (one for a whole zero-masked batch)
        writes the bytes of the per-patch loop; a Gaussian mask's single
        `(k, c, p, p)` draw is the stream of k `(c, p, p)` draws. Patch
        sizes 4, 2 and 5 cut the 20x20 images into 5x5, 10x10 and 4x4 grids."""
        rng = np.random.default_rng(batch * 10 + channels)
        images = rng.normal(size=(batch, channels, 20, 20))
        for patch_size in (4, 2, 5):
            n = (20 // patch_size) ** 2
            for ratio in (0.0, 0.1, 0.3, 1.0):
                spec = MaskSpec(ratio, mask_type, gaussian_std=0.7)
                indices = select_top_k(rng.random((batch, n)), ratio)
                got = apply_mask(images, indices, spec, patch_size=patch_size, seed=17)
                want = reference_apply_mask(images, indices, spec, patch_size=patch_size,
                                            seed=17)
                assert got.tobytes() == want.tobytes(), (patch_size, ratio)

    def test_index_rows_must_match_the_batch(self):
        with pytest.raises(DimensionError):
            apply_mask(self.IMAGES, np.array([[0], [1]]), MaskSpec(0.25), patch_size=4)
        with pytest.raises(DimensionError):
            apply_mask(self.IMAGES, np.array([0, 1, 2]), MaskSpec(0.25), patch_size=4)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DimensionError, match=r"\(3, 1\)"):
            apply_mask(self.IMAGES, np.array([[4], [0], [0]]), MaskSpec(0.25), patch_size=4)
        with pytest.raises(DimensionError, match=r"\[0, 4\)"):
            apply_mask(self.IMAGES, np.array([[-1], [0], [0]]), MaskSpec(0.25), patch_size=4)

    @pytest.mark.parametrize("shape,patch_size", [
        ((3, 1, 8, 8), 0), ((3, 1, 8, 8), -4), ((3, 1, 10, 10), 4), ((3, 1, 8, 12), 4),
    ], ids=["zero-patch", "negative-patch", "patch-leaves-pixels-uncovered", "non-square"])
    def test_images_the_patches_do_not_tile_rejected(self, shape, patch_size):
        """At patch size 4 a 10x10 image would be masked on a 2x2 grid
        that never covers its last two rows and columns."""
        with pytest.raises(DimensionError, match=re.escape(str(shape))):
            apply_mask(np.ones(shape), np.array([[0], [1], [3]]), MaskSpec(0.25), patch_size)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError):
            MaskSpec(1.5)


def _zeroed_patches(masked):
    """Per sample, the ascending indices of the patches whose pixels are all zero."""
    return [np.flatnonzero(row).tolist() for row in (patchify(masked, TINY) == 0.0).all(axis=2)]


class TestBuildMaskedView:
    def test_index_count_matches_floor(self):
        params = init_params(TINY, seed=0)
        images = RNG.normal(size=(4, 1, 8, 8))
        masked = build_masked_view(params, images, MaskSpec(0.5))
        assert masked.shape == images.shape
        assert [len(row) for row in _zeroed_patches(masked)] == [2] * 4

    def test_uniform_attention_selects_first_patches(self):
        params = init_params(TINY, seed=1)
        params = with_entry(params, "block0.attn.wq", np.zeros((TINY.dim, TINY.dim)))
        params = with_entry(params, "block0.attn.wk", np.zeros((TINY.dim, TINY.dim)))
        masked = build_masked_view(params, RNG.normal(size=(2, 1, 8, 8)), MaskSpec(0.5))
        assert _zeroed_patches(masked) == [[0, 1], [0, 1]]

    def test_matches_brute_force_score_recomputation(self):
        """Independent oracle: recompute head-averaged class-token scores
        from the raw attention weights and take argmax-k by sorting."""
        params = init_params(TINY, seed=2)
        images = RNG.normal(size=(5, 1, 8, 8))
        ratio = 0.75
        masked = build_masked_view(params, images, MaskSpec(ratio))

        weights = forward(params, images, capture_attention=True).last_attention
        n = TINY.num_patches
        k = int(np.floor(ratio * n))
        zeroed = _zeroed_patches(masked)
        for sample in range(5):
            scores = [
                sum(weights[sample, h, 0, i + 1] for h in range(TINY.heads)) / TINY.heads
                for i in range(n)
            ]
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            assert zeroed[sample] == sorted(order[:k])

    def test_zero_masking_deterministic_end_to_end(self):
        params = init_params(TINY, seed=3)
        images = RNG.normal(size=(3, 1, 8, 8))
        a = build_masked_view(params, images, MaskSpec(0.25))
        b = build_masked_view(params, images, MaskSpec(0.25))
        np.testing.assert_array_equal(a, b)


class TestForwardChunks:
    """Chunks run on a pool: serial-loop results and errors, no tape
    records, and no thread left behind."""

    def _serial(self, params, images, chunk, capture):
        logits, scores = [], []
        for start in range(0, len(images), chunk):
            out = forward(params, images[start:start + chunk], capture_attention=capture)
            logits.append(out.logits.values)
            if capture:
                scores.append(class_token_attention(out.last_attention))
        return [np.concatenate(logits)] + ([np.concatenate(scores)] if capture else [])

    @pytest.mark.parametrize("capture", [False, True])
    def test_equals_serial_loop_per_set(self, capture):
        params = init_params(TINY, seed=8)
        sets = [RNG.normal(size=(n, 1, 8, 8)) for n in (10, 3, 8)]
        got = forward_chunks(params, sets, 4, capture_attention=capture)
        assert len(got) == len(sets)
        for arrays, images in zip(got, sets):
            for a, b in zip(arrays, self._serial(params, images, 4, capture), strict=True):
                assert a.tobytes() == b.tobytes()

    @staticmethod
    def _masked(images, mask_type, scores=None):
        """A masked set of `images` at ratio 0.5 (2 of TINY's 4 patches), seed 9."""
        scores = RNG.random((len(images), 4)) if scores is None else scores
        return MaskedSet(images, scores, MaskSpec(0.5, mask_type, gaussian_std=0.7), 9)

    @staticmethod
    def _masked_whole(masked):
        return mask_from_scores(masked.images, masked.scores, masked.spec,
                                TINY.patch_size, masked.seed)

    @pytest.mark.parametrize("mask_type", list(MaskType))
    def test_masked_sets_equal_masking_whole_then_serial_loop(self, mask_type):
        params = init_params(TINY, seed=8)
        sets = [self._masked(RNG.normal(size=(n, 1, 8, 8)), mask_type) for n in (10, 3)]
        got = forward_chunks(params, sets, 4)
        assert len(got) == len(sets)
        for [logits], masked in zip(got, sets):
            [serial] = self._serial(params, self._masked_whole(masked), 4, False)
            assert logits.tobytes() == serial.tobytes()

    def test_open_tape_records_nothing_and_stays_active(self):
        params = init_params(TINY, seed=8)
        with Tape() as tape:
            forward_chunks(params, [RNG.normal(size=(12, 1, 8, 8)),
                                    self._masked(RNG.normal(size=(12, 1, 8, 8)), MaskType.ZERO)],
                           4, capture_attention=True)
            assert len(tape) == 0
            assert tensor._active is tape
            forward(params, RNG.normal(size=(2, 1, 8, 8)))
            assert len(tape) > 0

    def test_map_on_a_worker_leaves_the_main_threads_tape_recording(self, monkeypatch):
        """While a worker thread is inside `forward_chunks`, an op on the
        main thread still records on the tape the main thread has open."""
        params = init_params(TINY, seed=8)
        inside, release = threading.Event(), threading.Event()
        real = masking.forward

        def held(params, images, capture_attention=False):
            inside.set()
            release.wait(timeout=30)
            return real(params, images, capture_attention)

        monkeypatch.setattr(masking, "forward", held)
        x, w, b = (Tensor(RNG.normal(size=s), requires_grad=True) for s in ((2, 3), (3, 4), (4,)))
        with ThreadPoolExecutor(1) as pool, Tape() as tape:
            job = pool.submit(forward_chunks, params, [RNG.normal(size=(4, 1, 8, 8))], 4)
            try:
                assert inside.wait(timeout=30)
                out = linear(x, w, b)
            finally:
                release.set()
            job.result()
        assert out.requires_grad
        assert len(tape) == 1

    def test_error_in_a_middle_chunk_is_the_serial_error(self):
        params = init_params(TINY, seed=8)
        images = RNG.normal(size=(12, 1, 8, 8))
        images[5, 0, 1, 2] = np.nan  # chunk 2 of 3
        with pytest.raises(NonFiniteError) as serial:
            self._serial(params, images, 4, False)
        threads = threading.active_count()
        with pytest.raises(NonFiniteError) as pooled:
            forward_chunks(params, [images], 4)
        assert str(pooled.value) == str(serial.value)
        assert threading.active_count() == threads
        forward_chunks(params, [images[:4], images[8:]], 4)
        assert threading.active_count() == threads

    def test_error_in_a_middle_masked_chunk_is_the_serial_error(self):
        params = init_params(TINY, seed=8)
        images = RNG.normal(size=(12, 1, 8, 8))
        images[5, 0, 1, 2] = np.nan  # chunk 2 of 3, in patch 0
        # patch 0 scores lowest, so the mask keeps the NaN
        masked = self._masked(images, MaskType.GAUSSIAN, np.tile(np.arange(4.0), (12, 1)))
        with pytest.raises(NonFiniteError) as serial:
            self._serial(params, self._masked_whole(masked), 4, False)
        threads = threading.active_count()
        with pytest.raises(NonFiniteError) as pooled:
            forward_chunks(params, [masked], 4)
        assert str(pooled.value) == str(serial.value)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("masked", [False, True])
    def test_empty_set_is_a_dimension_error_before_any_forward(self, monkeypatch, masked):
        params = init_params(TINY, seed=8)
        images = RNG.normal(size=(6, 1, 8, 8))
        empty = self._masked(images[:0], MaskType.ZERO, np.zeros((0, 4))) if masked else images[:0]
        calls = []
        monkeypatch.setattr("lethevit.masking.forward", lambda *args: calls.append(args))
        with pytest.raises(DimensionError, match="set 1 of 2 has no images"):
            forward_chunks(params, [images, empty], 4, capture_attention=True)
        assert calls == []
        with pytest.raises(DimensionError):  # the error `forward` of zero rows raises
            forward(params, images[:0])
