"""Masking tests: class-token attention scores, top-k selection against
a sort-based oracle, pixel replacement semantics, the composed masked
view against an independent brute-force recomputation, and the chunked
forwards with their forked helper."""

import os
import re
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethevit import masking, tensor
from lethevit.errors import ConfigError, ContractError, DimensionError, NonFiniteError
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
from lethevit.vit import ViTConfig, ViTParams, forward, init_params, patchify

from helpers import (CallLog, forks, on_path, process_of, reference_apply_mask,
                     wait_until, with_entry)

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
    """Chunks run in job order, about half in a forked helper:
    serial-loop results and errors, no tape records, and no thread or
    process left behind."""

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
        got = forward_chunks([params] * len(sets), sets, 4, capture_attention=capture)
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
        got = forward_chunks([params] * len(sets), sets, 4)
        assert len(got) == len(sets)
        for [logits], masked in zip(got, sets):
            [serial] = self._serial(params, self._masked_whole(masked), 4, False)
            assert logits.tobytes() == serial.tobytes()

    def test_each_set_runs_on_its_own_model_with_its_own_capture(self):
        models = [init_params(TINY, seed=seed) for seed in (8, 9)]
        images = RNG.normal(size=(10, 1, 8, 8))
        masked = self._masked(images, MaskType.GAUSSIAN)
        got = forward_chunks([models[0], models[1], models[1]], [images, images, masked], 4,
                             capture_attention=[True, False, True])
        want = [self._serial(models[0], images, 4, True), self._serial(models[1], images, 4, False),
                self._serial(models[1], self._masked_whole(masked), 4, True)]
        assert [[a.tobytes() for a in arrays] for arrays in got] == [
            [a.tobytes() for a in arrays] for arrays in want]

    def test_a_model_per_set_is_required(self):
        params = init_params(TINY, seed=8)
        with pytest.raises(ContractError, match="1 models for 2 sets"):
            forward_chunks([params], [RNG.normal(size=(4, 1, 8, 8))] * 2, 4)

    @pytest.mark.parametrize("flags", [[True], [True, False, True]], ids=["short", "long"])
    def test_a_capture_flag_per_set_is_required(self, flags):
        params = init_params(TINY, seed=8)
        with pytest.raises(ContractError, match=f"{len(flags)} capture flags for 2 sets"):
            forward_chunks([params] * 2, [RNG.normal(size=(4, 1, 8, 8))] * 2, 4,
                           capture_attention=flags)

    def test_one_frozen_copy_per_distinct_model(self, monkeypatch):
        models = [init_params(TINY, seed=seed) for seed in (8, 9)]
        copied = []
        real = ViTParams.frozen

        def counted(params):
            copied.append(id(params))
            return real(params)

        monkeypatch.setattr(ViTParams, "frozen", counted)
        forward_chunks([models[0], models[1], models[0], models[0]],
                       [RNG.normal(size=(4, 1, 8, 8))] * 4, 4)
        assert sorted(copied) == sorted(map(id, models))

    def test_open_tape_records_nothing_and_stays_active(self):
        params = init_params(TINY, seed=8)
        with Tape() as tape:
            forward_chunks([params] * 2,
                           [RNG.normal(size=(12, 1, 8, 8)),
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
            job = pool.submit(forward_chunks, [params], [RNG.normal(size=(4, 1, 8, 8))], 4)
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
        with pytest.raises(NonFiniteError) as chunked:
            forward_chunks([params], [images], 4)
        assert str(chunked.value) == str(serial.value)
        assert threading.active_count() == threads
        forward_chunks([params] * 2, [images[:4], images[8:]], 4)
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
        with pytest.raises(NonFiniteError) as chunked:
            forward_chunks([params], [masked], 4)
        assert str(chunked.value) == str(serial.value)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("masked", [False, True])
    def test_empty_set_is_a_dimension_error_before_any_forward(self, monkeypatch, masked):
        params = init_params(TINY, seed=8)
        images = RNG.normal(size=(6, 1, 8, 8))
        empty = self._masked(images[:0], MaskType.ZERO, np.zeros((0, 4))) if masked else images[:0]
        calls = []
        monkeypatch.setattr("lethevit.masking.forward", lambda *args: calls.append(args))
        with pytest.raises(DimensionError, match="set 1 of 2 has no images"):
            forward_chunks([params] * 2, [images, empty], 4, capture_attention=True)
        assert calls == []
        with pytest.raises(DimensionError):  # the error `forward` of zero rows raises
            forward(params, images[:0])


class TestForwardHelper:
    """`forward_chunks` on its fork path: a helper forked for the call
    computes the jobs that keep the two processes' rows even, and this
    process the others, taking results in job order. Each set here is 24
    rows at chunk 4, six jobs of equal rows, so the helper computes jobs
    1, 3 and 5; pixel (0, 0, 0) of row i holds i, so a logged forward
    names its job."""

    ROWS = 24

    @staticmethod
    def _sets(count):
        sets = []
        for _ in range(count):
            images = RNG.normal(size=(TestForwardHelper.ROWS, 1, 8, 8))
            images[:, 0, 0, 0] = np.arange(TestForwardHelper.ROWS)
            sets.append(images)
        return sets

    @staticmethod
    def _logged(monkeypatch, fail=None, block_at=None):
        """Route `masking.forward` through a wrapper that logs (where, job)
        of each call to a `CallLog` (see `process_of`); job k raises
        `fail[k]` in either process, and job `block_at` sleeps for a
        minute in the helper. Jobs are numbered within the first set."""
        calls = CallLog()
        me = os.getpid()
        real = masking.forward

        def logged(params, images, capture_attention=False):
            where, job = process_of(me), int(images[0, 0, 0, 0]) // 4
            calls.append((where, job))
            if fail and job in fail:
                raise fail[job]
            if job == block_at and where == "helper":
                time.sleep(60)
            return real(params, images, capture_attention)

        monkeypatch.setattr(masking, "forward", logged)
        return calls

    @staticmethod
    def _bytes(result):
        return [[a.tobytes() for a in arrays] for arrays in result]

    @pytest.mark.parametrize("capture", [False, True, [True, False, True, False]],
                             ids=["plain", "capture", "capture-per-set"])
    def test_fork_path_gives_the_inline_paths_bytes(self, monkeypatch, capture):
        """Two models, plain and masked sets of both mask types: the same
        bytes on both paths, one helper forked for the call, and every
        second forward run in it."""
        models = [init_params(TINY, seed=seed) for seed in (8, 9)]
        plain = self._sets(2)
        sets = [plain[0], TestForwardChunks._masked(plain[1], MaskType.GAUSSIAN),
                plain[1], TestForwardChunks._masked(plain[0], MaskType.ZERO)]
        args = ([models[0], models[0], models[1], models[1]], sets, 4, capture)
        pids = forks(monkeypatch)
        calls = CallLog()
        me = os.getpid()
        real = masking.forward

        def logged(params, images, capture_attention=False):
            calls.append(process_of(me))
            return real(params, images, capture_attention)

        monkeypatch.setattr(masking, "forward", logged)
        forked = forward_chunks(*args)
        assert len(pids) == 1
        assert sorted(calls) == ["helper"] * 12 + ["here"] * 12  # 4 sets of 6 jobs
        with on_path("inline"):
            inline = forward_chunks(*args)
        assert len(pids) == 1
        assert self._bytes(forked) == self._bytes(inline)

    def test_jobs_split_by_rows(self, monkeypatch):
        """Sets of 6 and 8 rows at chunk 4 give jobs of 4, 2, 4 and 4
        rows. Each goes to the process with fewer rows so far, this one
        on a tie: jobs 0 and 3 here, 1 and 2 in the helper."""
        params = init_params(TINY, seed=8)
        sets = [RNG.normal(size=(n, 1, 8, 8)) for n in (6, 8)]
        for index, images in enumerate(sets):
            images[:, 0, 0, 0] = 100 * index + np.arange(len(images))
        forks(monkeypatch)
        calls = CallLog()
        me = os.getpid()
        real = masking.forward

        def logged(params, images, capture_attention=False):
            calls.append((process_of(me), int(images[0, 0, 0, 0])))
            return real(params, images, capture_attention)

        monkeypatch.setattr(masking, "forward", logged)
        got = forward_chunks([params] * 2, sets, 4)
        assert sorted(calls) == [("helper", 4), ("helper", 100), ("here", 0), ("here", 104)]
        assert self._bytes(got) == self._bytes(
            [[np.concatenate([forward(params, images[:4]).logits.values,
                              forward(params, images[4:]).logits.values])] for images in sets])

    def test_one_job_forks_nothing(self, monkeypatch):
        pids = forks(monkeypatch)
        params = init_params(TINY, seed=8)
        [[logits]] = forward_chunks([params], [RNG.normal(size=(4, 1, 8, 8))], 4)
        assert logits.shape == (4, TINY.num_classes)
        assert pids == []

    def test_killed_helper_gives_every_result(self, monkeypatch):
        """The helper blocks in job 3, after sending job 1, and is killed
        from outside while this process runs job 2: jobs 3-5 run here."""
        params = init_params(TINY, seed=8)
        [images] = self._sets(1)
        with on_path("inline"):
            want = forward_chunks([params], [images], 4, capture_attention=True)
        pids = forks(monkeypatch)
        calls = self._logged(monkeypatch, block_at=3)
        real = masking.forward

        def killing(params, images, capture_attention=False):
            if int(images[0, 0, 0, 0]) // 4 == 2 and process_of(me) == "here":
                wait_until(lambda: ("helper", 3) in calls)
                os.kill(pids[0], signal.SIGKILL)
            return real(params, images, capture_attention)

        me = os.getpid()
        monkeypatch.setattr(masking, "forward", killing)
        got = forward_chunks([params], [images], 4, capture_attention=True)
        assert self._bytes(got) == self._bytes(want)
        assert [job for where, job in calls if where == "helper"] == [1, 3]
        assert [job for where, job in calls if where == "here"] == [0, 2, 3, 4, 5]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing", [(3, 4), (1, 2)], ids=["jobs-3-4", "jobs-1-2"])
    def test_chunk_error_is_raised_as_itself_at_the_first_failing_job(self, monkeypatch,
                                                                      failing):
        """Jobs `failing` raise, in either process. The first of them is
        the helper's (odd), so the helper sends nothing from it on, and
        this process, which reads results in job order, recomputes it and
        raises its error as itself; the later failing job, this
        process's own, never runs."""
        params = init_params(TINY, seed=8)
        errors = {job: KeyError(f"job {job}") for job in failing}
        pids = forks(monkeypatch)
        calls = self._logged(monkeypatch, fail=errors)
        with pytest.raises(KeyError) as exc:
            forward_chunks([params], self._sets(1), 4)
        first = min(failing)
        assert exc.value is errors[first]
        assert len(pids) == 1
        assert [job for where, job in calls if where == "here"] == list(range(0, first, 2)) + [
            first]
        assert [job for where, job in calls if where == "helper"] == list(range(1, first + 1, 2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_job_failing_only_in_the_helper_gives_every_result(self, monkeypatch):
        """Job 3 raises in the helper only: the helper sends job 1 and
        nothing after, and this process computes jobs 3-5, with the inline
        path's bytes."""
        params = init_params(TINY, seed=8)
        [images] = self._sets(1)
        with on_path("inline"):
            want = forward_chunks([params], [images], 4)
        forks(monkeypatch)
        me = os.getpid()
        calls = CallLog()
        real = masking.forward

        def helper_fails(params, images, capture_attention=False):
            where, job = process_of(me), int(images[0, 0, 0, 0]) // 4
            calls.append((where, job))
            if (where, job) == ("helper", 3):
                raise KeyError("helper only")
            return real(params, images, capture_attention)

        monkeypatch.setattr(masking, "forward", helper_fails)
        got = forward_chunks([params], [images], 4)
        assert self._bytes(got) == self._bytes(want)
        assert [job for where, job in calls if where == "helper"] == [1, 3]
        assert [job for where, job in calls if where == "here"] == [0, 2, 3, 4, 5]


class TestLinkSplit:
    """`_Link.split` in a `_session` of its own, on a toy job,
    `np.full((2, 3), k)`, with the non-alternating assignment `SIDES`: the
    helper computes jobs 1, 2 and 4 and sends only results, and from the
    first job it did not deliver on, this process runs the helper's jobs
    too."""

    COUNT = 6
    SIDES = (0, 1, 1, 0, 1, 0)

    @staticmethod
    def _job(fail_at=None, error=None, helper_only=False, block_at=None, kill_at=None,
             pids=None):
        """The toy job and the `CallLog` of (where, k) of its calls (see
        `process_of`). Job `fail_at` raises `error`, in the helper only given
        `helper_only`; job `block_at` sleeps for a minute in the helper, and
        here job `kill_at` waits for it and kills the helper, `pids[0]`."""
        calls = CallLog()
        me = os.getpid()

        def job(k):
            where = process_of(me)
            calls.append((where, k))
            if k == fail_at and (where == "helper" or not helper_only):
                raise error
            if k == block_at and where == "helper":
                time.sleep(60)
            if k == kill_at and where == "here":
                wait_until(lambda: ("helper", block_at) in calls)
                os.kill(pids[0], signal.SIGKILL)
            return np.full((2, 3), float(k))

        return job, calls

    def _split(self, job):
        return masking._session(True, lambda link: link.split(job, self.COUNT, self.SIDES))

    def _assert_values(self, got):
        assert [g.tobytes() for g in got] == [np.full((2, 3), float(k)).tobytes()
                                              for k in range(self.COUNT)]

    @staticmethod
    def _jobs_in(calls, where):
        return [k for w, k in calls if w == where]

    @pytest.mark.parametrize("path", ["fork", "inline"])
    def test_every_value_in_step_order(self, monkeypatch, path):
        pids = forks(monkeypatch)
        job, calls = self._job()
        with on_path(path):
            got = self._split(job)
        self._assert_values(got)
        if path == "fork":
            assert self._jobs_in(calls, "helper") == [1, 2, 4]
            assert self._jobs_in(calls, "here") == [0, 3, 5]
        else:
            assert list(calls) == [("here", k) for k in range(self.COUNT)]
        assert len(pids) == (path == "fork")

    @pytest.mark.parametrize("path", ["fork", "inline"])
    def test_job_error_is_raised_as_itself_at_its_step(self, monkeypatch, path):
        """Job 2, the helper's second, raises in either process: this
        process takes job 1 from the helper, runs job 2 itself and raises
        its error; job 3 never runs."""
        pids = forks(monkeypatch)
        error = KeyError("job 2")
        job, calls = self._job(fail_at=2, error=error)
        with on_path(path), pytest.raises(KeyError) as exc:
            self._split(job)
        assert exc.value is error
        assert exc.traceback[-1].name == "job"
        assert self._jobs_in(calls, "helper") == ([1, 2] if path == "fork" else [])
        assert self._jobs_in(calls, "here") == ([0, 2] if path == "fork" else [0, 1, 2])
        assert len(pids) == (path == "fork")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_job_failing_only_in_the_helper_gives_every_value(self, monkeypatch):
        forks(monkeypatch)
        job, calls = self._job(fail_at=2, error=KeyError("helper only"), helper_only=True)
        self._assert_values(self._split(job))
        assert self._jobs_in(calls, "helper") == [1, 2]
        assert self._jobs_in(calls, "here") == [0, 2, 3, 4, 5]

    def test_killed_helper_gives_every_value(self, monkeypatch):
        """The helper blocks in job 4, after sending jobs 1 and 2, and is
        killed from outside while this process runs job 3: job 4 runs
        here."""
        pids = forks(monkeypatch)
        job, calls = self._job(block_at=4, kill_at=3, pids=pids)
        self._assert_values(self._split(job))
        assert self._jobs_in(calls, "helper") == [1, 2, 4]
        assert self._jobs_in(calls, "here") == [0, 3, 4, 5]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
