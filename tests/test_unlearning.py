"""Unlearning tests: contrastive loss analytics, pipeline contracts,
the one-step finite-difference oracle, and baseline behaviors."""

import contextlib
import dataclasses
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lethevit.data import LabeledDataset, DataSplit, generate_toy_dataset, split_random_forget
from lethevit.errors import (
    ConfigError,
    ContractError,
    DegenerateVectorError,
    DimensionError,
    DivergenceError,
    FormatError,
    NonFiniteError,
)
from lethevit.evaluation import batched_logits
from lethevit.masking import MaskSpec, MaskType, build_masked_view
from lethevit.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    cross_entropy,
    mean_all,
    per_sample_cross_entropy,
    scale,
    softplus,
)
from lethevit import unlearning
from lethevit.unlearning import (
    TrainConfig,
    UnlearnConfig,
    contrastive_loss,
    fine_tune,
    gradient_ascent,
    random_labels,
    relabel_forget,
    retrain,
    train_model,
    unlearn,
)
from lethevit.vit import ViTConfig, forward, init_params, params_checksum

from helpers import (
    CallLog,
    count_forwards,
    in_set_order,
    reference_from_original,
    reference_train_model,
    with_entry,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RNG = np.random.default_rng(99)

TINY = ViTConfig(image_size=8, patch_size=4, channels=1, depth=1,
                 heads=2, dim=8, mlp_ratio=2, num_classes=3)


@pytest.fixture(scope="module")
def tiny_world():
    """Small dataset + split + original model used across pipeline tests."""
    train = generate_toy_dataset(3, 12, 8, seed=500)
    test = generate_toy_dataset(3, 4, 8, seed=501)
    split = split_random_forget(train, test, 0.25, seed=500)
    config = TrainConfig(model=TINY, epochs=60, learning_rate=0.02,
                         batch_size=12, seed=500, momentum=0.9)
    theta_o = train_model(train, config)
    return train, test, split, config, theta_o


def mean_loss(params, dataset):
    """Mean per-sample cross-entropy of `params` on `dataset`."""
    return per_sample_cross_entropy(batched_logits(params, dataset.images),
                                    dataset.labels).mean()


def _triplet(anchor_rows, positive_rows, negative_rows, tracked=True):
    """(anchor, positive, negative) logits for `contrastive_loss`."""
    anchor = Tensor(anchor_rows, requires_grad=tracked)
    return anchor, Tensor(positive_rows), Tensor(negative_rows)


class TestContrastiveLoss:
    def test_equal_similarities_give_ln2(self):
        z = RNG.normal(size=(6, 4))
        zp = RNG.normal(size=(6, 4))
        loss = contrastive_loss(*_triplet(z, zp, zp), temperature=0.37)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)
        loss2 = contrastive_loss(*_triplet(z, zp, zp), temperature=3.0)
        assert loss2.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_opposed_similarities_closed_form(self):
        v = np.array([[1.0, 2.0, -0.5]])
        loss = contrastive_loss(*_triplet(v, v, -v), temperature=1.0)
        assert loss.item() == pytest.approx(np.log(1.0 + np.exp(-2.0)), abs=1e-9)

    def test_temperature_to_zero_limit(self):
        v = np.array([[0.3, -1.0]])
        loss = contrastive_loss(*_triplet(v, v, -v), temperature=1e-8)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_loss_is_nonnegative(self):
        for _ in range(200):
            t = _triplet(RNG.normal(size=(3, 5)), RNG.normal(size=(3, 5)),
                         RNG.normal(size=(3, 5)))
            assert contrastive_loss(*t, float(RNG.uniform(0.05, 3.0))).item() >= 0.0

    def test_gradient_signs_at_random_points(self):
        """dL/ds_p < 0 and dL/ds_n > 0 for 1000 random (s_p, s_n, tau)."""
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            s_p = Tensor(rng.uniform(-1, 1, size=1), requires_grad=True)
            s_n = Tensor(rng.uniform(-1, 1, size=1), requires_grad=True)
            tau = float(rng.uniform(0.01, 5.0))
            with Tape() as tape:
                gap = add(s_n, scale(s_p, -1.0))
                loss = mean_all(softplus(scale(gap, 1.0 / tau)))
            backward(loss, tape)
            assert s_p.grad[0] < 0.0
            assert s_n.grad[0] > 0.0

    def test_zero_norm_logits_rejected(self):
        bad = np.zeros((2, 3))
        good = np.ones((2, 3))
        with pytest.raises(DegenerateVectorError):
            contrastive_loss(*_triplet(good, bad, good), 1.0)

    def test_frozen_logits_must_not_track_gradients(self):
        z = RNG.normal(size=(2, 3))
        for tracked in ((True, False), (False, True)):
            positive, negative = (Tensor(z, requires_grad=flag) for flag in tracked)
            with pytest.raises(ContractError, match="gradients disabled"):
                contrastive_loss(Tensor(z), positive, negative, 1.0)

    def test_mismatched_shapes_name_both(self):
        anchor, positive, negative = _triplet(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(DimensionError, match=re.escape("(2, 3) and (2, 4)")):
            contrastive_loss(anchor, positive, negative, 1.0)

    def test_bad_temperature_rejected(self):
        t = _triplet(np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ConfigError):
            contrastive_loss(*t, 0.0)


class TestUnlearnPipeline:
    def test_no_op_pipeline_is_bit_identical(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=0, retain_epochs=0, learning_rate=0.1,
                            batch_size=8, mask_spec=MaskSpec(0.25), seed=1)
        theta_u = unlearn(theta_o, split, cfg)
        for name, tensor in theta_o.items():
            np.testing.assert_array_equal(theta_u[name].values, tensor.values)

    def test_deterministic_under_seed(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=1, retain_epochs=1, learning_rate=0.05,
                            batch_size=4, mask_spec=MaskSpec(0.25), seed=9)
        a = unlearn(theta_o, split, cfg)
        b = unlearn(theta_o, split, cfg)
        assert params_checksum(a) == params_checksum(b)
        for name, tensor in a.items():
            np.testing.assert_array_equal(tensor.values, b[name].values)

    def test_original_never_mutated(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        before = params_checksum(theta_o)
        cfg = UnlearnConfig(forget_epochs=1, retain_epochs=1, learning_rate=0.05,
                            batch_size=4, mask_spec=MaskSpec(0.25), seed=3)
        unlearn(theta_o, split, cfg)
        assert params_checksum(theta_o) == before

    def test_empty_forget_with_epochs_rejected(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        bad_split = DataSplit(train, np.array([], dtype=np.int64),
                              np.arange(len(train)), test)
        cfg = UnlearnConfig(forget_epochs=1, retain_epochs=0, learning_rate=0.05,
                            batch_size=4, mask_spec=MaskSpec(0.25), seed=0)
        with pytest.raises(ConfigError):
            unlearn(theta_o, bad_split, cfg)

    def test_phase_telemetry_recorded(self, tiny_world):
        """`on_step` sees every forget step, then every retain step, each
        phase numbered from 0, with that phase's batches."""
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=2, retain_epochs=1, learning_rate=0.05,
                            batch_size=4, mask_spec=MaskSpec(0.25), seed=3)
        calls = []
        unlearn(theta_o, split, cfg,
                on_step=lambda phase, step, batch: calls.append((phase, step, batch.copy())))
        forget_steps = 2 * -(-len(split.forget) // 4)
        retain_steps = -(-len(split.retain) // 4)
        assert [(phase, step) for phase, step, _ in calls] == (
            [("forget", i) for i in range(forget_steps)]
            + [("retain", i) for i in range(retain_steps)])
        for phase, _, batch in calls:
            assert np.isin(batch, getattr(split, phase)).all()

    @pytest.mark.parametrize("mask_type", [MaskType.ZERO, MaskType.GAUSSIAN])
    def test_equals_three_forward_teacher_bit_for_bit(self, tiny_world, mask_type):
        """With every forget batch a multiple of 16 rows, a cached teacher
        row equals the row of the per-step 3-forward teacher, so the
        parameters (with momentum, the teacher in its forked helper) are
        the same bytes."""
        train, test, split, config, theta_o = tiny_world
        aligned_train = generate_toy_dataset(3, 16, 8, seed=510)
        aligned = split_random_forget(aligned_train, test, 32 / 48, seed=510)
        assert len(aligned.forget) == 32
        cfg = UnlearnConfig(forget_epochs=2, retain_epochs=1, learning_rate=0.05,
                            batch_size=16, mask_spec=MaskSpec(0.25, mask_type), seed=6,
                            momentum=0.9, weight_decay=0.001)
        got = unlearn(theta_o, aligned, cfg)
        _assert_params_identical(got, reference_from_original("unlearn", theta_o, aligned, cfg))

    def test_teacher_scores_each_forget_image_once(self, tiny_world, monkeypatch):
        """Over 3 forget epochs the original's capture forwards cover each
        forget image exactly once, in chunks of at most `batch_size` rows;
        each step adds one untracked (masked) and one tracked forward."""
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=3, retain_epochs=0, learning_rate=0.05,
                            batch_size=4, mask_spec=MaskSpec(0.25), seed=2)
        n = len(split.forget)
        assert n > cfg.batch_size
        captured = []
        calls = count_forwards(monkeypatch, captured)
        unlearn(theta_o, split, cfg)
        forget_images = train.images[split.forget]
        np.testing.assert_array_equal(np.concatenate(in_set_order(captured, forget_images)),
                                      forget_images)
        assert all(len(images) <= cfg.batch_size for images in captured)
        assert sum(rows for rows, capture, tracked in calls
                   if not capture and not tracked) == 3 * n
        assert sum(rows for rows, _, tracked in calls if tracked) == 3 * n
        steps = 3 * -(-n // cfg.batch_size)
        assert len(calls) == len(captured) + 2 * steps

    def test_phase1_step_runs_original_twice(self, tiny_world, monkeypatch):
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=1, retain_epochs=0, learning_rate=0.05,
                            batch_size=len(split.forget), mask_spec=MaskSpec(0.25), seed=2)
        calls = count_forwards(monkeypatch)
        unlearn(theta_o, split, cfg)
        n = len(split.forget)
        assert sorted(calls) == [(n, False, False), (n, False, True), (n, True, False)]

    def test_single_step_matches_finite_difference_gradient(self, tiny_world):
        """One phase-1 step must equal theta_o - lr * dL/dtheta with the
        gradient checked against central finite differences."""
        train, test, split, config, theta_o = tiny_world
        spec = MaskSpec(0.5)
        lr = 0.05
        cfg = UnlearnConfig(forget_epochs=1, retain_epochs=0, learning_rate=lr,
                            batch_size=len(split.forget), temperature=0.7,
                            mask_spec=spec, seed=21)
        theta_after = unlearn(theta_o, split, cfg)

        images = train.images[split.forget]
        masked = build_masked_view(theta_o, images, spec)
        positive = forward(theta_o, masked).logits
        negative = forward(theta_o, images).logits

        def loss_at(probe_params):
            anchor = forward(probe_params, images).logits
            return contrastive_loss(anchor, positive, negative, 0.7).item()

        step = 1e-5
        for name in ("head.weight", "block0.attn.wq", "patch.bias"):
            base = theta_o[name].values
            fd = np.zeros_like(base)
            for idx in np.ndindex(*base.shape):
                plus, minus = base.copy(), base.copy()
                plus[idx] += step
                minus[idx] -= step
                up = loss_at(with_entry(theta_o, name, plus))
                down = loss_at(with_entry(theta_o, name, minus))
                fd[idx] = (up - down) / (2 * step)
            applied = (theta_o[name].values - theta_after[name].values) / lr
            scale_ref = max(np.abs(fd).max(), 1e-8)
            assert np.abs(applied - fd).max() / scale_ref < 1e-4, name


def _assert_params_identical(got, want):
    assert sorted(got.names()) == sorted(want.names())
    for name in want.names():
        assert got[name].values.dtype == np.float64
        assert got[name].values.tobytes() == want[name].values.tobytes(), name


def _forks(monkeypatch):
    """Route `os.fork` through a wrapper; returns the list that receives
    the pid of each child forked."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@contextlib.contextmanager
def _on_path(path):
    """Run the block on `_run_ahead`'s "fork" path or its "inline" one,
    which a second thread, alive for the block, selects."""
    if path == "fork":
        yield
        return
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        yield
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()


def _wait_until(condition, seconds=30):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def _where(me):
    """Where a job runs: "here", in process `me`, or in the "helper"."""
    return "here" if os.getpid() == me else "helper"


class TestRunAhead:
    """`_run_ahead` on a toy job, `np.full((2, 3), k)`: the helper sends
    only results, and from the first step whose record it did not send
    on, `result` runs the job here."""

    COUNT = 6

    @staticmethod
    def _job(fail_at=None, error=None, helper_only=False, block_at=None):
        """The toy job and the `CallLog` of (where, k) of its calls (see
        `_where`). Job `fail_at` raises `error`, in the helper only given
        `helper_only`; job `block_at` sleeps for a minute in the helper."""
        calls = CallLog()
        me = os.getpid()

        def job(k):
            where = _where(me)
            calls.append((where, k))
            if k == fail_at and (where == "helper" or not helper_only):
                raise error
            if k == block_at and where == "helper":
                time.sleep(60)
            return np.full((2, 3), float(k))

        return job, calls

    def _assert_values(self, got):
        assert [g.tobytes() for g in got] == [np.full((2, 3), float(k)).tobytes()
                                              for k in range(self.COUNT)]

    @pytest.mark.parametrize("path", ["fork", "inline"])
    def test_every_value_in_step_order(self, monkeypatch, path):
        pids = _forks(monkeypatch)
        job, calls = self._job()
        with _on_path(path), unlearning._run_ahead(job, self.COUNT) as result:
            got = [result(k) for k in range(self.COUNT)]
        self._assert_values(got)
        where = "helper" if path == "fork" else "here"
        assert list(calls) == [(where, k) for k in range(self.COUNT)]
        assert len(pids) == (path == "fork")

    @pytest.mark.parametrize("path", ["fork", "inline"])
    def test_job_error_is_raised_as_itself_at_its_step(self, monkeypatch, path):
        pids = _forks(monkeypatch)
        error = KeyError("step 2")
        job, calls = self._job(fail_at=2, error=error)
        with _on_path(path), unlearning._run_ahead(job, self.COUNT) as result:
            assert [result(k)[0, 0] for k in range(2)] == [0.0, 1.0]
            with pytest.raises(KeyError) as exc:
                result(2)
        assert exc.value is error
        assert exc.traceback[-1].name == "job"
        assert list(calls) == ([("helper", 0), ("helper", 1), ("helper", 2), ("here", 2)]
                               if path == "fork" else [("here", 0), ("here", 1), ("here", 2)])
        assert len(pids) == (path == "fork")

    def test_job_failing_only_in_the_helper_gives_every_value(self):
        job, calls = self._job(fail_at=2, error=KeyError("helper only"), helper_only=True)
        with unlearning._run_ahead(job, self.COUNT) as result:
            got = [result(k) for k in range(self.COUNT)]
        self._assert_values(got)
        assert list(calls) == ([("helper", k) for k in range(3)]
                               + [("here", k) for k in range(2, self.COUNT)])

    def test_killed_helper_gives_every_value(self, monkeypatch):
        """The helper blocks in job 3, after sending records 0-2, and is
        killed from outside: steps 3-5 run here."""
        pids = _forks(monkeypatch)
        job, calls = self._job(block_at=3)
        with unlearning._run_ahead(job, self.COUNT) as result:
            got = [result(0), result(1)]
            _wait_until(lambda: ("helper", 3) in calls)
            os.kill(pids[0], signal.SIGKILL)
            got += [result(k) for k in range(2, self.COUNT)]
        self._assert_values(got)
        assert list(calls) == ([("helper", k) for k in range(4)]
                               + [("here", k) for k in range(3, self.COUNT)])


# runs `unlearn` through the fork path with a line left in block-buffered
# stdout, lets the helper exit by itself before the forget phase ends
# (`_run_ahead` still reaps it), then prints how many processes it forked
_STDIO_CHILD = """
import os, sys
from lethevit import unlearning
from lethevit.data import generate_toy_dataset, split_random_forget
from lethevit.vit import ViTConfig, init_params

assert not (sys.stdout.line_buffering or sys.stdout.write_through)
train = generate_toy_dataset(3, 12, 8, seed=500)
split = split_random_forget(train, generate_toy_dataset(3, 4, 8, seed=501), 0.25, seed=500)
model = init_params(ViTConfig(image_size=8, patch_size=4, channels=1, depth=1, heads=2, dim=8,
                              mlp_ratio=2, num_classes=3), 0)
helpers = []
fork = os.fork

def forked():
    pid = fork()
    helpers.append(pid)
    return pid

def on_step(phase, step, batch):
    if (phase, step) == ("forget", 0):
        os.waitid(os.P_PID, helpers[0], os.WEXITED | os.WNOWAIT)

os.fork = forked
sys.stdout.write("written before the fork\\n")
unlearning.unlearn(model, split, unlearning.UnlearnConfig(forget_epochs=5, retain_epochs=0,
                                                          batch_size=4), on_step=on_step)
print(f"forks: {len(helpers)}")
"""


class TestTeacherWorker:
    """`unlearn` computes every forget step's positives in a worker, a
    forked helper process, while this process runs the tracked steps,
    or inline where it cannot fork or the helper sent no record; either
    way no process outlives it."""

    CFG = UnlearnConfig(forget_epochs=5, retain_epochs=0, learning_rate=0.05, batch_size=4,
                        mask_spec=MaskSpec(0.25, MaskType.GAUSSIAN, 0.7), seed=3)

    def test_worker_leaves_an_open_tape_clean(self, tiny_world):
        """The teacher's positives, inside a tape open on this thread (the
        inline path) or on a worker beside it, add no record to that tape,
        and give the bytes of a call with no tape open."""
        train, test, split, config, theta_o = tiny_world
        positives, negatives = unlearning.frozen_teacher(theta_o, train.images, split.forget,
                                                         self.CFG.mask_spec,
                                                         self.CFG.batch_size)
        batch = split.forget[:4]
        theta = theta_o.copy()
        with Tape() as alone:
            forward(theta, train.images[batch])
        with ThreadPoolExecutor(1) as pool, Tape() as tape:
            job = pool.submit(positives, batch, 7)
            forward(theta, train.images[batch])
            inline = positives(batch, 7)
            on_worker = job.result()
        assert len(tape) == len(alone)
        assert not negatives(batch).requires_grad
        want = positives(batch, 7)
        assert inline.tobytes() == on_worker.tobytes() == want.tobytes()

    def _scheduled_steps(self, split):
        return self.CFG.forget_epochs * -(-len(split.forget) // self.CFG.batch_size)

    def _slow_teacher(self, monkeypatch, split, fail_at=None, error=None, helper_only=False,
                      block_at=None):
        """Route `unlearn`'s teacher through positives that log (where,
        step) of each job (see `_where`), take at least 10 ms, raise
        `error` (by default a `NonFiniteError`) at step `fail_at`, in the
        helper only given `helper_only`, and sleep for a minute at step
        `block_at` in the helper. A job knows its step by its mask seed,
        so one recomputed here fails as it did in the helper."""
        real = unlearning.frozen_teacher
        jobs = CallLog()
        me = os.getpid()
        per_epoch = -(-len(split.forget) // self.CFG.batch_size)
        step_of = {int(np.random.SeedSequence((self.CFG.seed, step // per_epoch, step))
                       .generate_state(1, np.uint64)[0]): step
                   for step in range(self._scheduled_steps(split))}

        def teacher(*args):
            positives, negatives = real(*args)

            def slow(batch, mask_seed):
                where, step = _where(me), step_of[mask_seed]
                jobs.append((where, step))
                time.sleep(0.01)
                if step == fail_at and (where == "helper" or not helper_only):
                    raise error or NonFiniteError("tensor contains NaN or Inf values")
                if step == block_at and where == "helper":
                    time.sleep(60)
                return positives(batch, mask_seed)

            return slow, negatives

        monkeypatch.setattr(unlearning, "frozen_teacher", teacher)
        return jobs

    def test_teacher_error_is_a_divergence_at_its_step(self, tiny_world, monkeypatch):
        train, test, split, config, theta_o = tiny_world
        pids = _forks(monkeypatch)
        jobs = self._slow_teacher(monkeypatch, split, fail_at=2)
        threads = threading.active_count()
        with pytest.raises(DivergenceError) as exc:
            unlearn(theta_o, split, self.CFG)
        assert (exc.value.phase, exc.value.step) == ("forget", 2)
        assert isinstance(exc.value.__cause__, NonFiniteError)
        assert str(exc.value) == ("non-finite value in phase 'forget' at step 2: "
                                  "tensor contains NaN or Inf values")
        assert threading.active_count() == threads
        assert len(pids) == 1
        assert list(jobs) == [("helper", 0), ("helper", 1), ("helper", 2), ("here", 2)]

    @pytest.mark.parametrize("path", ["fork", "inline"])
    def test_teacher_error_is_raised_as_itself(self, tiny_world, monkeypatch, path):
        """A `FormatError` at step 1 is that `FormatError`, offset and
        all, raised in this process, on both paths."""
        train, test, split, config, theta_o = tiny_world
        pids = _forks(monkeypatch)
        error = FormatError("bad record", 12)
        jobs = self._slow_teacher(monkeypatch, split, fail_at=1, error=error)
        with _on_path(path), pytest.raises(FormatError) as exc:
            unlearn(theta_o, split, self.CFG)
        assert exc.value is error
        assert exc.value.offset == 12
        assert str(exc.value) == "bad record (byte offset 12)"
        assert exc.traceback[-1].name == "slow"
        assert len(pids) == (path == "fork")
        assert list(jobs) == ([("helper", 0), ("helper", 1), ("here", 1)] if path == "fork"
                              else [("here", 0), ("here", 1)])

    def test_on_step_error_propagates_unchanged(self, tiny_world, monkeypatch):
        train, test, split, config, theta_o = tiny_world
        pids = _forks(monkeypatch)
        jobs = self._slow_teacher(monkeypatch, split)
        stop = KeyError("stop")

        def on_step(phase, step, batch):
            if step == 1:
                raise stop

        threads = threading.active_count()
        with pytest.raises(KeyError) as exc:
            unlearn(theta_o, split, self.CFG, on_step=on_step)
        assert exc.value is stop
        assert threading.active_count() == threads
        assert len(pids) == 1
        assert 2 <= len(jobs) < self._scheduled_steps(split)

    def test_keyboard_interrupt_in_phase1_leaves_no_child(self, tiny_world, monkeypatch):
        train, test, split, config, theta_o = tiny_world
        pids = _forks(monkeypatch)
        jobs = self._slow_teacher(monkeypatch, split)

        def on_step(phase, step, batch):
            if (phase, step) == ("forget", 1):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            unlearn(theta_o, split, self.CFG, on_step=on_step)
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert 2 <= len(jobs) < self._scheduled_steps(split)

    def _unlearn_inline(self, theta_o, split, cfg):
        with _on_path("inline"):
            return unlearn(theta_o, split, cfg)

    def test_killed_helper_gives_the_inline_paths_bytes(self, tiny_world, monkeypatch):
        """The helper blocks in step 3's job, after sending records 0-2,
        and is killed from outside: steps 3 onward compute their
        positives here, and the run ends as the inline path does."""
        train, test, split, config, theta_o = tiny_world
        pids = _forks(monkeypatch)
        jobs = self._slow_teacher(monkeypatch, split, block_at=3)
        scheduled = self._scheduled_steps(split)
        steps = []

        def on_step(phase, step, batch):
            steps.append(step)
            if step == 1:
                _wait_until(lambda: ("helper", 3) in jobs)
                os.kill(pids[0], signal.SIGKILL)

        got = unlearn(theta_o, split, self.CFG, on_step=on_step)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert steps == list(range(scheduled))
        assert list(jobs) == ([("helper", step) for step in range(4)]
                              + [("here", step) for step in range(3, scheduled)])
        _assert_params_identical(got, self._unlearn_inline(theta_o, split, self.CFG))
        assert len(pids) == 1

    def test_teacher_failing_only_in_the_helper_gives_the_inline_paths_bytes(self, tiny_world,
                                                                            monkeypatch):
        train, test, split, config, theta_o = tiny_world
        jobs = self._slow_teacher(monkeypatch, split, fail_at=2, helper_only=True)
        got = unlearn(theta_o, split, self.CFG)
        scheduled = self._scheduled_steps(split)
        assert list(jobs) == ([("helper", step) for step in range(3)]
                              + [("here", step) for step in range(2, scheduled)])
        _assert_params_identical(got, self._unlearn_inline(theta_o, split, self.CFG))

    def test_inline_path_gives_the_fork_paths_bytes(self, tiny_world, monkeypatch):
        """With a second thread alive `unlearn` does not fork; it computes
        the positives, and both halves of each retain step, inline, with
        the same parameter bytes."""
        train, test, split, config, theta_o = tiny_world
        cfg = dataclasses.replace(self.CFG, retain_epochs=1, momentum=0.9, weight_decay=0.001)
        pids = _forks(monkeypatch)
        forked = unlearn(theta_o, split, cfg)
        assert len(pids) == 2  # the teacher, pids[0], then the retain phase's gradient helper
        inline = self._unlearn_inline(theta_o, split, cfg)
        assert len(pids) == 2
        _assert_params_identical(inline, forked)

    def test_helper_never_flushes_the_callers_stdio(self, tmp_path):
        """A line left in block-buffered stdout before the fork is written
        once, by this process, even when the helper exits by itself."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        child = subprocess.Popen([sys.executable, "-c", _STDIO_CHILD], env=env, cwd=tmp_path,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = child.communicate(timeout=120)
        finally:
            child.kill()
            child.wait()
        assert (child.returncode, err) == (0, "")
        assert out == "written before the fork\nforks: 1\n"


class TestGradientHelper:
    """Every cross-entropy step's gradient is its first half's plus its
    second's. A forked helper computes the second half on a replica of
    the model, or this process does where it cannot fork or once the
    helper sent no half; either way the parameters are the same bytes
    and no process outlives the phase."""

    # 36 images at batch 5: per epoch seven 5-row steps (halves of 3 and
    # 2 rows), then a 1-row step with no second half
    CFG = TrainConfig(model=TINY, epochs=2, learning_rate=0.05, batch_size=5, seed=41,
                      momentum=0.9, weight_decay=0.001)
    UNLEARN_CFG = UnlearnConfig(forget_epochs=2, retain_epochs=2, learning_rate=0.05,
                                batch_size=5, seed=41, momentum=0.9, weight_decay=0.001)

    def _run(self, tiny_world, method):
        """Entry point `method` on `tiny_world` at `CFG` (from scratch) or
        `UNLEARN_CFG` (from the original)."""
        train, _, split, _, theta_o = tiny_world
        if method == "train_model":
            return train_model(train, self.CFG)
        if method == "retrain":
            return retrain(split, self.CFG)
        return getattr(unlearning, method)(theta_o, split, self.UNLEARN_CFG)

    def _logged_forwards(self, monkeypatch, block_at=None, fail_on=None):
        """Route the tracked forwards through a wrapper that logs (where,
        rows) of each (see `_where`); the helper's k-th is the second
        half of step k (of a step that has one). The helper sleeps for a
        minute in its `block_at`-th, before sending that half. A forward
        of the images `fail_on` raises a `NonFiniteError` in either
        process."""
        calls = CallLog()
        me = os.getpid()
        real = unlearning.forward

        def logged(params, images, capture_attention=False):
            where = _where(me)
            calls.append((where, len(images)))
            if where == "helper" and sum(w == "helper" for w, _ in calls) - 1 == block_at:
                time.sleep(60)
            if fail_on is not None and np.array_equal(images, fail_on):
                raise NonFiniteError("tensor contains NaN or Inf values")
            return real(params, images, capture_attention)

        monkeypatch.setattr(unlearning, "forward", logged)
        return calls

    @pytest.mark.parametrize("method", ["train_model", "retrain", "fine_tune",
                                        "gradient_ascent", "random_labels"])
    def test_fork_path_gives_the_inline_paths_bytes(self, tiny_world, monkeypatch, method):
        """With a second thread alive the phase does not fork; it computes
        both halves of each step here, with the same parameter bytes."""
        pids = _forks(monkeypatch)
        forked = self._run(tiny_world, method)
        assert len(pids) == 1
        with _on_path("inline"):
            inline = self._run(tiny_world, method)
        assert len(pids) == 1
        _assert_params_identical(inline, forked)

    def test_killed_helper_gives_the_inline_paths_bytes(self, tiny_world, monkeypatch):
        """The helper blocks in step 2's second half, after sending those
        of steps 0 and 1, and is killed from outside: from step 2 on this
        process computes both halves, every step runs, and the run ends
        as the inline path does."""
        train = tiny_world[0]
        pids = _forks(monkeypatch)
        calls = self._logged_forwards(monkeypatch, block_at=2)
        steps = []

        def on_step(phase, step, batch):
            steps.append(step)
            if step == 1:
                _wait_until(lambda: sum(where == "helper" for where, _ in calls) == 3)
                os.kill(pids[0], signal.SIGKILL)

        got = train_model(train, self.CFG, on_step=on_step)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert steps == list(range(16))
        helper = [rows for where, rows in calls if where == "helper"]
        here = [rows for where, rows in calls if where == "here"]
        assert helper == [2, 2, 2]
        # the first halves of steps 0 and 1, then both halves of steps 2-6
        # and 8-14, and the one row of steps 7 and 15
        assert here == [3, 3] + [3, 2] * 5 + [1] + [3, 2] * 7 + [1]
        with _on_path("inline"):
            _assert_params_identical(got, train_model(train, self.CFG))
        assert len(pids) == 1

    def test_non_finite_second_half_is_a_divergence_at_its_step(self, tiny_world,
                                                                 monkeypatch):
        """The forward of step 2's second half raises a `NonFiniteError`,
        wherever it runs. The helper, which computes that half, raises and
        sends none; this process computes the half itself, and the phase
        ends as a `DivergenceError` at step 2."""
        train = tiny_world[0]
        config = dataclasses.replace(self.CFG, epochs=1)
        batches = unlearning._batches(np.arange(len(train)), 1, config.batch_size,
                                      np.random.Generator(np.random.PCG64(config.seed)),
                                      "train")
        pids = _forks(monkeypatch)
        calls = self._logged_forwards(
            monkeypatch, fail_on=train.images[unlearning._halves(batches[2][1])[1]])
        with pytest.raises(DivergenceError) as exc:
            train_model(train, config)
        assert (exc.value.phase, exc.value.step) == ("train", 2)
        assert isinstance(exc.value.__cause__, NonFiniteError)
        assert str(exc.value) == ("non-finite value in phase 'train' at step 2: "
                                  "tensor contains NaN or Inf values")
        assert len(pids) == 1
        assert [rows for where, rows in calls if where == "helper"] == [2, 2, 2]
        assert [rows for where, rows in calls if where == "here"] == [3, 3, 3, 2]

    @pytest.mark.parametrize("error", [KeyError("stop"), KeyboardInterrupt()],
                             ids=["on_step-error", "KeyboardInterrupt"])
    def test_stopping_mid_phase_leaves_no_child(self, tiny_world, monkeypatch, error):
        pids = _forks(monkeypatch)

        def on_step(phase, step, batch):
            if step == 1:
                raise error

        with pytest.raises(type(error)) as exc:
            train_model(tiny_world[0], self.CFG, on_step=on_step)
        assert exc.value is error
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("run", [
        lambda world: train_model(world[0], TrainConfig(model=TINY, epochs=0)),
        lambda world: fine_tune(world[4], world[2], UnlearnConfig(retain_epochs=0)),
        lambda world: unlearn(world[4], world[2], UnlearnConfig(forget_epochs=0,
                                                                 retain_epochs=0)),
        lambda world: train_model(world[0], TrainConfig(model=TINY, epochs=1, batch_size=1)),
    ], ids=["no-epochs", "fine_tune-no-epochs", "unlearn-no-epochs", "one-row-batches"])
    def test_no_helper_without_a_second_half(self, tiny_world, monkeypatch, run):
        """A phase with no step, or whose every step has one row, forks
        nothing."""
        pids = _forks(monkeypatch)
        run(tiny_world)
        assert pids == []

    @pytest.mark.parametrize("rows", [32, 7, 1])
    def test_split_gradient_equals_the_full_batch_gradient(self, tiny_world, rows):
        """One step's gradient, first half plus second half each scaled by
        its share of the rows, equals the unsplit mean cross-entropy's
        gradient over the same rows to rounding."""
        train = tiny_world[0]
        theta = init_params(TINY, seed=5)
        whole = theta.copy()
        config = TrainConfig(model=TINY, epochs=1, batch_size=rows, seed=0)
        unlearning._cross_entropy_phase(theta, train, np.arange(rows), 1, config,
                                        np.random.default_rng(0), "train", None)
        with Tape() as tape:
            loss = cross_entropy(forward(whole, train.images[:rows]).logits,
                                 train.labels[:rows])
        backward(loss, tape)
        want = np.concatenate([t.grad.ravel() for _, t in whole.items()])
        assert np.abs(theta.grad - want).max() <= 1e-13 * np.abs(want).max()


class TestOnePhaseLoop:
    """Every entry point runs through `_sgd_phase` and gives the float64
    parameters of the per-method loops it replaced, byte for byte, with
    momentum and weight decay on."""

    CFG = UnlearnConfig(forget_epochs=2, retain_epochs=2, learning_rate=0.03, batch_size=4,
                        mask_spec=MaskSpec(0.25, MaskType.GAUSSIAN, 0.7), seed=11,
                        momentum=0.9, weight_decay=0.001)

    def test_train_model_and_retrain_match_reference(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        quick = TrainConfig(model=TINY, epochs=3, learning_rate=0.02, batch_size=5, seed=77,
                            momentum=0.9, weight_decay=0.001)
        _assert_params_identical(train_model(train, quick), reference_train_model(train, quick))
        _assert_params_identical(retrain(split, quick),
                                 reference_train_model(train, quick, split.retain))

    @pytest.mark.parametrize("method", ["unlearn", "fine_tune", "gradient_ascent",
                                        "random_labels"])
    def test_from_original_methods_match_reference(self, tiny_world, method):
        """`unlearn` caches the teacher's rows from batches of 4 and 1 rows
        in forget order, while the reference computes them per shuffled
        batch; a row's logits depend on its batch at rounding level only
        (README, determinism), so there the parameters agree to rounding."""
        train, test, split, config, theta_o = tiny_world
        got = getattr(unlearning, method)(theta_o, split, self.CFG)
        want = reference_from_original(method, theta_o, split, self.CFG)
        if method != "unlearn":
            _assert_params_identical(got, want)
            return
        assert sorted(got.names()) == sorted(want.names())
        largest = max(np.abs(want[name].values).max() for name in want.names())
        for name in want.names():
            assert np.abs(got[name].values - want[name].values).max() <= 1e-12 * largest, name

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_flat_update_equals_per_parameter_loop(self, momentum, weight_decay):
        """Five steps (20 images, batch 4) of the one vector update give the
        bytes of the per-parameter loop with its dict velocity."""
        train = generate_toy_dataset(2, 10, 8, seed=503)
        config = TrainConfig(model=TINY, epochs=1, learning_rate=0.05, batch_size=4, seed=8,
                             momentum=momentum, weight_decay=weight_decay)
        steps = []
        got = train_model(train, config, on_step=lambda *args: steps.append(args))
        want = reference_train_model(train, config)
        assert len(steps) == 5
        assert (got.vector == want.vector).all()
        _assert_params_identical(got, want)

    def test_vector_is_shared_read_only_and_a_step_makes_a_new_one(self, tiny_world):
        """`copy` and `frozen` share the read-only vector; a step on the copy
        leaves the original's bytes; only a trained model has a gradient
        buffer, and each parameter's gradient is its view of it."""
        train, test, split, config, _ = tiny_world
        original = init_params(TINY, seed=4)
        before = original.vector.tobytes()
        theta, frozen = original.copy(), original.frozen()
        for params in (original, theta, frozen):
            assert params.vector is original.vector and params.grad is None
            for name, t in params.items():
                assert not t.values.flags.writeable, name
                assert np.shares_memory(t.values, original.vector), name
        with pytest.raises(ValueError, match="read-only"):
            original.vector[0] = 1.0
        unlearning._cross_entropy_phase(theta, train, split.retain[:4], 1, config,
                                        np.random.default_rng(0), "train", None)
        assert theta.vector is not original.vector and not theta.vector.flags.writeable
        assert theta.vector.tobytes() != before and original.vector.tobytes() == before
        for name, t in theta.items():
            assert np.shares_memory(t.values, theta.vector), name
            assert np.shares_memory(t.grad, theta.grad), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_update_names_phase_and_step(self):
        """A final layer-norm gain of 1e6 gives finite head gradients that
        a learning rate of 1e305 carries past the float64 range: the new
        vector's scan ends the step as a divergence."""
        params = with_entry(init_params(TINY, seed=0), "ln_final.gain", np.full(TINY.dim, 1e6))
        train = generate_toy_dataset(3, 4, 8, seed=502)
        config = TrainConfig(model=TINY, epochs=1, learning_rate=1e305, batch_size=12, seed=3)
        with pytest.raises(DivergenceError) as exc:
            unlearning._cross_entropy_phase(params, train, np.arange(12), 1, config,
                                            np.random.default_rng(0), "train", None)
        assert (exc.value.phase, exc.value.step) == ("train", 0)
        assert isinstance(exc.value.__cause__, NonFiniteError)
        assert str(exc.value) == ("non-finite value in phase 'train' at step 0: "
                                  "parameters contain NaN or Inf values")
        assert np.isfinite(params.grad).all()

    def test_empty_index_set_with_epochs_rejected(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        no_retain = DataSplit(train, np.arange(len(train)), np.array([], dtype=np.int64), test)
        with pytest.raises(ConfigError, match="train phase"):
            retrain(no_retain, config)
        with pytest.raises(ConfigError, match="fine_tune phase"):
            fine_tune(theta_o, no_retain, self.CFG)


@pytest.mark.parametrize("call", [
    lambda ds: train_model(ds, TrainConfig(model=TINY, epochs=1, seed=-1)),
    lambda ds: UnlearnConfig(seed=-1),
    lambda ds: split_random_forget(ds, ds, 0.25, seed=-1),
    lambda ds: generate_toy_dataset(3, 2, 8, seed=-1),
], ids=["train_model", "UnlearnConfig", "split_random_forget", "generate_toy_dataset"])
def test_negative_seed_is_a_config_error(call):
    """numpy's PCG64 raises its own ValueError for a negative seed."""
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        call(generate_toy_dataset(3, 4, 8, seed=0))


class TestRetrain:
    def test_loader_never_touches_forget(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        seen: list[np.ndarray] = []
        retrain(split, config, on_step=lambda phase, step, batch: seen.append(batch.copy()))
        used = np.unique(np.concatenate(seen))
        assert np.intersect1d(used, split.forget).size == 0
        np.testing.assert_array_equal(used, np.sort(split.retain))

    def test_deterministic(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        quick = TrainConfig(model=TINY, epochs=3, learning_rate=0.02,
                            batch_size=8, seed=77, momentum=0.9)
        assert params_checksum(retrain(split, quick)) == params_checksum(retrain(split, quick))


class TestFineTune:
    def test_zero_epochs_is_identity(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=0, retain_epochs=0, learning_rate=0.05,
                            batch_size=8, mask_spec=MaskSpec(0.25), seed=0)
        theta_u = fine_tune(theta_o, split, cfg)
        assert params_checksum(theta_u) == params_checksum(theta_o)

    def test_deterministic(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=0, retain_epochs=2, learning_rate=0.01,
                            batch_size=8, mask_spec=MaskSpec(0.25), seed=5)
        assert params_checksum(fine_tune(theta_o, split, cfg)) == params_checksum(
            fine_tune(theta_o, split, cfg)
        )

    def test_retain_loss_non_increasing_over_first_epoch(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        retain = train.subset(split.retain)
        before = mean_loss(theta_o, retain)
        cfg = UnlearnConfig(forget_epochs=0, retain_epochs=1, learning_rate=0.005,
                            batch_size=8, mask_spec=MaskSpec(0.25), seed=5)
        after = mean_loss(fine_tune(theta_o, split, cfg), retain)
        assert after <= before


class TestGradientAscent:
    def test_one_step_mirrors_fine_tune(self, tiny_world):
        """Ascent on a batch is descent with the learning rate negated."""
        train, test, split, config, theta_o = tiny_world
        mirrored = DataSplit(train, forget=split.retain, retain=split.forget, test=test)
        cfg = dict(learning_rate=0.02, batch_size=len(split.forget),
                   mask_spec=MaskSpec(0.25), seed=13)
        ga = gradient_ascent(theta_o, split,
                             UnlearnConfig(forget_epochs=1, retain_epochs=0, **cfg))
        ft = fine_tune(theta_o, mirrored,
                       UnlearnConfig(forget_epochs=0, retain_epochs=1, **cfg))
        for name, base in theta_o.items():
            up = ga[name].values - base.values
            down = ft[name].values - base.values
            np.testing.assert_allclose(up, -down, rtol=1e-9, atol=1e-12)

    def test_weight_decay_decays(self, tiny_world):
        """One step over the whole forget set descends the negated
        cross-entropy plus the decay: theta_1 = theta_0 - lr * (wd *
        theta_0 - grad CE(theta_0)). Ascending the decayed loss would
        grow the weights by 2 * lr * wd * theta_0 more."""
        train, test, split, config, theta_o = tiny_world
        lr, wd = 0.02, 0.5
        ga = gradient_ascent(theta_o, split, UnlearnConfig(
            forget_epochs=1, retain_epochs=0, learning_rate=lr, batch_size=len(split.forget),
            mask_spec=MaskSpec(0.25), seed=13, weight_decay=wd))
        probe = theta_o.copy()
        with Tape() as tape:
            loss = cross_entropy(forward(probe, train.images[split.forget]).logits,
                                 train.labels[split.forget])
        backward(loss, tape)
        largest = max(np.abs(t.values).max() for _, t in theta_o.items())
        for name, base in theta_o.items():
            want = base.values - lr * (wd * base.values - probe[name].grad)
            assert np.abs(ga[name].values - want).max() <= 1e-12 * largest, name

    def test_forget_loss_increases_after_small_step(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        forget = train.subset(split.forget)
        before = mean_loss(theta_o, forget)
        cfg = UnlearnConfig(forget_epochs=1, retain_epochs=0, learning_rate=0.01,
                            batch_size=len(split.forget), mask_spec=MaskSpec(0.25), seed=2)
        after = mean_loss(gradient_ascent(theta_o, split, cfg), forget)
        assert after > before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_naming_phase_and_step(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=3, retain_epochs=0, learning_rate=1e150,
                            batch_size=4, mask_spec=MaskSpec(0.25), seed=1)
        with pytest.raises(DivergenceError) as exc:
            gradient_ascent(theta_o, split, cfg)
        assert exc.value.phase == "gradient_ascent"
        assert exc.value.step >= 0


class TestFusedOpDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("overflowing", [("block0.attn.wq", "block0.attn.wk"),
                                             ("block0.ln2.gain", "block0.mlp.w1")],
                             ids=["attention", "mlp"])
    def test_overflow_inside_fused_op_names_phase_and_step(self, monkeypatch, overflowing):
        """Parameters scaled by 1e200 make the attention scores, or the
        MLP's pre-activation (fed by a 1e200-gain layer norm), overflow
        inside the op; that surfaces at the op's output and ends
        training as a divergence."""

        def overflowing_init(config, seed):
            params = init_params(config, seed)
            for name in overflowing:
                params = with_entry(params, name, params[name].values * 1e200)
            return params

        monkeypatch.setattr("lethevit.unlearning.init_params", overflowing_init)
        train = generate_toy_dataset(3, 4, 8, seed=502)
        config = TrainConfig(model=TINY, epochs=1, batch_size=6, seed=3)
        with pytest.raises(DivergenceError) as exc:
            train_model(train, config)
        assert exc.value.phase == "train"
        assert exc.value.step == 0
        assert isinstance(exc.value.__cause__, NonFiniteError)


class TestRandomLabels:
    def test_relabeled_never_equals_original(self):
        labels = RNG.integers(0, 5, size=400)
        forget = np.arange(0, 400, 2)
        relabeled = relabel_forget(labels, forget, class_count=5, seed=3)
        assert (relabeled[forget] != labels[forget]).all()
        untouched = np.setdiff1d(np.arange(400), forget)
        np.testing.assert_array_equal(relabeled[untouched], labels[untouched])

    def test_deterministic(self):
        labels = RNG.integers(0, 4, size=100)
        forget = np.arange(50)
        a = relabel_forget(labels, forget, 4, seed=8)
        b = relabel_forget(labels, forget, 4, seed=8)
        np.testing.assert_array_equal(a, b)

    def test_relabel_distribution_uniform_within_3_sigma(self):
        """Across many draws each wrong class appears n/(C-1) +- 3 sigma."""
        class_count = 5
        n = 30000
        labels = np.zeros(n, dtype=np.int64)  # all true class 0
        relabeled = relabel_forget(labels, np.arange(n), class_count, seed=44)
        counts = np.bincount(relabeled, minlength=class_count)
        assert counts[0] == 0
        p = 1.0 / (class_count - 1)
        expected = n * p
        sigma = np.sqrt(n * p * (1 - p))
        for c in range(1, class_count):
            assert abs(counts[c] - expected) <= 3 * sigma

    def test_single_class_rejected(self, tiny_world):
        """With one class there is no other label to draw: a ConfigError
        naming `class_count`, raised before any training step."""
        train, test, split, config, theta_o = tiny_world
        one_class = LabeledDataset(train.images, np.zeros(len(train), dtype=np.int64), 1)
        with pytest.raises(ConfigError, match="class_count"):
            relabel_forget(one_class.labels, split.forget, one_class.class_count, seed=0)
        cfg = UnlearnConfig(forget_epochs=0, retain_epochs=1, learning_rate=0.01,
                            batch_size=6, mask_spec=MaskSpec(0.25), seed=6)
        with pytest.raises(ConfigError, match="class_count"):
            random_labels(theta_o, DataSplit(one_class, split.forget, split.retain, test), cfg,
                          on_step=lambda *_: pytest.fail("a step ran"))

    def test_trains_on_full_dataset(self, tiny_world):
        train, test, split, config, theta_o = tiny_world
        cfg = UnlearnConfig(forget_epochs=0, retain_epochs=1, learning_rate=0.01,
                            batch_size=6, mask_spec=MaskSpec(0.25), seed=6)
        theta_u = random_labels(theta_o, split, cfg)
        assert params_checksum(theta_u) != params_checksum(theta_o)
        assert params_checksum(theta_o) == params_checksum(theta_o.copy())
