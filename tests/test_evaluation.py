"""Evaluation suite tests: accuracy contracts, the loss-threshold
attack against a brute-force oracle, average-gap arithmetic against the
frozen reference table, and masking-sweep invariants."""

import csv
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lethevit import evaluation, masking
from lethevit.data import LabeledDataset, generate_toy_dataset, split_random_forget
from lethevit.errors import ConfigError, ContractError, DimensionError
from lethevit.evaluation import (
    MetricsReport,
    average_gap,
    evaluate_model,
    evaluate_models,
    fit_loss_threshold,
    masking_sweep,
    mia_at,
)
from lethevit.masking import MaskType, patch_count
from lethevit.unlearning import TrainConfig, train_model
from lethevit.vit import ViTConfig, init_params

from helpers import (
    CallLog,
    count_forwards,
    forks,
    in_set_order,
    on_path,
    process_of,
    reference_evaluate_model,
    reference_fit_loss_threshold,
    reference_masking_sweep,
    wait_until,
    with_entry,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "reference_gaps.csv")

TINY = ViTConfig(image_size=8, patch_size=4, channels=1, depth=1,
                 heads=2, dim=8, mlp_ratio=2, num_classes=3)


def constant_predictor(favored_class):
    """Zero-weight model whose logits equal the head bias everywhere."""
    params = init_params(TINY, seed=0)
    for name in params.names():
        leaf = name.split(".")[-1]
        if leaf not in ("gain",):
            params = with_entry(params, name, np.zeros(params[name].shape))
    bias = np.zeros(TINY.num_classes)
    bias[favored_class] = 1.0
    return with_entry(params, "head.bias", bias)


def dataset_with_labels(labels):
    labels = np.asarray(labels, dtype=np.int64)
    images = np.random.default_rng(0).normal(size=(len(labels), 1, 8, 8))
    return LabeledDataset(images, labels, class_count=3)


def accuracy(params, dataset):
    """Top-1 accuracy of one set, as `evaluate_model` computes it per set."""
    return evaluation._accuracy(evaluation.batched_logits(params, dataset.images),
                                dataset.labels)


def test_batched_logits_of_an_empty_set_is_a_dimension_error():
    with pytest.raises(DimensionError, match="set 0 of 1 has no images"):
        evaluation.batched_logits(init_params(TINY, seed=0), np.zeros((0, 1, 8, 8)))


class TestAccuracy:
    def test_always_right(self):
        model = constant_predictor(0)
        assert accuracy(model, dataset_with_labels([0, 0, 0, 0])) == 100.0

    def test_always_wrong(self):
        model = constant_predictor(0)
        assert accuracy(model, dataset_with_labels([1, 1, 1])) == 0.0

    def test_three_of_four(self):
        model = constant_predictor(2)
        assert accuracy(model, dataset_with_labels([2, 2, 2, 0])) == 75.0

    def test_argmax_tie_breaks_low_class(self):
        params = with_entry(constant_predictor(0), "head.bias",
                            np.zeros(TINY.num_classes))  # all logits equal
        assert accuracy(params, dataset_with_labels([0, 0])) == 100.0
        assert accuracy(params, dataset_with_labels([1, 1])) == 0.0

    def test_reorder_invariance(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=12)
        ds = dataset_with_labels(labels)
        model = constant_predictor(1)
        perm = rng.permutation(12)
        shuffled = LabeledDataset(ds.images[perm], ds.labels[perm], 3)
        assert accuracy(model, ds) == accuracy(model, shuffled)

    def test_empty_set_rejected(self):
        model = constant_predictor(0)
        with pytest.raises(ContractError):
            accuracy(model, dataset_with_labels([]))


def oracle_mia(forget, member, nonmember):
    """Independent reimplementation: pure-python exhaustive midpoint search."""
    values = sorted(set(list(member) + list(nonmember)))
    if len(values) == 1:
        candidates = [values[0]]
    else:
        candidates = [float("-inf")]
        for lo, hi in zip(values[:-1], values[1:]):
            candidates.append((lo + hi) / 2.0)
        candidates.append(float("inf"))
    best_t = None
    best_acc = -1.0
    for t in candidates:
        tpr = sum(1 for v in member if v < t) / len(member)
        tnr = sum(1 for v in nonmember if v >= t) / len(nonmember)
        acc = (tpr + tnr) / 2.0
        if acc > best_acc:
            best_acc, best_t = acc, t
    return 100.0 * sum(1 for v in forget if v < best_t) / len(forget)


class TestMiaThreshold:
    def test_hand_case(self):
        member = np.array([0.1, 0.2])
        nonmember = np.array([0.9, 1.0])
        assert fit_loss_threshold(member, nonmember) == pytest.approx(0.55)
        mia = mia_at(np.array([0.15, 0.95]), fit_loss_threshold(member, nonmember))
        assert mia == 50.0

    def test_forget_far_below_everything(self):
        member = np.array([1.0, 1.1, 1.2])
        nonmember = np.array([2.0, 2.1])
        assert mia_at(np.array([0.01, 0.02]), fit_loss_threshold(member, nonmember)) == 100.0

    def test_forget_far_above_everything(self):
        member = np.array([1.0, 1.1, 1.2])
        nonmember = np.array([2.0, 2.1])
        assert mia_at(np.array([5.0, 6.0]), fit_loss_threshold(member, nonmember)) == 0.0

    def test_degenerate_identical_losses(self):
        member = np.array([0.5, 0.5])
        nonmember = np.array([0.5, 0.5, 0.5])
        assert fit_loss_threshold(member, nonmember) == 0.5
        assert mia_at(np.array([0.4, 0.5, 0.6]), fit_loss_threshold(member, nonmember)) == (
            pytest.approx(100.0 / 3.0))

    def test_matches_brute_force_oracle_500_trials(self):
        for trial in range(500):
            rng = np.random.default_rng(trial)
            n_m, n_n, n_f = rng.integers(1, 33, size=3)
            sharpness = rng.choice([1, 2, 8])  # coarse rounding creates ties
            member = np.round(rng.exponential(1.0, n_m), sharpness)
            nonmember = np.round(rng.exponential(2.0, n_n), sharpness)
            forget = np.round(rng.exponential(1.5, n_f), sharpness)
            got = mia_at(forget, fit_loss_threshold(member, nonmember))
            want = oracle_mia(forget, member, nonmember)
            assert got == pytest.approx(want, abs=1e-12), f"trial {trial}"

    @settings(max_examples=150, deadline=None)
    @given(member=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=600),
           nonmember=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=600),
           digits=st.integers(0, 2))
    @example(member=[3.0, 4.0], nonmember=[1.0, 2.0], digits=0)  # threshold -inf
    def test_sweep_equals_candidate_loop_on_tied_losses(self, member, nonmember, digits):
        member = np.round(np.array(member), digits)
        nonmember = np.round(np.array(nonmember), digits)
        assert fit_loss_threshold(member, nonmember) == reference_fit_loss_threshold(
            member, nonmember)

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(0.0, 8.0), n_m=st.integers(1, 600), n_n=st.integers(1, 600),
           nonmember_shift=st.sampled_from([0.0, 0.5]))
    def test_sweep_equals_candidate_loop_on_constant_sets(self, value, n_m, n_n,
                                                          nonmember_shift):
        member = np.full(n_m, value)
        nonmember = np.full(n_n, value + nonmember_shift)
        assert fit_loss_threshold(member, nonmember) == reference_fit_loss_threshold(
            member, nonmember)

    def test_empty_sets_rejected(self):
        with pytest.raises(ContractError):
            mia_at(np.array([]), fit_loss_threshold(np.array([1.0]), np.array([2.0])))
        with pytest.raises(ContractError):
            fit_loss_threshold(np.array([]), np.array([1.0]))


class TestAverageGap:
    @staticmethod
    def report(fa=0.0, ra=0.0, ta=0.0, mia=0.0):
        return MetricsReport(fa=fa, ra=ra, ta=ta, mia=mia)

    def test_flagship_rows(self):
        retrain = self.report()
        vit_t = self.report(1.20, 4.22, 0.68, 1.03)
        assert average_gap(vit_t, retrain).ag == pytest.approx(1.7825, abs=1e-12)
        deit_t = self.report(4.37, 2.44, 1.88, 2.46)
        assert average_gap(deit_t, retrain).ag == pytest.approx(2.7875, abs=1e-12)

    def test_identity(self):
        r = self.report(78.89, 95.77, 79.58, 35.78)
        gap = average_gap(r, r)
        assert gap.ag == 0.0
        assert (gap.d_fa, gap.d_ra, gap.d_ta, gap.d_mia) == (0.0, 0.0, 0.0, 0.0)

    def test_absolute_differences(self):
        a = self.report(10.0, 20.0, 30.0, 40.0)
        b = self.report(12.0, 18.0, 33.0, 36.0)
        gap = average_gap(a, b)
        assert (gap.d_fa, gap.d_ra, gap.d_ta, gap.d_mia) == (2.0, 2.0, 3.0, 4.0)
        assert gap.ag == pytest.approx(2.75)

    def test_reference_table_reproduced(self):
        """Every reference row's printed AG is reproduced within 0.01;
        rows flagged inconsistent in the source match the formula, not
        the printed number."""
        with open(FIXTURE) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 182
        retrain = self.report()
        flagged = 0
        for row in rows:
            method = self.report(float(row["d_fa"]), float(row["d_ra"]),
                                 float(row["d_ta"]), float(row["d_mia"]))
            ag = average_gap(method, retrain).ag
            exact = (float(row["d_fa"]) + float(row["d_ra"]) +
                     float(row["d_ta"]) + float(row["d_mia"])) / 4.0
            assert ag == pytest.approx(exact, abs=1e-12)
            if row["source_consistent"] == "yes":
                assert abs(ag - float(row["ag"])) <= 0.01, row
            else:
                flagged += 1
                assert abs(ag - float(row["ag"])) > 0.01, (
                    "row marked inconsistent now matches; update fixture", row)
        assert flagged == 2

    def test_percentage_bounds_validated(self):
        with pytest.raises(ContractError):
            MetricsReport(fa=101.0, ra=0.0, ta=0.0, mia=0.0)


@pytest.fixture(scope="module")
def world():
    train = generate_toy_dataset(3, 10, 8, seed=300)
    test = generate_toy_dataset(3, 5, 8, seed=301)
    split = split_random_forget(train, test, 0.2, seed=300)
    params = init_params(TINY, seed=300)
    return params, split, test


class TestMaskingSweep:
    def test_ratio_zero_equals_unmasked_exactly(self, world):
        params, split, test = world
        forget, retain = split.forget_set(), split.retain_set()
        rows = masking_sweep(params, forget, retain, test, [0.0],
                             [MaskType.ZERO, MaskType.GAUSSIAN], seed=4)
        plain = evaluate_model(params, split)
        for row in rows:
            assert row.ta == plain.ta
            assert row.mia == plain.mia

    def test_row_count_and_order(self, world):
        params, split, test = world
        rows = masking_sweep(params, split.forget_set(), split.retain_set(), test,
                             [0.0, 0.25, 0.5], [MaskType.ZERO, MaskType.GAUSSIAN])
        assert len(rows) == 6
        assert [(r.ratio, r.mask_type) for r in rows[:2]] == [(0.0, "zero"), (0.0, "gaussian")]


@pytest.fixture(scope="module")
def trained_world():
    """A briefly trained model and a split whose retain set spans five
    64-image evaluation chunks, the last one partial."""
    train = generate_toy_dataset(3, 100, 8, seed=310)
    test = generate_toy_dataset(3, 10, 8, seed=311)
    split = split_random_forget(train, test, 0.1, seed=310)
    params = train_model(train, TrainConfig(model=TINY, epochs=3, learning_rate=0.05,
                                            batch_size=32, seed=310))
    return params, split


def _chunks(dataset):
    return -(-len(dataset) // 64)


class TestComputeOnce:
    """Evaluation and the masking sweep reuse each forward; their results
    equal the recompute-everything compositions bit for bit."""

    RATIOS = [0.0, 0.25, 1.0]
    TYPES = [MaskType.ZERO, MaskType.GAUSSIAN]

    def test_evaluate_model_equals_reference(self, trained_world):
        params, split = trained_world
        assert evaluate_model(params, split) == reference_evaluate_model(params, split)

    def test_evaluate_models_forks_one_helper_for_every_model(self, trained_world,
                                                               monkeypatch):
        """Every set of every model goes through one `forward_chunks`
        call: one helper, and each model's report as `evaluate_model`
        gives it alone."""
        params, split = trained_world
        models = [params, init_params(TINY, seed=7), params]
        pids = forks(monkeypatch)
        reports = evaluate_models(models, split)
        assert len(pids) == 1
        assert reports == [reference_evaluate_model(model, split) for model in models]

    def test_masking_sweep_equals_reference(self, trained_world):
        params, split = trained_world
        args = (params, split.forget_set(), split.retain_set(), split.test,
                self.RATIOS, self.TYPES)
        assert masking_sweep(*args, gaussian_std=0.7, seed=9) == reference_masking_sweep(
            *args, gaussian_std=0.7, seed=9)

    def test_evaluate_model_one_forward_per_chunk_per_set(self, trained_world, monkeypatch):
        params, split = trained_world
        calls = count_forwards(monkeypatch)
        evaluate_model(params, split)
        sets = (split.forget_set(), split.retain_set(), split.test)
        assert _chunks(split.retain_set()) == 5
        assert len(calls) == sum(_chunks(s) for s in sets)
        assert sum(n for n, _, _ in calls) == sum(len(s) for s in sets)
        assert not any(capture or tracked for _, capture, tracked in calls)

    def test_masking_sweep_scores_each_set_once(self, trained_world, monkeypatch):
        params, split = trained_world
        forget, retain, test = split.forget_set(), split.retain_set(), split.test
        captured = CallLog()  # the helper runs some of the capture forwards
        calls = count_forwards(monkeypatch, captured)
        masking_sweep(params, forget, retain, test, self.RATIOS, self.TYPES)
        patches = (TINY.image_size // TINY.patch_size) ** 2
        masked_pairs = sum(patch_count(r, patches) > 0 for r in self.RATIOS) * len(self.TYPES)
        scored = np.concatenate([test.images, forget.images])
        assert len(captured) == _chunks(test) + _chunks(forget)
        np.testing.assert_array_equal(np.concatenate(in_set_order(captured, scored)), scored)
        # ratio 0 masks no patch and reuses the unmasked logits: no forward of its own
        assert len(calls) == (_chunks(retain) + _chunks(test) + _chunks(forget)
                              + masked_pairs * (_chunks(test) + _chunks(forget))) == 15
        assert not any(tracked for _, _, tracked in calls)

    def test_masking_sweep_forks_one_helper(self, trained_world, monkeypatch):
        """One helper for the unmasked forwards and the masked pass."""
        params, split = trained_world
        pids = forks(monkeypatch)
        masking_sweep(params, split.forget_set(), split.retain_set(), split.test,
                      self.RATIOS, self.TYPES)
        assert len(pids) == 1

    def _sweep_with_masking_logged(self, trained_world, monkeypatch, helper=None, here=None):
        """Run the sweep on the inline path, then on the fork path with
        `masking.mask_from_scores`, which only the masked pass calls,
        routed through a wrapper that logs where each masked chunk runs
        (see `process_of`) and calls `helper(pids, calls)` or
        `here(pids, calls)` there; assert the same rows, one fork and no
        child left, and return the log. Every other setting here masks 30
        test and 30 forget rows, one chunk each: 8 jobs, the helper's
        first being job 1."""
        params, split = trained_world
        args = (params, split.forget_set(), split.retain_set(), split.test, self.RATIOS,
                self.TYPES)
        with on_path("inline"):
            want = masking_sweep(*args, gaussian_std=0.7, seed=9)
        pids = forks(monkeypatch)
        calls = CallLog()
        me = os.getpid()
        real = masking.mask_from_scores

        def logged(*args):
            where = process_of(me)
            calls.append(where)
            hook = helper if where == "helper" else here
            if hook is not None:
                hook(pids, calls)
            return real(*args)

        monkeypatch.setattr(masking, "mask_from_scores", logged)
        assert masking_sweep(*args, gaussian_std=0.7, seed=9) == want
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return calls

    def test_masking_sweep_killed_in_the_masked_pass(self, trained_world, monkeypatch):
        """The helper blocks in its first masked chunk and is killed from
        outside while this process masks its first: this process computes
        every masked chunk, and the rows are the inline path's."""
        def kill(pids, calls):
            if calls.count("here") == 1:
                wait_until(lambda: "helper" in calls)
                os.kill(pids[0], signal.SIGKILL)

        calls = self._sweep_with_masking_logged(trained_world, monkeypatch,
                                                helper=lambda *_: time.sleep(60), here=kill)
        assert (calls.count("helper"), calls.count("here")) == (1, 8)

    def test_masking_sweep_masked_chunk_failing_only_in_the_helper(self, trained_world,
                                                                  monkeypatch):
        """The helper's first masked chunk raises there only: this process
        computes it and every later masked chunk, with the inline rows."""
        def fail(pids, calls):
            raise KeyError("a masked chunk that fails in the helper only")

        calls = self._sweep_with_masking_logged(trained_world, monkeypatch, helper=fail)
        assert (calls.count("helper"), calls.count("here")) == (1, 8)

    def test_masking_sweep_validates_the_grid_before_any_forward(self, trained_world,
                                                                 monkeypatch):
        params, split = trained_world
        calls = count_forwards(monkeypatch)
        with pytest.raises(ConfigError, match="1.5"):
            masking_sweep(params, split.forget_set(), split.retain_set(), split.test,
                          [0.25, 1.5], self.TYPES)
        assert calls == []

    def test_masking_sweep_fits_the_threshold_once(self, trained_world, monkeypatch):
        """The attack threshold depends on neither the ratio nor the type."""
        params, split = trained_world
        fits = []
        real = evaluation.fit_loss_threshold

        def counted(member_losses, nonmember_losses):
            fits.append(len(member_losses))
            return real(member_losses, nonmember_losses)

        monkeypatch.setattr(evaluation, "fit_loss_threshold", counted)
        rows = masking_sweep(params, split.forget_set(), split.retain_set(), split.test,
                             self.RATIOS, self.TYPES)
        assert len(rows) == len(self.RATIOS) * len(self.TYPES)
        assert fits == [len(split.retain_set())]
