"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to see them). Criteria 7-9 share one set of
training runs on the committed toy setup; expect a few minutes total."""

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from lethevit import (
    MaskSpec,
    MaskType,
    MetricsReport,
    TrainConfig,
    Tensor,
    UnlearnConfig,
    ViTConfig,
    average_gap,
    evaluate_model,
    generate_toy_dataset,
    gradient_ascent,
    masking_sweep,
    retrain,
    split_random_forget,
    train_model,
    unlearn,
)
from lethevit import tensor as T
from lethevit.cli import main as cli_main
from lethevit.evaluation import fit_loss_threshold, mia_at
from lethevit.masking import apply_mask, patch_count, select_top_k
from lethevit.tensor import Tape, backward
from lethevit.unlearning import contrastive_loss
from lethevit.vit import forward, init_params

from helpers import assert_gradients_match, reference_triplet_cosine_stats, sum_all
from test_evaluation import oracle_mia

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "reference_gaps.csv")

# the committed toy setup for criteria 7-9
IMAGE_SIZE = 20
MODEL = ViTConfig(image_size=IMAGE_SIZE, patch_size=4, channels=1, depth=2,
                  heads=2, dim=32, mlp_ratio=2, num_classes=3)
SEEDS = (7, 11, 19)
MASK = MaskSpec(0.05, MaskType.ZERO)
TRAIN_SEED, TEST_SEED = 2024, 2025


def _criterion(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _recipe(seed):
    return TrainConfig(model=MODEL, epochs=80, learning_rate=0.05, batch_size=32,
                       seed=seed, momentum=0.9, weight_decay=5e-4)


@pytest.fixture(scope="module")
def protocol_runs():
    """Per-seed artifacts shared by criteria 7, 8 and 9."""
    train = generate_toy_dataset(3, 200, IMAGE_SIZE, seed=TRAIN_SEED)
    test = generate_toy_dataset(3, 50, IMAGE_SIZE, seed=TEST_SEED)
    runs = []
    for seed in SEEDS:
        split = split_random_forget(train, test, 0.10, seed=seed)
        theta_o = train_model(train, _recipe(seed))
        theta_r = retrain(split, _recipe(seed))

        unlearn_cfg = UnlearnConfig(forget_epochs=2, retain_epochs=8, learning_rate=0.05,
                                    batch_size=32, temperature=0.5, mask_spec=MASK, seed=seed)
        theta_u = unlearn(theta_o, split, unlearn_cfg)

        ga_cfg = UnlearnConfig(forget_epochs=10, retain_epochs=0, learning_rate=0.3,
                               batch_size=32, mask_spec=MASK, seed=seed)
        theta_ga = gradient_ascent(theta_o, split, ga_cfg)

        sp0, sn0 = reference_triplet_cosine_stats(theta_o, theta_o, train, split.forget, MASK)
        one_epoch = UnlearnConfig(forget_epochs=1, retain_epochs=0, learning_rate=0.05,
                                  batch_size=32, temperature=0.5, mask_spec=MASK, seed=seed)
        theta_1 = unlearn(theta_o, split, one_epoch)
        sp1, sn1 = reference_triplet_cosine_stats(theta_1, theta_o, train, split.forget, MASK)

        runs.append(dict(
            seed=seed, split=split, test=test, theta_r=theta_r,
            retrain=evaluate_model(theta_r, split),
            lethevit=evaluate_model(theta_u, split),
            ga=evaluate_model(theta_ga, split),
            sp0=sp0, sp1=sp1, sn0=sn0, sn1=sn1,
        ))
    return runs


class TestCriterion1GradientOracle:
    def test_every_op_and_full_model(self):
        rng = np.random.default_rng(1001)
        # the fused ops draw from their own stream so the other entries
        # and the full-model check keep their inputs
        fused = np.random.default_rng(1002)
        key_bias = Tensor(fused.normal(size=4))
        class_only = np.random.default_rng(1003)
        class_key_bias = Tensor(class_only.normal(size=4))
        checks = {
            "matmul_2d": (lambda t: sum_all(T.matmul(t[0], t[1])),
                          [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]),
            "matmul_batched": (lambda t: sum_all(T.matmul(t[0], t[1])),
                               [rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))]),
            "matmul_weight": (lambda t: sum_all(T.matmul(t[0], t[1])),
                              [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 3))]),
            "add": (lambda t: sum_all(T.add(t[0], t[1])),
                    [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]),
            "add_bias": (lambda t: sum_all(T.add(t[0], t[1])),
                         [rng.normal(size=(2, 3, 4)), rng.normal(size=4)]),
            "scale": (lambda t: sum_all(T.scale(t[0], -2.5)), [rng.normal(size=(3, 3))]),
            "transpose": (lambda t: sum_all(T.matmul(T.transpose(t[0], (1, 0, 2)), t[1])),
                          [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4, 2))]),
            "reshape": (lambda t: sum_all(T.matmul(T.reshape(t[0], (4, 3)), t[1])),
                        [rng.normal(size=(2, 6)), rng.normal(size=(3, 2))]),
            "concat": (lambda t: sum_all(T.matmul(T.concat([t[0], t[1]], 1), t[2])),
                       [rng.normal(size=(2, 2)), rng.normal(size=(2, 3)),
                        rng.normal(size=(5, 2))]),
            "softmax_rows": (lambda t: sum_all(T.matmul(T.softmax_rows(t[0]),
                                                        T.transpose(t[1], (1, 0)))),
                             [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))]),
            "layer_norm": (lambda t: sum_all(T.matmul(
                               T.layer_norm(t[0], t[1], t[2]), T.transpose(t[3], (1, 0)))),
                           [rng.normal(size=(2, 5)), rng.normal(size=5) + 1.0,
                            rng.normal(size=5), rng.normal(size=(2, 5))]),
            "gelu": (lambda t: sum_all(T.gelu(t[0])), [rng.normal(size=(3, 4)) * 2]),
            "softplus": (lambda t: sum_all(T.softplus(t[0])), [rng.normal(size=(3, 4)) * 3]),
            "mean_all": (lambda t: T.mean_all(t[0]), [rng.normal(size=(4, 3))]),
            "sum_all": (lambda t: sum_all(t[0]), [rng.normal(size=(2, 5))]),
            "cross_entropy": (lambda t: T.cross_entropy(t[0], np.array([0, 2, 1])),
                              [rng.normal(size=(3, 3))]),
            "row_cosine": (lambda t: T.mean_all(T.row_cosine(t[0], t[1])),
                           [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]),
            "row_cosine_one_row": (lambda t: T.mean_all(T.row_cosine(t[0], t[1])),
                                   [rng.normal(size=(1, 5)), rng.normal(size=(1, 5))]),
            "repeat_batch": (lambda t: sum_all(T.matmul(
                                 T.repeat_batch(t[0], 3), T.transpose(t[1], (0, 2, 1)))),
                             [rng.normal(size=(1, 4)), rng.normal(size=(3, 1, 4))]),
            "take_token": (lambda t: sum_all(T.matmul(T.take_token(t[0], 1), t[1])),
                           [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2))]),
            "linear": (lambda t: sum_all(T.linear(t[0], t[1], t[2])),
                       [rng.normal(size=(2, 3)), rng.normal(size=(3, 4)),
                        rng.normal(size=4)]),
            "linear_rank3": (lambda t: sum_all(T.matmul(T.linear(t[0], t[1], t[2]), t[3])),
                             [fused.normal(size=(2, 3, 4)), fused.normal(size=(4, 5)),
                              fused.normal(size=5), fused.normal(size=(5, 2))]),
            # the key bias is held fixed: its exact gradient is zero (it
            # shifts a whole score row), which differences cannot resolve
            "attention": (lambda t: sum_all(T.matmul(T.attention(
                              t[0], t[1], t[2], t[3], key_bias, t[4], t[5], t[6], t[7],
                              heads=2)[0], t[8])),
                          [fused.normal(size=(2, 5, 4))]
                          + [fused.normal(size=s)
                             for s in ((4, 4), 4, (4, 4), (4, 4), 4, (4, 4), 4)]
                          + [fused.normal(size=(4, 3))]),
            "attention_class_only": (lambda t: sum_all(T.matmul(T.attention(
                                         t[0], t[1], t[2], t[3], class_key_bias, t[4], t[5],
                                         t[6], t[7], heads=2, class_only=True)[0], t[8])),
                                     [class_only.normal(size=(2, 5, 4))]
                                     + [class_only.normal(size=s)
                                        for s in ((4, 4), 4, (4, 4), (4, 4), 4, (4, 4), 4)]
                                     + [class_only.normal(size=(4, 3))]),
            "mlp": (lambda t: sum_all(T.matmul(T.mlp(t[0], t[1], t[2], t[3], t[4]), t[5])),
                    [fused.normal(size=(2, 3, 4)), fused.normal(size=(4, 6)),
                     fused.normal(size=6), fused.normal(size=(6, 4)), fused.normal(size=4),
                     fused.normal(size=(4, 2))]),
        }
        for name, (build, arrays) in checks.items():
            assert_gradients_match(build, arrays, rel_tol=1e-4)

        tiny = ViTConfig(image_size=8, patch_size=4, channels=1, depth=1,
                         heads=2, dim=8, mlp_ratio=2, num_classes=3)
        params = init_params(tiny, seed=1001)
        images = rng.normal(size=(2, 1, 8, 8))
        labels = np.array([1, 2])
        names = params.names()

        def full_model(tensors):
            probe = params.copy()
            for name, tensor in zip(names, tensors):
                probe.tensors[name] = tensor
            return T.cross_entropy(forward(probe, images).logits, labels)

        assert_gradients_match(full_model, [params[n].values.copy() for n in names],
                               rel_tol=1e-3)
        _criterion(1, "gradient oracle", True,
                   f"{len(checks)} ops + full 1-block model vs central differences")


class TestCriterion2LossAnalytics:
    def test_contrastive_loss_values_and_gradient_signs(self):
        rng = np.random.default_rng(2002)
        z = rng.normal(size=(5, 4))
        zp = rng.normal(size=(5, 4))
        equal = contrastive_loss(Tensor(z), Tensor(zp), Tensor(zp), 0.73)
        ok_ln2 = abs(equal.item() - np.log(2.0)) < 1e-12

        v = np.array([[0.5, -1.5, 2.0]])
        opposed = contrastive_loss(Tensor(v), Tensor(v), Tensor(-v), 1.0)
        ok_closed = abs(opposed.item() - np.log(1.0 + np.exp(-2.0))) < 1e-9

        signs_ok = True
        for _ in range(1000):
            s_p = Tensor(rng.uniform(-1, 1, size=1), requires_grad=True)
            s_n = Tensor(rng.uniform(-1, 1, size=1), requires_grad=True)
            tau = float(rng.uniform(0.01, 5.0))
            with Tape() as tape:
                gap = T.add(s_n, T.scale(s_p, -1.0))
                loss = T.mean_all(T.softplus(T.scale(gap, 1.0 / tau)))
            backward(loss, tape)
            if not (s_p.grad[0] < 0.0 and s_n.grad[0] > 0.0):
                signs_ok = False
                break

        _criterion(2, "loss analytics", ok_ln2 and ok_closed and signs_ok,
                   "ln 2 exact, closed form within 1e-9, 1000 sign checks")


class TestCriterion3AverageGapOracle:
    def test_reference_tables_reproduced(self):
        with open(FIXTURE) as f:
            rows = list(csv.DictReader(f))
        reference = MetricsReport(0.0, 0.0, 0.0, 0.0)
        reproduced = flagged = 0
        for row in rows:
            method = MetricsReport(float(row["d_fa"]), float(row["d_ra"]),
                                   float(row["d_ta"]), float(row["d_mia"]))
            ag = average_gap(method, reference).ag
            if row["source_consistent"] == "yes":
                assert abs(ag - float(row["ag"])) <= 0.01, row
                reproduced += 1
            else:
                # printed AG disagrees with its own printed per-metric gaps
                assert abs(ag - float(row["ag"])) > 0.01, row
                flagged += 1
        _criterion(3, "average-gap oracle", reproduced == 180 and flagged == 2,
                   f"{reproduced}/{len(rows)} printed AGs reproduced within 0.01; "
                   f"{flagged} rows are arithmetically inconsistent in the source tables")


class TestCriterion4MaskingExactness:
    def test_top_k_oracle_partitions_and_floor(self):
        for trial in range(1000):
            rng = np.random.default_rng(trial + 40000)
            n = int(rng.integers(1, 50))
            ratio = float(rng.random())
            scores = np.round(rng.normal(size=(1, n)), 2)
            got = select_top_k(scores, ratio)[0]
            order = sorted(range(n), key=lambda i: (-scores[0, i], i))
            expected = sorted(order[:patch_count(ratio, n)])
            assert got.tolist() == expected, f"trial {trial}"

        assert patch_count(0.0, 64) == 0
        assert patch_count(0.05, 64) == 3
        assert patch_count(1.0, 64) == 64
        assert patch_count(0.05, 196) == 9

        rng = np.random.default_rng(4004)
        images = rng.normal(size=(4, 1, 12, 12))
        indices = select_top_k(rng.random((4, 9)), 0.5)
        masked = apply_mask(images, indices, MaskSpec(0.5), patch_size=4)
        for sample in range(4):
            mask = np.zeros((1, 12, 12), dtype=bool)
            for patch in indices[sample]:
                r, c = divmod(int(patch), 3)
                mask[:, r * 4:(r + 1) * 4, c * 4:(c + 1) * 4] = True
            assert (masked[sample][mask] == 0.0).all()
            assert np.array_equal(masked[sample][~mask], images[sample][~mask])

        _criterion(4, "masking exactness", True,
                   "1000 top-k oracle trials, exact pixel partitions, floor counts")


class TestCriterion5MiaOracle:
    def test_threshold_attack_matches_brute_force(self):
        for trial in range(500):
            rng = np.random.default_rng(trial + 50000)
            n_m, n_n, n_f = rng.integers(1, 33, size=3)
            digits = int(rng.choice([1, 2, 8]))
            member = np.round(rng.exponential(1.0, n_m), digits)
            nonmember = np.round(rng.exponential(2.0, n_n), digits)
            forget = np.round(rng.exponential(1.5, n_f), digits)
            got = mia_at(forget, fit_loss_threshold(member, nonmember))
            want = oracle_mia(forget, member, nonmember)
            assert got == pytest.approx(want, abs=1e-12), f"trial {trial}"
        _criterion(5, "MIA oracle", True, "500 brute-force trials, sets up to 32 samples")


class TestCriterion6PipelineDeterminism:
    def test_cli_pipeline_twice_is_byte_identical(self, tmp_path):
        common = ["--set", "seed=6", "--set", "classes=3", "--set", "per_class=12",
                  "--set", "test_per_class=6", "--set", "image_size=12"]
        model = ["--set", "patch_size=4", "--set", "depth=1", "--set", "heads=2",
                 "--set", "dim=8", "--set", "mlp_ratio=2"]
        outputs = {}
        for tag in ("first", "second"):
            base = tmp_path / tag
            data_dir = base / "data"
            assert cli_main(["gen-data", "--out-dir", str(data_dir)] + common) == 0
            train_p, test_p = str(data_dir / "train.ltds"), str(data_dir / "test.ltds")
            theta_o = str(base / "theta_o.ltvt")
            assert cli_main(["train", "--data", train_p, "--out", theta_o,
                             "--set", "epochs=3", "--set", "lr=0.05", "--set", "batch=9"]
                            + common + model) == 0
            theta_u = str(base / "theta_u.ltvt")
            assert cli_main(["unlearn", "--method", "lethevit", "--data", train_p,
                             "--test", test_p, "--original", theta_o, "--out", theta_u,
                             "--set", "lr=0.02", "--set", "batch=9", "--set", "ef=1",
                             "--set", "er=1", "--set", "ratio=0.25",
                             "--set", "forget_ratio=0.2"] + common) == 0
            theta_r = str(base / "theta_r.ltvt")
            assert cli_main(["unlearn", "--method", "retrain", "--data", train_p,
                             "--test", test_p, "--out", theta_r,
                             "--set", "epochs=3", "--set", "lr=0.05", "--set", "batch=9",
                             "--set", "forget_ratio=0.2"] + common + model) == 0
            report = str(base / "report.csv")
            assert cli_main(["evaluate", "--data", train_p, "--test", test_p,
                             "--checkpoint", f"retrain={theta_r}",
                             "--checkpoint", f"lethevit={theta_u}",
                             "--out", report, "--set", "forget_ratio=0.2"] + common) == 0
            outputs[tag] = {
                "train.ltds": Path(train_p).read_bytes(),
                "theta_o.ltvt": Path(theta_o).read_bytes(),
                "theta_u.ltvt": Path(theta_u).read_bytes(),
                "theta_r.ltvt": Path(theta_r).read_bytes(),
                "report.csv": Path(report).read_bytes(),
            }
        mismatched = [name for name in outputs["first"]
                      if outputs["first"][name] != outputs["second"][name]]
        _criterion(6, "pipeline determinism", not mismatched,
                   f"checkpoints and CSVs byte-identical across reruns "
                   f"({len(outputs['first'])} artifacts)" if not mismatched
                   else f"mismatch in {mismatched}")


class TestCriterion7MaskingSweepDirections:
    def test_table1_directions_on_committed_setup(self, protocol_runs):
        run = protocol_runs[0]  # the seed-7 retrained model
        rows = masking_sweep(run["theta_r"], run["split"].forget_set(),
                             run["split"].retain_set(), run["test"],
                             [0.0, 0.05, 0.3], [MaskType.ZERO], seed=0)
        r0, r5, r30 = rows
        ta_stable = abs(r5.ta - r0.ta) < 3.0
        mia_drops = r5.mia < r0.mia
        heavier_hurts_more = (r0.ta - r30.ta) > (r0.ta - r5.ta)
        _criterion(7, "masking sweep directions",
                   ta_stable and mia_drops and heavier_hurts_more,
                   f"TA {r0.ta:.2f}->{r5.ta:.2f}->{r30.ta:.2f}, "
                   f"MIA {r0.mia:.2f}->{r5.mia:.2f}->{r30.mia:.2f}")


class TestCriterion8UnlearningComparison:
    def test_lethevit_beats_ga_and_preserves_ra(self, protocol_runs):
        ag_wins = ra_close = 0
        details = []
        for run in protocol_runs:
            # pinned once on the committed setup: the reference actually fits
            assert run["retrain"].ra >= 90.0, f"retrain under-fit on seed {run['seed']}"
            ag_u = average_gap(run["lethevit"], run["retrain"]).ag
            ag_g = average_gap(run["ga"], run["retrain"]).ag
            ag_wins += ag_u < ag_g
            ra_close += abs(run["lethevit"].ra - run["retrain"].ra) <= 5.0
            details.append(f"seed {run['seed']}: AG {ag_u:.2f} vs GA {ag_g:.2f}, "
                           f"RA {run['lethevit'].ra:.1f}/{run['retrain'].ra:.1f}")
        majority = (len(protocol_runs) // 2) + 1
        _criterion(8, "unlearning comparison",
                   ag_wins >= majority and ra_close >= majority,
                   f"AG wins {ag_wins}/3, RA within 5 points {ra_close}/3; " + "; ".join(details))


class TestCriterion9ContrastiveMechanism:
    def test_cosine_directions_over_first_forget_epoch(self, protocol_runs):
        ok = True
        details = []
        for run in protocol_runs:
            up = run["sp1"] > run["sp0"]
            down = run["sn1"] < run["sn0"]
            ok = ok and up and down
            details.append(f"seed {run['seed']}: d(cos_p)={run['sp1']-run['sp0']:+.5f}, "
                           f"d(cos_n)={run['sn1']-run['sn0']:+.5f}")
        _criterion(9, "contrastive mechanism", ok, "; ".join(details))
