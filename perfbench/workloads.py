"""The benchmark's workloads: the CLI command lines each one times, the
committed inputs it reads, and the checks its outputs must pass.

Every command is one argv list for `lethevit.cli.main`. A workload is a
cycle of commands repeated for the measured time; `--seed` picks the
order in which the cycles walk the seed pool, and each pool seed has a
committed reference output (see `regen.py`), so every output is checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from lethevit import evaluation, vit
from lethevit.data import LabeledDataset
from lethevit.tensor import per_sample_cross_entropy

# checkpoints the committed reference set holds, by role
REFERENCE_MODELS = ("original", "retrain", "lethevit", "ft", "ga", "rl")
EVALUATED_MODELS = ("retrain", "lethevit", "ft", "ga", "rl")
# seed of the committed reference models
REFERENCE_SEED = 7

# Tolerance on each per-sample test loss, relative to the largest
# reference loss (at least 1). Measured on the train, retrain and unlearn
# commands of all eight pool seeds: multiplying the output and every
# input gradient of every tensor op by (1 + 1e-12), or by (1 + u * 1e-12)
# with u uniform in [-1, 1] per element, moves the losses by at most
# 1.6e-11. A 1% error in one term of the GELU derivative moves them by at
# least 2.2e-6 (train), 4.5e-6 (retrain) and 9.0e-8 (unlearn). 1e-9 sits
# about 60x above the first and 90x below the second.
LOSS_RTOL = 1e-9


@dataclass(frozen=True)
class Profile:
    """Shapes and recipes; `FULL` is what the benchmark measures, `TINY`
    is the same pipeline at toy size for the smoke test."""

    data: dict          # gen-data keys; the test set uses seed + 1
    model: dict         # architecture keys
    train: dict         # SGD keys of `train` and `unlearn --method retrain`
    bench_epochs: int   # epochs of each timed train/retrain command
    reference_epochs: int
    unlearn: dict       # SGD keys shared by every unlearning method
    forget: dict        # the forget workload's `unlearn --method lethevit`
    methods: dict       # per-method keys of the committed unlearned models
    split: dict         # forget split of the committed models and `evaluate`
    sweep: dict
    pool: tuple         # command seeds that have committed reference outputs


FULL = Profile(
    data=dict(seed=2024, classes=3, per_class=200, test_per_class=50, image_size=20,
              channels=1),
    model=dict(patch_size=4, depth=2, heads=2, dim=32, mlp_ratio=2),
    train=dict(lr=0.05, batch=32, momentum=0.9, weight_decay=0.0005),
    bench_epochs=2,
    reference_epochs=80,
    unlearn=dict(lr=0.05, batch=32, tau=0.5),
    forget=dict(forget_ratio=0.3, mask_type="gaussian", ratio=0.1, ef=5, er=1),
    methods=dict(
        lethevit=dict(ef=2, er=8, ratio=0.05, mask_type="zero"),
        ft=dict(er=8),
        ga=dict(ef=10, er=0, lr=0.3),
        rl=dict(er=8),
    ),
    split=dict(forget_ratio=0.1, split_seed=REFERENCE_SEED),
    sweep=dict(ratios="0,0.05,0.1,0.2,0.3", types="zero,gaussian"),
    pool=(7, 11, 19, 23, 29, 31, 37, 41),
)

TINY = Profile(
    data=dict(seed=2024, classes=3, per_class=12, test_per_class=6, image_size=8, channels=1),
    model=dict(patch_size=4, depth=1, heads=2, dim=8, mlp_ratio=2),
    train=FULL.train,
    bench_epochs=1,
    reference_epochs=2,
    unlearn=FULL.unlearn,
    forget=dict(forget_ratio=0.3, mask_type="gaussian", ratio=0.25, ef=1, er=1),
    methods=dict(
        lethevit=dict(ef=1, er=1, ratio=0.25, mask_type="zero"),
        ft=dict(er=1),
        ga=dict(ef=1, er=0),
        rl=dict(er=1),
    ),
    split=FULL.split,
    sweep=dict(ratios="0,0.25", types="zero,gaussian"),
    pool=(7, 11),
)

PROFILES = {"full": FULL, "tiny": TINY}

# why each workload exists: BENCHMARK.json and NOTES.md
WORKLOADS = ("train", "forget", "evaluate")

# the committed checkpoints each workload reads
INPUTS = {"train": (), "forget": ("original",), "evaluate": EVALUATED_MODELS}


@dataclass(frozen=True)
class Command:
    kind: str       # train, retrain, unlearn, evaluate or sweep
    seed: int       # pool seed; selects the reference output
    argv: list
    out: str
    samples: int    # training samples x epochs, or images scored


def sets(values: dict) -> list[str]:
    argv: list[str] = []
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _count(ratio: float, n: int) -> int:
    return int(math.floor(ratio * n + 1e-9))


def gen_data_argv(profile: Profile, work: str) -> list[str]:
    return ["gen-data", "--out-dir", work] + sets(profile.data)


def reference_model_argv(profile: Profile, name: str, work: str, out: str,
                         original: str) -> list[str]:
    """The command that trains one committed reference checkpoint."""
    train, test = os.path.join(work, "train.ltds"), os.path.join(work, "test.ltds")
    seed = dict(seed=REFERENCE_SEED)
    if name == "original":
        return (["train", "--data", train, "--out", out]
                + sets({**seed, "epochs": profile.reference_epochs, **profile.train,
                        **profile.model}))
    if name == "retrain":
        return (["unlearn", "--method", "retrain", "--data", train, "--test", test, "--out", out]
                + sets({**seed, "epochs": profile.reference_epochs, **profile.train,
                        **profile.model, **profile.split}))
    return (["unlearn", "--method", name, "--data", train, "--test", test,
             "--original", original, "--out", out]
            + sets({**seed, **profile.unlearn, **profile.split, **profile.methods[name]}))


def cycle(workload: str, profile: Profile, seed: int, work: str, reference: str,
          tag: str) -> list[Command]:
    """One cycle of `workload`'s commands at pool seed `seed`."""
    train, test = os.path.join(work, "train.ltds"), os.path.join(work, "test.ltds")
    data = profile.data
    n_train = data["classes"] * data["per_class"]
    n_test = data["classes"] * data["test_per_class"]

    def out(kind: str, ext: str) -> str:
        return os.path.join(work, f"{kind}-{tag}.{ext}")

    if workload == "train":
        epochs = profile.bench_epochs
        n_retain = n_train - _count(profile.split["forget_ratio"], n_train)
        return [
            Command("train", seed, ["train", "--data", train, "--out", out("train", "ltvt")]
                    + sets({"seed": seed, "epochs": epochs, **profile.train, **profile.model}),
                    out("train", "ltvt"), n_train * epochs),
            Command("retrain", seed,
                    ["unlearn", "--method", "retrain", "--data", train, "--test", test,
                     "--out", out("retrain", "ltvt")]
                    + sets({"seed": seed, "epochs": epochs,
                            "forget_ratio": profile.split["forget_ratio"],
                            **profile.train, **profile.model}),
                    out("retrain", "ltvt"), n_retain * epochs),
        ]
    if workload == "forget":
        f = profile.forget
        n_forget = _count(f["forget_ratio"], n_train)
        samples = n_forget * f["ef"] + (n_train - n_forget) * f["er"]
        return [Command(
            "unlearn", seed,
            ["unlearn", "--method", "lethevit", "--data", train, "--test", test,
             "--original", os.path.join(reference, "original.ltvt"),
             "--out", out("unlearn", "ltvt")]
            + sets({"seed": seed, **profile.unlearn, **f}),
            out("unlearn", "ltvt"), samples)]
    if workload == "evaluate":
        n_forget = _count(profile.split["forget_ratio"], n_train)
        checkpoints: list[str] = []
        for name in EVALUATED_MODELS:
            checkpoints += ["--checkpoint", f"{name}={os.path.join(reference, name + '.ltvt')}"]
        settings = (len(profile.sweep["ratios"].split(","))
                    * len(profile.sweep["types"].split(",")))
        return [
            Command("evaluate", seed,
                    ["evaluate", "--data", train, "--test", test, *checkpoints,
                     "--out", out("report", "csv")]
                    + sets({"seed": seed, **profile.split}),
                    out("report", "csv"), len(EVALUATED_MODELS) * (n_train + n_test)),
            Command("sweep", seed,
                    ["sweep-mask", "--data", train, "--test", test,
                     "--checkpoint", os.path.join(reference, "retrain.ltvt"),
                     "--out", out("sweep", "csv")]
                    + sets({"seed": seed, **profile.split, **profile.sweep}),
                    out("sweep", "csv"),
                    (n_train - n_forget + n_test) + settings * (n_test + n_forget)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def reference_csv(reference: str, kind: str, seed: int) -> str:
    return os.path.join(reference, f"{'report' if kind == 'evaluate' else kind}-{seed}.csv")


def checkpoint_summary(path: str, test: LabeledDataset) -> dict:
    """Per-sample test-set cross-entropy and accuracy of a checkpoint,
    plus its sha256 (byte identity is recorded, not required)."""
    logits = evaluation.batched_logits(vit.load_params(path), test.images)
    return {
        "losses": per_sample_cross_entropy(logits, test.labels).tolist(),
        "accuracy": 100.0 * float((np.argmax(logits, axis=1) == test.labels).mean()),
        "sha256": sha256(path),
    }


class References:
    """Committed reference outputs under one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        with open(os.path.join(directory, "outputs.json")) as f:
            self.outputs = json.load(f)
        self.checkpoint_sha = {}
        with open(os.path.join(directory, "checkpoints.sha256")) as f:
            for line in f:
                digest, name = line.split()
                self.checkpoint_sha[name] = digest

    def inputs_intact(self, workload: str) -> bool:
        files = [name + ".ltvt" for name in INPUTS[workload]]
        return all(sha256(os.path.join(self.directory, f)) == self.checkpoint_sha[f]
                   for f in files)

    def check(self, command: Command, test: LabeledDataset) -> tuple[bool, bool]:
        """(output matches its reference, output is byte-identical to it)."""
        if command.kind in ("evaluate", "sweep"):
            with open(reference_csv(self.directory, command.kind, command.seed), "rb") as f:
                expected = f.read()
            with open(command.out, "rb") as f:
                same = f.read() == expected
            return same, same
        ref = self.outputs[command.kind][str(command.seed)]
        got = checkpoint_summary(command.out, test)
        scale = max([1.0] + [abs(x) for x in ref["losses"]])
        worst = max(abs(a - b) for a, b in zip(got["losses"], ref["losses"]))
        ok = (len(got["losses"]) == len(ref["losses"]) and worst <= LOSS_RTOL * scale
              and abs(got["accuracy"] - ref["accuracy"]) <= 100.0 / len(test) + 1e-9)
        return ok, got["sha256"] == ref["sha256"]
