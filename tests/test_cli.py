"""End-to-end CLI tests on a miniature pipeline: exit codes, manifests,
CSV contracts, and byte-identical reruns."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import threading
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethevit.checkpoint import load_arrays, save_arrays
from lethevit.cli import _COMMANDS, _KEY_SPECS, build_parser, main
from lethevit.data import load_dataset
from lethevit.masking import pool_size
from lethevit.tensor import blas_threads, keep_heap
from lethevit.vit import ViTConfig, parameter_shapes

from helpers import forks
from test_checkpoint import HOSTILE_DIMS, write_raw_checkpoint
from test_data import raw_dataset, write_label

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_KEYS = [
    "classes=2", "per_class=6", "test_per_class=4", "image_size=8", "channels=1",
]
MODEL_KEYS = ["patch_size=4", "depth=1", "heads=2", "dim=8", "mlp_ratio=2"]


def run(*argv):
    return main(list(argv))


def sets(*pairs):
    out = []
    for pair in pairs:
        out.extend(["--set", pair])
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + train once; individual tests build on the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    code = run("gen-data", "--out-dir", str(data_dir),
               *sets("seed=5", *TINY_KEYS))
    assert code == 0
    train_path = str(data_dir / "train.ltds")
    test_path = str(data_dir / "test.ltds")
    theta_o = str(root / "theta_o.ltvt")
    code = run("train", "--data", train_path, "--out", theta_o,
               *sets("seed=5", "epochs=2", "lr=0.05", "batch=6", *MODEL_KEYS))
    assert code == 0
    return root, train_path, test_path, theta_o


class TestGenData:
    def test_outputs_and_manifest(self, pipeline):
        root, train_path, test_path, _ = pipeline
        assert os.path.exists(train_path) and os.path.exists(test_path)
        manifest_path = os.path.dirname(train_path) + "/manifests.jsonl"
        entries = [json.loads(line) for line in Path(manifest_path).read_text().splitlines()]
        assert entries[0]["command"] == "gen-data"
        assert entries[0]["seed"] == 5
        assert train_path in entries[0]["outputs"]
        assert entries[0]["duration_seconds"] >= 0.0

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        code = run("gen-data", "--out-dir", str(tmp_path), *sets(*TINY_KEYS))
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["seed=abc"], "config key seed expects int, got 'abc'"),
        (["seed=-5"], "seed must be >= 0, got -5"),
    ], ids=["flag-not-int", "flag-negative"])
    def test_bad_seed_exits_2_naming_it(self, tmp_path, capsys, flags, message):
        code = run("gen-data", "--out-dir", str(tmp_path), *sets(*flags, *TINY_KEYS))
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_utf8_config_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=1\n\xff\xfe=3\n")
        code = run("gen-data", "--out-dir", str(tmp_path), "--config", str(cfg),
                   *sets(*TINY_KEYS))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: config file is not UTF-8 text\n"

    def test_missing_config_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "nonexistent.cfg"
        code = run("gen-data", "--out-dir", str(tmp_path), "--config", str(cfg),
                   *sets(*TINY_KEYS))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: cannot read config file: No such file or directory\n"

    @pytest.mark.parametrize("key,value,nbytes", [
        ("channels", 100_000_000, 3 * 200 * 100_000_000 * 32 ** 2 * 8),  # beyond 2^48 bytes
        ("image_size", 100_000_000, 3 * 200 * 100_000_000 ** 2 * 8),  # beyond 2^63 bytes
    ], ids=["beyond-2^48-bytes", "beyond-2^63-bytes"])
    def test_unallocatable_shape_exits_2_naming_it(self, tmp_path, capsys, key, value, nbytes):
        code = run("gen-data", "--out-dir", str(tmp_path), *sets("seed=6", f"{key}={value}"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{key} {value}" in err and f"need {nbytes} bytes" in err

    def test_usage_error_makes_no_directory(self, tmp_path, capsys):
        out = tmp_path / "new"
        code = run("gen-data", "--out-dir", str(out), *sets("seed=1", "classes=1"))
        assert code == 2
        assert "need at least 2 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = run("gen-data", "--out-dir", str(tmp_path),
                   *sets("seed=1", "bogus_key=1", *TINY_KEYS))
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err


class TestTrain:
    def test_missing_config_key_exits_2_naming_key(self, pipeline, tmp_path, capsys):
        _, train_path, _, _ = pipeline
        code = run("train", "--data", train_path, "--out", str(tmp_path / "x.ltvt"),
                   *sets("seed=5", "lr=0.05", "batch=6"))  # epochs missing
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["patch_size", "heads"])
    def test_zero_divisor_key_exits_2_naming_it(self, pipeline, tmp_path, capsys, key):
        """A zero patch_size or heads is a usage error, not a division by zero."""
        _, train_path, _, _ = pipeline
        code = run("train", "--data", train_path, "--out", str(tmp_path / "x.ltvt"),
                   *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS, f"{key}=0"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {key} must be >= 1\n"

    def test_deterministic_checkpoint_bytes(self, pipeline, tmp_path):
        _, train_path, _, theta_o = pipeline
        again = tmp_path / "again.ltvt"
        code = run("train", "--data", train_path, "--out", str(again),
                   *sets("seed=5", "epochs=2", "lr=0.05", "batch=6", *MODEL_KEYS))
        assert code == 0
        assert Path(theta_o).read_bytes() == Path(again).read_bytes()

    def test_manifest_records_phases(self, pipeline, tmp_path):
        _, train_path, _, _ = pipeline
        code = run("train", "--data", train_path, "--out", str(tmp_path / "t.ltvt"),
                   *sets("seed=5", "epochs=2", "lr=0.05", "batch=6", *MODEL_KEYS))
        assert code == 0
        lines = (tmp_path / "manifests.jsonl").read_text().splitlines()
        manifest = [json.loads(line) for line in lines][-1]
        assert manifest["phases"]["train"]["steps"] == 4  # 12 images, batch 6, 2 epochs
        assert manifest["phases"]["train"]["seconds"] > 0.0

    def test_config_file_with_flag_override(self, pipeline, tmp_path):
        _, train_path, _, _ = pipeline
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed=5\nepochs=1\nlr=0.05\nbatch=6\n"
                       "patch_size=4\ndepth=1\nheads=2\ndim=8\nmlp_ratio=2\n# comment\n")
        out = tmp_path / "cfg.ltvt"
        code = run("train", "--config", str(cfg), "--data", train_path,
                   "--out", str(out), "--set", "epochs=2")
        assert code == 0
        lines = (tmp_path / "manifests.jsonl").read_text().splitlines()
        manifest = [json.loads(line) for line in lines][-1]
        assert manifest["config"]["epochs"] == 2  # flag wins over file


class TestCorruptInputs:
    """A corrupt input file is a runtime failure: exit 1, no traceback."""

    def test_invalid_utf8_checkpoint_name_exits_1(self, pipeline, tmp_path, capsys):
        _, train_path, test_path, theta_o = pipeline
        raw = bytearray(Path(theta_o).read_bytes())
        raw[14] = 0xFF  # first byte of the first entry name
        bad = tmp_path / "bad_name.ltvt"
        bad.write_bytes(bytes(raw))
        code = run("unlearn", "--method", "ga", "--data", train_path, "--test", test_path,
                   "--original", str(bad), "--out", str(tmp_path / "u.ltvt"),
                   *sets("seed=5", "lr=0.05", "batch=6"))
        assert code == 1
        err = capsys.readouterr().err
        assert "UTF-8" in err and "byte offset 14" in err

    @pytest.mark.parametrize("dims", HOSTILE_DIMS.values(), ids=HOSTILE_DIMS.keys())
    def test_hostile_checkpoint_dims_exit_1(self, pipeline, tmp_path, capsys, dims):
        _, train_path, test_path, _ = pipeline
        bad = tmp_path / "hostile.ltvt"
        write_raw_checkpoint(bad, [("w", dims, b"")])
        code = run("evaluate", "--data", train_path, "--test", test_path,
                   "--checkpoint", f"retrain={bad}", "--out", str(tmp_path / "r.csv"),
                   *sets("seed=5", "forget_ratio=0.25"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated file") and "Traceback" not in err

    def test_out_of_range_label_exits_1(self, pipeline, tmp_path, capsys):
        _, train_path, _, _ = pipeline
        ds = load_dataset(train_path)
        bad = tmp_path / "bad_label.ltds"
        bad.write_bytes(Path(train_path).read_bytes())
        write_label(bad, ds, index=0, label=ds.class_count)
        code = run("train", "--data", str(bad), "--out", str(tmp_path / "t.ltvt"),
                   *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS))
        assert code == 1
        assert f"label {ds.class_count}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_non_finite_pixel_exits_1_naming_offset(self, pipeline, tmp_path, capsys, command):
        _, train_path, _, theta_o = pipeline
        ds = load_dataset(train_path)
        pixels = ds.images.ravel().copy()
        pixels[3] = np.nan
        bad = tmp_path / "nan_pixel.ltds"
        n, channels, size, _ = ds.images.shape
        bad.write_bytes(raw_dataset((n, ds.class_count, size, channels), pixels, ds.labels))
        if command == "train":
            code = run("train", "--data", str(bad), "--out", str(tmp_path / "t.ltvt"),
                       *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS))
        else:
            code = run("evaluate", "--data", train_path, "--test", str(bad),
                       "--checkpoint", f"retrain={theta_o}", "--out", str(tmp_path / "r.csv"),
                       *sets("seed=5", "forget_ratio=0.25"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: pixel 3 is nan (byte offset 36)\n"


    @pytest.mark.parametrize("header, field", [((4, 1, 8, 1), "class_count"),
                                               ((4, 2, 0, 1), "image_size"),
                                               ((4, 2, 8, 0), "channels")])
    def test_bad_dataset_header_exits_1(self, tmp_path, capsys, header, field):
        n, _, size, channels = header
        bad = tmp_path / "header.ltds"
        bad.write_bytes(raw_dataset(header, np.zeros(n * channels * size * size), np.zeros(n)))
        code = run("train", "--data", str(bad), "--out", str(tmp_path / "t.ltvt"),
                   *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS))
        assert code == 1
        err = capsys.readouterr().err
        assert f"header field {field}" in err and "Traceback" not in err


def _head_bias_missing(arrays):
    del arrays["head.bias"]


def _head_bias_wrong_shape(arrays):
    arrays["head.bias"] = np.zeros(5)


def _heads_not_dividing_dim(arrays):
    arrays["__config__"][4] = 3.0  # heads=3 for dim=8


@pytest.mark.parametrize("command", ["evaluate", "sweep-mask", "unlearn"])
@pytest.mark.parametrize("corrupt", [_head_bias_missing, _head_bias_wrong_shape,
                                     _heads_not_dividing_dim])
def test_corrupt_model_checkpoint_exits_1(pipeline, tmp_path, capsys, command, corrupt):
    """A checksum-valid checkpoint with a missing, misshapen or invalid
    entry is a corrupt file: exit 1 naming the entry, no traceback."""
    _, train_path, test_path, theta_o = pipeline
    arrays = load_arrays(theta_o)
    corrupt(arrays)
    bad = str(tmp_path / "bad.ltvt")
    save_arrays(bad, arrays)
    data = ["--data", train_path, "--test", test_path]
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "evaluate": ["evaluate", *data, "--checkpoint", f"retrain={bad}", *out],
        "sweep-mask": ["sweep-mask", *data, "--checkpoint", bad, *out],
        "unlearn": ["unlearn", "--method", "ga", *data, "--original", bad, *out,
                    *sets("lr=0.05", "batch=6")],
    }[command]
    assert run(*argv, *sets("seed=5", "forget_ratio=0.25")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("head.bias" if corrupt is not _heads_not_dividing_dim else "__config__") in err


class TestUnlearn:
    def test_unknown_method_exits_2_listing_methods(self, pipeline, tmp_path, capsys):
        _, train_path, test_path, theta_o = pipeline
        with pytest.raises(SystemExit) as exc:
            run("unlearn", "--method", "bogus", "--data", train_path, "--test", test_path,
                "--original", theta_o, "--out", str(tmp_path / "u.ltvt"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in ("lethevit", "retrain", "ft", "ga", "rl"):
            assert name in err

    def test_missing_original_exits_2(self, pipeline, tmp_path, capsys):
        _, train_path, test_path, _ = pipeline
        code = run("unlearn", "--method", "lethevit", "--data", train_path,
                   "--test", test_path, "--out", str(tmp_path / "u.ltvt"),
                   *sets("seed=5", "lr=0.05", "batch=6"))
        assert code == 2
        assert "--original" in capsys.readouterr().err

    def test_noop_unlearn_preserves_checkpoint_bytes(self, pipeline, tmp_path):
        _, train_path, test_path, theta_o = pipeline
        out = tmp_path / "noop.ltvt"
        code = run("unlearn", "--method", "lethevit", "--data", train_path,
                   "--test", test_path, "--original", theta_o, "--out", str(out),
                   *sets("seed=5", "lr=0.05", "batch=6", "ef=0", "er=0"))
        assert code == 0
        assert Path(out).read_bytes() == Path(theta_o).read_bytes()

    def test_lethevit_records_phase_times(self, pipeline, tmp_path):
        _, train_path, test_path, theta_o = pipeline
        out = tmp_path / "leth.ltvt"
        code = run("unlearn", "--method", "lethevit", "--data", train_path,
                   "--test", test_path, "--original", theta_o, "--out", str(out),
                   *sets("seed=5", "lr=0.02", "batch=4", "ef=1", "er=1",
                         "forget_ratio=0.25", "ratio=0.25"))
        assert code == 0
        lines = (tmp_path / "manifests.jsonl").read_text().splitlines()
        manifest = [json.loads(line) for line in lines][-1]
        assert manifest["command"] == "unlearn"
        assert manifest["method"] == "lethevit"
        assert list(manifest["phases"]) == ["forget", "retain"]
        assert manifest["phases"]["forget"]["steps"] == 1  # 3 forget images, batch 4
        assert manifest["phases"]["forget"]["seconds"] > 0.0
        assert manifest["phases"]["retain"]["seconds"] > 0.0

    @pytest.mark.parametrize("pair,field", [
        ("lr=nan", "UnlearnConfig.learning_rate"),
        ("lr=inf", "UnlearnConfig.learning_rate"),
        ("momentum=inf", "UnlearnConfig.momentum"),
        ("weight_decay=nan", "UnlearnConfig.weight_decay"),
        ("tau=nan", "UnlearnConfig.temperature"),
        ("gaussian_std=nan", "MaskSpec.gaussian_std"),
    ])
    def test_non_finite_hyperparameter_exits_2_naming_it(self, pipeline, tmp_path, capsys,
                                                          pair, field):
        _, train_path, test_path, theta_o = pipeline
        code = run("unlearn", "--method", "lethevit", "--data", train_path,
                   "--test", test_path, "--original", theta_o,
                   "--out", str(tmp_path / "u.ltvt"),
                   *sets("seed=5", "lr=0.05", "batch=6", "forget_ratio=0.25", pair))
        assert code == 2
        value = pair.split("=")[1]
        assert capsys.readouterr().err == f"error: {field} must be finite, got {value}\n"
        assert not (tmp_path / "u.ltvt").exists()

    def test_temperature_whose_reciprocal_overflows_exits_2_naming_it(self, pipeline, tmp_path,
                                                                       capsys):
        """tau=1e-310 is positive and finite, but 1 / tau is Inf: a usage
        error before any step, with no warning printed and no output."""
        _, train_path, test_path, theta_o = pipeline
        code = run("unlearn", "--method", "lethevit", "--data", train_path,
                   "--test", test_path, "--original", theta_o,
                   "--out", str(tmp_path / "u.ltvt"),
                   *sets("seed=5", "lr=0.05", "batch=6", "forget_ratio=0.25", "tau=1e-310"))
        assert code == 2
        assert capsys.readouterr().err == ("error: UnlearnConfig.temperature must have a "
                                           "finite reciprocal, got 1e-310\n")
        assert not (tmp_path / "u.ltvt").exists()

    @pytest.mark.parametrize("command", ["train", "unlearn"])
    @pytest.mark.parametrize("pair", ["momentum=-0.5", "momentum=-3", "weight_decay=-0.1"])
    def test_negative_sgd_extra_exits_2_naming_it(self, pipeline, tmp_path, capsys, command,
                                                  pair):
        _, train_path, test_path, theta_o = pipeline
        out = tmp_path / "m.ltvt"
        if command == "train":
            argv = ["train", "--data", train_path, *sets("epochs=1", *MODEL_KEYS)]
        else:
            argv = ["unlearn", "--method", "lethevit", "--data", train_path, "--test",
                    test_path, "--original", theta_o, *sets("forget_ratio=0.25")]
        code = run(*argv, "--out", str(out), *sets("seed=5", "lr=0.05", "batch=6", pair))
        assert code == 2
        key, value = pair.split("=")
        config = "TrainConfig" if command == "train" else "UnlearnConfig"
        assert capsys.readouterr().err == (f"error: {config}.{key} must be >= 0, "
                                           f"got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("method,phase", [
        ("retrain", "train"), ("ft", "fine_tune"), ("ga", "gradient_ascent"),
        ("rl", "random_labels"),
    ])
    def test_every_method_records_phases(self, pipeline, tmp_path, method, phase):
        _, train_path, test_path, theta_o = pipeline
        original = [] if method == "retrain" else ["--original", theta_o]
        code = run("unlearn", "--method", method, "--data", train_path, "--test", test_path,
                   *original, "--out", str(tmp_path / "u.ltvt"),
                   *sets("seed=5", "epochs=1", "lr=0.02", "batch=4", "ef=1", "er=1",
                         "forget_ratio=0.25", "ratio=0.25", *MODEL_KEYS))
        assert code == 0
        lines = (tmp_path / "manifests.jsonl").read_text().splitlines()
        manifest = [json.loads(line) for line in lines][-1]
        assert list(manifest["phases"]) == [phase]
        assert set(manifest["phases"][phase]) == {"seconds", "steps"}
        assert manifest["phases"][phase]["steps"] >= 1
        assert manifest["phases"][phase]["seconds"] > 0.0

    def test_retrain_without_epochs_exits_2_naming_it(self, pipeline, tmp_path, capsys):
        _, train_path, test_path, _ = pipeline
        code = run("unlearn", "--method", "retrain", "--data", train_path,
                   "--test", test_path, "--out", str(tmp_path / "r.ltvt"),
                   *sets("seed=5", "lr=0.05", "batch=6", "forget_ratio=0.25", *MODEL_KEYS))
        assert code == 2
        assert capsys.readouterr().err == "error: missing config key: epochs\n"

    def test_retrain_method_needs_no_original(self, pipeline, tmp_path):
        _, train_path, test_path, _ = pipeline
        out = tmp_path / "retrain.ltvt"
        code = run("unlearn", "--method", "retrain", "--data", train_path,
                   "--test", test_path, "--out", str(out),
                   *sets("seed=5", "epochs=1", "lr=0.05", "batch=6",
                         "forget_ratio=0.25", *MODEL_KEYS))
        assert code == 0
        assert os.path.exists(out)


@pytest.fixture(scope="module")
def checkpoints(pipeline, tmp_path_factory):
    root, train_path, test_path, theta_o = pipeline
    out_dir = tmp_path_factory.mktemp("eval")
    retrain_path = str(out_dir / "retrain.ltvt")
    assert run("unlearn", "--method", "retrain", "--data", train_path,
               "--test", test_path, "--out", retrain_path,
               *sets("seed=5", "epochs=1", "lr=0.05", "batch=6",
                     "forget_ratio=0.25", *MODEL_KEYS)) == 0
    ft_path = str(out_dir / "ft.ltvt")
    assert run("unlearn", "--method", "ft", "--data", train_path,
               "--test", test_path, "--original", theta_o, "--out", ft_path,
               *sets("seed=5", "lr=0.02", "batch=6", "er=1",
                     "forget_ratio=0.25")) == 0
    return out_dir, train_path, test_path, retrain_path, ft_path


class TestEvaluate:
    def test_report_csv_contract(self, checkpoints):
        out_dir, train_path, test_path, retrain_path, ft_path = checkpoints
        report = out_dir / "report.csv"
        code = run("evaluate", "--data", train_path, "--test", test_path,
                   "--checkpoint", f"ft={ft_path}", "--checkpoint", f"retrain={retrain_path}",
                   "--out", str(report), *sets("seed=5", "forget_ratio=0.25"))
        assert code == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "method,seed,fa,ra,ta,mia,dfa,dra,dta,dmia,ag"
        assert lines[1].startswith("retrain,5,")  # Retrain row first
        retrain_row = lines[1].split(",")
        assert retrain_row[6:] == ["0.00", "0.00", "0.00", "0.00", "0.00"]
        assert lines[2].startswith("ft,5,")

    def test_rerun_is_byte_identical(self, checkpoints):
        out_dir, train_path, test_path, retrain_path, ft_path = checkpoints
        a, b = out_dir / "a.csv", out_dir / "b.csv"
        for target in (a, b):
            assert run("evaluate", "--data", train_path, "--test", test_path,
                       "--checkpoint", f"retrain={retrain_path}",
                       "--checkpoint", f"ft={ft_path}",
                       "--out", str(target), *sets("seed=5", "forget_ratio=0.25")) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_requires_retrain_reference(self, checkpoints, capsys):
        out_dir, train_path, test_path, retrain_path, ft_path = checkpoints
        code = run("evaluate", "--data", train_path, "--test", test_path,
                   "--checkpoint", f"ft={ft_path}",
                   "--out", str(out_dir / "no.csv"), *sets("seed=5", "forget_ratio=0.25"))
        assert code == 2
        assert "retrain" in capsys.readouterr().err


    @pytest.mark.parametrize("names, bad", [
        (["ft", "ft"], "'ft' is given twice"),
        (["", "ft"], "name '' must be non-empty"),
        (["a,b"], "name 'a,b' must be non-empty"),
        (["a\nb"], "name 'a\\nb' must be non-empty"),
        (['"x'], """name '"x' must be non-empty, without ',', '"' or a line break"""),
        (['a"b'], """name 'a"b' must be non-empty"""),
    ], ids=["duplicate", "empty", "comma", "line-break", "leading-quote", "inner-quote"])
    def test_bad_checkpoint_name_exits_2_naming_it(self, checkpoints, capsys, names, bad):
        """Each name is one CSV field and one row: a repeated, empty or
        multi-field name is a usage error before any checkpoint loads."""
        out_dir, train_path, test_path, retrain_path, ft_path = checkpoints
        named = [arg for name in names for arg in ("--checkpoint", f"{name}={ft_path}")]
        out = out_dir / "bad_name.csv"
        code = run("evaluate", "--data", train_path, "--test", test_path,
                   "--checkpoint", f"retrain={retrain_path}", *named,
                   "--out", str(out), *sets("seed=5", "forget_ratio=0.25"))
        assert code == 2
        assert bad in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "unlearn"])
@pytest.mark.parametrize("forget_ratio, count", [("0.01", 0), ("0.9999999999999", 12)],
                         ids=["empty-forget", "empty-retain"])
def test_empty_forget_or_retain_set_exits_2(checkpoints, tmp_path, capsys, command,
                                            forget_ratio, count):
    """floor(forget_ratio * n) of 0 or n leaves nothing to forget or to
    retain: a usage error naming the ratio, before any work."""
    _, train_path, test_path, retrain_path, _ = checkpoints
    out = tmp_path / "out"
    data = ["--data", train_path, "--test", test_path, "--out", str(out)]
    argv = {"evaluate": ["evaluate", *data, "--checkpoint", f"retrain={retrain_path}"],
            "unlearn": ["unlearn", "--method", "ft", *data, "--original", retrain_path,
                        *sets("lr=0.05", "batch=6")]}[command]
    assert run(*argv, *sets("seed=5", f"forget_ratio={forget_ratio}")) == 2
    assert capsys.readouterr().err == (
        f"error: forget_ratio {forget_ratio} selects {count} of 12 training images; "
        "the forget and retain sets must both be non-empty\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def misfits(pipeline, tmp_path_factory):
    """Datasets the pipeline's 2-class, 8-px, 1-channel model does not fit,
    and a 3-class model that the pipeline's data does not fit."""
    root = tmp_path_factory.mktemp("misfit")
    data = {}
    for name, keys in (("classes", ["classes=3"]), ("size", ["image_size=12"]),
                       ("channels", ["channels=3"])):
        assert run("gen-data", "--out-dir", str(root / name),
                   *sets("seed=5", *TINY_KEYS, *keys)) == 0
        data[name] = (str(root / name / "train.ltds"), str(root / name / "test.ltds"))
    three_class = str(root / "three_class.ltvt")
    assert run("train", "--data", data["classes"][0], "--out", three_class,
               *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS)) == 0
    return data, three_class


@pytest.mark.parametrize("case", ["unlearn-lethevit", "unlearn-ft", "evaluate-classes",
                                  "evaluate-channels", "sweep-mask"])
def test_checkpoint_not_fitting_dataset_exits_2(pipeline, misfits, tmp_path, capsys, case):
    """A checkpoint whose image size, channel count or class count differs
    from the training set's is a usage error naming the path, the field
    and both values, before any training or forward (no output)."""
    _, train_path, test_path, theta_o = pipeline
    data, three_class = misfits
    out = tmp_path / "out"
    lr = sets("lr=0.05", "batch=6", "er=0")
    argv, dataset, path, field, model_value, data_value = {
        "unlearn-lethevit": (["unlearn", "--method", "lethevit", "--original", theta_o, *lr],
                             data["classes"], theta_o, "num_classes", 2, 3),
        "unlearn-ft": (["unlearn", "--method", "ft", "--original", theta_o, *lr],
                       data["classes"], theta_o, "num_classes", 2, 3),
        "evaluate-classes": (["evaluate", "--checkpoint", f"retrain={three_class}"],
                             (train_path, test_path), three_class, "num_classes", 3, 2),
        "evaluate-channels": (["evaluate", "--checkpoint", f"retrain={theta_o}"],
                              data["channels"], theta_o, "channels", 1, 3),
        "sweep-mask": (["sweep-mask", "--checkpoint", theta_o],
                       data["size"], theta_o, "image_size", 8, 12),
    }[case]
    code = run(*argv, "--data", dataset[0], "--test", dataset[1], "--out", str(out),
               *sets("seed=5", "forget_ratio=0.25"))
    assert code == 2
    assert capsys.readouterr().err == (f"error: checkpoint {path} has {field} {model_value}, "
                                       f"but the training set has {data_value}\n")
    assert not out.exists()


@pytest.mark.parametrize("case, misfit, field, test_value, train_value", [
    ("evaluate", "classes", "num_classes", 3, 2),
    ("evaluate", "size", "image_size", 12, 8),
    ("sweep-mask", "size", "image_size", 12, 8),
    ("unlearn-ft", "classes", "num_classes", 3, 2),
    ("unlearn-lethevit", "size", "image_size", 12, 8),
    ("unlearn-retrain", "channels", "channels", 3, 1),
])
def test_test_set_not_fitting_training_set_exits_2(pipeline, misfits, tmp_path, capsys, case,
                                                   misfit, field, test_value, train_value):
    """A --test set whose image size, channel count or class count differs
    from the training set's is a usage error naming the path, the field
    and both values, before any training or forward (no output)."""
    _, train_path, _, theta_o = pipeline
    test_path = misfits[0][misfit][1]
    out = tmp_path / "out"
    sgd = sets("lr=0.05", "batch=6", "er=1")
    argv = {
        "evaluate": ["evaluate", "--checkpoint", f"retrain={theta_o}"],
        "sweep-mask": ["sweep-mask", "--checkpoint", theta_o],
        "unlearn-ft": ["unlearn", "--method", "ft", "--original", theta_o, *sgd],
        "unlearn-lethevit": ["unlearn", "--method", "lethevit", "--original", theta_o, *sgd],
        "unlearn-retrain": ["unlearn", "--method", "retrain", *sgd,
                            *sets("epochs=1", *MODEL_KEYS)],
    }[case]
    code = run(*argv, "--data", train_path, "--test", test_path, "--out", str(out),
               *sets("seed=5", "forget_ratio=0.25"))
    assert code == 2
    assert capsys.readouterr().err == (f"error: test set {test_path} has {field} {test_value}, "
                                       f"but the training set has {train_value}\n")
    assert not out.exists()


def test_evaluate_checks_every_checkpoint_before_any_forward(pipeline, checkpoints, misfits,
                                                              tmp_path, capsys, monkeypatch):
    _, train_path, test_path, theta_o = pipeline
    _, _, _, retrain_path, _ = checkpoints
    _, three_class = misfits
    evaluated = []
    monkeypatch.setattr("lethevit.evaluation.forward_chunks",
                        lambda *args, **kwargs: evaluated.append(args))
    code = run("evaluate", "--data", train_path, "--test", test_path,
               "--checkpoint", f"retrain={retrain_path}", "--checkpoint", f"big={three_class}",
               "--out", str(tmp_path / "r.csv"), *sets("seed=5", "forget_ratio=0.25"))
    assert code == 2
    assert three_class in capsys.readouterr().err
    assert evaluated == []


def test_split_seed_below_minus_one_exits_2(pipeline, tmp_path, capsys):
    """Only -1 means "use seed"; another negative split seed is an error."""
    _, train_path, test_path, theta_o = pipeline
    code = run("sweep-mask", "--data", train_path, "--test", test_path,
               "--checkpoint", theta_o, "--out", str(tmp_path / "s.csv"),
               *sets("seed=5", "forget_ratio=0.25", "split_seed=-5"))
    assert code == 2
    assert capsys.readouterr().err == "error: split_seed must be >= 0, or -1 for seed, got -5\n"


class TestSweepMask:
    @pytest.mark.parametrize("key", ["ratios", "types"])
    def test_empty_grid_exits_2_naming_key(self, pipeline, tmp_path, capsys, key):
        _, train_path, test_path, theta_o = pipeline
        out = tmp_path / "sweep.csv"
        code = run("sweep-mask", "--data", train_path, "--test", test_path,
                   "--checkpoint", theta_o, "--out", str(out),
                   *sets("seed=5", "forget_ratio=0.25", f"{key}=,"))
        assert code == 2
        assert capsys.readouterr().err == f"error: config key {key} lists no value, got ','\n"
        assert not out.exists()

    def test_csv_header_and_rows(self, pipeline, tmp_path):
        _, train_path, test_path, theta_o = pipeline
        out = tmp_path / "sweep.csv"
        code = run("sweep-mask", "--data", train_path, "--test", test_path,
                   "--checkpoint", theta_o, "--out", str(out),
                   *sets("seed=5", "forget_ratio=0.25",
                         "ratios=0,0.25,0.5,0.75,1.0", "types=zero,gaussian"))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ratio,mask_type,ta,mia"
        assert len(lines) == 11  # 5 ratios x 2 types + header

    def test_ratio_zero_rows_identical_across_types(self, pipeline, tmp_path):
        _, train_path, test_path, theta_o = pipeline
        out = tmp_path / "sweep0.csv"
        assert run("sweep-mask", "--data", train_path, "--test", test_path,
                   "--checkpoint", theta_o, "--out", str(out),
                   *sets("seed=5", "forget_ratio=0.25", "ratios=0", "types=zero,gaussian")) == 0
        lines = out.read_text().strip().split("\n")
        zero_vals = lines[1].split(",")[2:]
        gauss_vals = lines[2].split(",")[2:]
        assert zero_vals == gauss_vals


def test_every_manifest_records_environment(pipeline, checkpoints, tmp_path):
    """Checkpoint bytes depend on the BLAS thread count, so every
    command's manifest records versions, BLAS and thread settings, the
    OpenBLAS thread count and kernel after `main`'s pin, and the heap
    policy and forward-pool size the command ran under."""
    _, train_path, test_path, theta_o = pipeline
    _, _, _, retrain_path, _ = checkpoints
    data = ["--data", train_path, "--test", test_path]
    split = sets("seed=5", "forget_ratio=0.25")
    assert run("gen-data", "--out-dir", str(tmp_path), *sets("seed=5", *TINY_KEYS)) == 0
    assert run("train", "--data", train_path, "--out", str(tmp_path / "t.ltvt"),
               *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS)) == 0
    assert run("unlearn", "--method", "ga", *data, "--original", theta_o,
               "--out", str(tmp_path / "u.ltvt"), *split, *sets("lr=0.05", "batch=6")) == 0
    assert run("evaluate", *data, "--checkpoint", f"retrain={retrain_path}",
               "--out", str(tmp_path / "r.csv"), *split) == 0
    assert run("sweep-mask", *data, "--checkpoint", retrain_path,
               "--out", str(tmp_path / "s.csv"), *split, *sets("ratios=0.25")) == 0
    entries = [json.loads(line) for line in (tmp_path / "manifests.jsonl").read_text().splitlines()]
    assert [e["command"] for e in entries] == [
        "gen-data", "train", "unlearn", "evaluate", "sweep-mask"]
    for entry in entries:
        env = entry["env"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "threads", "heap",
                            "pool_workers"}
        assert env["numpy"] == np.__version__
        assert env["heap"] == keep_heap()  # the settings, or None off glibc
        assert env["pool_workers"] == pool_size() >= 1
        assert set(env["blas"]) == {"name", "version", "threads", "core"}
        pinned = blas_threads() or {"threads": None, "core": None}
        assert {key: env["blas"][key] for key in pinned} == pinned
        assert env["blas"]["threads"] in (1, None)  # `main` pins one thread
        assert set(env["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def test_every_manifest_records_its_inputs(pipeline, checkpoints, tmp_path):
    """`inputs` holds the sha256 of exactly the files a command read."""
    _, train_path, test_path, theta_o = pipeline
    _, _, _, retrain_path, ft_path = checkpoints
    data = ["--data", train_path, "--test", test_path]
    split = sets("seed=5", "forget_ratio=0.25")
    assert run("gen-data", "--out-dir", str(tmp_path), *sets("seed=5", *TINY_KEYS)) == 0
    assert run("train", "--data", train_path, "--out", str(tmp_path / "t.ltvt"),
               *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS)) == 0
    assert run("unlearn", "--method", "retrain", *data, "--out", str(tmp_path / "r.ltvt"),
               *split, *sets("epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS)) == 0
    assert run("unlearn", "--method", "ga", *data, "--original", theta_o,
               "--out", str(tmp_path / "u.ltvt"), *split, *sets("lr=0.05", "batch=6")) == 0
    assert run("evaluate", *data, "--checkpoint", f"retrain={retrain_path}",
               "--checkpoint", f"ft={ft_path}", "--out", str(tmp_path / "e.csv"), *split) == 0
    assert run("sweep-mask", *data, "--checkpoint", retrain_path,
               "--out", str(tmp_path / "s.csv"), *split, *sets("ratios=0.25")) == 0
    entries = [json.loads(line) for line in (tmp_path / "manifests.jsonl").read_text().splitlines()]
    assert [set(e["inputs"]) for e in entries] == [
        set(), {train_path}, {train_path, test_path}, {train_path, test_path, theta_o},
        {train_path, test_path, retrain_path, ft_path}, {train_path, test_path, retrain_path}]
    for entry in entries:
        for path, digest in entry["inputs"].items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()


# each subcommand's required arguments as (flag, value) pairs
REQUIRED = {
    "gen-data": [("--out-dir", "d")],
    "train": [("--data", "a"), ("--out", "b")],
    "unlearn": [("--method", "ga"), ("--data", "a"), ("--test", "b"), ("--out", "c")],
    "evaluate": [("--data", "a"), ("--test", "b"), ("--checkpoint", "retrain=r"),
                 ("--out", "c")],
    "sweep-mask": [("--data", "a"), ("--test", "b"), ("--checkpoint", "r"), ("--out", "c")],
    "report": [("--manifests", "m")],
}
OPTIONAL = {"unlearn": {"--original"}, "report": {"--out"}}


@pytest.mark.parametrize("command", REQUIRED)
def test_parser_flags_per_subcommand(command, capsys):
    """Each subcommand takes exactly its flags: leaving out any required one
    is a usage error (exit 2), and only `report` takes no --config/--set."""
    parser = build_parser()
    required = REQUIRED[command]
    for left_out in range(len(required)):
        argv = [part for i, pair in enumerate(required) if i != left_out for part in pair]
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, *argv])
        assert exc.value.code == 2
        assert required[left_out][0] in capsys.readouterr().err
    argv = [command, *(part for pair in required for part in pair)]
    config = ["--config", "c.cfg", "--set", "seed=1"]
    takes_config = command != "report"
    if takes_config:
        args = parser.parse_args([*argv, *config])
        assert (args.config, args.set) == ("c.cfg", ["seed=1"])
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, *config])
        assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert flags == ({flag for flag, _ in required} | OPTIONAL.get(command, set())
                     | ({"--config", "--set"} if takes_config else set()))


class TestReport:
    def test_summarizes_manifests(self, pipeline, capsys):
        root, train_path, _, _ = pipeline
        code = run("report", "--manifests", os.path.dirname(train_path))
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("command,method,seed,duration_seconds,outputs")
        assert "gen-data" in out

    def test_fields_holding_separators_are_quoted(self, tmp_path):
        path = tmp_path / "manifests.jsonl"
        path.write_text('{"command": "a,b\\nc", "seed": 1}\n'
                        '{"command": "train", "method": "say \\"hi\\"", "seed": 2,'
                        ' "duration_seconds": 0.5, "outputs": {"x.ltvt": "0"}}\n')
        out = tmp_path / "report.csv"
        assert run("report", "--manifests", str(tmp_path), "--out", str(out)) == 0
        assert out.read_bytes().split(b"\n", 1)[1] == (
            b'"a,b\nc",,1,0.00,\ntrain,"say ""hi""",2,0.50,x.ltvt\n')
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[1:] == [["a,b\nc", "", "1", "0.00", ""],
                            ["train", 'say "hi"', "2", "0.50", "x.ltvt"]]

    @pytest.mark.parametrize("bad_line", [
        b"{not json", b"[1, 2]", b'"text"', b"\xff\xfe", b'{"duration_seconds": "slow"}',
        b'{"outputs": 3}', b'{"duration_seconds": 1' + b"0" * 400 + b"}", b"[" * 100_000,
        b'{"outputs": "m.ltvt"}', b'{"outputs": ["m.ltvt"]}', b'{"duration_seconds": true}',
        b'{"duration_seconds": NaN}', b'{"duration_seconds": Infinity}',
        b'{"duration_seconds": -Infinity}', b'{"duration_seconds": -5}',
        b'{"duration_seconds": -0.0}',
    ], ids=["not-json", "array", "string", "bad-utf8", "text-duration", "number-outputs",
            "duration-beyond-float", "nested-too-deeply", "string-outputs", "array-outputs",
            "boolean-duration", "nan-duration", "infinite-duration",
            "negative-infinite-duration", "negative-duration", "negative-zero-duration"])
    def test_malformed_line_exits_1_naming_it(self, tmp_path, capsys, bad_line):
        good = b'{"command": "train", "seed": 1, "duration_seconds": 0.5, "outputs": {}}\n'
        path = tmp_path / "manifests.jsonl"
        path.write_bytes(good + bad_line + b"\n" + good)
        code = run("report", "--manifests", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{path}:2:" in err and f"byte offset {len(good)}" in err


def _readme_config_rows():
    """(keys, commands, defaults) of each row of README's config-key table."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("### Config keys", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        keys, commands, _, defaults = (cell.strip() for cell in line.strip("|").split("|"))
        keys = re.findall(r"`(\w+)`", keys)
        defaults = [re.sub(r" \(.*\)$", "", d).strip("`") for d in defaults.split(" / ")]
        rows.append((keys, {c.strip() for c in commands.split(",")},
                     defaults * len(keys) if len(defaults) == 1 else defaults))
    return rows


def test_readme_config_table_matches_commands():
    """Each key of `_KEY_SPECS` is in one row of README's table, with the
    commands whose key sets hold it and its default. `unlearn` counts
    with both key sets: `retrain` names the keys only `unlearn --method
    retrain` reads."""
    key_sets = {name: command.keys for name, command in _COMMANDS.items()
                if isinstance(command.keys, dict)}
    key_sets["unlearn"] = _COMMANDS["unlearn"].keys(Namespace(method="ft"))
    key_sets["retrain"] = {key: spec for key, spec in _COMMANDS["unlearn"].keys(
        Namespace(method="retrain")).items() if key not in key_sets["unlearn"]}
    rows = _readme_config_rows()
    listed = [key for keys, _, _ in rows for key in keys]
    assert sorted(listed) == sorted(_KEY_SPECS)
    for keys, commands, defaults in rows:
        assert len(defaults) == len(keys), keys
        for key, default in zip(keys, defaults):
            assert commands == {name for name, held in key_sets.items() if key in held}, key
            want = _KEY_SPECS[key][1]
            assert default == ("required" if want is None else str(want)), key


class TestWriteDiscipline:
    def test_writes_stay_in_output_directory(self, tmp_path, monkeypatch):
        """All artifacts land under the declared output directory."""
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "only_here"
        assert run("gen-data", "--out-dir", str(out_dir), *sets("seed=3", *TINY_KEYS)) == 0
        produced = {p.name for p in tmp_path.iterdir()}
        assert produced == {"only_here"}


# `lethevit.cli.main(argv[3:])` in a child process, under the `resource`
# limit named argv[1] ("none" for no limit) at argv[2] bytes, with SIGXFSZ
# ignored so that writing past RLIMIT_FSIZE fails with EFBIG; it prints
# "training" as `train_model` starts and each SGD phase's name as that
# phase starts in this process (a gradient helper runs the phases too),
# and reports on stderr a child process the command left
_CHILD = """
import os, resource, signal, sys
if sys.argv[1] != "none":
    limit = getattr(resource, sys.argv[1])
    resource.setrlimit(limit, (int(sys.argv[2]), int(sys.argv[2])))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
from lethevit import cli, unlearning
train_model = unlearning.train_model
sgd_phase = unlearning._sgd_phase
me = os.getpid()

def announced(*args, **kwargs):
    print("training", flush=True)
    return train_model(*args, **kwargs)

def announced_phase(params, batches, config, phase, *args, **kwargs):
    if os.getpid() == me:
        print(phase, flush=True)
    return sgd_phase(params, batches, config, phase, *args, **kwargs)

unlearning.train_model = announced
unlearning._sgd_phase = announced_phase
code = cli.main(sys.argv[3:])
try:
    print(f"child process left behind: {os.waitpid(-1, os.WNOHANG)}", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""


# `lethevit.cli.main(argv[1:])` in a child process that sees two CPUs; it
# prints "helper" after each fork and "forward" as each forward of this
# process in `masking` or `unlearning` starts, which then sleeps for a
# minute, and reports on stderr a child process the command left
_SLOW_FORWARD_CHILD = """
import os, sys, time
from lethevit import cli, masking, unlearning
fork, forward, me = os.fork, masking.forward, os.getpid()

def announced_fork():
    pid = fork()
    if pid:
        print("helper", flush=True)
    return pid

def slow(*args, **kwargs):
    if os.getpid() == me:
        print("forward", flush=True)
        time.sleep(60)
    return forward(*args, **kwargs)

os.fork, masking.forward, unlearning.forward = announced_fork, slow, slow
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(sys.argv[1:])
try:
    print(f"child process left behind: {os.waitpid(-1, os.WNOHANG)}", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(code)
"""


def start_child(limit, size, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.Popen([sys.executable, "-c", _CHILD, limit, str(size), *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def run_child(limit, size, *argv):
    """(exit code, stderr) of the CLI run in a child process under the limit."""
    with start_child(limit, size, *argv) as child:
        try:
            _, err = child.communicate(timeout=120)
        finally:
            child.kill()
    return child.returncode, err


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestOutputsReplaceTarget:
    """An output that fails part-way, here past a 4,096-byte RLIMIT_FSIZE,
    leaves its previous target byte for byte and no temporary file."""

    LIMIT = ("RLIMIT_FSIZE", 4096)

    def _assert_untouched(self, directory, before, target):
        assert {p.name for p in directory.iterdir()} == set(before)
        assert target.stat().st_size > self.LIMIT[1]
        assert _sha256(target) == before[target.name]

    def test_checkpoint(self, pipeline, tmp_path):
        _, train_path, _, _ = pipeline
        out = tmp_path / "m.ltvt"
        keys = sets("epochs=1", "lr=0.05", "batch=6")  # the default architecture: > 4096 bytes
        assert run("train", "--data", train_path, "--out", str(out), *sets("seed=1"), *keys) == 0
        before = {p.name: _sha256(p) for p in tmp_path.iterdir()}
        code, err = run_child(*self.LIMIT, "train", "--data", train_path, "--out", str(out),
                              *sets("seed=2"), *keys)
        assert (code, err) == (1, "error: [Errno 27] File too large\n")
        self._assert_untouched(tmp_path, before, out)

    def test_dataset(self, tmp_path):
        keys = sets(*TINY_KEYS, "per_class=20")  # 40 images of 8x8: > 4096 bytes
        assert run("gen-data", "--out-dir", str(tmp_path), *sets("seed=1"), *keys) == 0
        before = {p.name: _sha256(p) for p in tmp_path.iterdir()}
        code, err = run_child(*self.LIMIT, "gen-data", "--out-dir", str(tmp_path),
                              *sets("seed=2"), *keys)
        assert (code, err) == (1, "error: [Errno 27] File too large\n")
        self._assert_untouched(tmp_path, before, tmp_path / "train.ltds")

    def test_csv(self, tmp_path):
        manifests = tmp_path / "manifests.jsonl"
        line = '{{"command": "train", "seed": {}, "duration_seconds": 0.5, "outputs": {{}}}}\n'
        manifests.write_text(line.format(1) * 300)
        out = tmp_path / "out" / "report.csv"
        out.parent.mkdir()
        assert run("report", "--manifests", str(manifests), "--out", str(out)) == 0
        manifests.write_text(line.format(2) * 300)
        before = {p.name: _sha256(p) for p in out.parent.iterdir()}
        code, err = run_child(*self.LIMIT, "report", "--manifests", str(manifests),
                              "--out", str(out))
        assert (code, err) == (1, "error: [Errno 27] File too large\n")
        self._assert_untouched(out.parent, before, out)

    def test_manifest_append(self, pipeline, tmp_path):
        """The checkpoint fits under the limit and is replaced; the manifest
        line would carry `manifests.jsonl` past it, so the file keeps its
        old bytes and `report` still reads every line."""
        _, train_path, _, _ = pipeline
        manifests = tmp_path / "manifests.jsonl"
        line = '{{"command": "train", "seed": {}, "duration_seconds": 0.5, "outputs": {{}}}}\n'
        manifests.write_text(line.format(1) * (3900 // len(line.format(1))))
        before = _sha256(manifests)
        out = tmp_path / "m.ltvt"
        code, err = run_child(*self.LIMIT, "train", "--data", train_path, "--out", str(out),
                              *sets("seed=2", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS))
        assert (code, err) == (1, "error: [Errno 27] File too large\n")
        assert out.stat().st_size < self.LIMIT[1]  # the checkpoint fit and was replaced
        assert {p.name for p in tmp_path.iterdir()} == {"manifests.jsonl", "m.ltvt"}
        assert _sha256(manifests) == before
        assert run("report", "--manifests", str(manifests),
                   "--out", str(tmp_path / "report.csv")) == 0

    def test_sigint_during_train_exits_130(self, pipeline, tmp_path):
        """SIGINT once the train phase has started, while or after its
        gradient helper forks: the command kills and reaps the helper,
        writes nothing and exits 130."""
        _, train_path, _, _ = pipeline
        with start_child("none", 0, "train", "--data", train_path,
                         "--out", str(tmp_path / "m.ltvt"),
                         *sets("seed=1", "epochs=100000", "lr=0.05", "batch=6",
                               *MODEL_KEYS)) as child:
            try:
                assert select.select([child.stdout], [], [], 60)[0], "training never started"
                assert child.stdout.readline() == "training\n"
                assert child.stdout.readline() == "train\n"
                child.send_signal(signal.SIGINT)
                _, err = child.communicate(timeout=60)
            finally:
                child.kill()
        assert (child.returncode, err) == (130, "error: interrupted\n")
        assert list(tmp_path.iterdir()) == []

    def test_sigint_during_lethevit_forget_phase_exits_130(self, pipeline, tmp_path):
        """SIGINT once the forget phase has started, while or after its
        gradient helper forks: the command kills and reaps the helper,
        writes nothing and exits 130."""
        _, train_path, test_path, theta_o = pipeline
        with start_child("none", 0, "unlearn", "--method", "lethevit", "--data", train_path,
                         "--test", test_path, "--original", theta_o,
                         "--out", str(tmp_path / "m.ltvt"),
                         *sets("seed=1", "lr=0.05", "batch=6", "ef=20000", "er=0",
                               "forget_ratio=0.25")) as child:
            try:
                assert select.select([child.stdout], [], [], 60)[0], "unlearning never started"
                assert child.stdout.readline() == "forget\n"
                child.send_signal(signal.SIGINT)
                _, err = child.communicate(timeout=60)
            finally:
                child.kill()
        assert (child.returncode, err) == (130, "error: interrupted\n")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _interrupt_the_first_forward(tmp_path, *argv):
        """Run the CLI in `_SLOW_FORWARD_CHILD`, send SIGINT once a helper
        has forked and this process's first forward sleeps, and check
        that the command kills and reaps the helper, writes nothing and
        exits 130."""
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        with subprocess.Popen([sys.executable, "-c", _SLOW_FORWARD_CHILD, *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
            try:
                assert select.select([child.stdout], [], [], 60)[0], "the command never started"
                assert child.stdout.readline() == "helper\n"
                assert child.stdout.readline() == "forward\n"
                child.send_signal(signal.SIGINT)
                _, err = child.communicate(timeout=60)
            finally:
                child.kill()
        assert (child.returncode, err) == (130, "error: interrupted\n")
        assert list(tmp_path.iterdir()) == []

    def test_sigint_during_evaluate_exits_130(self, checkpoints, tmp_path):
        """SIGINT while `evaluate`'s forward helper runs."""
        _, train_path, test_path, retrain_path, ft_path = checkpoints
        self._interrupt_the_first_forward(
            tmp_path, "evaluate", "--data", train_path, "--test", test_path,
            "--checkpoint", f"retrain={retrain_path}", "--checkpoint", f"ft={ft_path}",
            "--out", str(tmp_path / "r.csv"), *sets("seed=5", "forget_ratio=0.25"))

    def test_sigint_during_lethevit_capture_pass_exits_130(self, pipeline, tmp_path):
        """SIGINT in the teacher's capture pass, in its first chunk here
        while the call's one helper computes the second (3 forget images
        in chunks of 2)."""
        _, train_path, test_path, theta_o = pipeline
        self._interrupt_the_first_forward(
            tmp_path, "unlearn", "--method", "lethevit", "--data", train_path,
            "--test", test_path, "--original", theta_o, "--out", str(tmp_path / "m.ltvt"),
            *sets("seed=1", "lr=0.05", "batch=2", "ef=1", "er=1", "forget_ratio=0.25"))

    def test_output_gets_plain_open_permissions(self, tmp_path):
        """0666 less the umask, as `open` gives, not `mkstemp`'s 0600."""
        umask = os.umask(0o022)
        os.umask(umask)
        assert run("gen-data", "--out-dir", str(tmp_path), *sets("seed=1", *TINY_KEYS)) == 0
        assert (tmp_path / "train.ltds").stat().st_mode & 0o777 == 0o666 & ~umask


class TestUnallocatableModel:
    """A model whose parameters cannot be allocated, here under a 3 GB
    RLIMIT_AS, is a usage error naming its size."""

    @pytest.mark.parametrize("command,key", [
        (["train"], "dim=60000"), (["unlearn", "--method", "retrain"], "mlp_ratio=100000000"),
    ], ids=["train-dim", "retrain-mlp_ratio"])
    def test_exits_2_naming_its_bytes(self, pipeline, tmp_path, command, key):
        _, train_path, test_path, _ = pipeline
        test = ["--test", test_path] if command[0] == "unlearn" else []
        code, err = run_child("RLIMIT_AS", 3 * 10**9, *command, "--data", train_path, *test,
                              "--out", str(tmp_path / "m.ltvt"),
                              *sets("seed=1", "epochs=1", "lr=0.05", "batch=6", key))
        name, value = key.split("=")
        config = {**dict(image_size=8, patch_size=4, channels=1, depth=2, heads=2, dim=32,
                         mlp_ratio=2, num_classes=2), name: int(value)}
        size = 8 * sum(math.prod(shape) for shape in parameter_shapes(ViTConfig(**config)).values())
        assert code == 2
        assert err == (f"error: a model of dim {config['dim']}, depth 2 and mlp_ratio "
                       f"{config['mlp_ratio']} has {size} bytes of float64 parameters, "
                       "which cannot be allocated\n")
        assert list(tmp_path.iterdir()) == []


# a --config file: random bytes, or lines of known keys with random values
CONFIG_LINE = st.builds("{}={}".format, st.sampled_from(sorted(_KEY_SPECS)), st.text(max_size=12))
CONFIG_FILE = st.binary(max_size=200) | st.lists(CONFIG_LINE, max_size=8).map(
    lambda lines: "\n".join(lines).encode())

# a manifests.jsonl line: random bytes, or a JSON object with any values
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6)
MANIFEST_KEY = st.sampled_from(["command", "method", "seed", "duration_seconds", "outputs"])
MANIFEST_LINE = st.binary(max_size=60).map(lambda b: b.replace(b"\n", b"")) | st.dictionaries(
    MANIFEST_KEY | st.text(max_size=8), JSON_VALUE, max_size=5).map(
    lambda entry: json.dumps(entry).encode())


def run_quietly(*argv):
    """`main(argv)`'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzzedInputs:
    """Random input never ends in a traceback: the CLI exits 1 or 2 with
    an `error:` line."""

    @given(content=CONFIG_FILE)
    @settings(max_examples=200, deadline=None)
    def test_random_config_file_exits_1_or_2(self, fuzz_dir, content):
        cfg = fuzz_dir / "fuzzed.cfg"
        cfg.write_bytes(content)
        missing = str(fuzz_dir / "missing.ltds")  # a config that resolves fails here, exit 1
        code, err = run_quietly("unlearn", "--method", "retrain", "--data", missing,
                                "--test", missing, "--out", str(fuzz_dir / "x.ltvt"),
                                "--config", str(cfg))
        assert code in (1, 2)
        assert err.startswith("error: ")

    @given(lines=st.lists(MANIFEST_LINE, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_random_manifest_lines_report_or_exit_1(self, fuzz_dir, lines):
        path = fuzz_dir / "manifests.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        code, err = run_quietly("report", "--manifests", str(path),
                                "--out", str(fuzz_dir / "report.csv"))
        if code == 0:
            assert err == ""
            with open(fuzz_dir / "report.csv", newline="") as f:
                rows = list(csv.reader(f))
            assert len(rows) == len(lines) + 1
            assert all(len(row) == 5 for row in rows)
        else:
            assert code == 1
            assert err.startswith(f"error: {path}:")


def test_no_command_starts_a_thread_and_each_forks_its_helpers(tmp_path, monkeypatch):
    """Every command that computes, in-process at tiny shapes, with
    `threading.Thread.start` recording: no thread starts. The second
    core is used by forked helpers only: one per training or unlearning
    call (for `unlearn --method lethevit`, its capture pass and both its
    phases), one for all of `evaluate` and one for both passes of
    `sweep-mask`."""
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    pids = forks(monkeypatch)
    data = tmp_path / "data"
    train, test = str(data / "train.ltds"), str(data / "test.ltds")
    split = sets("seed=5", "forget_ratio=0.25")
    sgd = sets("lr=0.05", "batch=6")
    original, retrain, unlearned = (str(tmp_path / name) for name in ("o.ltvt", "r.ltvt",
                                                                      "u.ltvt"))
    commands = [
        (["gen-data", "--out-dir", str(data), *sets("seed=5", *TINY_KEYS)], 0),
        (["train", "--data", train, "--out", original, *sets("seed=5", "epochs=1", *MODEL_KEYS),
          *sgd], 1),
        (["unlearn", "--method", "retrain", "--data", train, "--test", test, "--out", retrain,
          *split, *sgd, *sets("epochs=1", *MODEL_KEYS)], 1),
        (["unlearn", "--method", "lethevit", "--data", train, "--test", test,
          "--original", original, "--out", unlearned, *split, *sgd, *sets("ef=1", "er=1")], 1),
        (["evaluate", "--data", train, "--test", test, "--checkpoint", f"retrain={retrain}",
          "--checkpoint", f"lethevit={unlearned}", "--checkpoint", f"original={original}",
          "--out", str(tmp_path / "e.csv"), *split], 1),
        (["sweep-mask", "--data", train, "--test", test, "--checkpoint", retrain,
          "--out", str(tmp_path / "s.csv"), *split, *sets("ratios=0,0.5")], 1),
    ]
    for argv, helpers in commands:
        before = len(pids)
        assert run(*argv) == 0, argv[0]
        assert (argv[0], len(pids) - before) == (argv[0], helpers)
    assert started == []


# `lethevit.cli.main(argv[2:])` in a child process that sees argv[1] CPUs
_CPUS_CHILD = """
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
from lethevit import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def test_a_warning_is_printed_as_on_one_cpu(pipeline, tmp_path):
    """Masking every patch with Gaussian noise of std 1e300 overflows in
    a layer norm, which numpy warns of. A helper prints nothing: a
    warning fails its job, which this process reruns and warns of itself,
    so stderr on two CPUs is stderr on one, and so are the bytes."""
    _, train_path, test_path, theta_o = pipeline
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONWARNINGS", None)
    results = []
    for cpus in ("1", "2"):
        out = tmp_path / f"u{cpus}.ltvt"
        with subprocess.Popen(
                [sys.executable, "-c", _CPUS_CHILD, cpus, "unlearn", "--method", "lethevit",
                 "--data", train_path, "--test", test_path, "--original", theta_o,
                 "--out", str(out),
                 *sets("seed=5", "lr=0.05", "batch=6", "forget_ratio=0.25", "ratio=1",
                       "mask_type=gaussian", "gaussian_std=1e300")],
                env=env, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as child:
            try:
                _, err = child.communicate(timeout=120)
            finally:
                child.kill()
        results.append((child.returncode, err, _sha256(out)))
    assert results[0][0] == 0
    assert results[0][1].count("RuntimeWarning: overflow encountered") == 1
    assert results[1] == results[0]
