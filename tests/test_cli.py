"""End-to-end CLI tests on a miniature pipeline: exit codes, manifests,
CSV contracts, and byte-identical reruns."""

import json
import os

import numpy as np
import pytest

from lethevit.checkpoint import load_arrays
from lethevit.cli import main
from lethevit.data import load_dataset

from test_data import write_label

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
        entries = [json.loads(line) for line in open(manifest_path)]
        assert entries[0]["command"] == "gen-data"
        assert entries[0]["seed"] == 5
        assert train_path in entries[0]["outputs"]
        assert entries[0]["duration_seconds"] >= 0.0

    def test_missing_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LETHE_SEED", raising=False)
        code = run("gen-data", "--out-dir", str(tmp_path), *sets(*TINY_KEYS))
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LETHE_SEED", "9")
        code = run("gen-data", "--out-dir", str(tmp_path), *sets(*TINY_KEYS))
        assert code == 0

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

    def test_deterministic_checkpoint_bytes(self, pipeline, tmp_path):
        _, train_path, _, theta_o = pipeline
        again = tmp_path / "again.ltvt"
        code = run("train", "--data", train_path, "--out", str(again),
                   *sets("seed=5", "epochs=2", "lr=0.05", "batch=6", *MODEL_KEYS))
        assert code == 0
        assert open(theta_o, "rb").read() == open(again, "rb").read()

    def test_config_file_with_flag_override(self, pipeline, tmp_path):
        _, train_path, _, _ = pipeline
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed=5\nepochs=1\nlr=0.05\nbatch=6\n"
                       "patch_size=4\ndepth=1\nheads=2\ndim=8\nmlp_ratio=2\n# comment\n")
        out = tmp_path / "cfg.ltvt"
        code = run("train", "--config", str(cfg), "--data", train_path,
                   "--out", str(out), "--set", "epochs=2")
        assert code == 0
        manifest = [json.loads(line) for line in open(tmp_path / "manifests.jsonl")][-1]
        assert manifest["config"]["epochs"] == 2  # flag wins over file


class TestCorruptInputs:
    """A corrupt input file is a runtime failure: exit 1, no traceback."""

    def test_invalid_utf8_checkpoint_name_exits_1(self, pipeline, tmp_path, capsys):
        _, train_path, test_path, theta_o = pipeline
        raw = bytearray(open(theta_o, "rb").read())
        raw[14] = 0xFF  # first byte of the first entry name
        bad = tmp_path / "bad_name.ltvt"
        bad.write_bytes(bytes(raw))
        code = run("unlearn", "--method", "ga", "--data", train_path, "--test", test_path,
                   "--original", str(bad), "--out", str(tmp_path / "u.ltvt"),
                   *sets("seed=5", "lr=0.05", "batch=6"))
        assert code == 1
        err = capsys.readouterr().err
        assert "UTF-8" in err and "byte offset 14" in err

    def test_out_of_range_label_exits_1(self, pipeline, tmp_path, capsys):
        _, train_path, _, _ = pipeline
        ds = load_dataset(train_path)
        bad = tmp_path / "bad_label.ltds"
        bad.write_bytes(open(train_path, "rb").read())
        write_label(bad, ds, index=0, label=ds.class_count)
        code = run("train", "--data", str(bad), "--out", str(tmp_path / "t.ltvt"),
                   *sets("seed=5", "epochs=1", "lr=0.05", "batch=6", *MODEL_KEYS))
        assert code == 1
        assert f"label {ds.class_count}" in capsys.readouterr().err


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
        assert open(str(out), "rb").read() == open(theta_o, "rb").read()

    def test_lethevit_records_phase_times(self, pipeline, tmp_path):
        _, train_path, test_path, theta_o = pipeline
        out = tmp_path / "leth.ltvt"
        code = run("unlearn", "--method", "lethevit", "--data", train_path,
                   "--test", test_path, "--original", theta_o, "--out", str(out),
                   *sets("seed=5", "lr=0.02", "batch=4", "ef=1", "er=1",
                         "forget_ratio=0.25", "ratio=0.25"))
        assert code == 0
        manifest = [json.loads(line) for line in open(tmp_path / "manifests.jsonl")][-1]
        assert manifest["command"] == "unlearn"
        assert manifest["method"] == "lethevit"
        assert manifest["phases"]["phase1_seconds"] > 0.0
        assert manifest["phases"]["phase2_seconds"] > 0.0

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


class TestSweepMask:
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


class TestReport:
    def test_summarizes_manifests(self, pipeline, capsys):
        root, train_path, _, _ = pipeline
        code = run("report", "--manifests", os.path.dirname(train_path))
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("command,method,seed,duration_seconds,outputs")
        assert "gen-data" in out


class TestWriteDiscipline:
    def test_writes_stay_in_output_directory(self, tmp_path, monkeypatch):
        """All artifacts land under the declared output directory."""
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "only_here"
        assert run("gen-data", "--out-dir", str(out_dir), *sets("seed=3", *TINY_KEYS)) == 0
        produced = {p.name for p in tmp_path.iterdir()}
        assert produced == {"only_here"}
