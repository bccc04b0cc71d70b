"""Command-line entry point orchestrating the full experiment protocol.

Commands: gen-data, train, unlearn, evaluate, sweep-mask, report.

Configuration comes from flat key=value files; any key can be
overridden on the command line with repeated `--set key=value` flags
(flags win). Every run appends one JSON manifest line recording the resolved
configuration, inputs, output checksums, wall time and environment
(versions, BLAS, threads, heap policy) to `manifests.jsonl` beside its main output;
`train` and `unlearn` add per-phase wall time and step counts.

Exit codes: 0 success, 1 runtime failure (divergence, bad file), 2
usage or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import Optional

import numpy as np
import scipy

from . import data as data_mod
from . import evaluation, unlearning, vit
from .errors import ConfigError, FormatError, LetheError
from .masking import MaskSpec, MaskType
from .tensor import heap_policy, keep_heap

# methods that start from --original -> `unlearning` function name, looked
# up at call time so that wrappers installed on the module see the call
_FROM_ORIGINAL = {"lethevit": "unlearn", "ft": "fine_tune", "ga": "gradient_ascent",
                  "rl": "random_labels"}
METHODS = ("retrain", *_FROM_ORIGINAL)
_TRAIN_KEYS = ["epochs", "patch_size", "depth", "heads", "dim", "mlp_ratio"]

_SWEEP_HEADER = "ratio,mask_type,ta,mia"
_EVAL_HEADER = "method,seed,fa,ra,ta,mia,dfa,dra,dta,dmia,ag"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# key: (type, default); None default means the key is required
_KEY_SPECS: dict[str, tuple[type, object]] = {
    "seed": (int, None),
    "epochs": (int, None),
    "lr": (float, None),
    "batch": (int, None),
    "momentum": (float, 0.0),
    "weight_decay": (float, 0.0),
    "ef": (int, 2),
    "er": (int, 8),
    "tau": (float, 0.5),
    "ratio": (float, 0.05),
    "mask_type": (str, "zero"),
    "gaussian_std": (float, 1.0),
    "forget_ratio": (float, 0.1),
    "split_seed": (int, -1),  # -1: fall back to seed
    "classes": (int, 3),
    "per_class": (int, 200),
    "test_per_class": (int, 50),
    "image_size": (int, 32),
    "channels": (int, 1),
    "patch_size": (int, 4),
    "depth": (int, 2),
    "heads": (int, 2),
    "dim": (int, 32),
    "mlp_ratio": (int, 2),
    "ratios": (str, "0,0.05,0.1,0.2,0.3"),
    "types": (str, "zero,gaussian"),
}


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror or exc}") from None
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _resolve_config(args, needed: list[str]) -> dict:
    """defaults <- config file <- --set overrides; validates and types."""
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw.update(_parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()

    for key in raw:
        if key not in _KEY_SPECS:
            raise ConfigError(f"unknown config key: {key}")

    resolved: dict = {}
    for key in needed:
        kind, default = _KEY_SPECS[key]
        if key in raw:
            try:
                resolved[key] = kind(raw[key])
            except ValueError:
                raise ConfigError(f"config key {key} expects {kind.__name__}, got {raw[key]!r}")
        elif key == "seed" and os.environ.get("LETHE_SEED"):
            env_seed = os.environ["LETHE_SEED"]
            try:
                resolved[key] = int(env_seed)
            except ValueError:
                raise ConfigError(f"LETHE_SEED expects int, got {env_seed!r}") from None
        elif default is None:
            raise ConfigError(f"missing config key: {key}")
        else:
            resolved[key] = default
    if resolved.get("seed", 0) < 0:  # the PCG64 generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    if "split_seed" in resolved and resolved["split_seed"] < 0:
        resolved["split_seed"] = resolved.get("seed", 0)
    return resolved


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: str, command: str, config: dict, started: float,
                    inputs: Optional[dict] = None, extra: Optional[dict] = None) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": inputs or {},
        "outputs": {out_path: _sha256(out_path)},
        "duration_seconds": time.perf_counter() - started,
        # checkpoint bytes depend on the BLAS thread count (README, determinism)
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas": {"name": blas.get("name"), "version": blas.get("version")},
                "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
                "heap": heap_policy()},
    }
    if extra:
        manifest.update(extra)
    directory = os.path.dirname(os.path.abspath(out_path))
    with open(os.path.join(directory, "manifests.jsonl"), "a") as f:
        f.write(json.dumps(manifest, sort_keys=True) + "\n")


def _train_config(cfg: dict, dataset: data_mod.LabeledDataset) -> unlearning.TrainConfig:
    _, channels, size, _ = dataset.images.shape
    model = vit.ViTConfig(
        image_size=size,
        patch_size=cfg["patch_size"],
        channels=channels,
        depth=cfg["depth"],
        heads=cfg["heads"],
        dim=cfg["dim"],
        mlp_ratio=cfg["mlp_ratio"],
        num_classes=dataset.class_count,
    )
    return unlearning.TrainConfig(
        model=model,
        epochs=cfg["epochs"],
        learning_rate=cfg["lr"],
        batch_size=cfg["batch"],
        seed=cfg["seed"],
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
    )


def _load_split(cfg: dict, train_path: str, test_path: str) -> data_mod.DataSplit:
    train = data_mod.load_dataset(train_path)
    test = data_mod.load_dataset(test_path)
    return data_mod.split_random_forget(train, test, cfg["forget_ratio"], cfg["split_seed"])


def _mask_spec(cfg: dict) -> MaskSpec:
    try:
        mask_type = MaskType(cfg["mask_type"])
    except ValueError:
        raise ConfigError(
            f"unknown mask_type {cfg['mask_type']!r}, expected one of "
            f"{[t.value for t in MaskType]}"
        )
    return MaskSpec(ratio=cfg["ratio"], mask_type=mask_type, gaussian_std=cfg["gaussian_std"])


def _unlearn_config(cfg: dict) -> unlearning.UnlearnConfig:
    return unlearning.UnlearnConfig(
        forget_epochs=cfg["ef"],
        retain_epochs=cfg["er"],
        learning_rate=cfg["lr"],
        batch_size=cfg["batch"],
        temperature=cfg["tau"],
        mask_spec=_mask_spec(cfg),
        seed=cfg["seed"],
        momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"],
    )


def _phase_clock(phases: dict):
    """An `on_step` sink that fills `phases` as {phase: {"seconds", "steps"}};
    each step's time runs from the previous call, or from the clock's making."""
    last = time.perf_counter()

    def on_step(phase: str, step: int, batch: np.ndarray) -> None:
        nonlocal last
        now = time.perf_counter()
        entry = phases.setdefault(phase, {"seconds": 0.0, "steps": 0})
        entry["seconds"] += now - last
        entry["steps"] = step + 1
        last = now

    return on_step


def cmd_gen_data(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_config(args, ["seed", "classes", "per_class", "test_per_class",
                                 "image_size", "channels"])
    os.makedirs(args.out_dir, exist_ok=True)
    train = data_mod.generate_toy_dataset(
        cfg["classes"], cfg["per_class"], cfg["image_size"], cfg["seed"], cfg["channels"]
    )
    test = data_mod.generate_toy_dataset(
        cfg["classes"], cfg["test_per_class"], cfg["image_size"], cfg["seed"] + 1,
        cfg["channels"]
    )
    train_path = os.path.join(args.out_dir, "train.ltds")
    test_path = os.path.join(args.out_dir, "test.ltds")
    data_mod.save_dataset(train, train_path)
    data_mod.save_dataset(test, test_path)
    _write_manifest(train_path, "gen-data", cfg, started,
                    extra={"outputs_extra": {test_path: _sha256(test_path)}})
    print(f"wrote {train_path} ({len(train)} samples) and {test_path} ({len(test)} samples)")
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_config(args, ["seed", "lr", "batch", "momentum", "weight_decay",
                                 *_TRAIN_KEYS])
    dataset = data_mod.load_dataset(args.data)
    config = _train_config(cfg, dataset)
    phases: dict = {}
    params = unlearning.train_model(dataset, config, on_step=_phase_clock(phases))
    vit.save_params(params, args.out)
    _write_manifest(args.out, "train", cfg, started, inputs={args.data: _sha256(args.data)},
                    extra={"phases": phases})
    print(f"wrote {args.out}")
    return 0


def cmd_unlearn(args) -> int:
    started = time.perf_counter()
    needed = ["seed", "lr", "batch", "momentum", "weight_decay",
              "ef", "er", "tau", "ratio", "mask_type", "gaussian_std",
              "forget_ratio", "split_seed"]
    if args.method == "retrain":
        needed += _TRAIN_KEYS
    cfg = _resolve_config(args, needed)
    split = _load_split(cfg, args.data, args.test)
    inputs = {args.data: _sha256(args.data), args.test: _sha256(args.test)}
    phases: dict = {}

    if args.method == "retrain":
        config = _train_config(cfg, split.train)
        result = unlearning.retrain(split, config, on_step=_phase_clock(phases))
    else:
        if not args.original:
            raise ConfigError(f"method {args.method} requires --original CHECKPOINT")
        original = vit.load_params(args.original)
        inputs[args.original] = _sha256(args.original)
        config = _unlearn_config(cfg)
        method = getattr(unlearning, _FROM_ORIGINAL[args.method])
        result = method(original, split, config, on_step=_phase_clock(phases))

    vit.save_params(result, args.out)
    _write_manifest(args.out, "unlearn", cfg, started, inputs=inputs,
                    extra={"method": args.method, "phases": phases})
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_config(args, ["seed", "forget_ratio", "split_seed"])
    split = _load_split(cfg, args.data, args.test)

    named: dict[str, str] = {}
    for item in args.checkpoint:
        if "=" not in item:
            raise ConfigError(f"--checkpoint expects name=path, got {item!r}")
        name, path = (part.strip() for part in item.split("=", 1))
        if "," in name or name.splitlines() != [name]:  # the name is one CSV field
            raise ConfigError(f"--checkpoint name {name!r} must be non-empty, without ',' "
                              "or a line break")
        if name in named:
            raise ConfigError(f"--checkpoint name {name!r} is given twice")
        named[name] = path
    if "retrain" not in named:
        raise ConfigError("evaluate requires a checkpoint named 'retrain' as the reference")

    order = ["retrain"] + [name for name in named if name != "retrain"]
    reports = {}
    for name in order:
        params = vit.load_params(named[name])
        reports[name] = evaluation.evaluate_model(params, split, method=name, seed=cfg["seed"])

    reference = reports["retrain"]
    lines = [_EVAL_HEADER]
    for name in order:
        rep = reports[name]
        gap = evaluation.average_gap(rep, reference)
        lines.append(
            f"{name},{cfg['seed']},{rep.fa:.2f},{rep.ra:.2f},{rep.ta:.2f},{rep.mia:.2f},"
            f"{gap.d_fa:.2f},{gap.d_ra:.2f},{gap.d_ta:.2f},{gap.d_mia:.2f},{gap.ag:.2f}"
        )
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    inputs = {path: _sha256(path) for path in named.values()}
    inputs[args.data] = _sha256(args.data)
    inputs[args.test] = _sha256(args.test)
    _write_manifest(args.out, "evaluate", cfg, started, inputs=inputs)
    print(f"wrote {args.out}")
    return 0


def cmd_sweep_mask(args) -> int:
    started = time.perf_counter()
    cfg = _resolve_config(args, ["seed", "forget_ratio", "split_seed", "gaussian_std",
                                 "ratios", "types"])
    split = _load_split(cfg, args.data, args.test)
    params = vit.load_params(args.checkpoint)
    try:
        ratios = [float(r) for r in cfg["ratios"].split(",") if r.strip()]
        types = [MaskType(t.strip()) for t in cfg["types"].split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad ratios/types value: {exc}")

    rows = evaluation.masking_sweep(
        params, split.forget_set(), split.retain_set(), split.test,
        ratios, types, gaussian_std=cfg["gaussian_std"], seed=cfg["seed"],
    )
    lines = [_SWEEP_HEADER]
    for row in rows:
        lines.append(f"{row.ratio:g},{row.mask_type},{row.ta:.2f},{row.mia:.2f}")
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    _write_manifest(args.out, "sweep-mask", cfg, started,
                    inputs={args.checkpoint: _sha256(args.checkpoint)})
    print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    path = args.manifests
    if os.path.isdir(path):
        path = os.path.join(path, "manifests.jsonl")
    lines = ["command,method,seed,duration_seconds,outputs"]
    with open(path, "rb") as f:
        offset = 0
        for line_no, raw in enumerate(f, 1):
            try:
                entry = json.loads(raw)  # ValueError: not JSON, or not UTF-8
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                raise FormatError(f"{path}:{line_no}: manifest line is not a JSON object", offset)
            try:
                outputs = ";".join(sorted(entry.get("outputs", {})))
                lines.append(
                    f"{entry.get('command')},{entry.get('method', '')},{entry.get('seed')},"
                    f"{entry.get('duration_seconds', 0.0):.2f},{outputs}"
                )
            except (TypeError, ValueError):
                raise FormatError(f"{path}:{line_no}: manifest line has a malformed "
                                  "'outputs' or 'duration_seconds'", offset) from None
            offset += len(raw)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lethevit",
        description="attention-guided contrastive unlearning workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable; wins over the file)")

    p = sub.add_parser("gen-data", help="generate the toy train/test datasets")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the original model on the full training set")
    common(p)
    p.add_argument("--data", required=True, help="training dataset (.ltds)")
    p.add_argument("--out", required=True, help="output checkpoint (.ltvt)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("unlearn", help="run an unlearning method")
    common(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--data", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--original", help="original model checkpoint (all methods except retrain)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unlearn)

    p = sub.add_parser("evaluate", help="emit the FA/RA/TA/MIA/AG report CSV")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--checkpoint", action="append", required=True, metavar="NAME=PATH",
                   help="model to evaluate (repeatable; one must be named 'retrain')")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-mask", help="TA/MIA table over masking ratios and types")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--checkpoint", required=True, help="attention-source model (retrained)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_mask)

    p = sub.add_parser("report", help="summarize run manifests as CSV")
    p.add_argument("--manifests", required=True, help="manifests.jsonl file or its directory")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    keep_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LetheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
