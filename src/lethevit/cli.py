"""Command-line entry point orchestrating the full experiment protocol.

Commands: gen-data, train, unlearn, evaluate, sweep-mask, report, each
declared once in `_COMMANDS` (handler, help, arguments, config keys);
`build_parser` loops over that table. `main` is the one run path: it
starts the clock, resolves the config, calls the handler with `(args,
cfg)`, hashes the inputs it names, appends the manifest, and maps errors
to exit codes. A handler prints its own `wrote ...` line and returns
`(output, input paths, extra manifest fields)`, or None to write no
manifest (`report`).

Configuration comes from flat key=value files; any key can be
overridden on the command line with repeated `--set key=value` flags
(flags win). The manifest is one JSON line in `manifests.jsonl` beside
the main output: the resolved configuration, input and output checksums,
wall time and environment (versions, BLAS and its thread count and
kernel, thread variables, heap, pool size);
`train` and `unlearn` add per-phase wall time and step counts.

Every output replaces its target only once it is complete
(`checkpoint.replacing`).

Exit codes: 0 success, 1 runtime failure (divergence, bad file), 2
usage or configuration error, 130 interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy

from . import data as data_mod
from . import evaluation, unlearning, vit
from .checkpoint import replacing
from .errors import ConfigError, FormatError, LetheError, require_nonnegative
from .masking import MaskSpec, MaskType, pool_size
from .tensor import blas_threads, heap_policy, keep_heap, pin_blas_threads

# methods that start from --original -> `unlearning` function name, looked
# up at call time so that wrappers installed on the module see the call
_FROM_ORIGINAL = {"lethevit": "unlearn", "ft": "fine_tune", "ga": "gradient_ascent",
                  "rl": "random_labels"}
METHODS = ("retrain", *_FROM_ORIGINAL)
_SWEEP_HEADER = "ratio,mask_type,ta,mia"
_EVAL_HEADER = "method,seed,fa,ra,ta,mia,dfa,dra,dta,dmia,ag"
_REPORT_HEADER = "command,method,seed,duration_seconds,outputs"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# config keys in the groups the commands take them: key -> (type, default),
# where a None default means the key is required
_SEED = {"seed": (int, None)}
_SGD_KEYS = {**_SEED, "lr": (float, None), "batch": (int, None), "momentum": (float, 0.0),
             "weight_decay": (float, 0.0)}
_MODEL_KEYS = {"epochs": (int, None), "patch_size": (int, 4), "depth": (int, 2),
               "heads": (int, 2), "dim": (int, 32), "mlp_ratio": (int, 2)}
_SPLIT_KEYS = {**_SEED, "forget_ratio": (float, 0.1),
               "split_seed": (int, -1)}  # -1: fall back to seed
_MASK_STD = {"gaussian_std": (float, 1.0)}
_UNLEARN_KEYS = {**_SGD_KEYS, "ef": (int, 2), "er": (int, 8), "tau": (float, 0.5),
                 "ratio": (float, 0.05), "mask_type": (str, "zero"), **_MASK_STD, **_SPLIT_KEYS}
_GEN_DATA_KEYS = {**_SEED, "classes": (int, 3), "per_class": (int, 200),
                  "test_per_class": (int, 50), "image_size": (int, 32), "channels": (int, 1)}
_SWEEP_KEYS = {**_SPLIT_KEYS, **_MASK_STD, "ratios": (str, "0,0.05,0.1,0.2,0.3"),
               "types": (str, "zero,gaussian")}
_KEY_SPECS = {**_GEN_DATA_KEYS, **_UNLEARN_KEYS, **_MODEL_KEYS, **_SWEEP_KEYS}


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


def _resolve_config(args, needed: dict) -> dict:
    """defaults <- config file <- --set overrides; validates and types."""
    raw: dict[str, str] = {}
    if args.config:
        raw.update(_parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()

    for key in raw:
        if key not in _KEY_SPECS:
            raise ConfigError(f"unknown config key: {key}")

    resolved: dict = {}
    for key, (kind, default) in needed.items():
        if key in raw:
            try:
                resolved[key] = kind(raw[key])
            except ValueError:
                raise ConfigError(f"config key {key} expects {kind.__name__}, got {raw[key]!r}")
        elif default is None:
            raise ConfigError(f"missing config key: {key}")
        else:
            resolved[key] = default
    require_nonnegative(resolved.get("seed", 0), "seed")
    if resolved.get("split_seed", -1) < -1:
        raise ConfigError(f"split_seed must be >= 0, or -1 for seed, "
                          f"got {resolved['split_seed']}")
    if resolved.get("split_seed") == -1:
        resolved["split_seed"] = resolved["seed"]
    return resolved


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: str, command: str, config: dict, started: float,
                    inputs: list[str], extra: dict) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = blas_threads() or {"threads": None, "core": None}
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": {out_path: _sha256(out_path)},
        "duration_seconds": time.perf_counter() - started,
        # what a rerun sets for the same bytes where the pin fails (README, determinism)
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas": {"name": blas.get("name"), "version": blas.get("version"), **runtime},
                "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
                "heap": heap_policy(), "pool_workers": pool_size()},
        **extra,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(out_path)), "manifests.jsonl")
    try:
        with open(path, "rb") as f:
            previous = f.read()
    except FileNotFoundError:
        previous = b""
    with replacing(path) as f:  # old lines plus the new one, or the old file untouched
        f.write(previous + (json.dumps(manifest, sort_keys=True) + "\n").encode())


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


def _require_fit(kind: str, path: str, values, train: data_mod.LabeledDataset) -> None:
    """A model or test set whose (image_size, channels, num_classes) `values`
    differ from the training set's is a usage error naming the path, the
    field and both values."""
    _, channels, size, _ = train.images.shape
    for field, value, train_value in zip(("image_size", "channels", "num_classes"), values,
                                         (size, channels, train.class_count)):
        if value != train_value:
            raise ConfigError(f"{kind} {path} has {field} {value}, but the training "
                              f"set has {train_value}")


def _load_split(cfg: dict, train_path: str, test_path: str) -> data_mod.DataSplit:
    train = data_mod.load_dataset(train_path)
    test = data_mod.load_dataset(test_path)
    _, channels, size, _ = test.images.shape
    _require_fit("test set", test_path, (size, channels, test.class_count), train)
    split = data_mod.split_random_forget(train, test, cfg["forget_ratio"], cfg["split_seed"])
    if len(split.forget) in (0, len(train)):
        raise ConfigError(f"forget_ratio {cfg['forget_ratio']} selects {len(split.forget)} of "
                          f"{len(train)} training images; the forget and retain sets must "
                          "both be non-empty")
    return split


def _load_checkpoint(path: str, train: data_mod.LabeledDataset) -> vit.ViTParams:
    params = vit.load_params(path)
    model = params.config
    _require_fit("checkpoint", path, (model.image_size, model.channels, model.num_classes), train)
    return params


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


def _csv_field(value) -> str:
    """`value` as one CSV field: quoted, with each `"` doubled, only when
    it holds a `,`, a `"` or a line break; otherwise its text unchanged."""
    text = f"{value}"
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Optional[str], header: str, rows) -> None:
    """Write the header and rows as CSV lines to `path`, or to stdout without one."""
    text = "\n".join([header, *rows]) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with replacing(path, "w") as f:
        f.write(text)
    print(f"wrote {path}")


def cmd_gen_data(args, cfg: dict):
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
    print(f"wrote {train_path} ({len(train)} samples) and {test_path} ({len(test)} samples)")
    return train_path, [], {"outputs_extra": {test_path: _sha256(test_path)}}


def cmd_train(args, cfg: dict):
    dataset = data_mod.load_dataset(args.data)
    phases: dict = {}
    params = unlearning.train_model(dataset, _train_config(cfg, dataset),
                                    on_step=_phase_clock(phases))
    vit.save_params(params, args.out)
    print(f"wrote {args.out}")
    return args.out, [args.data], {"phases": phases}


def cmd_unlearn(args, cfg: dict):
    split = _load_split(cfg, args.data, args.test)
    inputs = [args.data, args.test]
    phases: dict = {}
    if args.method == "retrain":
        result = unlearning.retrain(split, _train_config(cfg, split.train),
                                    on_step=_phase_clock(phases))
    else:
        if not args.original:
            raise ConfigError(f"method {args.method} requires --original CHECKPOINT")
        original = _load_checkpoint(args.original, split.train)
        inputs.append(args.original)
        method = getattr(unlearning, _FROM_ORIGINAL[args.method])
        result = method(original, split, _unlearn_config(cfg), on_step=_phase_clock(phases))
    vit.save_params(result, args.out)
    print(f"wrote {args.out}")
    return args.out, inputs, {"method": args.method, "phases": phases}


def cmd_evaluate(args, cfg: dict):
    split = _load_split(cfg, args.data, args.test)
    named: dict[str, str] = {}
    for item in args.checkpoint:
        if "=" not in item:
            raise ConfigError(f"--checkpoint expects name=path, got {item!r}")
        name, path = (part.strip() for part in item.split("=", 1))
        if "," in name or '"' in name or name.splitlines() != [name]:  # one CSV field
            raise ConfigError(f"--checkpoint name {name!r} must be non-empty, without ',', "
                              "'\"' or a line break")
        if name in named:
            raise ConfigError(f"--checkpoint name {name!r} is given twice")
        named[name] = path
    if "retrain" not in named:
        raise ConfigError("evaluate requires a checkpoint named 'retrain' as the reference")

    models = {name: _load_checkpoint(named[name], split.train)  # the retrain row comes first
              for name in ["retrain"] + [name for name in named if name != "retrain"]}
    rows, reports = [], {}
    for name, params in models.items():
        rep = reports[name] = evaluation.evaluate_model(params, split)
        gap = evaluation.average_gap(rep, reports["retrain"])
        rows.append(
            f"{name},{cfg['seed']},{rep.fa:.2f},{rep.ra:.2f},{rep.ta:.2f},{rep.mia:.2f},"
            f"{gap.d_fa:.2f},{gap.d_ra:.2f},{gap.d_ta:.2f},{gap.d_mia:.2f},{gap.ag:.2f}"
        )
    _write_csv(args.out, _EVAL_HEADER, rows)
    return args.out, [*named.values(), args.data, args.test], {}


def cmd_sweep_mask(args, cfg: dict):
    split = _load_split(cfg, args.data, args.test)
    params = _load_checkpoint(args.checkpoint, split.train)
    try:
        ratios = [float(r) for r in cfg["ratios"].split(",") if r.strip()]
        types = [MaskType(t.strip()) for t in cfg["types"].split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad ratios/types value: {exc}")
    for key, values in (("ratios", ratios), ("types", types)):
        if not values:
            raise ConfigError(f"config key {key} lists no value, got {cfg[key]!r}")

    rows = evaluation.masking_sweep(
        params, split.forget_set(), split.retain_set(), split.test,
        ratios, types, gaussian_std=cfg["gaussian_std"], seed=cfg["seed"],
    )
    _write_csv(args.out, _SWEEP_HEADER,
               (f"{row.ratio:g},{row.mask_type},{row.ta:.2f},{row.mia:.2f}" for row in rows))
    return args.out, [args.checkpoint, args.data, args.test], {}


def cmd_report(args, cfg: None) -> None:
    path = args.manifests
    if os.path.isdir(path):
        path = os.path.join(path, "manifests.jsonl")
    rows = []
    with open(path, "rb") as f:
        offset = 0
        for line_no, raw in enumerate(f, 1):
            try:
                entry = json.loads(raw)  # ValueError: not JSON, or not UTF-8
            except (ValueError, RecursionError):  # RecursionError: nested too deeply
                entry = None
            if not isinstance(entry, dict):
                raise FormatError(f"{path}:{line_no}: manifest line is not a JSON object", offset)
            outputs, duration = entry.get("outputs", {}), entry.get("duration_seconds", 0.0)
            # `true` is no int duration here; NaN fails every comparison, -0.0 the sign test
            if not (isinstance(outputs, dict) and type(duration) in (int, float)
                    and 0 <= duration <= sys.float_info.max
                    and math.copysign(1.0, duration) > 0):
                raise FormatError(f"{path}:{line_no}: manifest line has a malformed "
                                  "'outputs' or 'duration_seconds'", offset)
            rows.append(",".join(map(_csv_field, (
                entry.get("command"), entry.get("method", ""), entry.get("seed"),
                f"{duration:.2f}", ";".join(sorted(outputs))))))
            offset += len(raw)
    _write_csv(args.out, _REPORT_HEADER, rows)


class _Command(NamedTuple):
    handler: Callable  # (args, cfg) -> (output, input paths, extra manifest fields) or None
    help: str
    arguments: list  # (flag, add_argument keywords)
    keys: dict | Callable | None  # config keys, or args -> keys; None: no config


_DATA = ("--data", {"required": True, "help": "training dataset (.ltds)"})
_TEST = ("--test", {"required": True, "help": "test dataset (.ltds)"})
_CHECKPOINT_OUT = ("--out", {"required": True, "help": "output checkpoint (.ltvt)"})
_CSV_OUT = ("--out", {"required": True, "help": "output CSV"})

_COMMANDS = {
    "gen-data": _Command(
        cmd_gen_data, "generate the toy train/test datasets",
        [("--out-dir", {"required": True})],
        _GEN_DATA_KEYS),
    "train": _Command(
        cmd_train, "train the original model on the full training set",
        [_DATA, _CHECKPOINT_OUT], {**_SGD_KEYS, **_MODEL_KEYS}),
    "unlearn": _Command(
        cmd_unlearn, "run an unlearning method",
        [("--method", {"required": True, "choices": METHODS}), _DATA, _TEST,
         ("--original", {"help": "original model checkpoint (all methods except retrain)"}),
         _CHECKPOINT_OUT],
        lambda args: {**_UNLEARN_KEYS, **(_MODEL_KEYS if args.method == "retrain" else {})}),
    "evaluate": _Command(
        cmd_evaluate, "emit the FA/RA/TA/MIA/AG report CSV",
        [_DATA, _TEST,
         ("--checkpoint", {"action": "append", "required": True, "metavar": "NAME=PATH",
                           "help": "model to evaluate (repeatable; one must be named "
                                   "'retrain')"}),
         _CSV_OUT],
        _SPLIT_KEYS),
    "sweep-mask": _Command(
        cmd_sweep_mask, "TA/MIA table over masking ratios and types",
        [_DATA, _TEST,
         ("--checkpoint", {"required": True, "help": "attention-source model (retrained)"}),
         _CSV_OUT],
        _SWEEP_KEYS),
    "report": _Command(
        cmd_report, "summarize run manifests as CSV",
        [("--manifests", {"required": True, "help": "manifests.jsonl file or its directory"}),
         ("--out", {"help": "output CSV (default: stdout)"})],
        None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lethevit",
        description="attention-guided contrastive unlearning workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.keys is not None:
            p.add_argument("--config", help="flat key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one config key (repeatable; wins over the file)")
        for flag, options in command.arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    keep_heap()
    pin_blas_threads()
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    started = time.perf_counter()
    try:
        keys = command.keys(args) if callable(command.keys) else command.keys
        cfg = None if keys is None else _resolve_config(args, keys)
        written = command.handler(args, cfg)
        if written is not None:
            output, inputs, extra = written
            _write_manifest(output, args.command, cfg, started, inputs, extra)
        return 0
    except (LetheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
