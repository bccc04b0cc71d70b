"""The golden-bytes pipeline: every command of the CLI on a tiny setup,
and the sha256 of every output it writes, keyed by the platform that
made them.

    PYTHONPATH=src python tests/golden_bytes.py

runs the pipeline in a temporary directory and writes (or replaces) this
platform's entry of `tests/data/golden_bytes.json`. A change that alters
arithmetic on purpose reruns it and lists each changed digest and its
reason; every other change must leave the file as it is, which
`tests/test_golden_bytes.py` checks.
"""

import ctypes
import hashlib
import json
import os
import sys
import tempfile

import numpy as np
import scipy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_bytes.json")

# the criterion-6 recipe (tests/test_acceptance.py), extended to every
# method and command
DATA_KEYS = ["seed=6", "classes=3", "per_class=12", "test_per_class=6", "image_size=12"]
MODEL_KEYS = ["patch_size=4", "depth=1", "heads=2", "dim=8", "mlp_ratio=2"]
SPLIT_KEYS = ["seed=6", "forget_ratio=0.2"]
SGD_KEYS = ["lr=0.05", "batch=9"]
# (output, method, config keys)
UNLEARN_RUNS = [
    ("retrain.ltvt", "retrain",
     ["epochs=3", "momentum=0.9", "weight_decay=0.0005", *SGD_KEYS, *MODEL_KEYS]),
    ("lethevit_zero.ltvt", "lethevit",
     ["lr=0.02", "batch=4", "ef=2", "er=1", "ratio=0.25", "momentum=0.9"]),
    ("lethevit_gaussian.ltvt", "lethevit",
     ["lr=0.02", "batch=4", "ef=2", "er=1", "ratio=0.25", "mask_type=gaussian",
      "gaussian_std=0.7", "weight_decay=0.001"]),
    ("ft.ltvt", "ft", ["er=2", "weight_decay=0.001", *SGD_KEYS]),
    ("ga.ltvt", "ga", ["ef=2", "momentum=0.9", "lr=0.02", "batch=4"]),
    ("rl.ltvt", "rl", ["er=2", *SGD_KEYS]),
]


def _sets(keys):
    return [arg for key in keys for arg in ("--set", key)]


def platform_key() -> dict:
    """What the bytes depend on beyond the code: numpy and scipy, the
    OpenBLAS build and the kernel it picked, and the SIMD features numpy
    was built for and found."""
    key = {"numpy": np.__version__, "scipy": scipy.__version__,
           "openblas_config": None, "openblas_core": None}
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        for name, symbol in (("openblas_config", "scipy_openblas_get_config64_"),
                             ("openblas_core", "scipy_openblas_get_corename64_")):
            getattr(lib, symbol).restype = ctypes.c_char_p
            key[name] = getattr(lib, symbol)().decode()
    except (AttributeError, OSError):
        pass
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    key["simd_baseline"] = list(simd.get("baseline", []))
    key["simd_found"] = list(simd.get("found", []))
    return key


def run_pipeline(root: str) -> dict[str, str]:
    """Run gen-data, train, every unlearning method, evaluate and
    sweep-mask under `root`; returns {output name: sha256}."""
    from lethevit.cli import main

    def run(*argv):
        code = main(list(argv))
        if code != 0:
            raise RuntimeError(f"lethevit {' '.join(argv)} exited {code}")

    data = os.path.join(root, "data")
    train, test = os.path.join(data, "train.ltds"), os.path.join(data, "test.ltds")
    out = {name: os.path.join(root, name) for name in ("original.ltvt", "evaluate.csv",
                                                       "sweep.csv")}
    run("gen-data", "--out-dir", data, *_sets(DATA_KEYS))
    run("train", "--data", train, "--out", out["original.ltvt"],
        *_sets(["seed=6", "epochs=3", "momentum=0.9", "weight_decay=0.0005", *SGD_KEYS,
                *MODEL_KEYS]))
    for name, method, keys in UNLEARN_RUNS:
        out[name] = os.path.join(root, name)
        original = [] if method == "retrain" else ["--original", out["original.ltvt"]]
        run("unlearn", "--method", method, "--data", train, "--test", test, *original,
            "--out", out[name], *_sets(SPLIT_KEYS + keys))
    checkpoints = [f"{name.removesuffix('.ltvt')}={out[name]}"
                   for name, _, _ in UNLEARN_RUNS] + [f"original={out['original.ltvt']}"]
    run("evaluate", "--data", train, "--test", test, "--out", out["evaluate.csv"],
        *[arg for c in checkpoints for arg in ("--checkpoint", c)], *_sets(SPLIT_KEYS))
    run("sweep-mask", "--data", train, "--test", test, "--checkpoint", out["retrain.ltvt"],
        "--out", out["sweep.csv"],
        *_sets([*SPLIT_KEYS, "ratios=0,0.25,0.5", "types=zero,gaussian", "gaussian_std=0.7"]))
    out["train.ltds"], out["test.ltds"] = train, test
    digests = {}
    for name, path in sorted(out.items()):
        with open(path, "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def load_golden() -> list[dict]:
    with open(GOLDEN) as f:
        return json.load(f)["platforms"]


def main() -> int:
    from lethevit.tensor import keep_heap, pin_blas_threads

    keep_heap()
    pin_blas_threads()
    key = platform_key()
    with tempfile.TemporaryDirectory() as root:
        digests = run_pipeline(root)
    entries = [e for e in (load_golden() if os.path.exists(GOLDEN) else [])
               if e["platform"] != key]
    entries.append({"platform": key, "sha256": digests})
    with open(GOLDEN, "w") as f:
        json.dump({"platforms": entries}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(digests)} digests for {key} to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
