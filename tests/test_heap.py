"""The heap policy `keep_heap` sets: it ends the per-step page faults of
training and changes no computed value."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lethevit.data import generate_toy_dataset
from lethevit.tensor import keep_heap
from lethevit.unlearning import TrainConfig, train_model
from lethevit.vit import ViTConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the acceptance recipe's shapes: 20x20 images, depth 2, dim 32, batch 32
MODEL = ViTConfig(image_size=20, patch_size=4, channels=1, depth=2, heads=2, dim=32,
                  mlp_ratio=2, num_classes=3)


def recipe(seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(model=MODEL, epochs=epochs, learning_rate=0.05, batch_size=32,
                       seed=seed, momentum=0.9, weight_decay=0.0005)


def test_training_steps_fault_in_no_new_pages():
    """Under the policy a warm training step reuses the heap pages the
    previous step freed; under glibc's default it faults in about 4,300
    new pages per step."""
    resource = pytest.importorskip("resource")
    if keep_heap() is None:
        pytest.skip("libc has no mallopt")
    faults: list[int] = []

    def count(phase: str, step: int, batch: np.ndarray) -> None:
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    # 600 images in batches of 32: 19 steps; steps 0-2 warm up
    train_model(generate_toy_dataset(3, 200, 20, seed=5), recipe(seed=5, epochs=1),
                on_step=count)
    per_step = (faults[13] - faults[3]) / 10
    assert per_step <= 100, f"{per_step:.0f} minor faults per warm step"


_CHILD = """
import hashlib, json, sys
from lethevit import tensor
from lethevit.data import generate_toy_dataset
from test_heap import recipe
from lethevit.unlearning import train_model
heap = tensor.keep_heap() if sys.argv[1] == "keep" else tensor.heap_policy()
params = train_model(generate_toy_dataset(3, 20, 20, seed=3), recipe(seed=3, epochs=2))
digest = hashlib.sha256()
for name in sorted(params.names()):
    digest.update(name.encode() + params[name].values.tobytes())
print(json.dumps({"heap": heap, "sha256": digest.hexdigest()}))
"""


def test_policy_keeps_one_arena():
    """Pool workers allocate from the main heap, not arenas of their own."""
    heap = keep_heap()
    if heap is None:
        pytest.skip("libc has no mallopt")
    assert heap["M_ARENA_MAX"] == 1


def test_parameters_do_not_depend_on_heap_policy():
    """Determinism contract: at a fixed BLAS thread count the float64
    parameters are the same with and without the policy, and importing
    the package applies none."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, os.path.dirname(os.path.abspath(__file__)), env.get("PYTHONPATH", "")])
    runs = []
    for policy in ("keep", "default", "keep"):
        out = subprocess.run([sys.executable, "-c", _CHILD, policy], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert [run["heap"] for run in runs] == [keep_heap(), None, keep_heap()]
    assert runs[0]["sha256"] == runs[1]["sha256"] == runs[2]["sha256"]
