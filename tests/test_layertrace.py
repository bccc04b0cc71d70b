"""The per-layer benchmark's trace bindings (`perfbench/layertrace.py`)
against the names `src/` exports: installing the tracer wraps every name
it traces and leaving it restores them all, so dropping or renaming a
traced function fails here."""

import os
import sys

import numpy as np

from lethevit import checkpoint, data, evaluation, masking, tensor, unlearning, vit

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import layertrace  # noqa: E402

MODULES = (checkpoint, data, evaluation, masking, tensor, unlearning, vit)


def test_installed_wraps_and_restores_every_traced_name(tmp_path):
    before = [dict(vars(module)) for module in MODULES]
    tracer = layertrace.Tracer()
    with tracer.installed():
        wrapped = sum(1 for module, names in zip(MODULES, before)
                      for name, value in vars(module).items() if value is not names.get(name))
        path = str(tmp_path / "w.ltvt")
        checkpoint.save_arrays(path, {"w": np.ones(3)})
        checkpoint.load_arrays(path)
    assert [dict(vars(module)) for module in MODULES] == before
    assert wrapped == len(tracer._patch_table())
    assert [span[2] for span in tracer.spans] == ["checkpoint.save_arrays",
                                                  "checkpoint.load_arrays"]
