"""The quick demos run end to end against the current API, and every
demo imports only names that exist."""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("name", ["01_autodiff_basics", "02_vit_attention",
                                  "03_attention_masking"])
def test_demo_runs(name):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    """Parsed, not run, so the demos too slow for this suite still break
    it when a name they import from lethevit is renamed or moved."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            modules, names = [node.module], [alias.name for alias in node.names]
        else:
            continue
        for module_name in modules:
            if module_name.split(".")[0] != "lethevit":
                continue
            module = importlib.import_module(module_name)
            imported += 1
            for name in names:
                assert hasattr(module, name), f"{module_name} has no {name}"
    assert imported, "the demo imports nothing from lethevit"
