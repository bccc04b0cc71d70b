"""The quick demos run end to end against the current API, and every
demo imports only names that exist and calls them with arguments their
signatures accept."""

import ast
import glob
import importlib
import inspect
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
    it when a name they import from lethevit is renamed or moved, or when
    a call `name(...)` of such a name no longer binds to its signature
    (placeholder arguments; calls with `*` or `**` are skipped)."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    imported, objects = 0, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules, aliases = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            modules, aliases = [node.module], node.names
        else:
            continue
        for module_name in modules:
            if module_name.split(".")[0] != "lethevit":
                continue
            module = importlib.import_module(module_name)
            imported += 1
            for alias in aliases:
                assert hasattr(module, alias.name), f"{module_name} has no {alias.name}"
                objects[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported, "the demo imports nothing from lethevit"

    unbound = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in objects):
            continue
        if (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue
        try:
            inspect.signature(objects[node.func.id]).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"{os.path.basename(path)}:{node.lineno}: {node.func.id}: {exc}")
    assert not unbound, "\n".join(unbound)
