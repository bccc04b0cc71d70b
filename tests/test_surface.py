"""Dead-definition guard: every top-level function and class in
`src/lethevit` is named somewhere outside its own definition, either in
`src/` (a call, an import or `__all__`) or in the benchmark files that
bind library names (`perfbench/layertrace.py`, `perfbench/workloads.py`).
Test-only code belongs in `tests/`, not in the library."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lethevit")
BENCH_FILES = [os.path.join(ROOT, "perfbench", name) for name in ("layertrace.py", "workloads.py")]


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def _names(node, strings):
    """Identifiers `node` refers to: names, attributes and imported
    names, plus its string constants when `strings` is true."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _is_all(statement):
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets)


def _definitions_and_uses():
    """(module, name) of every top-level def and class in `src/`, and
    every identifier used outside the definition that holds it."""
    definitions, used = [], set()
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        for statement in _parse(os.path.join(SRC, filename)).body:
            names = _names(statement, strings=_is_all(statement))
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((filename, statement.name))
                names.discard(statement.name)  # its own recursion or methods do not count
            used |= names
    for path in BENCH_FILES:
        used |= _names(_parse(path), strings=True)
    return definitions, used


def test_every_definition_is_named_outside_itself():
    definitions, used = _definitions_and_uses()
    # the walk sees the package and the benchmark's string bindings: no vacuous pass
    assert ("tensor.py", "matmul") in definitions and "build_masked_view" in used
    dead = [f"{module}: {name}" for module, name in definitions if name not in used]
    assert not dead, "defined in src/ but named nowhere outside its definition: " + ", ".join(dead)
