"""One-codec guard: the `_RECORD` stream between a process and its
forked helper (a `(rows, columns)` header, then the float64 bytes) has
one writer and one reader in `src/`, `_Link._send_array` and
`_Link._receive_array`, so `_RECORD.pack` and `_RECORD.unpack` each
appear exactly once."""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                   "lethevit")


def _record_methods():
    """How often each attribute of `_RECORD` is named in `src/`."""
    named = Counter()
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as f:
                tree = ast.parse(f.read(), filename)
            named.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                         and node.value.id == "_RECORD")
    return named


def test_record_is_packed_and_unpacked_in_one_place():
    named = _record_methods()
    assert (named["pack"], named["unpack"]) == (1, 1)
