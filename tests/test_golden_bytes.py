"""The bytes of a tiny pipeline of every command, pinned.

Scope: this test checks bytes only on a platform that has an entry in
`tests/data/golden_bytes.json`, matched on every field of
`golden_bytes.platform_key()` (numpy and scipy versions, the OpenBLAS
config string and kernel, numpy's SIMD baseline and found features). On
any other platform it skips and prints the key it found. Floating-point
bytes legitimately differ across such platforms, so the scope is not
widened to get a pass; a new platform gets its own entry from
`python tests/golden_bytes.py`."""

import pytest

import golden_bytes


def test_every_output_keeps_its_committed_sha256(tmp_path):
    key = golden_bytes.platform_key()
    entries = [e["sha256"] for e in golden_bytes.load_golden() if e["platform"] == key]
    if not entries:
        pytest.skip(f"no golden bytes for this platform: {key}")
    got = golden_bytes.run_pipeline(str(tmp_path))
    changed = sorted(name for name in entries[0] if got.get(name) != entries[0][name])
    assert sorted(got) == sorted(entries[0])
    assert not changed, f"outputs whose sha256 changed: {changed}"
