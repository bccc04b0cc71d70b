"""Checkpoint wire-format tests: byte layout, round trips, corruption."""

import struct

import numpy as np
import pytest

from lethevit import checkpoint
from lethevit.errors import ConfigError, FormatError, NonFiniteError
from lethevit.vit import ViTConfig, init_params, load_params, save_params

from helpers import with_entry


def test_golden_byte_layout(tmp_path):
    """One tiny array serialized by hand must match save_arrays exactly."""
    values = np.array([[1.5, -2.0]], dtype=np.float32)
    path = tmp_path / "one.ltvt"
    checkpoint.save_arrays(str(path), {"w": values})

    payload = values.tobytes()
    expected = b"LTVT"
    expected += struct.pack("<I", 1)  # version
    expected += struct.pack("<I", 1)  # count
    expected += struct.pack("<H", 1) + b"w"
    expected += struct.pack("<B", 2)
    expected += struct.pack("<I", 1) + struct.pack("<I", 2)
    expected += payload
    expected += struct.pack("<Q", sum(payload))
    assert path.read_bytes() == expected


def test_round_trip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "a.weight": rng.normal(size=(3, 4)),
        "a.bias": rng.normal(size=4),
        "scalar": np.float64(2.5),
    }
    path = tmp_path / "rt.ltvt"
    checkpoint.save_arrays(str(path), arrays)
    loaded = checkpoint.load_arrays(str(path))
    assert set(loaded) == set(arrays)
    for name, original in arrays.items():
        np.testing.assert_array_equal(
            loaded[name], np.asarray(original, dtype=np.float32).astype(np.float64)
        )


def test_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {"x": rng.normal(size=(5, 2)), "y": rng.normal(size=7)}
    first = tmp_path / "first.ltvt"
    second = tmp_path / "second.ltvt"
    checkpoint.save_arrays(str(first), arrays)
    checkpoint.save_arrays(str(second), checkpoint.load_arrays(str(first)))
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic_names_offset_zero(tmp_path):
    path = tmp_path / "bad.ltvt"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert exc.value.offset == 0


def test_version_bump_rejected(tmp_path):
    path = tmp_path / "v2.ltvt"
    checkpoint.save_arrays(str(path), {"w": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert "version 2" in str(exc.value)
    assert exc.value.offset == 4


def test_truncation_names_offset(tmp_path):
    path = tmp_path / "trunc.ltvt"
    checkpoint.save_arrays(str(path), {"w": np.zeros((2, 2))})
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 12])  # drop checksum and part of payload
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert "truncated" in str(exc.value)
    assert exc.value.offset == len(raw) - 12


def test_corrupted_payload_fails_checksum(tmp_path):
    path = tmp_path / "corrupt.ltvt"
    checkpoint.save_arrays(str(path), {"w": np.ones(4)})
    raw = bytearray(path.read_bytes())
    raw[-12] ^= 0xFF  # flip a payload byte, keep stored checksum
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert "checksum" in str(exc.value)


def test_invalid_utf8_name_names_offset(tmp_path):
    path = tmp_path / "name.ltvt"
    checkpoint.save_arrays(str(path), {"abc": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[15] = 0xFF  # second byte of the name: magic, version, count, name_len come first
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert "UTF-8" in str(exc.value)
    assert exc.value.offset == 15


def write_raw_checkpoint(path, entries):
    """Write LTVT bytes by hand with a valid checksum: `entries` is a list
    of (name, dims, payload bytes), so dims and names need not be sane."""
    raw = b"LTVT" + struct.pack("<I", 1) + struct.pack("<I", len(entries))
    for name, dims, payload in entries:
        raw += struct.pack("<H", len(name.encode())) + name.encode()
        raw += struct.pack("<B", len(dims))
        raw += b"".join(struct.pack("<I", d) for d in dims) + payload
    raw += struct.pack("<Q", sum(b"".join(p for _, _, p in entries)) % 2**64)
    path.write_bytes(raw)


def test_save_arrays_matches_hand_built_bytes(tmp_path):
    """save_arrays writes exactly the bytes write_raw_checkpoint builds by
    hand: entries sorted by name, float32 payloads, every rank."""
    rng = np.random.default_rng(6)
    arrays = {"z.w": rng.normal(size=(2, 3, 2)), "b": rng.normal(size=4),
              "é": np.float64(-0.75), "a.bias": np.zeros((1, 1))}
    saved = tmp_path / "saved.ltvt"
    checkpoint.save_arrays(str(saved), arrays)
    by_hand = tmp_path / "by_hand.ltvt"
    write_raw_checkpoint(by_hand, [
        (name, np.shape(arrays[name]) or (1,),
         np.asarray(arrays[name], dtype="<f4").tobytes()) for name in sorted(arrays)])
    assert saved.read_bytes() == by_hand.read_bytes()


def test_rank_above_numpy_limit_rejected_at_rank_byte(tmp_path):
    """A zero dim lets a rank numpy cannot build pass the truncation check:
    it is a FormatError at the rank byte, not a ValueError."""
    path = tmp_path / "rank.ltvt"
    write_raw_checkpoint(path, [("w", (0,) * 70, b"")])
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert "rank 70 of 'w'" in str(exc.value)
    assert exc.value.offset == 12 + 2 + 1


HOSTILE_DIMS = {
    "int64-overflow": (2**32 - 1, 2**32 - 1),
    "rank-255": (2**32 - 1,) * 255,
}


@pytest.mark.parametrize("dims", HOSTILE_DIMS.values(), ids=HOSTILE_DIMS.keys())
def test_hostile_dims_rejected_before_reading(tmp_path, dims):
    """Dims whose payload cannot fit in the file fail as a truncation,
    naming the dims, without overflowing or allocating the payload."""
    path = tmp_path / "hostile.ltvt"
    write_raw_checkpoint(path, [("w", dims, b"")])
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert "truncated" in str(exc.value) and "dims of 'w' at byte 16" in str(exc.value)
    assert exc.value.offset == path.stat().st_size


def test_duplicate_entry_name_rejected_at_its_offset(tmp_path):
    path = tmp_path / "dup.ltvt"
    first = ("w", (2,), np.array([1, 2], dtype="<f4").tobytes())
    write_raw_checkpoint(path, [first, ("w", (1,), np.array([3], dtype="<f4").tobytes())])
    with pytest.raises(FormatError) as exc:
        checkpoint.load_arrays(str(path))
    assert "duplicate entry name 'w'" in str(exc.value)
    assert exc.value.offset == 12 + 2 + 1 + 1 + 4 + 8  # header, then the first entry


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.ltvt"
    checkpoint.save_arrays(str(path), {"w": np.zeros(1)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        checkpoint.load_arrays(str(path))


class TestModelCheckpoints:
    CONFIG = ViTConfig(image_size=8, patch_size=4, channels=1, depth=1,
                       heads=2, dim=8, mlp_ratio=2, num_classes=3)

    def test_params_round_trip(self, tmp_path):
        params = init_params(self.CONFIG, seed=11)
        path = tmp_path / "model.ltvt"
        save_params(params, str(path))
        loaded = load_params(str(path))
        assert loaded.config == self.CONFIG
        assert loaded.names() == params.names()
        for name, tensor in params.items():
            np.testing.assert_array_equal(
                loaded[name].values, tensor.values.astype(np.float32).astype(np.float64)
            )
            assert loaded[name].requires_grad

    def test_dotted_parameter_names(self):
        params = init_params(self.CONFIG, seed=0)
        assert "block0.attn.wq" in params.names()
        assert "head.weight" in params.names()

    def test_missing_parameter_rejected(self, tmp_path):
        params = init_params(self.CONFIG, seed=0)
        arrays = {name: t.values for name, t in params.items()}
        arrays["__config__"] = self.CONFIG.to_array()
        del arrays["head.bias"]
        path = tmp_path / "partial.ltvt"
        checkpoint.save_arrays(str(path), arrays)
        with pytest.raises(FormatError) as exc:
            load_params(str(path))
        assert "head.bias" in str(exc.value)

    def test_missing_config_entry_rejected(self, tmp_path):
        path = tmp_path / "noconfig.ltvt"
        checkpoint.save_arrays(str(path), {"w": np.zeros(2)})
        with pytest.raises(FormatError):
            load_params(str(path))

    @pytest.mark.parametrize("entry, corrupt", [
        ("head.bias", lambda arrays: arrays.update({"head.bias": np.zeros(5)})),
        ("__config__", lambda arrays: arrays["__config__"].__setitem__(4, 3.0)),  # heads=3, dim=8
        ("__config__", lambda arrays: arrays["__config__"].__setitem__(0, np.nan)),
        ("__config__", lambda arrays: arrays["__config__"].__setitem__(4, 2.5)),
        ("zzz.extra", lambda arrays: arrays.update({"zzz.extra": np.zeros(1)})),
        pytest.param("head.bias", lambda arrays: arrays.update(
            {"head.bias": arrays["head.bias"] + np.nan}), id="head.bias-nan"),
    ])
    def test_bad_entry_named_at_its_offset(self, tmp_path, entry, corrupt):
        """A checksum-valid file with a wrong entry is a corrupt file, not
        a usage error: FormatError naming the entry at its first byte."""
        arrays = {name: t.values for name, t in init_params(self.CONFIG, seed=0).items()}
        arrays["__config__"] = self.CONFIG.to_array()
        corrupt(arrays)
        path = tmp_path / "bad.ltvt"
        checkpoint.save_arrays(str(path), arrays)
        offsets: dict = {}
        checkpoint.load_arrays(str(path), offsets)
        with pytest.raises(FormatError) as exc:
            load_params(str(path))
        assert entry in str(exc.value)
        assert exc.value.offset == offsets[entry]
        raw = path.read_bytes()
        assert raw[offsets[entry] + 2:offsets[entry] + 2 + len(entry)] == entry.encode()

    def test_identical_params_write_identical_bytes(self, tmp_path):
        a = tmp_path / "a.ltvt"
        b = tmp_path / "b.ltvt"
        save_params(init_params(self.CONFIG, seed=5), str(a))
        save_params(init_params(self.CONFIG, seed=5), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_parameter_beyond_float32_refused_before_writing(self, tmp_path):
        """A parameter float32 rounds to Inf (1e39 in `head.bias`), which
        `load_params` would refuse, is a `NonFiniteError`, a runtime
        failure (exit 1) and not a usage error, naming the parameter and
        its value; no file is opened and no overflow warning is raised."""
        params = init_params(self.CONFIG, seed=5)
        bias = params["head.bias"].values.copy()
        bias[1] = 1e39
        path = tmp_path / "overflow.ltvt"
        with pytest.raises(NonFiniteError) as exc:
            save_params(with_entry(params, "head.bias", bias), str(path))
        assert not isinstance(exc.value, ConfigError)
        assert str(exc.value) == (f"cannot save {path}: parameter 'head.bias' element 1 is "
                                  "1e+39, not a finite float32")
        assert list(tmp_path.iterdir()) == []
