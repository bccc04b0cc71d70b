"""The one container reader behind checkpoints and datasets, driven by
damaged copies of a small model checkpoint and a small dataset: every
proper prefix is a truncation at its own length, and every single-byte
change, and every set of changes to the bytes outside the payloads,
loads or raises a LetheError, never another exception."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethevit.data import generate_toy_dataset, load_dataset, save_dataset
from lethevit.errors import FormatError, LetheError
from lethevit.vit import ViTConfig, init_params, load_params, save_params

CONFIG = ViTConfig(image_size=4, patch_size=2, channels=1, depth=1,
                   heads=1, dim=2, mlp_ratio=1, num_classes=2)

KINDS = ("ltvt", "ltds")
LOADERS = {"ltvt": load_params, "ltds": load_dataset}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per kind: the intact file's bytes and a path to write damaged copies to."""
    root = tmp_path_factory.mktemp("container")
    save_params(init_params(CONFIG, seed=0), str(root / "model.ltvt"))
    save_dataset(generate_toy_dataset(2, 2, 4, seed=0), str(root / "data.ltds"))
    return {"ltvt": ((root / "model.ltvt").read_bytes(), root / "damaged.ltvt"),
            "ltds": ((root / "data.ltds").read_bytes(), root / "damaged.ltds")}


@pytest.mark.parametrize("kind", KINDS)
def test_intact_file_loads(files, kind):
    raw, path = files[kind]
    path.write_bytes(raw)
    LOADERS[kind](str(path))


@pytest.mark.parametrize("kind", KINDS)
def test_every_proper_prefix_is_truncated_at_its_length(files, kind):
    raw, path = files[kind]
    for length in range(len(raw)):
        path.write_bytes(raw[:length])
        with pytest.raises(FormatError) as exc:
            LOADERS[kind](str(path))
        assert "truncated" in str(exc.value), length
        assert exc.value.offset == length


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), flip=st.integers(1, 255))
@settings(max_examples=300, deadline=None)
def test_any_single_byte_change_loads_or_raises_lethe_error(files, kind, data, flip):
    raw, path = files[kind]
    damaged = bytearray(raw)
    damaged[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= flip
    path.write_bytes(bytes(damaged))
    try:
        LOADERS[kind](str(path))
    except LetheError:
        pass


def header_offsets(kind, raw):
    """The offsets of every byte outside the payloads: magic, version, the
    format header, each checkpoint entry's descriptor and the checksum."""
    if kind == "ltds":
        return [*range(24), *range(len(raw) - 8, len(raw))]
    offsets = list(range(12))
    at = 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        name_len, = struct.unpack_from("<H", raw, at)
        rank = raw[at + 2 + name_len]
        dims = struct.unpack_from(f"<{rank}I", raw, at + 3 + name_len)
        descriptor = 3 + name_len + 4 * rank
        offsets += range(at, at + descriptor)
        at += descriptor + 4 * math.prod(dims)
    assert at == len(raw) - 8
    return offsets + list(range(at, len(raw)))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_header_bytes_changed_load_or_raise_lethe_error(files, kind, data):
    """Two to eight bytes outside the payloads overwritten at once, so
    lengths, counts and dims disagree with each other in every way."""
    raw, path = files[kind]
    offsets = header_offsets(kind, raw)
    writes = data.draw(st.lists(st.tuples(st.sampled_from(offsets), st.integers(0, 255)),
                                min_size=2, max_size=8), label="writes")
    damaged = bytearray(raw)
    for at, value in writes:
        damaged[at] = value
    path.write_bytes(bytes(damaged))
    try:
        LOADERS[kind](str(path))
    except LetheError:
        pass
