"""Dataset tests: generator structure and determinism, split partition
properties, and the LTDS persistence format."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lethevit.data import (
    DataSplit,
    LabeledDataset,
    generate_toy_dataset,
    load_dataset,
    save_dataset,
    split_random_forget,
)
from lethevit.errors import ConfigError, FormatError


def write_label(path, ds, index, label):
    """Overwrite one stored label of an LTDS file, keeping its checksum valid."""
    raw = bytearray(path.read_bytes())
    at = 24 + ds.images.size * 4 + 2 * index
    raw[at:at + 2] = struct.pack("<H", label)
    checksum = int(np.frombuffer(bytes(raw[24:-8]), dtype=np.uint8).sum(dtype=np.uint64))
    raw[-8:] = struct.pack("<Q", checksum)
    path.write_bytes(bytes(raw))


def raw_dataset(header, pixels, labels):
    """LTDS bytes built by hand with a valid checksum: `header` is
    (n, class_count, image_size, channels) and need not be sane."""
    payload = np.asarray(pixels, dtype="<f4").tobytes() + np.asarray(labels, dtype="<u2").tobytes()
    return (b"LTDS" + struct.pack("<I", 1) + struct.pack("<4I", *header) + payload
            + struct.pack("<Q", sum(payload) % 2**64))


def small_dataset(seed=0, per_class=10, size=16):
    return generate_toy_dataset(3, per_class, size, seed=seed)


class TestToyGenerator:
    def test_same_seed_bit_identical(self):
        a = small_dataset(seed=5)
        b = small_dataset(seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        assert not np.array_equal(small_dataset(seed=1).images, small_dataset(seed=2).images)

    def test_shapes_and_labels(self):
        ds = generate_toy_dataset(4, 6, 16, seed=0)
        assert ds.images.shape == (24, 1, 16, 16)
        assert sorted(np.unique(ds.labels)) == [0, 1, 2, 3]
        assert np.bincount(ds.labels).tolist() == [6, 6, 6, 6]

    def test_same_class_samples_differ_in_detail(self):
        ds = small_dataset()
        same = ds.images[ds.labels == 0]
        assert np.abs(same[0] - same[1]).max() > 0.0

    def test_within_class_correlation_exceeds_cross_class(self):
        """Samples share their class pattern: flattened images of one
        class correlate more with each other than across classes."""
        ds = generate_toy_dataset(3, 20, 16, seed=3)
        flat = ds.images.reshape(len(ds), -1)
        flat = flat - flat.mean(axis=1, keepdims=True)
        norm = flat / np.linalg.norm(flat, axis=1, keepdims=True)
        sims = norm @ norm.T
        same_mask = ds.labels[:, None] == ds.labels[None, :]
        np.fill_diagonal(same_mask, False)
        within = sims[same_mask].mean()
        across = sims[~same_mask].mean()
        assert within > across + 0.03

    def test_roughly_normalized(self):
        ds = small_dataset()
        assert abs(ds.images.mean()) < 0.3
        assert 0.5 < ds.images.std() < 2.0

    def test_linear_probe_beats_chance(self):
        """Raw pixels are linearly separable well above 1/3 accuracy."""
        train = generate_toy_dataset(3, 30, 16, seed=11)
        probe = generate_toy_dataset(3, 10, 16, seed=12)
        x = train.images.reshape(len(train), -1)
        x = np.hstack([x, np.ones((len(x), 1))])
        targets = np.eye(3)[train.labels]
        weights, *_ = np.linalg.lstsq(x, targets, rcond=None)
        xp = probe.images.reshape(len(probe), -1)
        xp = np.hstack([xp, np.ones((len(xp), 1))])
        predictions = np.argmax(xp @ weights, axis=1)
        accuracy = (predictions == probe.labels).mean()
        assert accuracy > 0.8

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            generate_toy_dataset(1, 10, 16, seed=0)

    def test_image_no_larger_than_a_mark_rejected(self):
        """At image_size 3 a mark has no position to be drawn from, and
        numpy's "low >= high" ValueError is not a LetheError."""
        with pytest.raises(ConfigError, match="image_size > 3"):
            generate_toy_dataset(2, 1, 3, seed=0)
        assert generate_toy_dataset(2, 1, 4, seed=0).images.shape == (2, 1, 4, 4)

    @pytest.mark.parametrize("channels", [0, -1])
    def test_no_channel_rejected(self, channels):
        """-1 used to end in numpy's "negative dimensions" ValueError."""
        with pytest.raises(ConfigError, match=f"channels must be >= 1, got {channels}"):
            generate_toy_dataset(2, 1, 4, seed=0, channels=channels)


class TestSplit:
    def test_floor_arithmetic(self):
        train = small_dataset(per_class=34)  # n = 102
        test = small_dataset(seed=9, per_class=4)
        split = split_random_forget(train, test, ratio=0.10, seed=0)
        assert len(split.forget) == 10
        assert len(split.retain) == 92

    def test_same_seed_identical(self):
        train, test = small_dataset(), small_dataset(seed=9)
        a = split_random_forget(train, test, 0.2, seed=3)
        b = split_random_forget(train, test, 0.2, seed=3)
        np.testing.assert_array_equal(a.forget, b.forget)

    def test_bad_ratio_rejected(self):
        train, test = small_dataset(), small_dataset(seed=9)
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                split_random_forget(train, test, ratio, seed=0)

    def test_overlapping_split_rejected(self):
        train, test = small_dataset(), small_dataset(seed=9)
        with pytest.raises(ConfigError):
            DataSplit(train, np.array([0, 1]), np.arange(1, len(train)), test)

    def test_incomplete_split_rejected(self):
        train, test = small_dataset(), small_dataset(seed=9)
        with pytest.raises(ConfigError):
            DataSplit(train, np.array([0]), np.arange(2, len(train)), test)

    def test_float_labels_rejected(self):
        with pytest.raises(ConfigError, match="labels must be integers, got dtype float64"):
            LabeledDataset(np.zeros((2, 1, 4, 4)), np.array([0.5, 1.0]), class_count=2)

    @pytest.mark.parametrize("forget, message", [
        ([5], "forget index 5 outside [0, 3)"),
        ([-1], "forget index -1 outside [0, 3)"),
        ([0.5, 1.0], "forget indices must be a 1-D integer array, got dtype float64"),
    ], ids=["past-the-end", "negative", "float"])
    def test_bad_forget_indices_rejected_naming_the_array(self, forget, message):
        """Unchecked, an index past the end fails later, in `forget_set`, a
        negative one stands for another image, and floats are truncated."""
        train = LabeledDataset(np.zeros((3, 1, 4, 4)), np.array([0, 1, 0]), class_count=2)
        with pytest.raises(ConfigError, match=re.escape(message)):
            DataSplit(train, np.array(forget), np.array([0, 1]), train)

    @given(st.integers(2, 200), st.floats(0.01, 0.99), st.integers(0, 2**63 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_partition_property(self, n, ratio, seed):
        """Disjoint and covering on random (n, ratio, seed) triples."""
        images = np.zeros((n, 1, 4, 4))
        labels = np.zeros(n, dtype=np.int64)
        train = LabeledDataset(images, labels, class_count=2)
        split = split_random_forget(train, train, ratio, seed)
        assert len(split.forget) == int(np.floor(ratio * n + 1e-9))
        combined = np.concatenate([split.forget, split.retain])
        assert len(np.unique(combined)) == n

    def test_subsets_select_expected_rows(self):
        train, test = small_dataset(), small_dataset(seed=9)
        split = split_random_forget(train, test, 0.25, seed=1)
        forget = split.forget_set()
        np.testing.assert_array_equal(forget.images, train.images[split.forget])
        np.testing.assert_array_equal(forget.labels, train.labels[split.forget])


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small_dataset(seed=8)
        path = tmp_path / "toy.ltds"
        save_dataset(ds, str(path))
        loaded = load_dataset(str(path))
        f32 = ds.images.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(loaded.images, f32)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.class_count == ds.class_count

    def test_save_load_save_byte_identical(self, tmp_path):
        ds = small_dataset(seed=8)
        a, b = tmp_path / "a.ltds", tmp_path / "b.ltds"
        save_dataset(ds, str(a))
        save_dataset(load_dataset(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ltds"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert exc.value.offset == 0

    def test_version_bump_rejected(self, tmp_path):
        path = tmp_path / "v9.ltds"
        save_dataset(small_dataset(), str(path))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert "version 9" in str(exc.value)

    def test_corrupted_checksum(self, tmp_path):
        path = tmp_path / "bad_sum.ltds"
        save_dataset(small_dataset(), str(path))
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0x01  # flip one pixel payload bit
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert "checksum" in str(exc.value)

    def test_label_out_of_range_names_offset(self, tmp_path):
        path = tmp_path / "label.ltds"
        ds = small_dataset()
        save_dataset(ds, str(path))
        write_label(path, ds, index=7, label=ds.class_count)
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert f"label {ds.class_count}" in str(exc.value)
        assert exc.value.offset == 24 + ds.images.size * 4 + 2 * 7

    @pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_non_finite_pixel_names_offset(self, tmp_path, value):
        """A checksum-valid file with a NaN or Inf pixel is a corrupt file,
        named at the pixel's first byte."""
        path = tmp_path / "pixel.ltds"
        pixels = np.zeros(8)
        pixels[5] = value
        path.write_bytes(raw_dataset((2, 2, 2, 1), pixels, [0, 1]))
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert str(exc.value) == f"{path}: pixel 5 is {value} (byte offset 44)"
        assert exc.value.offset == 24 + 4 * 5

    @pytest.mark.parametrize("value", [np.nan, 1e39], ids=["nan", "beyond-float32"])
    def test_save_refuses_a_pixel_load_refuses(self, tmp_path, value):
        """NaN, or a value float32 rounds to Inf, is refused before the
        file is opened, with no overflow warning on the way."""
        images = np.zeros((2, 1, 2, 2))
        images[1, 0, 0, 1] = value  # flat index 5
        ds = LabeledDataset(images, np.array([0, 1]), 2)
        with pytest.raises(ConfigError) as exc:
            save_dataset(ds, str(tmp_path / "refused.ltds"))
        assert f"pixel 5 is {value}, not a finite float32" in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_truncation_names_offset(self, tmp_path):
        path = tmp_path / "short.ltds"
        save_dataset(small_dataset(), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:100])
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert "truncated" in str(exc.value)
        assert exc.value.offset == 100

    def test_save_dataset_matches_hand_built_bytes(self, tmp_path):
        ds = generate_toy_dataset(3, 2, 4, seed=1, channels=2)
        path = tmp_path / "golden.ltds"
        save_dataset(ds, str(path))
        assert path.read_bytes() == raw_dataset((6, 3, 4, 2), ds.images.ravel(), ds.labels)

    @pytest.mark.parametrize("header, offset", [
        ((0, 2, 1, 1), 8),
        ((2, 1, 1, 1), 12),
        ((2, 65537, 1, 1), 12),
        ((2, 2**32 - 1, 1, 1), 12),
        ((2, 2, 0, 1), 16),
        ((2, 2, 1, 0), 20),
    ], ids=["n-0", "one-class", "classes-above-u16", "classes-u32-max", "size-0", "channels-0"])
    def test_bad_header_field_names_its_offset(self, tmp_path, header, offset):
        """A checksum-valid file whose header field is out of bounds fails at
        that field, with a payload sized to match the header."""
        n, _, size, channels = header
        path = tmp_path / "header.ltds"
        path.write_bytes(raw_dataset(header, np.zeros(n * channels * size * size), np.zeros(n)))
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert "header field" in str(exc.value)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("class_count, labels", [(70000, [0, 65537]), (1, [0, 0])],
                             ids=["classes-above-u16", "one-class"])
    def test_save_refuses_a_header_load_refuses(self, tmp_path, class_count, labels):
        """The writer checks the same `HEADER_FIELDS` bounds as the reader, so
        a label cannot wrap in the u16 cast and no unloadable file is left."""
        ds = LabeledDataset(np.zeros((2, 1, 2, 2)), np.array(labels), class_count)
        path = tmp_path / "refused.ltds"
        with pytest.raises(ConfigError) as exc:
            save_dataset(ds, str(path))
        assert f"header field class_count = {class_count} is outside [2, 65536]" in str(exc.value)
        assert not path.exists()

    def test_largest_class_count_loads(self, tmp_path):
        path = tmp_path / "wide.ltds"
        path.write_bytes(raw_dataset((2, 65536, 1, 1), [0.5, -0.5], [0, 65535]))
        assert load_dataset(str(path)).class_count == 65536

    @pytest.mark.parametrize("length", [0, 3])
    def test_file_shorter_than_magic_is_truncated(self, tmp_path, length):
        path = tmp_path / "short.ltds"
        path.write_bytes(b"LTDS"[:length])
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert "truncated file while reading magic bytes" in str(exc.value)
        assert exc.value.offset == length

    def test_checksum_checked_before_trailing_bytes(self, tmp_path):
        path = tmp_path / "both.ltds"
        save_dataset(small_dataset(), str(path))
        raw = bytearray(path.read_bytes() + b"\x00")
        raw[30] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load_dataset(str(path))
        assert "checksum" in str(exc.value)
