import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demix.data import (
    Dataset,
    IdxError,
    load_idx,
    make_image_classes,
    make_synthetic,
    save_idx,
    split,
    stratified_take,
)
from oracles import make_image_classes as one_sample_image_classes


def with_pixel(value, at):
    """Three 4x4 images of zeros with ``value`` at index ``at``."""
    images = np.zeros((3, 4, 4))
    images[at] = value
    return images


def write_fixture(tmp_path, images, labels, image_magic=0x803, label_magic=0x801):
    """Hand-assembled IDX pair, byte by byte."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(
        struct.pack(">iiii", image_magic, n, rows, cols) + images.tobytes()
    )
    lbl_path.write_bytes(struct.pack(">ii", label_magic, len(labels)) + labels.tobytes())
    return img_path, lbl_path


class TestIdx:
    def two_image_fixture(self, tmp_path, **kw):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[0, 13, 7] = 128
        images[1, 27, 27] = 1
        labels = np.array([3, 9], dtype=np.uint8)
        return write_fixture(tmp_path, images, labels, **kw), images, labels

    def test_parses_fixture(self, tmp_path):
        (img, lbl), images, labels = self.two_image_fixture(tmp_path)
        ds = load_idx(img, lbl)
        assert ds.x.shape == (2, 28, 28)
        assert ds.x[0, 0, 0] == 1.0  # byte 255 normalizes to exactly 1
        assert ds.x[0, 13, 7] == 128 / 255
        assert np.array_equal(ds.y, [3, 9])
        assert ds.num_classes == 10

    def test_every_byte_loads_to_its_float64_over_255(self, tmp_path):
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        img, lbl = write_fixture(tmp_path, images, np.zeros(4, dtype=np.uint8))
        x = load_idx(img, lbl).x
        assert x.dtype == np.float64
        assert x.tobytes() == (np.arange(256, dtype=np.float64) / 255.0).reshape(4, 8, 8).tobytes()

    def test_bad_image_magic(self, tmp_path):
        (img, lbl), _, _ = self.two_image_fixture(tmp_path, image_magic=0x102)
        with pytest.raises(IdxError, match=r"images\.idx: bad image magic 0x00000102"):
            load_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        (img, lbl), _, _ = self.two_image_fixture(tmp_path, label_magic=0x803)
        with pytest.raises(IdxError, match=r"labels\.idx: bad label magic 0x00000803"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.array([1, 2, 3], dtype=np.uint8)
        img, lbl = write_fixture(tmp_path, images, labels)
        with pytest.raises(
            IdxError,
            match=r"header field count: 2 images in .*images\.idx but 3 labels in .*labels\.idx",
        ):
            load_idx(img, lbl)

    def test_truncated_file(self, tmp_path):
        (img, lbl), _, _ = self.two_image_fixture(tmp_path)
        img.write_bytes(img.read_bytes()[:-10])
        with pytest.raises(IdxError, match=r"images\.idx: header fields count x rows"):
            load_idx(img, lbl)
        (img, lbl), _, _ = self.two_image_fixture(tmp_path)
        lbl.write_bytes(lbl.read_bytes()[:6])
        with pytest.raises(IdxError, match=r"labels\.idx: label header"):
            load_idx(img, lbl)

    @pytest.mark.parametrize(
        "header, field",
        [
            ((-1, 28, 28), "count"),
            ((-1, -1, 28), "count"),
            ((0, 28, 28), "count"),
            ((2, 0, 28), "rows"),
            ((2, 28, -5), "cols"),
        ],
    )
    def test_bad_image_header_field_named(self, tmp_path, header, field):
        (img, lbl), _, _ = self.two_image_fixture(tmp_path)
        img.write_bytes(struct.pack(">iiii", 0x803, *header))
        with pytest.raises(IdxError, match=rf"images\.idx: header field {field} is"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("count", [-1, 0])
    def test_bad_label_count_named(self, tmp_path, count):
        (img, lbl), _, _ = self.two_image_fixture(tmp_path)
        lbl.write_bytes(struct.pack(">ii", 0x801, count))
        with pytest.raises(IdxError, match=r"labels\.idx: header field count is"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_trailing_bytes_rejected(self, tmp_path, which):
        (img, lbl), _, _ = self.two_image_fixture(tmp_path)
        path = img if which == "images" else lbl
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IdxError, match=rf"{which}\.idx: 1 trailing bytes .* count"):
            load_idx(img, lbl)

    @given(
        which=st.sampled_from(["images", "labels"]),
        op=st.sampled_from(["truncate", "flip", "append"]),
        where=st.floats(0.0, 1.0),
        byte=st.integers(1, 255),
    )
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fuzzed_files_raise_only_idx_errors(self, tmp_path, which, op, where, byte):
        rng = np.random.default_rng(0)
        img, lbl = write_fixture(
            tmp_path,
            rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8),
            np.array([0, 2, 1], dtype=np.uint8),
        )
        path = img if which == "images" else lbl
        raw = bytearray(path.read_bytes())
        at = int(where * len(raw))
        if op == "truncate":
            raw = raw[:at]
        elif op == "flip":
            raw[min(at, len(raw) - 1)] ^= byte
        else:
            raw[at:at] = bytes([byte])
        path.write_bytes(bytes(raw))
        try:
            ds = load_idx(img, lbl)
        except IdxError:
            return
        assert ds.x.shape == (3, 4, 5) and 0 < ds.num_classes <= 256

    @pytest.mark.parametrize(
        "images, labels, message",
        [
            (np.zeros((3, 4, 4)), np.array([0, 256, 1]),
             r"labels must be 0\.\.255, got 0\.\.256"),
            (np.zeros((3, 16)), np.array([0, 1, 2]),
             r"images must be \(n, rows, cols\), got shape \(3, 16\)"),
            (np.zeros((0, 4, 4)), np.array([], dtype=np.uint8),
             r"images must not be empty, got shape \(0, 4, 4\)"),
            (np.zeros((3, 0, 4)), np.array([0, 1, 2]),
             r"images must not be empty, got shape \(3, 0, 4\)"),
            (np.zeros((3, 4, 0), dtype=np.uint8), np.array([0, 1, 2]),
             r"images must not be empty, got shape \(3, 4, 0\)"),
            (with_pixel(np.nan, (1, 2, 3)), np.array([0, 1, 2]),
             r"images must be finite, image 1 is not"),
            (with_pixel(np.inf, (2, 0, 0)), np.array([0, 1, 2]),
             r"images must be finite, image 2 is not"),
            (with_pixel(-np.inf, (0, 3, 3)), np.array([0, 1, 2]),
             r"images must be finite, image 0 is not"),
        ],
        ids=["label_256", "flat_images", "no_images", "no_rows", "no_cols",
             "nan_pixel", "inf_pixel", "minus_inf_pixel"],
    )
    def test_save_rejects_what_idx_cannot_hold(self, tmp_path, images, labels, message):
        with pytest.raises(ValueError, match=f"save_idx: {message}"):
            save_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        assert not (tmp_path / "i.idx").exists()

    def test_save_rounds_and_clips_floats_without_touching_them(self, tmp_path):
        x = np.random.default_rng(3).uniform(-0.5, 1.5, size=(4, 3, 5))
        x[0, 0] = [0.5, 1.5 / 255, 2.5 / 255, -0.5 / 255, 254.5 / 255]  # .5 ties
        x[1, 1] = [-2.0, -1e-9, 1.0 + 1e-9, 3.0, 1e308]  # 1e308 * 255 overflows
        before = x.copy()
        save_idx(x, np.arange(4), tmp_path / "i.idx", tmp_path / "l.idx")
        with np.errstate(over="ignore"):
            want = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
        assert (tmp_path / "i.idx").read_bytes()[16:] == want.tobytes()
        assert x.tobytes() == before.tobytes()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 6, 6), dtype=np.uint8)
        labels = rng.integers(0, 4, size=5).astype(np.uint8)
        save_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert np.array_equal((ds.x * 255).round().astype(np.uint8), images)
        assert np.array_equal(ds.y, labels)


class TestSynthetic:
    def test_blobs_noise_zero_at_centers(self):
        ds = make_synthetic("blobs", 30, 0.0, seed=1, num_classes=3)
        # every point sits exactly on one of the three fixed centers
        angles = 2 * np.pi * np.arange(3) / 3
        centers = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for x, y in zip(ds.x, ds.y):
            assert np.array_equal(x, centers[y])

    def test_same_seed_identical(self):
        a = make_synthetic("two_moons", 50, 0.1, seed=9)
        b = make_synthetic("two_moons", 50, 0.1, seed=9)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_two_moons_geometry(self):
        ds = make_synthetic("two_moons", 200, 0.0, seed=0)
        r0 = np.linalg.norm(ds.x[ds.y == 0], axis=1)
        r1 = np.linalg.norm(ds.x[ds.y == 1] - np.array([1.0, 0.5]), axis=1)
        np.testing.assert_allclose(r0, 1.0, atol=1e-12)
        np.testing.assert_allclose(r1, 1.0, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_synthetic("spirals", 10, 0.1, 0)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
            make_synthetic("blobs", 1, 0.1, 0)

    @pytest.mark.parametrize("kind", ["blobs", "two_moons"])
    @pytest.mark.parametrize("num_classes", [0, -1])
    def test_bad_class_count_named_before_any_draw(self, monkeypatch, kind, num_classes):
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("a draw ran"))
        message = rf"^num_classes must be at least 1, got {num_classes}$"
        with pytest.raises(ValueError, match=message):
            make_synthetic(kind, 10, 0.1, 0, num_classes=num_classes)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_noise_named(self, noise):
        bound = "be nonnegative" if math.isfinite(noise) else "be a finite number"
        message = rf"^noise must {bound}, got {noise!r}$"
        with pytest.raises(ValueError, match=message):
            make_synthetic("blobs", 4, noise, 0)


class TestImageClasses:
    def test_shapes_and_range(self):
        ds = make_image_classes(40, num_classes=4, seed=2)
        assert ds.x.shape == (40, 28, 28)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        assert set(np.unique(ds.y)) == {0, 1, 2, 3}

    def test_deterministic(self):
        a = make_image_classes(20, seed=5)
        b = make_image_classes(20, seed=5)
        assert np.array_equal(a.x, b.x)

    def test_classes_balanced(self):
        ds = make_image_classes(100, num_classes=10, seed=0)
        assert np.bincount(ds.y).tolist() == [10] * 10

    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 0},
            {"n": 3, "num_classes": 10},
            {"n": 40, "shift": 0, "seed": 1},
            {"n": 70, "blobs_per_class": 1, "seed": 2},
            {"n": 130, "size": 16, "seed": 3},
            {"n": 65, "size": 20, "num_classes": 4, "seed": 5},
            {"n": 129, "size": 32, "shift": 5, "noise": 0.0, "seed": 6},
            {"n": 200, "num_classes": 1, "blobs_per_class": 9, "noise": 1.0, "seed": 7},
            {"n": 1405, "seed": 8},
            {"n": 30, "size": 32, "shift": 8, "seed": 9},
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bytes_equal_the_one_sample_form(self, kw):
        # Each class's rows are summed in blocks: 1405 glyphs give classes of
        # 140 or 141 rows, which cross block edges; at shift 8 no class of
        # three glyphs draws a shift twice, so every bump is used once.
        got, want = make_image_classes(**kw), one_sample_image_classes(**kw)
        assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes() and got.num_classes == want.num_classes

    def test_acceptance_gate_data_pinned(self):
        # Holds for one numpy build, like the training guard digests.
        ds = make_image_classes(2000, noise=0.25, shift=3, seed=0)
        h = hashlib.sha256(ds.x.tobytes())
        h.update(ds.y.tobytes())
        assert h.hexdigest() == (
            "20a26fcd7d6044e1dd9c3294b54e03d1"
            "64ea68c4f880e8681f186a8b5087d82b"
        )

    @pytest.mark.parametrize(
        "name, value",
        [("n", -1), ("num_classes", 0), ("blobs_per_class", 0), ("size", 15), ("shift", -1)],
    )
    def test_bad_argument_named_before_any_draw(self, monkeypatch, name, value):
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("a draw ran"))
        bounds = {"n": "nonnegative", "shift": "nonnegative", "size": "at least 16"}
        bound = bounds.get(name, "at least 1")
        with pytest.raises(ValueError, match=rf"^{name} must be {bound}, got {value}$"):
            make_image_classes(**{"n": 10, name: value})

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -3.0])
    def test_bad_noise_named_before_any_draw(self, monkeypatch, noise):
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("a draw ran"))
        bound = "be nonnegative" if math.isfinite(noise) else "be a finite number"
        message = rf"^noise must {bound}, got {noise!r}$"
        with pytest.raises(ValueError, match=message):
            make_image_classes(4, noise=noise)


class TestSplits:
    def test_split_disjoint_and_sized(self):
        ds = make_image_classes(50, num_classes=5, seed=1)
        a, b = split(ds, (30, 20), seed=3)
        assert len(a) == 30 and len(b) == 20

    def test_split_too_large(self):
        ds = make_image_classes(10, num_classes=5, seed=1)
        with pytest.raises(ValueError):
            split(ds, (8, 8), seed=0)

    def test_split_negative_size_rejected(self):
        ds = make_image_classes(40, num_classes=5, seed=1)
        with pytest.raises(ValueError, match=r"cannot split 40 samples into \(-1, 5\)"):
            split(ds, (-1, 5), seed=0)

    def test_stratified_take_covers_classes(self):
        ds = make_synthetic("two_moons", 1000, 0.1, seed=0)
        labeled, rest = stratified_take(ds, 10, seed=0)
        assert len(labeled) == 10 and len(rest) == 990
        assert set(np.unique(labeled.y)) == {0, 1}
        assert np.bincount(labeled.y).tolist() == [5, 5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2), 2)
