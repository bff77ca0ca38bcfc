"""Datasets: IDX container parsing, synthetic generators, split helpers."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """A malformed IDX file, or an image and label file that disagree."""


@dataclass(eq=False)
class Dataset:
    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("inputs and labels must have equal length")

    def __len__(self) -> int:
        return len(self.x)

    def subset(self, indices) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices], self.num_classes)


def _read_idx(path, magic: int, kind: str, fields: tuple[str, ...]) -> np.ndarray:
    """One IDX file: magic, a big-endian int32 per header field, uint8 payload.

    Every fault raises an :class:`IdxError` that names the file and the
    header field it concerns; the payload size is checked against the file
    size before it is read.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(4 + 4 * len(fields))
        if len(header) != 4 + 4 * len(fields):
            raise IdxError(
                f"{path}: {kind} header (magic, {', '.join(fields)}) is cut short "
                f"at {len(header)} bytes"
            )
        found, *shape = struct.unpack(f">{1 + len(fields)}i", header)
        if found != magic:
            raise IdxError(f"{path}: bad {kind} magic 0x{found & 0xFFFFFFFF:08x}")
        for name, value in zip(fields, shape):
            if value < 1:
                raise IdxError(f"{path}: header field {name} is {value}, must be positive")
        need = math.prod(shape)
        have = size - len(header)
        declared = f"{' x '.join(fields)} = {' x '.join(map(str, shape))}"
        if have < need:
            raise IdxError(
                f"{path}: header fields {declared} need {need} payload bytes, file has {have}"
            )
        if have > need:
            raise IdxError(
                f"{path}: {have - need} trailing bytes after the {need}-byte payload "
                f"of header fields {declared}"
            )
        return np.frombuffer(f.read(need), dtype=np.uint8).reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse big-endian IDX image/label files; pixels normalized to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image", ("count", "rows", "cols"))
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label", ("count",))
    if len(labels) != len(images):
        raise IdxError(
            f"header field count: {len(images)} images in {images_path} "
            f"but {len(labels)} labels in {labels_path}"
        )
    x = images / 255.0
    y = labels.astype(np.int64)
    return Dataset(x, y, int(y.max()) + 1)


def save_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write images (floats in [0,1] or uint8) and labels as IDX files.

    Float pixels are scaled by 255, rounded and clipped; an empty image set
    or a non-finite pixel raises ``ValueError`` before any file is opened.
    """
    images, labels = np.asarray(images), np.asarray(labels)
    if images.ndim != 3:
        raise ValueError(f"save_idx: images must be (n, rows, cols), got shape {images.shape}")
    if not images.size:
        raise ValueError(f"save_idx: images must not be empty, got shape {images.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() <= 255:
        raise ValueError(f"save_idx: labels must be 0..255, got {labels.min()}..{labels.max()}")
    if len(images) != len(labels):
        raise ValueError("images and labels must have equal length")
    if images.dtype != np.uint8:
        finite = np.isfinite(images).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"save_idx: images must be finite, image {np.argmin(finite)} is not")
        with np.errstate(over="ignore"):  # a finite pixel past 7e305 clips to 255
            t = images * 255.0
        np.rint(t, out=t)
        np.clip(t, 0, 255, out=t)
        images = t.astype(np.uint8)
    labels = labels.astype(np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(labels.tobytes())


def _check_fields(obj, *names: str, least=None, above=None, most=None, below=None) -> None:
    """``ValueError`` naming the first of ``names`` (fields of ``obj``; a dict's
    keys, all of them if no names are given) whose value is NaN, infinite or
    out of bounds, with the bound and the value. A lower bound is required:
    ``least <= v`` or ``above < v``; an upper one, ``v <= most`` or
    ``v < below``, is optional."""
    values = obj if isinstance(obj, dict) else vars(obj)
    for name in names or values:
        value = values[name]
        if not -math.inf < value < math.inf:
            bound = "be a finite number"
        elif not (
            (value >= least if least is not None else value > above)
            and (most is None or value <= most)
            and (below is None or value < below)
        ):
            lo = f"[{least:g}" if least is not None else f"({above:g}"
            if most is not None or below is not None:
                bound = f"lie in {lo}, " + (f"{most:g}]" if most is not None else f"{below:g})")
            else:
                alone = f"at least {least:g}" if least is not None else f"above {above:g}"
                bound = "be " + {"[0": "nonnegative", "(0": "positive"}.get(lo, alone)
        else:
            continue
        raise ValueError(f"{name} must {bound}, got {value!r}")


def make_synthetic(
    kind: str, n: int, noise: float, seed: int, num_classes: int = 3
) -> Dataset:
    """Seeded 2-D toy datasets.

    `blobs`: Gaussian clusters at fixed centers on a radius-4 circle.
    `two_moons`: the usual interleaved half-circles (unit radius, centers
    (0,0) and (1,0.5)) plus isotropic Gaussian noise.
    """
    _check_fields({"n": n}, least=2)
    _check_fields({"num_classes": num_classes}, least=1)
    _check_fields({"noise": noise}, least=0)
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        centers = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        y = np.arange(n) % num_classes
        x = centers[y] + noise * rng.normal(size=(n, 2))
        order = rng.permutation(n)
        return Dataset(x[order], y[order].astype(np.int64), num_classes)
    if kind == "two_moons":
        n_out = n // 2
        n_in = n - n_out
        t_out = np.linspace(0.0, np.pi, n_out)
        t_in = np.linspace(0.0, np.pi, n_in)
        outer = np.stack([np.cos(t_out), np.sin(t_out)], axis=1)
        inner = np.stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)], axis=1)
        x = np.concatenate([outer, inner])
        y = np.concatenate([np.zeros(n_out, np.int64), np.ones(n_in, np.int64)])
        x = x + noise * rng.normal(size=x.shape)
        order = rng.permutation(n)
        return Dataset(x[order], y[order], 2)
    raise ValueError(f"unknown synthetic kind {kind!r}")


# Glyphs per block of the bump arithmetic: a few hundred KiB per temporary.
_GLYPH_BLOCK = 64


def make_image_classes(
    n: int,
    num_classes: int = 10,
    size: int = 28,
    shift: int = 3,
    noise: float = 0.25,
    blobs_per_class: int = 5,
    seed: int = 0,
) -> Dataset:
    """Seeded 28x28 grayscale classes built from blob constellations.

    Each class is a fixed constellation of Gaussian bumps; samples get an
    integer translation up to ``shift`` pixels, per-blob amplitude jitter,
    and pixel noise. Difficulty is controlled by ``shift`` and ``noise``.

    The draw order fixes the data: the templates, then per sample
    ``integers(-shift, shift + 1, size=2)``, ``uniform(0.7, 1.3,
    size=blobs_per_class)`` and the ``(size, size)`` standard normals, then
    ``permutation(n)``. The draws stay per sample; each distinct (class,
    shift) bump is computed once, in the elementwise order of the one-sample
    form, and each sample adds its bumps in blob order, so no byte changes.
    Bad arguments raise ``ValueError`` before any draw.
    """
    _check_fields({"n": n, "shift": shift, "noise": noise}, least=0)
    _check_fields({"num_classes": num_classes, "blobs_per_class": blobs_per_class}, least=1)
    _check_fields({"size": size}, least=16)
    ss = np.random.SeedSequence(seed)
    template_rng, sample_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    lo, hi = 8.0, size - 8.0
    centers = template_rng.uniform(lo, hi, size=(num_classes, blobs_per_class, 2))
    widths = template_rng.uniform(1.5, 3.0, size=(num_classes, blobs_per_class))
    # Scalar w**2 (C pow) as in the one-sample form; the array square can differ by an ulp.
    spread = np.array([[2.0 * w**2 for w in row] for row in widths])

    grid = np.arange(size, dtype=float)
    y = np.arange(n) % num_classes
    x = np.empty((n, size, size))  # the pixel noise, then the finished glyphs
    shifts = np.empty((n, 2), dtype=np.int64)
    amp = np.empty((n, blobs_per_class))
    for r in range(n):
        shifts[r] = sample_rng.integers(-shift, shift + 1, size=2)
        amp[r] = sample_rng.uniform(0.7, 1.3, size=blobs_per_class)
        sample_rng.standard_normal(out=x[r])
    for c in range(num_classes):
        glyphs, moves, gains = x[c::num_classes], shifts[c::num_classes], amp[c::num_classes]
        key = (moves[:, 0] + shift) * (2 * shift + 1) + moves[:, 1] + shift
        _, first, which = np.unique(key, return_index=True, return_inverse=True)
        cy, cx = (centers[c, :, i, None] + moves[first, i] for i in (0, 1))
        dy2, dx2 = (grid - cy[..., None]) ** 2, (grid - cx[..., None]) ** 2
        bumps = dy2[..., :, None] + dx2[..., None, :]  # (blob, distinct shift, row, col)
        np.negative(bumps, out=bumps)
        bumps /= spread[c, :, None, None, None]
        np.exp(bumps, out=bumps)
        for start in range(0, len(glyphs), _GLYPH_BLOCK):
            block = slice(start, start + _GLYPH_BLOCK)
            pick, out = which[block], glyphs[block]
            total = bumps[0, pick] * gains[block, 0, None, None]
            for k in range(1, blobs_per_class):
                total += bumps[k, pick] * gains[block, k, None, None]
            total /= total.max(axis=(1, 2), keepdims=True)
            out *= noise
            out += total
            np.clip(out, 0.0, 1.0, out=out)
    order = sample_rng.permutation(n)
    return Dataset(x[order], y[order].astype(np.int64), num_classes)


def split(ds: Dataset, sizes: tuple[int, ...], seed: int) -> tuple[Dataset, ...]:
    """Deterministic disjoint splits of the given sizes after a seeded shuffle."""
    if min(sizes, default=0) < 0 or sum(sizes) > len(ds):
        raise ValueError(f"cannot split {len(ds)} samples into {sizes}")
    order = np.random.default_rng(seed).permutation(len(ds))
    out = []
    start = 0
    for s in sizes:
        out.append(ds.subset(order[start : start + s]))
        start += s
    return tuple(out)


def stratified_take(ds: Dataset, count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Split off ``count`` samples covering every class as evenly as possible."""
    if count < ds.num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    picked: list[int] = []
    per_class = count // ds.num_classes
    extra = count % ds.num_classes
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.y == c)
        want = per_class + (1 if c < extra else 0)
        if len(members) < want:
            raise ValueError(f"class {c} has only {len(members)} samples")
        picked.extend(rng.choice(members, size=want, replace=False).tolist())
    picked_arr = np.array(sorted(picked))
    rest = np.setdiff1d(np.arange(len(ds)), picked_arr)
    return ds.subset(picked_arr), ds.subset(rest)
