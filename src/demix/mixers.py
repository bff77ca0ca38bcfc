"""Static mixing policies for pairs of inputs.

Every operation here is a pure function of its arguments and an explicit
``numpy.random.Generator``, so independent streams may run concurrently.
Cut-based policies report the realized mixing ratio, the share of the image
outside the pasted box, never the requested one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POLICIES = ("linear", "cutmix", "manifold", "resizemix")


@dataclass(frozen=True)
class Lambda:
    """Mixing ratio in [0, 1]; the coefficient of the first input."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (0.0 <= v <= 1.0) or not math.isfinite(v):
            raise ValueError(f"mixing ratio must lie in [0, 1], got {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class MixConfig:
    """Which mixing policy to run and how to draw its ratio."""

    policy: str = "linear"
    alpha: float = 0.2
    per_batch_lambda: bool = True

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown mixing policy {self.policy!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class MixedTarget:
    """Label record of a mixed sample: the two source classes and the ratio."""

    class_a: int
    class_b: int
    lam: Lambda

    def __post_init__(self):
        if self.class_a < 0 or self.class_b < 0:
            raise ValueError("class indices must be nonnegative")


@dataclass(frozen=True, eq=False)
class Targets:
    """Label arrays of a mixed batch: source classes ``a``, ``b`` and ratio ``lam``.

    Each field has shape (n,); row i is the target of sample i.
    """

    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.int64)
        b = np.asarray(self.b, dtype=np.int64)
        lam = np.asarray(self.lam, dtype=float)
        if a.ndim != 1 or b.shape != a.shape or lam.shape != a.shape:
            raise ValueError("a, b and lam must be 1-D arrays of one length")
        if len(a) and min(a.min(), b.min()) < 0:
            raise ValueError("class indices must be nonnegative")
        if not np.all((lam >= 0.0) & (lam <= 1.0)):
            raise ValueError("mixing ratios must lie in [0, 1]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", lam)

    @classmethod
    def from_records(cls, records) -> "Targets":
        records = list(records)
        return cls(
            [t.class_a for t in records],
            [t.class_b for t in records],
            [t.lam.value for t in records],
        )

    def __len__(self) -> int:
        return len(self.a)


@dataclass(eq=False)
class MixedBatch:
    """Mixed inputs, their targets and the pairing."""

    inputs: np.ndarray
    targets: Targets
    pairing: np.ndarray

    def __post_init__(self):
        _check_rows(len(self.inputs), len(self.targets), self.pairing)


def _check_rows(n: int, n_targets: int, pairing: np.ndarray) -> None:
    """One target per sample, and a pairing that permutes the n sample indices."""
    if n_targets != n:
        raise ValueError(f"one target per sample required, got {n_targets} for {n}")
    if sorted(pairing.tolist()) != list(range(n)):
        raise ValueError("pairing must be a permutation of the batch indices")


def _cut_sides(height: int, width: int, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box height and width per ratio: sqrt(1-lam) of each dimension, floored."""
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be at least 1")
    if lam.size and not (lam.min() >= 0.0 and lam.max() <= 1.0):
        raise ValueError("mixing ratios must lie in [0, 1]")
    cut = np.sqrt(1.0 - lam)
    return (height * cut).astype(np.int64), (width * cut).astype(np.int64)


def _clip_boxes(height, width, cut_h, cut_w, cy, cx):
    """Edges of boxes centred at (cy, cx) and clipped to the image, and the
    share of the image outside each box."""
    y1 = np.maximum(cy - cut_h // 2, 0)
    y2 = np.minimum(cy + cut_h // 2, height)
    x1 = np.maximum(cx - cut_w // 2, 0)
    x2 = np.minimum(cx + cut_w // 2, width)
    area = (y2 - y1) * (x2 - x1)
    return y1, y2, x1, x2, (height * width - area) / (height * width)


def sample_cutmix_boxes(
    height: int, width: int, lam: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One CutMix box per ratio in ``lam``: edges ``y1, y2, x1, x2`` and the
    realized ratios, each of shape (n,).

    Box side is sqrt(1-lam) of each dimension, centered uniformly and clipped
    to the image; row i covers ``[y1[i]:y2[i], x1[i]:x2[i]]``. Rows whose box
    has a zero side draw nothing and get an empty box; the m others draw
    their m center rows, then their m center columns. The realized ratio is
    the share of the image outside the box.
    """
    lam = np.asarray(lam, dtype=float)
    cut_h, cut_w = _cut_sides(height, width, lam)
    boxed = (cut_h > 0) & (cut_w > 0)
    cy, cx = np.zeros_like(cut_h), np.zeros_like(cut_w)
    m = np.count_nonzero(boxed)
    if m:
        cy[boxed] = rng.integers(height, size=m)
        cx[boxed] = rng.integers(width, size=m)
    return _clip_boxes(height, width, cut_h, cut_w, cy, cx)


def cutmix_ratios(height: int, width: int, lam: float) -> np.ndarray:
    """Every ratio :func:`sample_cutmix_boxes` can realize at ``lam``, one per
    box center."""
    cut_h, cut_w = _cut_sides(height, width, np.array(lam, dtype=float))
    if cut_h == 0 or cut_w == 0:
        return np.ones(1)
    cy, cx = np.arange(height)[:, None], np.arange(width)[None, :]
    return _clip_boxes(height, width, cut_h, cut_w, cy, cx)[4].ravel()


def sample_resizemix_boxes(
    height: int, width: int, lam: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One ResizeMix paste box per ratio in ``lam``: edges ``y1, y2, x1, x2``
    and the realized ratios, each of shape (n,).

    Box side is sqrt(1-lam) of each dimension, floored, at a uniform position
    inside the image. Rows whose box has a zero side draw nothing and get an
    empty box; the others draw their top then their left edge, row by row,
    in one ``rng.integers`` call. The realized ratio is 1 - box area / image
    area.
    """
    lam = np.asarray(lam, dtype=float)
    th, tw = _cut_sides(height, width, lam)
    boxed = (th > 0) & (tw > 0)
    top, left = np.zeros_like(th), np.zeros_like(tw)
    if boxed.any():
        highs = np.stack([height - th[boxed] + 1, width - tw[boxed] + 1], axis=1)
        top[boxed], left[boxed] = rng.integers(highs).T
    return top, top + th, left, left + tw, 1.0 - (th * tw) / (height * width)


def _paste_inputs(x_a, x_b, y1) -> tuple[np.ndarray, np.ndarray]:
    """The two image batches as floats, checked against each other and the box count."""
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != x_b.shape:
        raise ValueError(f"shape mismatch: {x_a.shape} vs {x_b.shape}")
    if x_a.ndim < 3:
        raise ValueError(f"images must have shape (n, ..., height, width), got {x_a.shape}")
    n = len(x_a)
    if len(y1) not in (1, n):
        raise ValueError(f"{len(y1)} boxes for {n} images: need 1 or {n}")
    return x_a, x_b


def paste_boxes(x_a: np.ndarray, x_b: np.ndarray, y1, y2, x1, x2) -> np.ndarray:
    """Row i of ``x_a`` with row i of ``x_b`` inside box i, whose edges come
    from :func:`sample_cutmix_boxes`; the images are the trailing two
    dimensions. One box applies to every row."""
    x_a, x_b = _paste_inputs(x_a, x_b, y1)
    h, w = x_a.shape[-2:]
    rows, cols = np.arange(h)[:, None], np.arange(w)
    edge = (-1,) + (1,) * (x_a.ndim - 1)  # one box per row, broadcast over pixels
    inside = (
        (y1.reshape(edge) <= rows) & (rows < y2.reshape(edge))
        & (x1.reshape(edge) <= cols) & (cols < x2.reshape(edge))
    )
    return np.where(inside, x_b, x_a)


def _nearest_source(size: int, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per box, the index into [0, size) that a nearest-neighbour downscale
    onto [start, stop) reads at each of the size positions; clipped outside
    the box."""
    offset = np.arange(size) - start[:, None]
    return np.clip(offset * size // np.maximum(stop - start, 1)[:, None], 0, size - 1)


def paste_resized(x_a: np.ndarray, x_b: np.ndarray, y1, y2, x1, x2) -> np.ndarray:
    """Row i of ``x_a`` with a nearest-neighbour downscale of the whole of row
    i of ``x_b`` filling box i, whose edges come from
    :func:`sample_resizemix_boxes`. One box applies to every row."""
    x_a, x_b = _paste_inputs(x_a, x_b, y1)
    h, w = x_b.shape[-2:]
    lead = (len(y1),) + (1,) * (x_b.ndim - 3)
    x_b = np.take_along_axis(x_b, _nearest_source(h, y1, y2).reshape(lead + (h, 1)), axis=-2)
    x_b = np.take_along_axis(x_b, _nearest_source(w, x1, x2).reshape(lead + (1, w)), axis=-1)
    return paste_boxes(x_a, x_b, y1, y2, x1, x2)


def mix_batch(
    inputs: np.ndarray,
    labels: np.ndarray,
    config: MixConfig,
    rng: np.random.Generator,
) -> MixedBatch:
    """Pair each sample with a random partner and apply the configured policy.

    ``per_batch_lambda`` draws one ratio (and one box) for the whole batch,
    otherwise each sample draws its own; policy `manifold` always draws one.
    Policy `manifold` leaves the inputs untouched: the hidden-layer mix
    happens inside the network, this only records lam and the pairing.
    """
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels)
    n = len(inputs)
    if n == 0:
        raise ValueError("empty batch")
    pairing = rng.permutation(n)
    _check_rows(n, len(labels), pairing)

    k = 1 if config.per_batch_lambda or config.policy == "manifold" else n
    lams = rng.beta(config.alpha, config.alpha, size=k)

    partners = inputs[pairing]
    ratios = lams
    if config.policy == "linear":
        w = lams.reshape((k,) + (1,) * (inputs.ndim - 1))
        mixed = w * inputs + (1.0 - w) * partners
    elif config.policy == "cutmix":
        *edges, ratios = sample_cutmix_boxes(*inputs.shape[-2:], lams, rng)
        mixed = paste_boxes(inputs, partners, *edges)
    elif config.policy == "resizemix":
        *edges, ratios = sample_resizemix_boxes(*inputs.shape[-2:], lams, rng)
        mixed = paste_resized(inputs, partners, *edges)
    else:  # manifold: mixing deferred to the network's hidden layers
        mixed = inputs.copy()

    ratios = np.broadcast_to(ratios, n).copy()
    return MixedBatch(mixed, Targets(labels, labels[pairing], ratios), pairing)

