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

from .data import _check_fields

POLICIES = ("linear", "cutmix", "manifold", "resizemix")
CUT_POLICIES = ("cutmix", "resizemix")


@dataclass(frozen=True)
class Lambda:
    """Mixing ratio in [0, 1]; the coefficient of the first input."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        _check_fields({"lam": self.value}, least=0, most=1)


@dataclass(frozen=True)
class MixConfig:
    """Which mixing policy to run and the Beta(alpha, alpha) its ratio is drawn from."""

    policy: str = "linear"
    alpha: float = 0.2

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown mixing policy {self.policy!r}")
        _check_fields(self, "alpha", above=0)


@dataclass(frozen=True)
class MixedTarget:
    """Label record of a mixed sample: the two source classes and the ratio."""

    class_a: int
    class_b: int
    lam: Lambda

    def __post_init__(self):
        _check_fields(self, "class_a", "class_b", least=0)


@dataclass(frozen=True, eq=False)
class Targets:
    """Label arrays of a mixed batch: source classes ``a``, ``b`` and ratio ``lam``.

    Each field has shape (n,); row i is the target of sample i.
    """

    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        a, b = _class_array(self.a), _class_array(self.b)
        lam = np.asarray(self.lam, dtype=float)
        if a.ndim != 1 or b.shape != a.shape or lam.shape != a.shape:
            raise ValueError("a, b and lam must be 1-D arrays of one length")
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
        _check_target_count(len(self.inputs), len(self.targets))
        if sorted(self.pairing.tolist()) != list(range(len(self.inputs))):
            raise ValueError("pairing must be a permutation of the batch indices")


def _class_array(labels) -> np.ndarray:
    """``labels`` as int64 class indices; ``ValueError`` naming the first one
    that is not a whole number, or the least if it is negative. An integer
    array is whole on its dtype alone."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu":
        whole = np.isfinite(labels) & (np.floor(labels) == labels)
        if not whole.all():
            raise ValueError(f"class index {labels[~whole][0]} is not a whole number")
    labels = labels.astype(np.int64, copy=False)
    if labels.size and labels.min() < 0:
        raise ValueError(f"class indices must be nonnegative, got {labels.min()}")
    return labels


def _check_target_count(n: int, n_targets: int) -> None:
    """``ValueError`` unless the batch is nonempty with one target per sample."""
    if n == 0:
        raise ValueError("empty batch")
    if n_targets != n:
        raise ValueError(f"one target per sample required, got {n_targets} for {n}")


def _cut_sides(height: int, width: int, lam: float) -> tuple[int, int]:
    """Box height and width at ratio ``lam``: sqrt(1-lam) of each dimension, floored."""
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be at least 1")
    _check_fields({"lam": lam}, least=0, most=1)
    cut = math.sqrt(1.0 - lam)
    return int(height * cut), int(width * cut)


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
    height: int, width: int, lam: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``n`` CutMix boxes at ratio ``lam``: edges ``y1, y2, x1, x2`` and the
    realized ratios, each of shape (n,).

    Box side is sqrt(1-lam) of each dimension, centered uniformly and clipped
    to the image; box i covers ``[y1[i]:y2[i], x1[i]:x2[i]]``. The n center
    rows are drawn, then the n center columns, unless the box has a zero
    side: then nothing is drawn and every box is empty. The realized ratio
    is the share of the image outside the box.
    """
    cut_h, cut_w = _cut_sides(height, width, lam)
    cy = cx = np.zeros(n, dtype=np.int64)
    if cut_h and cut_w:
        cy, cx = rng.integers(height, size=n), rng.integers(width, size=n)
    return _clip_boxes(height, width, cut_h, cut_w, cy, cx)


def cutmix_ratios(height: int, width: int, lam: float) -> np.ndarray:
    """Every ratio :func:`sample_cutmix_boxes` can realize at ``lam``, one per
    box center."""
    cut_h, cut_w = _cut_sides(height, width, lam)
    if cut_h == 0 or cut_w == 0:
        return np.ones(1)
    cy, cx = np.arange(height)[:, None], np.arange(width)[None, :]
    return _clip_boxes(height, width, cut_h, cut_w, cy, cx)[4].ravel()


def sample_resizemix_boxes(
    height: int, width: int, lam: float, rng: np.random.Generator
) -> tuple[int, int, int, int, float]:
    """One ResizeMix paste box at ratio ``lam``: edges ``top, bottom, left,
    right`` and the realized ratio.

    Box side is sqrt(1-lam) of each dimension, floored, at a uniform position
    inside the image: the top then the left edge, in one ``rng.integers``
    call. A box with a zero side draws nothing and is empty. The realized
    ratio is 1 - box area / image area.
    """
    th, tw = _cut_sides(height, width, lam)
    top = left = 0
    if th and tw:
        top, left = rng.integers([height - th + 1, width - tw + 1])
    return top, top + th, left, left + tw, 1.0 - (th * tw) / (height * width)


def _require_images(x: np.ndarray, who: str) -> None:
    if x.ndim < 3:
        raise ValueError(
            f"{who}: inputs must be images (n, ..., height, width), got shape {x.shape}"
        )


def _paste_inputs(x_a, x_b) -> tuple[np.ndarray, np.ndarray]:
    """The two image batches as floats, checked against each other."""
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != x_b.shape:
        raise ValueError(f"shape mismatch: {x_a.shape} vs {x_b.shape}")
    _require_images(x_a, "paste")
    return x_a, x_b


def paste_boxes(x_a: np.ndarray, x_b: np.ndarray, y1, y2, x1, x2) -> np.ndarray:
    """Row i of ``x_a`` with row i of ``x_b`` inside box i, whose edges come
    from :func:`sample_cutmix_boxes`; the images are the trailing two
    dimensions. One box applies to every row."""
    x_a, x_b = _paste_inputs(x_a, x_b)
    if len(y1) not in (1, len(x_a)):
        raise ValueError(f"{len(y1)} boxes for {len(x_a)} images: need 1 or {len(x_a)}")
    h, w = x_a.shape[-2:]
    rows, cols = np.arange(h)[:, None], np.arange(w)
    edge = (-1,) + (1,) * (x_a.ndim - 1)  # one box per row, broadcast over pixels
    inside = (
        (y1.reshape(edge) <= rows) & (rows < y2.reshape(edge))
        & (x1.reshape(edge) <= cols) & (cols < x2.reshape(edge))
    )
    return np.where(inside, x_b, x_a)


def paste_resized(x_a: np.ndarray, x_b: np.ndarray, top, bottom, left, right) -> np.ndarray:
    """``x_a`` with a nearest-neighbour downscale of the whole of ``x_b``, row
    by row, filling the box from :func:`sample_resizemix_boxes`."""
    x_a, x_b = _paste_inputs(x_a, x_b)
    h, w = x_b.shape[-2:]
    th, tw = bottom - top, right - left
    rows, cols = np.arange(th) * h // max(th, 1), np.arange(tw) * w // max(tw, 1)
    out = x_a.copy()
    out[..., top:bottom, left:right] = x_b[..., rows[:, None], cols]
    return out


def mix_batch(
    inputs: np.ndarray,
    labels: np.ndarray,
    config: MixConfig,
    rng: np.random.Generator,
) -> MixedBatch:
    """Pair each sample with a random partner and apply the configured policy.

    The batch draws its pairing, then one ratio, then (cut policies) one box
    that every sample shares; CutMix copies only that box from the partners.
    Policy `manifold` leaves the inputs untouched: the hidden-layer mix
    happens inside the network, this only records lam and the pairing.
    Bad inputs or a wrong label count raise ``ValueError`` before any draw.
    """
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels)
    n = len(inputs)
    if config.policy in CUT_POLICIES:
        _require_images(inputs, config.policy)
    _check_target_count(n, len(labels))
    pairing = rng.permutation(n)

    lam = rng.beta(config.alpha, config.alpha)

    ratio = lam
    if config.policy == "linear":
        mixed = lam * inputs + (1.0 - lam) * inputs[pairing]
    elif config.policy == "cutmix":
        (y1,), (y2,), (x1,), (x2,), (ratio,) = sample_cutmix_boxes(*inputs.shape[-2:], lam, 1, rng)
        mixed = inputs.copy()
        mixed[..., y1:y2, x1:x2] = inputs[..., y1:y2, x1:x2][pairing]
    elif config.policy == "resizemix":
        *box, ratio = sample_resizemix_boxes(*inputs.shape[-2:], lam, rng)
        mixed = paste_resized(inputs, inputs[pairing], *box)
    else:  # manifold: mixing deferred to the network's hidden layers
        mixed = inputs.copy()

    return MixedBatch(mixed, Targets(labels, labels[pairing], np.full(n, ratio)), pairing)

