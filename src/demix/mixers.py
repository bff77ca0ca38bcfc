"""Static mixing policies for pairs of inputs.

Every operation here is a pure function of its arguments and an explicit
``numpy.random.Generator``, so independent streams may run concurrently.
Cut-based policies report the realized mixing ratio recomputed from the
mask, never the requested one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    @property
    def complement(self) -> float:
        return 1.0 - self.value


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


@dataclass(frozen=True, eq=False)
class MixMask:
    """Spatial mixing mask; entry 1 keeps the first image, 0 the second."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("mask must be a non-empty 2-D grid")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("mask entries must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def area_ratio(self) -> float:
        """Mean mask value: the fraction of content kept from the first image."""
        return float(self.values.mean())


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

    Each field has shape (n,); row i is the target of sample i. ``len``,
    indexing and iteration yield the same rows as :class:`MixedTarget`
    records.
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

    def __getitem__(self, i: int) -> MixedTarget:
        return MixedTarget(int(self.a[i]), int(self.b[i]), Lambda(float(self.lam[i])))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(eq=False)
class MixedBatch:
    """Mixed inputs, their targets and the pairing; a list of records becomes
    :class:`Targets`."""

    inputs: np.ndarray
    targets: Targets
    pairing: np.ndarray

    def __post_init__(self):
        if not isinstance(self.targets, Targets):
            self.targets = Targets.from_records(self.targets)
        n = len(self.inputs)
        if len(self.targets) != n:
            raise ValueError("one target per sample required")
        if sorted(self.pairing.tolist()) != list(range(n)):
            raise ValueError("pairing must be a permutation of the batch indices")


def _sample_gamma(shape: float, rng: np.random.Generator) -> float:
    # Marsaglia & Tsang squeeze method; shape < 1 boosted by a uniform power,
    # which stays correct in the heavily bimodal small-concentration regime.
    if shape < 1.0:
        u = rng.uniform()
        return _sample_gamma(shape + 1.0, rng) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_lambda(alpha: float, rng: np.random.Generator) -> Lambda:
    """Draw a mixing ratio from Beta(alpha, alpha)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    while True:
        ga = _sample_gamma(alpha, rng)
        gb = _sample_gamma(alpha, rng)
        if ga + gb > 0.0:
            return Lambda(ga / (ga + gb))


def mix_linear(x_a: np.ndarray, x_b: np.ndarray, lam: Lambda) -> np.ndarray:
    """Elementwise convex combination lam*x_a + (1-lam)*x_b."""
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != x_b.shape:
        raise ValueError(f"shape mismatch: {x_a.shape} vs {x_b.shape}")
    return lam.value * x_a + lam.complement * x_b


def make_cutmix_mask(
    height: int, width: int, lam: Lambda, rng: np.random.Generator
) -> tuple[MixMask, Lambda]:
    """Binary mask with one zero rectangle of area about (1-lam) of the image.

    Box side is sqrt(1-lam) of each dimension, centered uniformly and clipped
    to the image. Returns the mask and the realized ratio mean(mask).
    """
    if height < 1 or width < 1:
        raise ValueError("mask dimensions must be at least 1")
    values = np.ones((height, width), dtype=float)
    cut = math.sqrt(1.0 - lam.value)
    cut_h = int(height * cut)
    cut_w = int(width * cut)
    if cut_h > 0 and cut_w > 0:
        cy = int(rng.integers(height))
        cx = int(rng.integers(width))
        y1 = max(cy - cut_h // 2, 0)
        y2 = min(cy + cut_h // 2, height)
        x1 = max(cx - cut_w // 2, 0)
        x2 = min(cx + cut_w // 2, width)
        values[y1:y2, x1:x2] = 0.0
    mask = MixMask(values)
    return mask, Lambda(mask.area_ratio)


def apply_mask(x_a: np.ndarray, x_b: np.ndarray, mask: MixMask) -> np.ndarray:
    """Per-pixel H*x_a + (1-H)*x_b; leading (batch/channel) dims broadcast."""
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != x_b.shape:
        raise ValueError(f"shape mismatch: {x_a.shape} vs {x_b.shape}")
    if x_a.shape[-2:] != mask.values.shape:
        raise ValueError(
            f"trailing image dims {x_a.shape[-2:]} do not match mask "
            f"{mask.values.shape}"
        )
    h = mask.values
    return h * x_a + (1.0 - h) * x_b


def _nearest_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape[-2:]
    rows = (np.arange(out_h) * h) // out_h
    cols = (np.arange(out_w) * w) // out_w
    return img[..., rows[:, None], cols[None, :]]


def make_resizemix(
    x_a: np.ndarray, x_b: np.ndarray, lam: Lambda, rng: np.random.Generator
) -> tuple[np.ndarray, Lambda]:
    """Paste a nearest-neighbor downscale of x_b into x_a.

    The paste box covers about (1-lam) of the area at a uniform position; the
    returned ratio is 1 - paste_area/total.
    """
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != x_b.shape:
        raise ValueError(f"shape mismatch: {x_a.shape} vs {x_b.shape}")
    h, w = x_a.shape[-2:]
    scale = math.sqrt(1.0 - lam.value)
    th = int(h * scale)
    tw = int(w * scale)
    out = x_a.copy()
    if th > 0 and tw > 0:
        top = int(rng.integers(h - th + 1))
        left = int(rng.integers(w - tw + 1))
        out[..., top : top + th, left : left + tw] = _nearest_resize(x_b, th, tw)
    return out, Lambda(1.0 - (th * tw) / (h * w))


def mix_batch(
    inputs: np.ndarray,
    labels: np.ndarray,
    config: MixConfig,
    rng: np.random.Generator,
    pairing: np.ndarray | None = None,
    lam: Lambda | None = None,
) -> MixedBatch:
    """Pair sample i with sample pairing[i] and apply the configured policy.

    ``pairing`` and ``lam`` override the random draws (used by tests and the
    semi-supervised loop). Policy `manifold` leaves the inputs untouched: the
    hidden-layer mix happens inside the network, this only records lam and
    the pairing.
    """
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels)
    n = len(inputs)
    if n == 0:
        raise ValueError("empty batch")
    if pairing is None:
        pairing = rng.permutation(n)
    else:
        pairing = np.asarray(pairing)

    per_sample = not config.per_batch_lambda and config.policy != "manifold"
    if lam is not None:
        lams = [lam] * n
    elif per_sample:
        lams = [sample_lambda(config.alpha, rng) for _ in range(n)]
    else:
        lams = [sample_lambda(config.alpha, rng)] * n

    partners = inputs[pairing]
    if config.policy == "linear":
        if per_sample:
            mixed = np.stack(
                [mix_linear(inputs[i], partners[i], lams[i]) for i in range(n)]
            )
        else:
            mixed = mix_linear(inputs, partners, lams[0])
        adjusted = lams
    elif config.policy == "cutmix":
        h, w = inputs.shape[-2:]
        if per_sample:
            mixed = np.empty_like(inputs)
            adjusted = []
            for i in range(n):
                mask, adj = make_cutmix_mask(h, w, lams[i], rng)
                mixed[i] = apply_mask(inputs[i], partners[i], mask)
                adjusted.append(adj)
        else:
            mask, adj = make_cutmix_mask(h, w, lams[0], rng)
            mixed = apply_mask(inputs, partners, mask)
            adjusted = [adj] * n
    elif config.policy == "resizemix":
        if per_sample:
            mixed = np.empty_like(inputs)
            adjusted = []
            for i in range(n):
                mixed[i], adj = make_resizemix(inputs[i], partners[i], lams[i], rng)
                adjusted.append(adj)
        else:
            mixed, adj = make_resizemix(inputs, partners, lams[0], rng)
            adjusted = [adj] * n
    else:  # manifold: mixing deferred to the network's hidden layers
        mixed = inputs.copy()
        adjusted = lams

    ratios = np.fromiter((t.value for t in adjusted), float, n)
    return MixedBatch(mixed, Targets(labels, labels[pairing], ratios), pairing)


def asymmetric_pair(
    x_labeled: np.ndarray, x_unlabeled: np.ndarray, lam: Lambda
) -> tuple[np.ndarray, Lambda]:
    """Linear mix where the labeled sample always gets the smaller coefficient.

    The ratio is clamped to min(lam, 1-lam), so the unlabeled content
    dominates the pixels while only the labeled class is trusted.
    """
    effective = Lambda(min(lam.value, lam.complement))
    return mix_linear(x_labeled, x_unlabeled, effective), effective
