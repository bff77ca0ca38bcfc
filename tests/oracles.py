"""Per-sample reference forms of the objectives, the mixers and the glyph
generator, for the tests.

Each function takes one logit vector (or one pair of inputs, or one glyph at
a time) and writes the arithmetic out directly, with its analytic gradient
where it has one. The batched kernels in ``demix.losses``, ``demix.mixers``
and ``demix.data`` are what training runs; the tests compare them against
these forms.
"""

from __future__ import annotations

import numpy as np

from demix.data import Dataset
from demix.losses import DMConfig, LossResult, RescaleParams, log_softmax
from demix.mixers import Lambda, MixedTarget, Targets

BCE_TARGET_MODES = ("one", "two", "rescaled")


def _logsumexp(z: np.ndarray) -> float:
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m))))


def _decoupled(z: np.ndarray, j: int) -> tuple[np.ndarray, float]:
    """exp(z_i - lse) with lse the logsumexp over every entry but j (which
    gets 0), and lse itself; j is masked to -inf, so a dominant z_j never
    overflows the exponent."""
    masked = z.copy()
    masked[j] = -np.inf
    lse = _logsumexp(masked)
    return np.exp(masked - lse), lse


def target_records(targets: Targets) -> list[MixedTarget]:
    """The rows of a :class:`Targets` batch as one record per sample."""
    return [
        MixedTarget(int(a), int(b), Lambda(float(lam)))
        for a, b, lam in zip(targets.a, targets.b, targets.lam)
    ]


def mce_loss(z: np.ndarray, target: MixedTarget) -> LossResult:
    """Mixed cross-entropy: -(lam*log p_a + (1-lam)*log p_b).

    Gradient is softmax(z) minus the soft label (lam at a, 1-lam at b), so
    minimizing regresses the two class probabilities onto the mixing ratio.
    """
    z = np.asarray(z, dtype=float)
    a, b, lam = target.class_a, target.class_b, target.lam
    logp = log_softmax(z)
    value = -(lam.value * logp[a] + (1.0 - lam.value) * logp[b])
    grad = np.exp(logp)
    grad[a] -= lam.value
    grad[b] -= 1.0 - lam.value
    return LossResult(float(value), grad)


def dm_regularizer(z: np.ndarray, a: int, b: int) -> LossResult:
    """Decoupled confidence booster: -(log phi(z)^{a,b} + log phi(z)^{b,a}).

    phi is the decoupled softmax, so each mixed class is scored with the
    other removed from the normalizer. Independent of the mixing ratio. A
    degenerate same-class pair contributes exactly zero.
    """
    z = np.asarray(z, dtype=float)
    c = len(z)
    if not (0 <= a < c and 0 <= b < c):
        raise IndexError("class index out of range")
    if a == b:
        return LossResult(0.0, np.zeros_like(z))
    phi_no_a, lse_no_a = _decoupled(z, a)
    phi_no_b, lse_no_b = _decoupled(z, b)
    value = -((z[a] - lse_no_b) + (z[b] - lse_no_a))
    grad = phi_no_a + phi_no_b
    grad[a] = phi_no_b[a] - 1.0
    grad[b] = phi_no_a[b] - 1.0
    return LossResult(float(value), grad)


def dm_ce_loss(z: np.ndarray, target: MixedTarget, config: DMConfig) -> LossResult:
    """Mixed CE plus eta times the decoupled regularizer."""
    base = mce_loss(z, target)
    if config.eta == 0.0 or target.class_a == target.class_b:
        return base
    reg = dm_regularizer(z, target.class_a, target.class_b)
    return LossResult(
        base.value + config.eta * reg.value,
        base.grad_logits + config.eta * reg.grad_logits,
    )


def asymmetric_dm_loss(z: np.ndarray, labeled_class: int, pseudo_class: int) -> LossResult:
    """One-directional decoupled term: -log phi(z)^{labeled, pseudo}.

    Only the trusted labeled class is scored; the pseudo-label class is
    removed from the normalizer but never rewarded itself.
    """
    z = np.asarray(z, dtype=float)
    c = len(z)
    if not (0 <= labeled_class < c and 0 <= pseudo_class < c):
        raise IndexError("class index out of range")
    if labeled_class == pseudo_class:
        return LossResult(0.0, np.zeros_like(z))
    grad, lse = _decoupled(z, pseudo_class)
    value = -(z[labeled_class] - lse)
    grad[labeled_class] -= 1.0
    return LossResult(float(value), grad)


def _rescale(lam: Lambda, params: RescaleParams) -> float:
    """Label rescaling min((lam/xi)^t, 1) of one ratio, with the corner
    conventions of ``demix.losses.rescale``."""
    v = lam.value
    if v == 0.0:
        return 0.0
    if params.xi == 0.0 or params.t == 0.0:
        return 1.0
    return min((v / params.xi) ** params.t, 1.0)


def build_mixed_bce_targets(
    target: MixedTarget,
    num_classes: int,
    mode: str,
    params: RescaleParams | None = None,
) -> np.ndarray:
    """Per-class sigmoid targets for a mixed sample.

    `one`: lam at a and 1-lam at b. `two`: 1 at both. `rescaled`: the
    rescaling curve applied to each coefficient. A same-class pair gets a
    single 1 (mode `one` reaches it by summing the two coefficients).
    """
    if mode not in BCE_TARGET_MODES:
        raise ValueError(f"unknown BCE target mode {mode!r}")
    a, b, lam = target.class_a, target.class_b, target.lam
    if not (0 <= a < num_classes and 0 <= b < num_classes):
        raise IndexError("class index out of range")
    out = np.zeros(num_classes, dtype=float)
    if mode == "one":
        out[a] += lam.value
        out[b] += 1.0 - lam.value
    elif a == b:
        out[a] = 1.0
    elif mode == "two":
        out[a] = 1.0
        out[b] = 1.0
    else:
        assert params is not None, "rescaled mode needs RescaleParams"
        out[a] = _rescale(lam, params)
        out[b] = _rescale(Lambda(1.0 - lam.value), params)
    return out


def mbce_loss(z: np.ndarray, targets: np.ndarray) -> LossResult:
    """One-vs-all binary cross-entropy summed over classes.

    Uses the stable max(z,0) - z*t + log1p(exp(-|z|)) form; the gradient per
    class is sigmoid(z_c) - t_c.
    """
    z = np.asarray(z, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if z.shape != targets.shape:
        raise ValueError("targets must match the logit vector")
    if targets.min() < 0.0 or targets.max() > 1.0:
        raise ValueError("BCE targets must lie in [0, 1]")
    e = np.exp(-np.abs(z))
    value = np.sum(np.maximum(z, 0.0) - z * targets + np.log1p(e))
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return LossResult(float(value), sig - targets)


def sample_lambda(alpha: float, rng: np.random.Generator) -> Lambda:
    """Draw a mixing ratio from Beta(alpha, alpha).

    One scalar ``rng.beta`` call; a size-n ``rng.beta`` call draws the same n
    values and leaves the generator in the same state as n of these.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return Lambda(float(rng.beta(alpha, alpha)))


def mix_linear(x_a: np.ndarray, x_b: np.ndarray, lam: Lambda) -> np.ndarray:
    """Elementwise convex combination lam*x_a + (1-lam)*x_b."""
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != x_b.shape:
        raise ValueError(f"shape mismatch: {x_a.shape} vs {x_b.shape}")
    return lam.value * x_a + (1.0 - lam.value) * x_b


def asymmetric_pair(
    x_labeled: np.ndarray, x_unlabeled: np.ndarray, lam: Lambda
) -> tuple[np.ndarray, Lambda]:
    """Linear mix where the labeled sample always gets the smaller coefficient.

    The ratio is clamped to min(lam, 1-lam), so the unlabeled content
    dominates the pixels while only the labeled class is trusted.
    """
    effective = Lambda(min(lam.value, 1.0 - lam.value))
    return mix_linear(x_labeled, x_unlabeled, effective), effective


def make_image_classes(
    n: int,
    num_classes: int = 10,
    size: int = 28,
    shift: int = 3,
    noise: float = 0.25,
    blobs_per_class: int = 5,
    seed: int = 0,
) -> Dataset:
    """The glyph generator one sample at a time: its draws, then its bumps
    added one blob after another, then its normalisation, noise and clip."""
    ss = np.random.SeedSequence(seed)
    template_rng, sample_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    lo, hi = 8.0, size - 8.0
    centers = template_rng.uniform(lo, hi, size=(num_classes, blobs_per_class, 2))
    widths = template_rng.uniform(1.5, 3.0, size=(num_classes, blobs_per_class))

    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    y = np.arange(n) % num_classes
    x = np.empty((n, size, size))
    for i in range(n):
        c = y[i]
        dy, dx = sample_rng.integers(-shift, shift + 1, size=2)
        amp = sample_rng.uniform(0.7, 1.3, size=blobs_per_class)
        canvas = np.zeros((size, size))
        for k in range(blobs_per_class):
            cy, cx = centers[c, k, 0] + dy, centers[c, k, 1] + dx
            canvas += amp[k] * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * widths[c, k] ** 2)
            )
        canvas = canvas / canvas.max()
        canvas += noise * sample_rng.normal(size=canvas.shape)
        x[i] = np.clip(canvas, 0.0, 1.0)
    order = sample_rng.permutation(n)
    return Dataset(x[order], y[order].astype(np.int64), num_classes)
