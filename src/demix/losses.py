"""Training objectives for mixed samples.

:func:`batch_loss` evaluates an objective on (n, C) logits against
:class:`~demix.mixers.Targets` in one pass and returns a :class:`LossResult`
carrying the mean value and the analytic gradient with respect to the logits.
The per-sample functions (``mce_loss``, ``dm_ce_loss``, ...) take one logit
vector and do the same arithmetic; they are the reference oracle of the
batched kernels. All log-ratios are evaluated in log space
(``z_i - logsumexp``) so confident predictions never hit ``log(1 - p)``
cancellation. Everything here is a pure function.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .mixers import Lambda, MixedTarget, Targets

BCE_TARGET_MODES = ("one", "two", "rescaled")
LOSS_KINDS = ("mce", "dm_ce", "mbce_one", "mbce_two", "dm_bce")


@dataclass(frozen=True, eq=False)
class LossResult:
    """Scalar loss plus d(loss)/d(logits): the contract every loss fulfills."""

    value: float
    grad_logits: np.ndarray


@dataclass(frozen=True)
class DMConfig:
    """Trade-off weight of the decoupled regularizer on top of the mixed CE."""

    eta: float = 0.1

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")


@dataclass(frozen=True)
class RescaleParams:
    """Exponent t and truncation threshold xi of the label rescaling curve."""

    t: float = 1.0
    xi: float = 1.0

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if not (0.0 <= self.xi <= 1.0):
            raise ValueError("xi must lie in [0, 1]")


@dataclass(frozen=True)
class LossSpec:
    """Selects one objective; carried around by the trainer and the harness."""

    kind: str = "mce"
    dm: DMConfig = field(default_factory=DMConfig)
    rescale: RescaleParams = field(default_factory=RescaleParams)

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")


def _logsumexp(z: np.ndarray) -> float:
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m))))


def softmax(z: np.ndarray) -> np.ndarray:
    """Standard softmax over the last axis, with max-subtraction."""
    z = np.asarray(z, dtype=float)
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    m = np.max(z, axis=-1, keepdims=True)
    return z - m - np.log(np.sum(np.exp(z - m), axis=-1, keepdims=True))


def _decoupled(z: np.ndarray, j: int) -> tuple[np.ndarray, float]:
    """exp(z_i - lse) with lse the logsumexp over every entry but j (which
    gets 0), and lse itself; j is masked to -inf, so a dominant z_j never
    overflows the exponent."""
    masked = z.copy()
    masked[j] = -np.inf
    lse = _logsumexp(masked)
    return np.exp(masked - lse), lse


def decoupled_softmax(z: np.ndarray, excluded: int) -> np.ndarray:
    """Softmax scores with one competitor removed from the normalizer.

    Component i is exp(z_i) / sum_{c != excluded} exp(z_c) for every i other
    than the excluded class, whose component is 0; the survivors sum to 1.
    Removing a competitor strictly enlarges every other score versus plain
    softmax.
    """
    z = np.asarray(z, dtype=float)
    if not 0 <= excluded < len(z):
        raise IndexError(f"excluded class {excluded} out of range for C={len(z)}")
    return _decoupled(z, excluded)[0]


def mce_loss(z: np.ndarray, target: MixedTarget) -> LossResult:
    """Mixed cross-entropy: -(lam*log p_a + (1-lam)*log p_b).

    Gradient is softmax(z) minus the soft label (lam at a, 1-lam at b), so
    minimizing regresses the two class probabilities onto the mixing ratio.
    """
    z = np.asarray(z, dtype=float)
    a, b, lam = target.class_a, target.class_b, target.lam
    logp = log_softmax(z)
    value = -(lam.value * logp[a] + lam.complement * logp[b])
    grad = np.exp(logp)
    grad[a] -= lam.value
    grad[b] -= lam.complement
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


def rescale(lam: Lambda, params: RescaleParams) -> float:
    """Label rescaling min((lam/xi)^t, 1), saturating at 1 above xi.

    Corner conventions: xi=0 or t=0 map every positive ratio to 1 (two-hot
    behaviour) and ratio 0 to 0; t=1, xi=1 is the identity.
    """
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
        out[b] += lam.complement
    elif a == b:
        out[a] = 1.0
    elif mode == "two":
        out[a] = 1.0
        out[b] = 1.0
    else:
        assert params is not None, "rescaled mode needs RescaleParams"
        out[a] = rescale(lam, params)
        out[b] = rescale(Lambda(lam.complement), params)
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


# ---------------------------------------------------------------------------
# Batched objectives: each ``*_rows`` kernel takes (n, C) logits and per-row
# class arrays and returns the per-row values (n,) and gradients (n, C), with
# the arithmetic of the matching per-sample function above.
# ---------------------------------------------------------------------------


def _decoupled_rows(z: np.ndarray, excluded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, exp(z_i - lse) with lse the logsumexp over every column but
    the excluded one (which gets 0), and lse itself.

    Log-space exclusion: the excluded column is set to -inf before the
    logsumexp, so a dominant excluded logit neither cancels against the total
    nor overflows the exponent.
    """
    masked = z.copy()
    masked[np.arange(len(z)), excluded] = -np.inf
    m = masked.max(axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(masked - m), axis=1, keepdims=True))
    return np.exp(masked - lse), lse[:, 0]


def mce_rows(z: np.ndarray, a, b, lam) -> tuple[np.ndarray, np.ndarray]:
    """Mixed cross-entropy of every row; ``lam`` may be an array or a scalar."""
    rows = np.arange(len(z))
    logp = log_softmax(z)
    value = -(lam * logp[rows, a] + (1.0 - lam) * logp[rows, b])
    grad = np.exp(logp)
    grad[rows, a] -= lam
    grad[rows, b] -= 1.0 - lam
    return value, grad


def _dm_rows(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled regularizer of every row; same-class rows give exactly 0."""
    rows = np.arange(len(z))
    phi_no_a, lse_no_a = _decoupled_rows(z, a)
    phi_no_b, lse_no_b = _decoupled_rows(z, b)
    value = -((z[rows, a] - lse_no_b) + (z[rows, b] - lse_no_a))
    grad = phi_no_a + phi_no_b
    grad[rows, a] = phi_no_b[rows, a] - 1.0
    grad[rows, b] = phi_no_a[rows, b] - 1.0
    same = a == b
    value[same] = 0.0
    grad[same] = 0.0
    return value, grad


def asymmetric_dm_rows(
    z: np.ndarray, labeled: np.ndarray, pseudo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One-directional decoupled term of every row; same-class rows give 0."""
    rows = np.arange(len(z))
    grad, lse = _decoupled_rows(z, pseudo)
    value = -(z[rows, labeled] - lse)
    grad[rows, labeled] -= 1.0
    same = labeled == pseudo
    value[same] = 0.0
    grad[same] = 0.0
    return value, grad


def _rescale_rows(v: np.ndarray, params: RescaleParams) -> np.ndarray:
    if params.xi == 0.0 or params.t == 0.0:
        out = np.ones_like(v)
    else:
        out = np.minimum((v / params.xi) ** params.t, 1.0)
    out[v == 0.0] = 0.0
    return out


def _bce_target_rows(
    targets: Targets, num_classes: int, mode: str, params: RescaleParams
) -> np.ndarray:
    """(n, C) sigmoid targets; row i equals ``build_mixed_bce_targets`` of row i."""
    rows = np.arange(len(targets))
    a, b, lam = targets.a, targets.b, targets.lam
    out = np.zeros((len(targets), num_classes))
    if mode == "one":
        out[rows, a] += lam
        out[rows, b] += 1.0 - lam
    elif mode == "two":
        out[rows, a] = 1.0
        out[rows, b] = 1.0
    else:
        out[rows, a] = _rescale_rows(lam, params)
        out[rows, b] = _rescale_rows(1.0 - lam, params)
        out[rows[a == b], a[a == b]] = 1.0
    return out


def _mbce_rows(z: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-all BCE of every row, summed over classes."""
    e = np.exp(-np.abs(z))
    value = np.sum(np.maximum(z, 0.0) - z * targets + np.log1p(e), axis=1)
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return value, sig - targets


def batch_loss(
    z_batch: np.ndarray, targets: Targets | Sequence[MixedTarget], spec: LossSpec
) -> LossResult:
    """Mean-reduced loss over a batch; gradient rows are scaled by 1/batch.

    ``targets`` is a :class:`Targets` record or a sequence of
    :class:`MixedTarget`, converted once here.
    """
    z_batch = np.asarray(z_batch, dtype=float)
    n = len(z_batch)
    if n == 0:
        raise ValueError("empty batch")
    if not isinstance(targets, Targets):
        targets = Targets.from_records(targets)
    if len(targets) != n:
        raise ValueError("one target per sample required")
    if max(targets.a.max(), targets.b.max()) >= z_batch.shape[1]:
        raise IndexError("class index out of range")
    if spec.kind in ("mce", "dm_ce"):
        value, grad = mce_rows(z_batch, targets.a, targets.b, targets.lam)
    else:
        mode = {"mbce_one": "one", "mbce_two": "two", "dm_bce": "rescaled"}[spec.kind]
        vec = _bce_target_rows(targets, z_batch.shape[1], mode, spec.rescale)
        value, grad = _mbce_rows(z_batch, vec)
    # dm_bce: rescaled-target BCE; the eta hook stays off unless configured.
    if spec.kind in ("dm_ce", "dm_bce") and spec.dm.eta > 0.0:
        reg_value, reg_grad = _dm_rows(z_batch, targets.a, targets.b)
        value = value + spec.dm.eta * reg_value
        grad = grad + spec.dm.eta * reg_grad
    return LossResult(float(value.sum()) / n, grad / n)
