"""Training objectives for mixed samples.

:func:`batch_loss` evaluates an objective on (n, C) logits against
:class:`~demix.mixers.Targets` in one pass and returns a :class:`LossResult`
carrying the mean value and the analytic gradient with respect to the logits.
The ``*_rows`` kernels are the only implementation of each objective; the
per-sample reference forms they are tested against live in
``tests/oracles.py``. All log-ratios are evaluated in log space
(``z_i - logsumexp``) so confident predictions never hit ``log(1 - p)``
cancellation. Everything here is a pure function.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import _check_fields
from .mixers import CUT_POLICIES, MixedTarget, Targets, _check_target_count, _class_array

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
        _check_fields(self, "eta", least=0)


@dataclass(frozen=True)
class RescaleParams:
    """Exponent t and truncation threshold xi of the label rescaling curve."""

    t: float = 1.0
    xi: float = 1.0

    def __post_init__(self):
        _check_fields(self, "t", least=0)
        _check_fields(self, "xi", least=0, most=1)


def recommended_rescale(policy: str) -> RescaleParams:
    """The ``dm_bce`` curve of a mixing policy: t=1, xi=0.8 if it cuts, else t=0.5, xi=1."""
    return RescaleParams(1.0, 0.8) if policy in CUT_POLICIES else RescaleParams(0.5, 1.0)


@dataclass(frozen=True)
class LossSpec:
    """Selects one objective; carried around by the trainer and the harness."""

    kind: str = "mce"
    dm: DMConfig = field(default_factory=DMConfig)
    rescale: RescaleParams = field(default_factory=RescaleParams)

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")


def _check_labels(y: np.ndarray, classes: int) -> None:
    """``ValueError`` unless every label is a whole number that indexes one of ``classes`` logits."""
    top = _class_array(y).max(initial=-1)
    if top >= classes:
        raise ValueError(f"class index {top} out of range for {classes} logits")


def softmax(z: np.ndarray) -> np.ndarray:
    """Standard softmax over the last axis, with max-subtraction."""
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    d = z - z.max(axis=-1, keepdims=True)
    return d - np.log(np.exp(d).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Batched objectives: each ``*_rows`` kernel takes (n, C) logits and per-row
# class arrays and returns the per-row values (n,) and gradients (n, C).
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
    lse = m + np.log(np.exp(masked - m).sum(axis=1, keepdims=True))
    return np.exp(masked - lse), lse[:, 0]


def mce_rows(z: np.ndarray, a, b, lam) -> tuple[np.ndarray, np.ndarray]:
    """Mixed cross-entropy of every row; ``lam`` may be an array or a scalar."""
    rows = np.arange(len(z))
    logp = log_softmax(z)
    mu = 1.0 - lam
    value = -(lam * logp[rows, a] + mu * logp[rows, b])
    grad = np.exp(logp)
    grad[rows, a] -= lam
    grad[rows, b] -= mu
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


def _dm_rows(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled regularizer of every row: the one-directional term both ways.
    Same-class rows give exactly 0."""
    value_ab, grad_ab = asymmetric_dm_rows(z, a, b)
    value_ba, grad_ba = asymmetric_dm_rows(z, b, a)
    return value_ab + value_ba, grad_ab + grad_ba


def rescale(lam: np.ndarray, params: RescaleParams) -> np.ndarray:
    """Label rescaling min((lam/xi)^t, 1) of each ratio, saturating at 1 above xi.

    Corner conventions: xi=0 or t=0 map every positive ratio to 1 (two-hot
    behaviour) and ratio 0 to 0; t=1, xi=1 is the identity.
    """
    lam = np.asarray(lam, dtype=float)
    if params.xi == 0.0 or params.t == 0.0:
        out = np.ones_like(lam)
    else:
        out = np.minimum((lam / params.xi) ** params.t, 1.0)
    return np.where(lam == 0.0, 0.0, out)


def _bce_target_rows(
    targets: Targets, num_classes: int, kind: str, params: RescaleParams
) -> np.ndarray:
    """(n, C) sigmoid targets of a BCE kind. `mbce_one`: lam at a, 1-lam at b.
    `mbce_two`: 1 at both. `dm_bce`: the rescaling curve of each coefficient.
    A same-class row gets a single 1 (`mbce_one` reaches it by summing)."""
    rows = np.arange(len(targets))
    a, b, lam = targets.a, targets.b, targets.lam
    out = np.zeros((len(targets), num_classes))
    if kind == "mbce_one":
        out[rows, a] += lam
        out[rows, b] += 1.0 - lam
    elif kind == "mbce_two":
        out[rows, a] = 1.0
        out[rows, b] = 1.0
    else:
        out[rows, a] = rescale(lam, params)
        out[rows, b] = rescale(1.0 - lam, params)
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
    if z_batch.ndim != 2:
        raise ValueError(f"logits must have shape (n, classes), got {z_batch.shape}")
    n = len(z_batch)
    if not isinstance(targets, Targets):
        targets = Targets.from_records(targets)
    _check_target_count(n, len(targets))
    for labels in (targets.a, targets.b):
        _check_labels(labels, z_batch.shape[1])
    if spec.kind in ("mce", "dm_ce"):
        value, grad = mce_rows(z_batch, targets.a, targets.b, targets.lam)
    else:
        vec = _bce_target_rows(targets, z_batch.shape[1], spec.kind, spec.rescale)
        value, grad = _mbce_rows(z_batch, vec)
    # dm_bce: rescaled-target BCE plus eta (default 0.1) times the decoupled term.
    if spec.kind in ("dm_ce", "dm_bce") and spec.dm.eta > 0.0:
        reg_value, reg_grad = _dm_rows(z_batch, targets.a, targets.b)
        value = value + spec.dm.eta * reg_value
        grad = grad + spec.dm.eta * reg_grad
    return LossResult(float(value.sum()) / n, grad / n)
