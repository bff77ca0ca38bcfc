"""Confidence-thresholded pseudo-labeling with asymmetric decoupled mixing.

:func:`ssl_step` returns the gradients and metrics of one combined step;
:func:`train_ssl` runs it in the training loop shared with
:func:`demix.network.train_supervised` (batching, cosine-scheduled SGD,
divergence check and evaluation). The unsupervised block is gated by
``unlabeled_weight``: setting it to zero makes a run reproduce plain
supervised training on the labeled set exactly, as does an empty unlabeled
pool (the init and labeled-shuffle RNG streams are shared too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, asymmetric_dm_rows, mce_rows, softmax
from .network import (
    Parameters,
    TrainConfig,
    _batches,
    _loss_and_grads,
    _train_loop,
    adapt_inputs,
    backward,
    forward,
    init_params,
    plain_targets,
)

CE_SPEC = LossSpec(kind="mce")


@dataclass(frozen=True)
class SSLConfig:
    tau: float = 0.95
    unlabeled_weight: float = 1.0
    eta: float = 0.1
    alpha: float = 0.2
    steps: int = 2000
    asymmetric_mixing: bool = True
    labeled_batch: int = 0  # 0 = the whole labeled set every step
    unlabeled_batch: int = 64
    eval_interval: int = 100

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if self.unlabeled_weight < 0 or self.eta < 0:
            raise ValueError("weights must be nonnegative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be positive")


@dataclass(frozen=True)
class PseudoLabel:
    class_index: int
    confidence: float
    accepted: bool


def pseudo_label_batch(
    logits: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: argmax class, its softmax confidence, accepted iff conf >= tau."""
    p = softmax(np.asarray(logits, dtype=float))
    classes = np.argmax(p, axis=1)
    conf = p[np.arange(len(p)), classes]
    return classes, conf, conf >= tau


def pseudo_label(logits: np.ndarray, tau: float) -> PseudoLabel:
    """``pseudo_label_batch`` of a single row of logits."""
    classes, conf, accepted = pseudo_label_batch(np.atleast_2d(logits), tau)
    return PseudoLabel(int(classes[0]), float(conf[0]), bool(accepted[0]))


def ssl_step(
    params: Parameters,
    labeled: tuple[np.ndarray, np.ndarray],
    unlabeled_x: np.ndarray,
    config: SSLConfig,
    rng: np.random.Generator,
) -> tuple[Parameters, dict]:
    """Gradients and metrics of one combined step; ``params`` is not updated.

    loss = CE(labeled)
         + w_u * [ CE(accepted pseudo-labels)
                   + mixed CE on asymmetric labeled/unlabeled pairs
                   + eta * one-directional decoupled term on those pairs ]

    The labeled and unlabeled rows share one forward and one backward pass,
    and the labeled plus accepted pseudo-labeled rows one CE pass; the
    asymmetric pairs need the pseudo-labels, so they get a second forward and
    backward. Their ratios come from one size-n Beta draw.
    The mixing coefficient of the labeled sample is clamped to <= 0.5 and the
    decoupled term skips pairs whose pseudo class equals the labeled class.
    ``metrics["loss"]`` is the scalar loss of the step.
    """
    x_l, y_l = labeled
    x_l = np.asarray(x_l, dtype=float)
    n_l, n_u = len(x_l), len(unlabeled_x)
    if n_l == 0 or n_u == 0:
        raise ValueError("both batches must be nonempty")
    specs = params.specs

    z, cache = forward(params, adapt_inputs(specs, np.concatenate([x_l, unlabeled_x])))
    classes, _, accepted = pseudo_label_batch(z[n_l:], config.tau)
    w_u = config.unlabeled_weight
    acc_idx = np.flatnonzero(accepted) if w_u > 0.0 else np.empty(0, dtype=np.intp)
    # One CE pass over the labeled rows and the accepted pseudo-labeled rows.
    rows = np.concatenate([np.arange(n_l), n_l + acc_idx])
    y = np.concatenate([y_l, classes[acc_idx]])
    value, grad_rows = mce_rows(z[rows], y, y, 1.0)
    grad = np.zeros_like(z)
    grad[:n_l] = grad_rows[:n_l] / n_l
    grad[n_l + acc_idx] = w_u * (grad_rows[n_l:] / n_u)
    metrics = {
        "loss_labeled": float(value[:n_l].sum()) / n_l,
        "loss_pseudo": float(value[n_l:].sum()) / n_u,
        "loss_mix": 0.0,
        "accepted_frac": float(accepted.mean()),
    }

    grads_mix = None
    if len(acc_idx) and config.asymmetric_mixing:
        partners = rng.choice(acc_idx, size=n_l, replace=True)
        lam = rng.beta(config.alpha, config.alpha, size=n_l)
        eff = np.minimum(lam, 1.0 - lam)  # as asymmetric_pair, row by row
        w = eff.reshape((n_l,) + (1,) * (x_l.ndim - 1))
        mixed = w * x_l + (1.0 - w) * unlabeled_x[partners]
        z_m, cache_m = forward(params, adapt_inputs(specs, mixed))
        pseudo = classes[partners]
        value_m, grad_m = mce_rows(z_m, y_l, pseudo, eff)
        mix_value = float(value_m.sum()) / n_l
        grad_m /= n_l
        if config.eta > 0.0:
            value_dm, grad_dm = asymmetric_dm_rows(z_m, y_l, pseudo)
            mix_value += config.eta * float(value_dm.sum()) / n_l
            grad_m += config.eta * grad_dm / n_l
        grads_mix, _ = backward(params, cache_m, w_u * grad_m, input_grad=False)
        metrics["loss_mix"] = mix_value

    grads, _ = backward(params, cache, grad, input_grad=False)
    if grads_mix is not None:
        for i in range(len(specs)):
            if grads.weights[i] is not None:
                grads.weights[i] += grads_mix.weights[i]
                grads.biases[i] += grads_mix.biases[i]
    metrics["loss"] = metrics["loss_labeled"] + w_u * (
        metrics["loss_pseudo"] + metrics["loss_mix"]
    )
    return grads, metrics


def train_ssl(
    labeled_ds,
    unlabeled_x: np.ndarray,
    test_ds,
    specs,
    config: SSLConfig,
    train_config: TrainConfig,
) -> tuple[Parameters, list[tuple[str, int, float]]]:
    """Pseudo-labeling loop; deterministic given ``train_config.seed``.

    Logs ("test_top1" | "accepted_frac", step, value) every
    ``config.eval_interval`` steps and after the last step (interval-mean for
    the accepted fraction). An empty unlabeled pool degenerates to supervised
    training.
    """
    present = set(np.unique(labeled_ds.y).tolist())
    if present != set(range(labeled_ds.num_classes)):
        missing = sorted(set(range(labeled_ds.num_classes)) - present)
        raise ValueError(f"labeled set is missing classes {missing}")

    seqs = np.random.SeedSequence(train_config.seed).spawn(5)
    init_rng, shuffle_rng, _, unlab_rng, pair_rng = map(np.random.default_rng, seqs)
    params = init_params(tuple(specs), init_rng)
    labeled_batches = _batches(len(labeled_ds), config.labeled_batch, shuffle_rng)
    unlabeled_batches = _batches(len(unlabeled_x), config.unlabeled_batch, unlab_rng)

    def step_fn():
        idx = next(labeled_batches)
        x_l, y_l = labeled_ds.x[idx], labeled_ds.y[idx]
        if len(unlabeled_x) == 0:
            return *_loss_and_grads(params, x_l, plain_targets(y_l), CE_SPEC), 0.0
        x_u = unlabeled_x[next(unlabeled_batches)]
        grads, metrics = ssl_step(params, (x_l, y_l), x_u, config, pair_rng)
        return metrics["loss"], grads, metrics["accepted_frac"]

    def entries(step, accepted, top1):
        return [("test_top1", step, top1), ("accepted_frac", step, accepted)]

    log = _train_loop(
        params, step_fn, config.steps, config.eval_interval, test_ds, train_config,
        entries, lambda step: f"step {step}",
    )
    return params, log
