"""Confidence-thresholded pseudo-labeling with asymmetric decoupled mixing.

The unsupervised block is gated by ``unlabeled_weight``: setting it to zero
makes a run reproduce plain supervised training on the labeled set exactly
(the RNG streams for labeled shuffling and init are shared with
:func:`demix.network.train_supervised`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, asymmetric_dm_rows, batch_loss, mce_rows, softmax
from .network import (
    Parameters,
    TrainConfig,
    adapt_inputs,
    backward,
    check_finite_loss,
    forward,
    init_params,
    plain_targets,
    sgd_step,
    zeros_like_params,
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


class _BatchCycler:
    """Epoch-shuffled cycling batches, reshuffled by its own generator."""

    def __init__(self, n: int, batch: int, rng: np.random.Generator):
        self.n = n
        self.batch = min(batch, n) if batch > 0 else n
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos >= self.n:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        idx = self.order[self.pos : self.pos + self.batch]
        self.pos += self.batch
        return idx


def ssl_step(
    params: Parameters,
    labeled: tuple[np.ndarray, np.ndarray],
    unlabeled_x: np.ndarray,
    config: SSLConfig,
    train_config: TrainConfig,
    rng: np.random.Generator,
    velocity: Parameters | None = None,
    step: int = 0,
    total_steps: int = 1,
) -> tuple[Parameters, dict]:
    """One combined update.

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
    if velocity is None:
        velocity = zeros_like_params(params)
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
    sgd_step(params, grads, velocity, step, total_steps, config=train_config)
    return params, metrics


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
    ``config.eval_interval`` steps (interval-mean for the accepted fraction).
    An empty unlabeled pool degenerates to supervised training.
    """
    present = set(np.unique(labeled_ds.y).tolist())
    if present != set(range(labeled_ds.num_classes)):
        missing = sorted(set(range(labeled_ds.num_classes)) - present)
        raise ValueError(f"labeled set is missing classes {missing}")

    ss = np.random.SeedSequence(train_config.seed)
    init_seq, shuffle_seq, _mix_seq, unlab_seq, pair_seq = ss.spawn(5)
    init_rng = np.random.default_rng(init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    unlab_rng = np.random.default_rng(unlab_seq)
    pair_rng = np.random.default_rng(pair_seq)

    params = init_params(tuple(specs), init_rng)
    velocity = zeros_like_params(params)
    labeled_batches = _BatchCycler(len(labeled_ds), config.labeled_batch, shuffle_rng)
    have_unlabeled = len(unlabeled_x) > 0
    if have_unlabeled:
        unlabeled_batches = _BatchCycler(
            len(unlabeled_x), config.unlabeled_batch, unlab_rng
        )

    log: list[tuple[str, int, float]] = []
    window: list[float] = []
    for step in range(config.steps):
        idx_l = labeled_batches.next()
        batch_l = (labeled_ds.x[idx_l], labeled_ds.y[idx_l])
        if have_unlabeled:
            idx_u = unlabeled_batches.next()
            params, metrics = ssl_step(
                params,
                batch_l,
                unlabeled_x[idx_u],
                config,
                train_config,
                pair_rng,
                velocity=velocity,
                step=step,
                total_steps=config.steps,
            )
            check_finite_loss(metrics["loss"], f"step {step}")
            window.append(metrics["accepted_frac"])
        else:
            z, cache = forward(params, adapt_inputs(params.specs, batch_l[0]))
            res = batch_loss(z, plain_targets(batch_l[1]), CE_SPEC)
            check_finite_loss(res.value, f"step {step}")
            grads, _ = backward(params, cache, res.grad_logits, input_grad=False)
            sgd_step(params, grads, velocity, step, config.steps, train_config)
            window.append(0.0)
        if (step + 1) % config.eval_interval == 0:
            z_t, _ = forward(params, adapt_inputs(params.specs, test_ds.x))
            acc = float(np.mean(np.argmax(z_t, axis=1) == test_ds.y))
            log.append(("test_top1", step, acc))
            log.append(("accepted_frac", step, float(np.mean(window))))
            window = []
    return params, log
