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

from .data import _check_fields
from .losses import LossSpec, _check_labels, asymmetric_dm_rows, mce_rows, softmax
from .mixers import _check_target_count
from .network import (
    Parameters,
    TrainConfig,
    _batches,
    _loss_and_grads,
    _train_loop,
    backward,
    forward,
    init_params,
    plain_targets,
)


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
        _check_fields(self, "tau", above=0, most=1)
        _check_fields(self, "unlabeled_weight", "eta", "labeled_batch", least=0)
        _check_fields(self, "alpha", "steps", "eval_interval", "unlabeled_batch", above=0)


def pseudo_label_batch(
    logits: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: argmax class, its softmax confidence, accepted iff conf >= tau."""
    p = softmax(logits)
    conf = p.max(axis=1)
    return p.argmax(axis=1), conf, conf >= tau


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

    The labeled and unlabeled rows share one forward and one backward pass.
    The asymmetric pairs need the pseudo-labels, so they get a second forward
    and backward; their partners and ratios (one size-n Beta draw) are drawn
    before any loss. One CE pass then covers the labeled and accepted
    pseudo-labeled rows at ratio 1 and the mixed rows at their ratios; the CE
    is row-wise, so this is the same arithmetic as one pass per forward.
    The mixing coefficient of the labeled sample is clamped to <= 0.5 and the
    decoupled term skips pairs whose pseudo class equals the labeled class.
    ``metrics["loss"]`` is the scalar loss of the step.
    """
    x_l, y_l = labeled
    x_l = np.asarray(x_l, dtype=float)
    n_l, n_u = len(x_l), len(unlabeled_x)
    _check_target_count(n_l, len(y_l))
    if n_u == 0:
        raise ValueError("empty unlabeled batch")
    if np.shape(unlabeled_x)[1:] != x_l.shape[1:]:
        raise ValueError(f"unlabeled rows {np.shape(unlabeled_x)} unlike labeled rows {x_l.shape}")

    z, cache = forward(params, np.concatenate([x_l, unlabeled_x]))
    _check_labels(y_l, z.shape[1])
    classes, _, accepted = pseudo_label_batch(z[n_l:], config.tau)
    w_u = config.unlabeled_weight
    acc_idx = np.flatnonzero(accepted) if w_u > 0.0 else np.empty(0, dtype=np.intp)
    rows = np.concatenate([np.arange(n_l), n_l + acc_idx])
    y = np.concatenate([y_l, classes[acc_idx]])
    k = len(y)
    # One CE pass: the labeled and accepted rows at ratio 1, then any mixed rows.
    z_ce, a, b, ratio = z[rows], y, y, 1.0
    mixing = len(acc_idx) > 0 and config.asymmetric_mixing
    if mixing:
        # The draw of rng.choice(acc_idx, size=n_l), without its checks.
        partners = acc_idx[rng.integers(len(acc_idx), size=n_l)]
        lam = rng.beta(config.alpha, config.alpha, size=n_l)
        eff = np.minimum(lam, 1.0 - lam)  # the labeled row gets the smaller share
        w = eff.reshape((n_l,) + (1,) * (x_l.ndim - 1))
        z_m, cache_m = forward(params, w * x_l + (1.0 - w) * unlabeled_x[partners])
        pseudo = classes[partners]
        z_ce = np.concatenate([z_ce, z_m])
        a, b = np.concatenate([y, y_l]), np.concatenate([y, pseudo])
        ratio = np.concatenate([np.ones(k), eff])
    value, grad_rows = mce_rows(z_ce, a, b, ratio)
    grad = np.zeros_like(z)
    grad[:n_l] = grad_rows[:n_l] / n_l
    grad[n_l + acc_idx] = w_u * (grad_rows[n_l:k] / n_u)
    metrics = {
        "loss_labeled": float(value[:n_l].sum()) / n_l,
        "loss_pseudo": float(value[n_l:k].sum()) / n_u,
        "loss_mix": 0.0,
        "accepted_frac": int(np.count_nonzero(accepted)) / n_u,
    }

    grads, _ = backward(params, cache, grad, input_grad=False)
    if mixing:
        metrics["loss_mix"] = float(value[k:].sum()) / n_l
        grad_m = grad_rows[k:] / n_l
        if config.eta > 0.0:
            value_dm, grad_dm = asymmetric_dm_rows(z_m, y_l, pseudo)
            metrics["loss_mix"] += config.eta * float(value_dm.sum()) / n_l
            grad_m += config.eta * grad_dm / n_l
        grads_mix, _ = backward(params, cache_m, w_u * grad_m, input_grad=False)
        for g, g_mix in zip(grads.arrays(), grads_mix.arrays()):
            g += g_mix
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

    Steps and batch sizes come from ``config``: ``train_config.epochs`` and
    ``train_config.batch_size`` are ignored.

    Logs ("test_top1" | "accepted_frac", step, value) every
    ``config.eval_interval`` steps and after the last step (interval-mean for
    the accepted fraction). An empty unlabeled pool degenerates to supervised
    training.
    """
    _check_labels(labeled_ds.y, labeled_ds.num_classes)
    missing = sorted(set(range(labeled_ds.num_classes)) - set(np.unique(labeled_ds.y).tolist()))
    if missing:
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
            return *_loss_and_grads(params, x_l, plain_targets(y_l), LossSpec()), 0.0
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
