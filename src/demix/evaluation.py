"""Read-only metrics and robustness probes over trained parameters.

All evaluators leave the parameters untouched and may run concurrently with
each other. ``DEMIX_THREADS`` (default 1) caps the thread pool used for the
chunked forward passes; chunk order is fixed so results are identical at any
thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import batch_loss, softmax, LossSpec
from .mixers import Lambda, MixedBatch, Targets, apply_mask, make_cutmix_mask
from .network import Parameters, adapt_inputs, backward, forward, plain_targets

_CE = LossSpec(kind="mce")


@dataclass(frozen=True)
class MixedPairEval:
    top1_pair_acc: float
    top2_pair_acc: float
    mean_max_confidence: float


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float = 8.0 / 255.0
    pixel_bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass(frozen=True)
class OcclusionConfig:
    patch_size: int = 4
    ratios: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError("patch_size must be positive")
        if any(not (0.0 <= r <= 1.0) for r in self.ratios):
            raise ValueError("ratios must lie in [0, 1]")


def _eval_threads() -> int:
    try:
        return max(1, int(os.environ.get("DEMIX_THREADS", "1")))
    except ValueError:
        return 1


def predict_logits(params: Parameters, x: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Forward pass in fixed-order chunks, optionally threaded."""
    x = adapt_inputs(params.specs, np.asarray(x, dtype=float))
    pieces = [x[i : i + chunk] for i in range(0, len(x), chunk)]
    threads = _eval_threads()
    if threads > 1 and len(pieces) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(lambda p: forward(params, p)[0], pieces))
    else:
        outs = [forward(params, p)[0] for p in pieces]
    return np.concatenate(outs) if len(outs) > 1 else outs[0]


def top1_accuracy(params: Parameters, dataset: Dataset) -> float:
    """Fraction of samples whose argmax logit equals the label."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    logits = predict_logits(params, dataset.x)
    return float(np.mean(np.argmax(logits, axis=1) == dataset.y))


def mixed_pair_eval(params: Parameters, mixed: MixedBatch) -> MixedPairEval:
    """Pair metrics on a mixed validation set.

    top1: the argmax lands in {a, b}. top2: the two highest logits are
    exactly {a, b}. Both are symmetric in (a, b). Also reports the mean of
    the max softmax probability as a confidence summary.
    """
    logits = predict_logits(params, mixed.inputs)
    order = np.argsort(logits, axis=1)
    t = mixed.targets
    top1 = order[:, -1]
    hit1 = (top1 == t.a) | (top1 == t.b)
    top2 = np.sort(order[:, -2:], axis=1)
    pair = np.sort(np.stack([t.a, t.b], axis=1), axis=1)
    hit2 = np.all(top2 == pair, axis=1)
    probs = softmax(logits)
    return MixedPairEval(
        float(hit1.mean()), float(hit2.mean()), float(probs.max(axis=1).mean())
    )


def make_hard_mixed_set(
    dataset: Dataset,
    count: int,
    rng: np.random.Generator,
    lam: float = 0.5,
    area_band: tuple[float, float] | None = None,
) -> MixedBatch:
    """Class-distinct pairs mixed by a cut mask at the given ratio.

    Balanced cut mixing puts both classes in every sample at full salience,
    which is exactly the regime where a confidence-starved model misses the
    second class. ``area_band`` optionally rejects draws whose realized ratio
    falls outside it (border-clipped boxes can leave the second class almost
    absent, which dilutes the pair metrics).
    """
    n = len(dataset)
    inputs, a, b, ratios = [], [], [], []
    h, w = dataset.x.shape[-2:]
    while len(inputs) < count:
        i, j = rng.integers(n), rng.integers(n)
        if dataset.y[i] == dataset.y[j]:
            continue
        mask, adj = make_cutmix_mask(h, w, Lambda(lam), rng)
        if area_band is not None and not (area_band[0] <= adj.value <= area_band[1]):
            continue
        inputs.append(apply_mask(dataset.x[i], dataset.x[j], mask))
        a.append(dataset.y[i])
        b.append(dataset.y[j])
        ratios.append(adj.value)
    return MixedBatch(np.stack(inputs), Targets(a, b, ratios), np.arange(count))


def input_gradients(params: Parameters, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(inputs), reshaped back to the raw input shape."""
    adapted = adapt_inputs(params.specs, np.asarray(x, dtype=float))
    z, cache = forward(params, adapted)
    res = batch_loss(z, plain_targets(y), _CE)
    _, gx = backward(params, cache, res.grad_logits)
    return gx.reshape(np.asarray(x).shape)


def fgsm_attack(
    params: Parameters, dataset: Dataset, config: AttackConfig
) -> tuple[float, float]:
    """Single-step sign attack; returns (adversarial accuracy, error rate).

    The attack gradient always comes from the clean cross-entropy. A zero
    gradient component leaves its pixel untouched (sign(0) = 0).
    """
    gx = input_gradients(params, dataset.x, dataset.y)
    lo, hi = config.pixel_bounds
    x_adv = np.clip(dataset.x + config.epsilon * np.sign(gx), lo, hi)
    acc = top1_accuracy(params, Dataset(x_adv, dataset.y, dataset.num_classes))
    return acc, 1.0 - acc


def patches_to_mask(ratio: float, n_patches: int) -> int:
    """How many of the n_patches get occluded at a given ratio (floor)."""
    return int(ratio * n_patches)


def occlusion_eval(
    params: Parameters,
    dataset: Dataset,
    config: OcclusionConfig,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Top-1 accuracy after zeroing randomly chosen grid patches.

    Ratio 0 runs the untouched clean path (no RNG involved) so it matches
    :func:`top1_accuracy` exactly.
    """
    h, w = dataset.x.shape[-2:]
    p = config.patch_size
    if h % p or w % p:
        raise ValueError(f"patch size {p} does not tile {h}x{w}")
    grid_h, grid_w = h // p, w // p
    n_patches = grid_h * grid_w
    out = []
    for ratio in config.ratios:
        k = patches_to_mask(ratio, n_patches)
        if k == 0:
            out.append((ratio, top1_accuracy(params, dataset)))
            continue
        occluded = np.array(dataset.x, dtype=float, copy=True)
        for i in range(len(occluded)):
            chosen = rng.choice(n_patches, size=k, replace=False)
            for patch in chosen:
                r, c = divmod(int(patch), grid_w)
                occluded[i, ..., r * p : (r + 1) * p, c * p : (c + 1) * p] = 0.0
        acc = top1_accuracy(params, Dataset(occluded, dataset.y, dataset.num_classes))
        out.append((ratio, acc))
    return out


def confidence_histogram(
    params: Parameters, dataset: Dataset, bins: int
) -> np.ndarray:
    """Counts of per-sample max softmax probability over equal bins in [0, 1].

    Bin edges follow numpy's convention: half-open except the last bin, which
    includes 1.0; a probability exactly on an edge lands in the upper bin.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    probs = softmax(predict_logits(params, dataset.x))
    counts, _ = np.histogram(probs.max(axis=1), bins=bins, range=(0.0, 1.0))
    return counts
