"""Read-only metrics and robustness probes over trained parameters.

All evaluators leave the parameters untouched and may run concurrently with
each other. They score through ``network.predict_logits`` and
``network.top1_accuracy``, and the sign attack takes
``network.input_gradients``; all three are re-exported here.

The hard mixed set and the occlusion curve build their masks as arrays, with
no loop over rows; occlusion zeroes patches through a column-widened grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_fields
from .losses import softmax
from .mixers import (
    MixedBatch,
    Targets,
    _require_images,
    cutmix_ratios,
    paste_boxes,
    sample_cutmix_boxes,
)
from .network import Parameters, input_gradients, predict_logits, top1_accuracy


@dataclass(frozen=True)
class MixedPairEval:
    top1_pair_acc: float
    top2_pair_acc: float
    mean_max_confidence: float


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float = 8.0 / 255.0

    def __post_init__(self):
        _check_fields(self, "epsilon", least=0)


@dataclass(frozen=True)
class OcclusionConfig:
    patch_size: int = 4
    ratios: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        _check_fields(self, "patch_size", above=0)
        if not self.ratios:
            raise ValueError("ratios must hold at least one ratio")
        _check_fields({f"ratios[{i}]": r for i, r in enumerate(self.ratios)}, least=0, most=1)


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

    Rejection sampling in rounds: each round draws ``count`` first sources,
    then ``count`` second sources, then their boxes, and the first ``count``
    accepted candidates in draw order are kept. Inputs that cannot yield a
    pair raise ``ValueError``.
    """
    _require_images(dataset.x, "hard mixed set")
    n = len(dataset)
    _check_fields({"count": count}, least=1)
    if n == 0:
        raise ValueError("hard mixed set: the dataset is empty")
    y = np.asarray(dataset.y)
    if np.all(y == y[0]):
        raise ValueError(
            f"hard mixed set: pairs need two classes, the dataset has only class {y[0]}"
        )
    h, w = dataset.x.shape[-2:]
    lo, hi = area_band if area_band is not None else (0.0, 1.0)
    reachable = cutmix_ratios(h, w, lam)
    if not np.any((lo <= reachable) & (reachable <= hi)):
        raise ValueError(
            f"hard mixed set: no box at lam={lam} on {h}x{w} gives a ratio in "
            f"[{lo}, {hi}] (reachable {reachable.min():.4g} to {reachable.max():.4g})"
        )
    rounds = []
    kept = 0
    while kept < count:
        i = rng.integers(n, size=count)
        j = rng.integers(n, size=count)
        *edges, ratio = sample_cutmix_boxes(h, w, lam, count, rng)
        ok = (y[i] != y[j]) & (lo <= ratio) & (ratio <= hi)
        rounds.append([v[ok] for v in (i, j, *edges, ratio)])
        kept += int(ok.sum())
    i, j, y1, y2, x1, x2, ratio = (np.concatenate(v)[:count] for v in zip(*rounds))
    inputs = paste_boxes(dataset.x[i], dataset.x[j], y1, y2, x1, x2)
    return MixedBatch(inputs, Targets(y[i], y[j], ratio), np.arange(count))


def fgsm_attack(
    params: Parameters, dataset: Dataset, config: AttackConfig
) -> tuple[float, float]:
    """Single-step sign attack; returns (adversarial accuracy, error rate).

    The attack gradient always comes from the clean cross-entropy. A zero
    gradient component leaves its input untouched (sign(0) = 0). Only image
    inputs (``ndim >= 3``) are clamped, to the pixel range [0, 1].
    """
    # sign() makes a fresh array (never dataset.x); numpy's in-place sign is ~8x slower.
    x_adv = np.sign(input_gradients(params, dataset.x, dataset.y))
    x_adv *= config.epsilon
    x_adv += dataset.x  # x + eps*sign(g), bit for bit
    if x_adv.ndim >= 3:
        np.clip(x_adv, 0.0, 1.0, out=x_adv)
    acc = top1_accuracy(params, Dataset(x_adv, dataset.y, dataset.num_classes))
    return acc, 1.0 - acc


def patches_to_mask(ratio: float, n_patches: int) -> int:
    """How many of the n_patches get occluded at a given ratio (floor)."""
    return int(ratio * n_patches)


def occlusion_grid(dataset: Dataset, patch_size: int) -> tuple[int, int]:
    """Rows and columns of the patch grid; ``ValueError`` unless it tiles images."""
    _require_images(dataset.x, "occlusion")
    h, w = dataset.x.shape[-2:]
    if h % patch_size or w % patch_size:
        raise ValueError(f"patch size {patch_size} does not tile {h}x{w}")
    return h // patch_size, w // patch_size


def occlusion_eval(
    params: Parameters,
    dataset: Dataset,
    config: OcclusionConfig,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Top-1 accuracy after zeroing randomly chosen grid patches.

    Ratio 0 runs the untouched clean path (no RNG involved) so it matches
    :func:`top1_accuracy` exactly. Each other ratio draws one uniform key per
    row and patch and zeroes the ``k`` patches with the smallest keys of each
    row, a uniform choice of ``k`` of them.
    """
    grid_h, grid_w = occlusion_grid(dataset, config.patch_size)
    p = config.patch_size
    n_patches = grid_h * grid_w
    x = np.asarray(dataset.x, dtype=float)
    n = len(x)
    tiles = x.reshape(*x.shape[:-2], grid_h, p, x.shape[-1])
    out = []
    for ratio in config.ratios:
        k = patches_to_mask(ratio, n_patches)
        if k == 0:
            out.append((ratio, top1_accuracy(params, dataset)))
            continue
        chosen = np.argsort(rng.random((n, n_patches)), axis=1)[:, :k]
        grid = np.zeros((n, n_patches), dtype=bool)
        np.put_along_axis(grid, chosen, True, axis=1)
        # patch (r, c) covers pixels [r*p:(r+1)*p, c*p:(c+1)*p]: columns repeated, rows broadcast
        patches = grid.reshape((n,) + (1,) * (x.ndim - 3) + (grid_h, 1, grid_w))
        occluded = np.where(np.repeat(patches, p, axis=-1), 0.0, tiles).reshape(x.shape)
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
    _check_fields({"bins": bins}, least=1)
    probs = softmax(predict_logits(params, dataset.x))
    counts, _ = np.histogram(probs.max(axis=1), bins=bins, range=(0.0, 1.0))
    return counts
