"""Minimal feed-forward classifiers with hand-written backprop.

Two fixed architectures: an MLP (in-256-C, ReLU) and a small conv net
(3x3x8 - pool - 3x3x16 - pool - dense). Forward passes return an explicit
:class:`ActivationCache`; :func:`backward` walks it to produce exact
gradients for every parameter and, on request, for the inputs (training does
not ask, so it skips the first layer's input gradient; the FGSM probe's
:func:`input_gradients` computes input gradients alone, no parameter gradient).
:func:`forward` takes a raw batch and shapes it for the first layer. Its
optional hidden mix for ManifoldMix is a linear operation on the input of one
of the plan's ManifoldMix sites (the input, or the output of a non-final pool
or ReLU dense layer), recorded in the cache so the chain rule routes lam to
each sample and 1-lam to its partner.

:func:`predict_logits` is the one inference path: :func:`top1_accuracy`
(the per-epoch score of :func:`_train_loop`) and every probe in
``evaluation`` score through it, and the sign attack's
:func:`input_gradients` takes the same chunks, in order.
A chunk's widest array (the input, a layer's output or a conv layer's patch
matrix) fits in 4 MiB of float64 (a single pass over 1000 rows of the conv
net would build a 113 MB patch matrix). :func:`_plan` sizes them once per
parameter set and raw row shape, lists the ManifoldMix sites, and is the one
check of rows against layers: a row that a dense, conv or pool layer cannot
take fails there, naming it.

Conv layers run on im2col: the patch matrix is one ``sliding_window_view``
of the padded input, and the forward and both gradients are batched BLAS
matmuls over it; ``_col2im`` adds all channels at once for each of the k*k
kernel offsets. Max-pool takes the elementwise maximum of the s*s strided
views ``x[:, :, i::s, j::s]`` and routes the gradient to the first maximum of
each window in row-major order. Dense and conv layers cache their output,
not the pre-activation: ReLU's output is > 0 exactly where its input is. A
ReLU conv layer leaves its ReLU and mask to a pool right after it, on the
pooled map: ReLU and max commute exactly. ``sgd_step`` updates parameters
and velocity in place, a weight of more than ``_SGD_BLOCK`` floats one row
slice at a time.

The layer specs are the schema of DMX1 checkpoints: a layer's token is its
kind and its fields, and ``_param_shapes`` gives the shapes that
:func:`init_params` draws and :func:`load_checkpoint` checks the file against,
after it has checked that each layer takes what the one before it gives.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .data import _check_fields
from .losses import LossSpec, _check_labels, batch_loss
from .mixers import MixConfig, Targets, mix_batch


ACTIVATIONS = ("relu", "none")


def _check_activation(activation: str) -> None:
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")


@dataclass(frozen=True)
class DenseSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"  # "relu" | "none"

    def __post_init__(self):
        _check_fields(self, "in_dim", "out_dim", above=0)
        _check_activation(self.activation)


@dataclass(frozen=True)
class ConvSpec:
    in_ch: int
    out_ch: int
    ksize: int = 3
    pad: int = 1
    activation: str = "relu"

    def __post_init__(self):
        _check_fields(self, "in_ch", "out_ch", "ksize", above=0)
        _check_activation(self.activation)
        _check_fields(self, "pad", least=0)


@dataclass(frozen=True)
class PoolSpec:
    size: int = 2

    def __post_init__(self):
        _check_fields(self, "size", above=0)


@dataclass(frozen=True)
class FlattenSpec:
    pass


LayerSpec = DenseSpec | ConvSpec | PoolSpec | FlattenSpec


@dataclass(eq=False)
class Parameters:
    """Layer specs, one (W, b) pair per parametric layer (None otherwise), their plans."""

    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def arrays(self):
        """Flat, ordered view of every parameter array (W then b per layer)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            if w is not None:
                out.append(w)
                out.append(b)
        return out

    def plan(self, row: tuple[int, ...]) -> tuple:
        """:func:`_plan` of these specs for raw rows of shape ``row``, walked once."""
        if row not in self._plans:
            self._plans[row] = _plan(self.specs, row)
        return self._plans[row]


@dataclass(eq=False)
class ActivationCache:
    """Per-layer values kept by a forward pass for the matching backward."""

    input_shape: tuple[int, ...]  # of the raw batch
    layer_io: list
    mix: tuple | None = None  # (site, lam, pairing) when hidden-mixed


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.1
    min_lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 50
    batch_size: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, "base_lr", "min_lr", "batch_size", above=0)
        _check_fields(self, "weight_decay", "epochs", "seed", least=0)
        _check_fields(self, "momentum", least=0, below=1)
        if self.min_lr > self.base_lr:
            raise ValueError("min_lr must not exceed base_lr")


def make_mlp(in_dim: int, hidden: int, num_classes: int) -> tuple[LayerSpec, ...]:
    return (DenseSpec(in_dim, hidden, "relu"), DenseSpec(hidden, num_classes, "none"))


def make_conv(
    in_ch: int, num_classes: int, image_hw: tuple[int, int] = (28, 28)
) -> tuple[LayerSpec, ...]:
    """Conv net for (H, W) images. :func:`_plan` of its body sizes the dense head, so an
    image size that a pool cannot halve fails here, naming the layer."""
    if len(image_hw) != 2:
        raise ValueError(f"conv architecture needs 2-D image inputs, got shape {tuple(image_hw)}")
    body = (ConvSpec(in_ch, 8), PoolSpec(2), ConvSpec(8, 16), PoolSpec(2), FlattenSpec())
    return (*body, DenseSpec(*_plan(body, (in_ch, *image_hw))[2], num_classes, "none"))


def _param_shapes(spec: LayerSpec):
    """(W shape, b shape) of a parametric layer; None for pool and flatten."""
    if isinstance(spec, DenseSpec):
        return (spec.in_dim, spec.out_dim), (spec.out_dim,)
    if isinstance(spec, ConvSpec):
        return (spec.out_ch, spec.in_ch, spec.ksize, spec.ksize), (spec.out_ch,)
    return None


def init_params(specs: tuple[LayerSpec, ...], rng: np.random.Generator) -> Parameters:
    """He-uniform weights, zero biases; fully determined by the generator."""
    weights: list[np.ndarray | None] = []
    biases: list[np.ndarray | None] = []
    for spec in specs:
        shapes = _param_shapes(spec)
        if shapes is None:
            weights.append(None)
            biases.append(None)
            continue
        w_shape, b_shape = shapes
        limit = math.sqrt(6.0 / (math.prod(w_shape) // b_shape[0]))  # fan-in
        weights.append(rng.uniform(-limit, limit, size=w_shape))
        biases.append(np.zeros(b_shape))
    return Parameters(tuple(specs), weights, biases)


def zeros_like_params(params: Parameters) -> Parameters:
    return Parameters(
        params.specs,
        [None if w is None else np.zeros_like(w) for w in params.weights],
        [None if b is None else np.zeros_like(b) for b in params.biases],
    )


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    # (b, c, ho, wo, k, k) -> (b, c*k*k, ho*wo), rows ordered (channel, i, j)
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, -1)


def _col2im(cols: np.ndarray, x_shape: tuple, k: int, pad: int) -> np.ndarray:
    b, c, h, w = x_shape
    ho = h + 2 * pad - k + 1
    wo = w + 2 * pad - k + 1
    cols = cols.reshape(b, c, k, k, ho, wo)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            xp[:, :, i : i + ho, j : j + wo] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad:-pad, pad:-pad]
    return xp


def _pool_views(x: np.ndarray, s: int):
    """The s*s strided views x[:, :, i::s, j::s], in row-major window order."""
    return [x[:, :, i::s, j::s] for i in range(s) for j in range(s)]


def _layer_forward(spec, w, bias, x, pooled=False):
    """(output, cache); ``pooled`` marks both layers of a ReLU-at-pool pair of the plan."""
    if isinstance(spec, DenseSpec):
        out = x @ w
        out += bias
        if spec.activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out, (x, out)
    if isinstance(spec, ConvSpec):
        b, _, h, _ = x.shape
        cols = _im2col(x, spec.ksize, spec.pad)
        out = np.matmul(w.reshape(spec.out_ch, -1), cols)
        out += bias[:, None]
        out = out.reshape(b, spec.out_ch, h + 2 * spec.pad - spec.ksize + 1, -1)
        if spec.activation == "relu" and not pooled:
            np.maximum(out, 0.0, out=out)
            return out, (x.shape, cols, out)
        return out, (x.shape, cols, None)
    if isinstance(spec, PoolSpec):
        views = _pool_views(x, spec.size)
        out = views[0].copy()
        for v in views[1:]:
            np.maximum(out, v, out=out)
        if pooled:
            np.maximum(out, 0.0, out=out)
        return out, (x, out, pooled)
    assert isinstance(spec, FlattenSpec)
    return x.reshape(len(x), -1), (x.shape,)


def _layer_backward(spec, w, cache, grad, input_grad=True, param_grad=True):
    """(dW, db, d input) of one layer, None where ``param_grad`` or ``input_grad`` is off."""
    if isinstance(spec, DenseSpec):
        x, out = cache
        if spec.activation == "relu":
            grad = grad * (out > 0)
        dw, db = (x.T @ grad, grad.sum(axis=0)) if param_grad else (None, None)
        return dw, db, grad @ w.T if input_grad else None
    if isinstance(spec, ConvSpec):
        x_shape, cols, out = cache
        if out is not None:  # the ReLU ran here
            grad = grad * (out > 0)
        gf = grad.reshape(grad.shape[0], spec.out_ch, -1)
        dw = db = None
        if param_grad:
            dw = np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
            db = gf.sum(axis=(0, 2))
        if not input_grad:
            return dw, db, None
        dcols = np.matmul(w.reshape(spec.out_ch, -1).T, gf)
        return dw, db, _col2im(dcols, x_shape, spec.ksize, spec.pad)
    if isinstance(spec, PoolSpec):
        # The gradient goes to the first maximum of each window in row-major order, as argmax
        # would; with the ReLU here, none unless out > 0. grad * mask leaves -0.0 where grad < 0.
        x, out, relu = cache
        dx = np.empty_like(x)
        free = out > 0 if relu else np.ones(out.shape, dtype=bool)
        for k, (v, dv) in enumerate(zip(_pool_views(x, spec.size), _pool_views(dx, spec.size))):
            hit = free & (v == out)
            np.multiply(grad, hit, out=dv)
            if k < spec.size**2 - 1:  # no view after the last reads free
                free &= ~hit
        return None, None, dx
    assert isinstance(spec, FlattenSpec)
    (x_shape,) = cache
    return None, None, grad.reshape(x_shape)


def forward(
    params: Parameters, x: np.ndarray, mix: tuple | None = None
) -> tuple[np.ndarray, ActivationCache]:
    """Run a raw batch through every layer; keep what backward needs.

    ``mix = (site, lam, pairing)`` mixes the input of layer ``site``, one of
    the plan's ManifoldMix sites, with its partner rows: site 0 mixes the
    inputs themselves (plain input-space mixup). Mixing with lam=1 or an
    identity pairing is a no-op and is skipped so those cases match the
    unmixed forward exactly.
    """
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        raise ValueError("no rows to run through the network: the batch is empty")
    first, _, _, pools, sites = params.plan(x.shape[1:])
    if mix is not None:
        site, lam, pairing = mix
        if site not in sites:
            raise ValueError(f"mix site {site} is not one of the ManifoldMix sites {sites}")
        if len(pairing) != len(x):
            raise ValueError(f"mix pairing has {len(pairing)} rows for a batch of {len(x)}")
        if lam == 1.0 or np.array_equal(pairing, np.arange(len(x))):
            mix = None
    h = x.reshape(len(x), *first)
    layer_io = []
    for i, lspec in enumerate(params.specs):
        if mix is not None and mix[0] == i:
            h = lam * h + (1.0 - lam) * h[pairing]
        pooled = i in pools or i + 1 in pools
        h, cache = _layer_forward(lspec, params.weights[i], params.biases[i], h, pooled)
        layer_io.append(cache)
    return h, ActivationCache(x.shape, layer_io, mix)


def backward(
    params: Parameters,
    cache: ActivationCache,
    grad_logits: np.ndarray,
    input_grad: bool = True,
) -> tuple[Parameters, np.ndarray | None]:
    """Exact gradients of the scalar batch loss w.r.t. parameters and inputs.

    The input gradient has the shape of the raw batch. With
    ``input_grad=False`` the first layer's input gradient is not computed and
    None is returned in its place; the parameter gradients are the same
    either way.
    """
    if len(cache.layer_io) != len(params.specs):
        raise ValueError("cache does not match these parameters")
    grad_logits = np.asarray(grad_logits, dtype=float)
    if len(grad_logits) != cache.input_shape[0]:
        raise ValueError("gradient batch does not match the cached forward")
    n = len(params.specs)
    weights: list[np.ndarray | None] = [None] * n
    biases: list[np.ndarray | None] = [None] * n
    g = grad_logits
    for i in range(n - 1, -1, -1):
        weights[i], biases[i], g = _layer_backward(
            params.specs[i], params.weights[i], cache.layer_io[i], g, input_grad or i > 0
        )
        if cache.mix is not None and cache.mix[0] == i and g is not None:
            # h_mixed[k] = lam*h[k] + (1-lam)*h[pairing[k]]; pairing is a bijection.
            _, lam, pairing = cache.mix
            g, g_mixed = lam * g, g
            g[pairing] += (1.0 - lam) * g_mixed
    grads = Parameters(params.specs, weights, biases)
    return grads, g.reshape(cache.input_shape) if input_grad else None


# Bytes the widest array of one inference chunk may take: the order of an L2 cache.
_CHUNK_BYTES = 4 << 20
# Floats per weight row slice in sgd_step: 128 rows of 784x256, so slices stay in L2.
_SGD_BLOCK = 32768


def _plan(specs: tuple[LayerSpec, ...], raw_row: tuple[int, ...]) -> tuple:
    """(first-layer row: flat at a dense layer, with a channel axis for 2-D images at a
    conv layer; float count of the widest per-row array: that row, a layer's output or a
    conv layer's patch matrix; output row; pools right after a ReLU conv layer, where the
    pair's ReLU runs; ManifoldMix sites: 0, then the layer after each non-final pool or
    ReLU dense layer). ``ValueError`` names an empty network, or the first layer that
    cannot take its row (dense width; conv channels, rank or kernel fit; pool rank or size)."""
    if not specs:
        raise ValueError("no layers to run: the network is empty")
    first = (1, *raw_row) if isinstance(specs[0], ConvSpec) and len(raw_row) == 2 else raw_row
    if isinstance(specs[0], DenseSpec):
        first = (math.prod(raw_row),)
    row, widest, pools, sites = first, math.prod(first), set(), [0]
    for i, s in enumerate(specs):
        if isinstance(s, ConvSpec):
            if len(row) != 3 or row[0] != s.in_ch:
                raise ValueError(f"layer {i} needs ({s.in_ch}, H, W) rows, got shape {row}")
            c, h, w = row
            row = (s.out_ch, h + 2 * s.pad - s.ksize + 1, w + 2 * s.pad - s.ksize + 1)
            if min(row[1:]) < 1:
                raise ValueError(
                    f"layer {i}: kernel {s.ksize} with pad {s.pad} does not fit {h}x{w} maps"
                )
            widest = max(widest, c * s.ksize**2 * row[1] * row[2])
        elif isinstance(s, PoolSpec):
            if len(row) != 3 or row[1] % s.size or row[2] % s.size:
                raise ValueError(
                    f"layer {i} needs (C, H, W) rows, H and W divisible by {s.size}, got {row}"
                )
            row = (row[0], row[1] // s.size, row[2] // s.size)
            sites.append(i + 1)
            if i and isinstance(specs[i - 1], ConvSpec) and specs[i - 1].activation == "relu":
                pools.add(i)
        elif isinstance(s, DenseSpec):
            if row != (s.in_dim,):
                raise ValueError(f"layer {i} needs {s.in_dim} inputs per row, got shape {row}")
            row = (s.out_dim,)
            if s.activation == "relu":
                sites.append(i + 1)
        else:
            row = (math.prod(row),)
        widest = max(widest, math.prod(row))
    return first, widest, row, frozenset(pools), tuple(t for t in sites if t < len(specs))


def _chunk_rows(params: Parameters, x: np.ndarray) -> int:
    """Rows per inference chunk of the raw batch ``x``: as many as keep the
    chunk's widest array within ``_CHUNK_BYTES`` of float64, at least one."""
    return max(1, _CHUNK_BYTES // (8 * params.plan(x.shape[1:])[1]))


def predict_logits(params: Parameters, x: np.ndarray) -> np.ndarray:
    """Logits of a raw batch, one forward per :func:`_chunk_rows` chunk (at least one) in order."""
    rows = _chunk_rows(params, x)
    outs = [forward(params, x[i : i + rows])[0] for i in range(0, len(x) or 1, rows)]
    return np.concatenate(outs) if len(outs) > 1 else outs[0]


def top1_accuracy(params: Parameters, dataset) -> float:
    """Fraction of samples whose argmax logit equals the label."""
    logits = predict_logits(params, dataset.x)
    _check_labels(dataset.y, logits.shape[1])
    return float(np.count_nonzero(np.argmax(logits, axis=1) == dataset.y) / len(dataset))


def input_gradients(params: Parameters, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(inputs), in the raw input shape, one inference chunk at a
    time: each chunk's mean-CE gradient is weighted by its share of the rows.
    The walk back computes each layer's input gradient and no parameter gradient."""
    rows = _chunk_rows(params, x)
    out = []
    for i in range(0, len(x) or 1, rows):
        z, cache = forward(params, x[i : i + rows])
        res = batch_loss(z, plain_targets(y[i : i + rows]), LossSpec())
        g = res.grad_logits * (len(z) / len(x))
        for spec, w, io in zip(params.specs[::-1], params.weights[::-1], cache.layer_io[::-1]):
            g = _layer_backward(spec, w, io, g, param_grad=False)[2]
        out.append(g.reshape(cache.input_shape))
    return np.concatenate(out)


def cosine_lr(step: int, total_steps: int, config: TrainConfig) -> float:
    """min_lr + 0.5*(base-min)*(1+cos(pi*step/total)); anchored at both ends."""
    if step > total_steps:
        raise ValueError(f"step {step} beyond the schedule horizon {total_steps}")
    if total_steps == 0:
        return config.base_lr
    frac = step / total_steps
    return config.min_lr + 0.5 * (config.base_lr - config.min_lr) * (
        1.0 + math.cos(math.pi * frac)
    )


def sgd_step(
    params: Parameters,
    grads: Parameters,
    velocity: Parameters,
    step: int,
    total_steps: int,
    config: TrainConfig,
) -> Parameters:
    """Momentum SGD with decoupled weight decay (weights only, not biases)."""
    lr = cosine_lr(step, total_steps, config)
    for i in range(len(params.specs)):
        p, v, g = params.weights[i], velocity.weights[i], grads.weights[i]
        if p is None:
            continue
        # v = m*v + g; p -= lr*(v + wd*p) in place, whole or per row slice (not
        # a reshape, which would update a copy of a non-contiguous weight).
        if p.size <= _SGD_BLOCK:
            blocks = [(p, v, g, None)]
        else:
            rows = max(1, _SGD_BLOCK // (p.size // len(p)))
            t = np.empty_like(p[:rows])
            blocks = [(p[r : r + rows], v[r : r + rows], g[r : r + rows], t[: len(p) - r])
                      for r in range(0, len(p), rows)]
        for ps, vs, gs, ts in blocks:
            vs *= config.momentum
            vs += gs
            ts = np.multiply(config.weight_decay, ps, out=ts)
            ts += vs
            ts *= lr
            ps -= ts
        vb = velocity.biases[i]
        vb *= config.momentum
        vb += grads.biases[i]
        params.biases[i] -= lr * vb
    return params


def plain_targets(labels: np.ndarray) -> Targets:
    """Unmixed labels as degenerate targets (a == b, lam = 1)."""
    return Targets(labels, labels, np.ones(len(labels)))


class TrainingDiverged(ArithmeticError):
    """The scalar batch loss of a training step is NaN or infinite."""


def _batches(n: int, batch: int, rng: np.random.Generator):
    """Endless index batches of range(n): each pass cuts one fresh permutation
    into ``batch``-row slices, the last possibly short (``batch <= 0``: all n)."""
    batch = min(batch, n) if batch > 0 else n
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch):
            yield order[start : start + batch]


def _loss_and_grads(params, x, targets, loss_spec, mix=None):
    """Batch loss and parameter gradients of one forward and backward pass."""
    z, cache = forward(params, x, mix)
    res = batch_loss(z, targets, loss_spec)
    grads, _ = backward(params, cache, res.grad_logits, input_grad=False)
    return res.value, grads


def _train_loop(
    params, step_fn, total_steps, eval_every, eval_ds, config, entries, where
):
    """Momentum SGD on ``params`` (in place) over ``total_steps`` steps.

    ``step_fn()`` returns ``(loss, grads, logged)``; a non-finite loss raises
    :class:`TrainingDiverged` at ``where(step)``. After every ``eval_every``
    steps and after the last, the log gets ``entries(step, mean logged since
    the last evaluation, top-1 on eval_ds)``. numpy's overflow, invalid and
    divide warnings are off for the whole loop, so a diverging run reports
    the error alone. An empty ``eval_ds``, or one with a label that has no
    logit, raises ``ValueError`` before step 0.
    """
    if len(eval_ds.x) == 0:
        raise ValueError("empty evaluation set")
    _check_labels(eval_ds.y, params.plan(eval_ds.x.shape[1:])[2][0])
    velocity = zeros_like_params(params)
    log: list[tuple[str, int, float]] = []
    window: list[float] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(total_steps):
            loss, grads, logged = step_fn()
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"training diverged at {where(step)}: batch loss {loss!r}"
                )
            sgd_step(params, grads, velocity, step, total_steps, config)
            window.append(logged)
            if (step + 1) % eval_every == 0 or step + 1 == total_steps:
                log.extend(entries(step, float(np.mean(window)), top1_accuracy(params, eval_ds)))
                window = []
    return log


def train_supervised(
    train_ds,
    val_ds,
    specs: tuple[LayerSpec, ...],
    mix_config: MixConfig | None,
    loss_spec: LossSpec,
    config: TrainConfig,
) -> tuple[Parameters, list[tuple[str, int, float]]]:
    """Mini-batch training; deterministic given ``config.seed``.

    Returns the trained parameters and a per-epoch log of
    ("train_loss" | "val_top1", epoch, value) entries. ``mix_config=None``
    trains on plain labels with no mixing.
    """
    n = len(train_ds.x)
    if n == 0:
        raise ValueError("empty training set")
    seqs = np.random.SeedSequence(config.seed).spawn(3)
    init_rng, shuffle_rng, mix_rng = map(np.random.default_rng, seqs)
    params = init_params(specs, init_rng)
    batches = _batches(n, config.batch_size, shuffle_rng)
    epoch_len = (n - 1) // min(config.batch_size, n) + 1

    def step_fn():
        idx = next(batches)
        x, y, mix = train_ds.x[idx], train_ds.y[idx], None
        if mix_config is None:
            targets = plain_targets(y)
        else:
            mb = mix_batch(x, y, mix_config, mix_rng)
            x, targets = mb.inputs, mb.targets
            if mix_config.policy == "manifold":
                sites = params.plan(x.shape[1:])[4]
                mix = (int(mix_rng.choice(sites)), targets.lam[0], mb.pairing)
        loss, grads = _loss_and_grads(params, x, targets, loss_spec, mix)
        return loss, grads, loss

    def entries(step, loss, top1):
        epoch = step // epoch_len
        return [("train_loss", epoch, loss), ("val_top1", epoch, top1)]

    log = _train_loop(
        params, step_fn, config.epochs * epoch_len, epoch_len, val_ds, config, entries,
        lambda step: f"epoch {step // epoch_len}, step {step}",
    )
    return params, log


# ---------------------------------------------------------------------------
# Checkpoints: 4-byte magic, layer tokens (``dense:784:256:relu;...``),
# shapes, then little-endian float64 payload.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DMX1"
_LAYER_KINDS = {"dense": DenseSpec, "conv": ConvSpec, "pool": PoolSpec, "flatten": FlattenSpec}


class CheckpointError(ValueError):
    """A DMX1 file that is malformed or does not match its own layer tokens."""


def _spec_token(spec: LayerSpec) -> str:
    kind = next(k for k, cls in _LAYER_KINDS.items() if type(spec) is cls)
    return ":".join([kind, *(str(getattr(spec, f.name)) for f in fields(spec))])


def _parse_spec_token(token: str) -> LayerSpec:
    kind, *values = token.split(":")
    if kind not in _LAYER_KINDS:
        raise CheckpointError(f"unknown layer token {token!r}")
    cls = _LAYER_KINDS[kind]
    names, types = [f.name for f in fields(cls)], get_type_hints(cls)
    try:
        if len(values) != len(names):
            raise ValueError(f"{kind} takes {len(names)} fields, got {len(values)}")
        return cls(*(types[n](v) for n, v in zip(names, values)))
    except ValueError as exc:
        raise CheckpointError(f"malformed layer token {token!r}: {exc}") from exc


def save_checkpoint(params: Parameters, path) -> None:
    arch = ";".join(_spec_token(s) for s in params.specs).encode("ascii")
    arrays = params.arrays()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(arch)))
        f.write(arch)
        f.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f, n: int) -> bytes:
    # Checked against the file size first, so a corrupt length never
    # becomes a huge read.
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointError("truncated checkpoint file")
    return f.read(n)


def _check_chain(specs: tuple[LayerSpec, ...], tokens: list[str]) -> None:
    """Each dense or conv layer takes what the last one before it gives; after
    a conv (pools and flatten keep its channels) a dense takes a multiple."""
    last = None  # index of the last dense or conv layer
    for i, s in enumerate(specs):
        p = specs[last] if last is not None else None
        if isinstance(s, ConvSpec) and isinstance(p, ConvSpec) and s.in_ch != p.out_ch:
            fault = f"in_ch {s.in_ch} is not the out_ch {p.out_ch}"
        elif isinstance(s, DenseSpec) and isinstance(p, DenseSpec) and s.in_dim != p.out_dim:
            fault = f"in_dim {s.in_dim} is not the out_dim {p.out_dim}"
        elif isinstance(s, DenseSpec) and isinstance(p, ConvSpec) and s.in_dim % p.out_ch:
            fault = f"in_dim {s.in_dim} is not a multiple of the out_ch {p.out_ch}"
        else:
            fault = None
        if fault:
            raise CheckpointError(f"layer {tokens[i]!r} does not follow {tokens[last]!r}: {fault}")
        if _param_shapes(s):
            last = i


def load_checkpoint(path) -> Parameters:
    """Read a :func:`save_checkpoint` file. Any fault in it raises
    :class:`CheckpointError`; no file makes it allocate more than its size."""
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a DMX1 checkpoint (bad magic)")
        (arch_len,) = struct.unpack("<I", _read_exact(f, 4))
        # A non-ASCII byte becomes U+FFFD, which no token parse accepts.
        arch = _read_exact(f, arch_len).decode("ascii", "replace")
        tokens = arch.split(";")
        specs = tuple(_parse_spec_token(t) for t in tokens)
        _check_chain(specs, tokens)
        layer_shapes = [_param_shapes(s) for s in specs]
        expected = [shape for pair in layer_shapes if pair for shape in pair]
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        if count != len(expected):
            raise CheckpointError("checkpoint arrays do not match the architecture")
        for shape in expected:
            (ndim,) = struct.unpack("<B", _read_exact(f, 1))
            if struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim)) != shape:
                raise CheckpointError("checkpoint shapes do not match the architecture")
        arrays = [
            np.frombuffer(_read_exact(f, 8 * math.prod(s)), dtype="<f8").astype(float).reshape(s)
            for s in expected
        ]
        if f.read(1):
            raise CheckpointError("trailing bytes after the checkpoint payload")
    if not all(np.isfinite(a).all() for a in arrays):
        raise CheckpointError("checkpoint holds non-finite weights")
    it = iter(arrays)
    pairs = [(next(it), next(it)) if p else (None, None) for p in layer_shapes]
    return Parameters(specs, [w for w, _ in pairs], [b for _, b in pairs])
