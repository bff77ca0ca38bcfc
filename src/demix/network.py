"""Minimal feed-forward classifiers with hand-written backprop.

Two fixed architectures: an MLP (in-256-C, ReLU) and a small conv net
(3x3x8 - pool - 3x3x16 - pool - dense). Forward passes return an explicit
:class:`ActivationCache`; :func:`backward` walks it to produce exact
gradients for every parameter and, on request, for the inputs (the FGSM
probe asks; training does not, so it skips the first layer's input
gradient).
Hidden-layer mixing for ManifoldMix is a linear operation recorded in the
cache so the chain rule routes lam to each sample and 1-lam to its partner.

Conv layers run on im2col: the patch matrix is one ``sliding_window_view``
of the padded input, and the forward and both gradients are batched BLAS
matmuls over it; ``_col2im`` adds all channels at once for each of the k*k
kernel offsets. Max-pool takes the elementwise maximum of the s*s strided
views ``x[:, :, i::s, j::s]`` and routes the gradient to the first maximum of
each window in row-major order. ``sgd_step`` updates parameters and velocity
in place.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .losses import LossSpec, batch_loss
from .mixers import Lambda, MixConfig, Targets, mix_batch


ACTIVATIONS = ("relu", "none")


def _check_layer(activation: str, *sizes: int) -> None:
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if min(sizes) < 1:
        raise ValueError(f"layer sizes must be positive, got {sizes}")


@dataclass(frozen=True)
class DenseSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"  # "relu" | "none"

    def __post_init__(self):
        _check_layer(self.activation, self.in_dim, self.out_dim)


@dataclass(frozen=True)
class ConvSpec:
    in_ch: int
    out_ch: int
    ksize: int = 3
    pad: int = 1
    activation: str = "relu"

    def __post_init__(self):
        _check_layer(self.activation, self.in_ch, self.out_ch, self.ksize)
        if self.pad < 0:
            raise ValueError(f"pad must be nonnegative, got {self.pad}")


@dataclass(frozen=True)
class PoolSpec:
    size: int = 2

    def __post_init__(self):
        _check_layer("none", self.size)


@dataclass(frozen=True)
class FlattenSpec:
    pass


LayerSpec = DenseSpec | ConvSpec | PoolSpec | FlattenSpec


@dataclass(eq=False)
class Parameters:
    """Layer specs plus one (W, b) pair per parametric layer (None otherwise)."""

    specs: tuple[LayerSpec, ...]
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]

    def arrays(self):
        """Flat, ordered view of every parameter array (W then b per layer)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            if w is not None:
                out.append(w)
                out.append(b)
        return out

    @property
    def num_classes(self) -> int:
        last = self.specs[-1]
        assert isinstance(last, DenseSpec)
        return last.out_dim

    def copy(self) -> "Parameters":
        return Parameters(
            self.specs,
            [None if w is None else w.copy() for w in self.weights],
            [None if b is None else b.copy() for b in self.biases],
        )


@dataclass(eq=False)
class ActivationCache:
    """Per-layer values kept by a forward pass for the matching backward."""

    num_layers: int
    batch_size: int
    input_shape: tuple[int, ...]
    layer_io: list
    mix: tuple | None = None  # (site, lam_value, pairing) when hidden-mixed


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
        if self.base_lr <= 0 or self.min_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.min_lr > self.base_lr:
            raise ValueError("min_lr must not exceed base_lr")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be positive and epochs nonnegative")


@dataclass(eq=False)
class HiddenMixSpec:
    """Where to mix hidden activations: site 0 is the input, k is after layer k."""

    layer_index: int
    lam: Lambda
    pairing: np.ndarray


def make_mlp(in_dim: int, hidden: int, num_classes: int) -> tuple[LayerSpec, ...]:
    return (DenseSpec(in_dim, hidden, "relu"), DenseSpec(hidden, num_classes, "none"))


def make_conv(
    in_ch: int, num_classes: int, image_hw: tuple[int, int] = (28, 28)
) -> tuple[LayerSpec, ...]:
    h, w = image_hw
    if h % 4 or w % 4:
        raise ValueError("conv architecture needs image dims divisible by 4")
    return (
        ConvSpec(in_ch, 8),
        PoolSpec(2),
        ConvSpec(8, 16),
        PoolSpec(2),
        FlattenSpec(),
        DenseSpec(16 * (h // 4) * (w // 4), num_classes, "none"),
    )


def init_params(specs: tuple[LayerSpec, ...], rng: np.random.Generator) -> Parameters:
    """He-uniform weights, zero biases; fully determined by the generator."""
    weights: list[np.ndarray | None] = []
    biases: list[np.ndarray | None] = []
    for spec in specs:
        if isinstance(spec, DenseSpec):
            limit = math.sqrt(6.0 / spec.in_dim)
            weights.append(rng.uniform(-limit, limit, size=(spec.in_dim, spec.out_dim)))
            biases.append(np.zeros(spec.out_dim))
        elif isinstance(spec, ConvSpec):
            fan_in = spec.in_ch * spec.ksize * spec.ksize
            limit = math.sqrt(6.0 / fan_in)
            weights.append(
                rng.uniform(
                    -limit, limit, size=(spec.out_ch, spec.in_ch, spec.ksize, spec.ksize)
                )
            )
            biases.append(np.zeros(spec.out_ch))
        else:
            weights.append(None)
            biases.append(None)
    return Parameters(tuple(specs), weights, biases)


def zeros_like_params(params: Parameters) -> Parameters:
    return Parameters(
        params.specs,
        [None if w is None else np.zeros_like(w) for w in params.weights],
        [None if b is None else np.zeros_like(b) for b in params.biases],
    )


def adapt_inputs(specs: tuple[LayerSpec, ...], x: np.ndarray) -> np.ndarray:
    """Reshape a raw batch to what the first layer expects."""
    x = np.asarray(x, dtype=float)
    first = specs[0]
    if isinstance(first, DenseSpec):
        flat = x.reshape(len(x), -1)
        if flat.shape[1] != first.in_dim:
            raise ValueError(
                f"input dim {flat.shape[1]} does not match layer 0 ({first.in_dim})"
            )
        return flat
    assert isinstance(first, ConvSpec)
    if x.ndim == 3:
        x = x[:, None, :, :]
    if x.ndim != 4 or x.shape[1] != first.in_ch:
        raise ValueError("conv input must be (batch, channels, H, W)")
    return x


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    # (b, c, ho, wo, k, k) -> (b, c*k*k, ho*wo), rows ordered (channel, i, j)
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * k * k, -1)


def _col2im(cols: np.ndarray, x_shape: tuple, k: int, pad: int) -> np.ndarray:
    b, c, h, w = x_shape
    ho = h + 2 * pad - k + 1
    wo = w + 2 * pad - k + 1
    cols = cols.reshape(b, c, k, k, ho, wo)
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            xp[:, :, i : i + ho, j : j + wo] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad:-pad, pad:-pad]
    return xp


def _pool_views(x: np.ndarray, s: int):
    """The s*s strided views x[:, :, i::s, j::s], in row-major window order."""
    return [x[:, :, i::s, j::s] for i in range(s) for j in range(s)]


def _layer_forward(spec, w, bias, x):
    if isinstance(spec, DenseSpec):
        pre = x @ w + bias
        out = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
        return out, (x, pre)
    if isinstance(spec, ConvSpec):
        b, c, h, wd = x.shape
        cols = _im2col(x, spec.ksize, spec.pad)
        out = np.matmul(w.reshape(spec.out_ch, -1), cols)
        out += bias[:, None]
        ho = h + 2 * spec.pad - spec.ksize + 1
        wo = wd + 2 * spec.pad - spec.ksize + 1
        out = out.reshape(b, spec.out_ch, ho, wo)
        if spec.activation == "relu":
            np.maximum(out, 0.0, out=out)
        # relu(pre) > 0 exactly where pre > 0, so backward needs only out,
        # which the next layer holds anyway.
        return out, (x.shape, cols, out)
    if isinstance(spec, PoolSpec):
        s = spec.size
        if x.shape[2] % s or x.shape[3] % s:
            raise ValueError("pool size must divide the spatial dims")
        views = _pool_views(x, s)
        out = views[0].copy()
        for v in views[1:]:
            np.maximum(out, v, out=out)
        return out, (x, out)
    assert isinstance(spec, FlattenSpec)
    return x.reshape(len(x), -1), (x.shape,)


def _layer_backward(spec, w, cache, grad, input_grad=True):
    """(dW, db, d input) of one layer; d input is None when not ``input_grad``."""
    if isinstance(spec, DenseSpec):
        x, pre = cache
        if spec.activation == "relu":
            grad = grad * (pre > 0)
        return x.T @ grad, grad.sum(axis=0), grad @ w.T if input_grad else None
    if isinstance(spec, ConvSpec):
        x_shape, cols, out = cache
        if spec.activation == "relu":
            grad = grad * (out > 0)
        gf = grad.reshape(grad.shape[0], spec.out_ch, -1)
        dw = np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        db = gf.sum(axis=(0, 2))
        if not input_grad:
            return dw, db, None
        dcols = np.matmul(w.reshape(spec.out_ch, -1).T, gf)
        return dw, db, _col2im(dcols, x_shape, spec.ksize, spec.pad)
    if isinstance(spec, PoolSpec):
        # The gradient goes to the first maximum of each window in row-major
        # order, as argmax would pick it.
        x, out = cache
        dx = np.empty_like(x)
        free = np.ones(out.shape, dtype=bool)
        for v, dv in zip(_pool_views(x, spec.size), _pool_views(dx, spec.size)):
            hit = free & (v == out)
            dv[...] = np.where(hit, grad, 0.0)
            free &= ~hit
        return None, None, dx
    assert isinstance(spec, FlattenSpec)
    (x_shape,) = cache
    return None, None, grad.reshape(x_shape)


def _mix_hidden(h: np.ndarray, lam: Lambda, pairing: np.ndarray) -> np.ndarray:
    return lam.value * h + lam.complement * h[pairing]


def forward(params: Parameters, x: np.ndarray) -> tuple[np.ndarray, ActivationCache]:
    """Run the batch through every layer; keep what backward needs."""
    return forward_manifold_mix(params, x, None)


def forward_manifold_mix(
    params: Parameters, x: np.ndarray, spec: HiddenMixSpec | None
) -> tuple[np.ndarray, ActivationCache]:
    """Forward pass that mixes activations at ``spec.layer_index`` with a partner.

    Site 0 mixes the inputs themselves (plain input-space mixup); site k mixes
    the output of layer k. Mixing with lam=1 or an identity pairing is a
    no-op and is skipped so those cases match the plain forward exactly.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    mix_record = None
    if spec is not None:
        if not (0 <= spec.layer_index < len(params.specs)):
            raise ValueError(f"mix site {spec.layer_index} outside the network depth")
        identity = bool(np.array_equal(spec.pairing, np.arange(n)))
        if spec.lam.value != 1.0 and not identity:
            mix_record = (spec.layer_index, spec.lam, np.asarray(spec.pairing))

    h = x
    if mix_record is not None and mix_record[0] == 0:
        h = _mix_hidden(h, mix_record[1], mix_record[2])
    layer_io = []
    for i, lspec in enumerate(params.specs):
        h, cache = _layer_forward(lspec, params.weights[i], params.biases[i], h)
        layer_io.append(cache)
        if mix_record is not None and mix_record[0] == i + 1:
            h = _mix_hidden(h, mix_record[1], mix_record[2])
    return h, ActivationCache(len(params.specs), n, x.shape, layer_io, mix_record)


def backward(
    params: Parameters,
    cache: ActivationCache,
    grad_logits: np.ndarray,
    input_grad: bool = True,
) -> tuple[Parameters, np.ndarray | None]:
    """Exact gradients of the scalar batch loss w.r.t. parameters and inputs.

    With ``input_grad=False`` the first layer's input gradient is not
    computed and None is returned in its place; the parameter gradients are
    the same either way.
    """
    if cache.num_layers != len(params.specs):
        raise ValueError("cache does not match these parameters")
    grad_logits = np.asarray(grad_logits, dtype=float)
    if len(grad_logits) != cache.batch_size:
        raise ValueError("gradient batch does not match the cached forward")
    n = len(params.specs)
    weights: list[np.ndarray | None] = [None] * n
    biases: list[np.ndarray | None] = [None] * n
    g = grad_logits
    for i in range(n - 1, -1, -1):
        if cache.mix is not None and cache.mix[0] == i + 1:
            g = _unmix_grad(g, cache.mix[1], cache.mix[2])
        weights[i], biases[i], g = _layer_backward(
            params.specs[i], params.weights[i], cache.layer_io[i], g, input_grad or i > 0
        )
    grads = Parameters(params.specs, weights, biases)
    if not input_grad:
        return grads, None
    if cache.mix is not None and cache.mix[0] == 0:
        g = _unmix_grad(g, cache.mix[1], cache.mix[2])
    return grads, g.reshape(cache.input_shape)


def _unmix_grad(g: np.ndarray, lam: Lambda, pairing: np.ndarray) -> np.ndarray:
    # h_mixed[i] = lam*h[i] + (1-lam)*h[pairing[i]]; pairing is a bijection.
    out = lam.value * g
    out[pairing] += lam.complement * g
    return out


def manifold_mix_sites(specs: tuple[LayerSpec, ...]) -> list[int]:
    """Valid hidden-mix sites: the input plus each non-final activation block."""
    sites = [0]
    for i, spec in enumerate(specs[:-1]):
        if isinstance(spec, (PoolSpec,)):
            sites.append(i + 1)
        elif isinstance(spec, DenseSpec) and spec.activation != "none":
            sites.append(i + 1)
    return sites


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
        if params.weights[i] is None:
            continue
        # In place, in the float order of v = m*v + g; p -= lr*(v + wd*p).
        v, p = velocity.weights[i], params.weights[i]
        v *= config.momentum
        v += grads.weights[i]
        t = config.weight_decay * p
        t += v
        t *= lr
        p -= t
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


def _loss_and_grads(params, x, targets, loss_spec, hidden_mix=None):
    """Batch loss and parameter gradients of one forward and backward pass."""
    z, cache = forward_manifold_mix(params, adapt_inputs(params.specs, x), hidden_mix)
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
    the error alone.
    """
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
                # [0] frees the eval set's activation cache before the next step.
                z = forward(params, adapt_inputs(params.specs, eval_ds.x))[0]
                top1 = float(np.mean(np.argmax(z, axis=1) == eval_ds.y))
                log.extend(entries(step, float(np.mean(window)), top1))
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
    sites = manifold_mix_sites(specs)

    def step_fn():
        idx = next(batches)
        x, y, hidden = train_ds.x[idx], train_ds.y[idx], None
        if mix_config is None:
            targets = plain_targets(y)
        else:
            mb = mix_batch(x, y, mix_config, mix_rng)
            x, targets = mb.inputs, mb.targets
            if mix_config.policy == "manifold":
                site = int(mix_rng.choice(sites))
                hidden = HiddenMixSpec(site, targets[0].lam, mb.pairing)
        loss, grads = _loss_and_grads(params, x, targets, loss_spec, hidden)
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
# Checkpoints: 4-byte magic, a layer-spec token, shapes, then little-endian
# float64 payload.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"DMX1"


def _spec_token(spec: LayerSpec) -> str:
    if isinstance(spec, DenseSpec):
        return f"dense:{spec.in_dim}:{spec.out_dim}:{spec.activation}"
    if isinstance(spec, ConvSpec):
        return f"conv:{spec.in_ch}:{spec.out_ch}:{spec.ksize}:{spec.pad}:{spec.activation}"
    if isinstance(spec, PoolSpec):
        return f"pool:{spec.size}"
    return "flatten"


def _parse_spec_token(token: str) -> LayerSpec:
    kind, *fields = token.split(":")
    try:
        if kind == "dense":
            in_dim, out_dim, activation = fields
            return DenseSpec(int(in_dim), int(out_dim), activation)
        if kind == "conv":
            in_ch, out_ch, ksize, pad, activation = fields
            return ConvSpec(int(in_ch), int(out_ch), int(ksize), int(pad), activation)
        if kind == "pool":
            (size,) = fields
            return PoolSpec(int(size))
    except ValueError as exc:
        raise ValueError(f"malformed layer token {token!r}: {exc}") from exc
    if token == "flatten":
        return FlattenSpec()
    raise ValueError(f"unknown layer token {token!r}")


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
        raise ValueError("truncated checkpoint file")
    return f.read(n)


def load_checkpoint(path) -> Parameters:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise ValueError("not a DMX1 checkpoint (bad magic)")
        (arch_len,) = struct.unpack("<I", _read_exact(f, 4))
        specs = tuple(
            _parse_spec_token(t)
            for t in _read_exact(f, arch_len).decode("ascii").split(";")
        )
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        shapes = []
        for _ in range(count):
            (ndim,) = struct.unpack("<B", _read_exact(f, 1))
            shapes.append(struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim)))
        arrays = []
        for shape in shapes:
            arrays.append(
                np.frombuffer(_read_exact(f, 8 * math.prod(shape)), dtype="<f8")
                .astype(float)
                .reshape(shape)
            )
        if f.read(1):
            raise ValueError("trailing bytes after the checkpoint payload")
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise ValueError("checkpoint holds non-finite weights")
    params = init_params(specs, np.random.default_rng(0))
    expected = params.arrays()
    if len(expected) != len(arrays):
        raise ValueError("checkpoint arrays do not match the architecture")
    it = iter(arrays)
    for i in range(len(params.specs)):
        if params.weights[i] is None:
            continue
        w = next(it)
        b = next(it)
        if w.shape != params.weights[i].shape or b.shape != params.biases[i].shape:
            raise ValueError("checkpoint shapes do not match the architecture")
        params.weights[i] = w
        params.biases[i] = b
    return params
