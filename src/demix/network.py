"""Minimal feed-forward classifiers with hand-written backprop.

Two fixed architectures: an MLP (in-256-C, ReLU) and a small conv net
(3x3x8 - pool - 3x3x16 - pool - dense). Forward passes return an explicit
:class:`ActivationCache`; :func:`backward` walks it to produce exact
gradients for every parameter and for the inputs (used by the FGSM probe).
Hidden-layer mixing for ManifoldMix is a linear operation recorded in the
cache so the chain rule routes lam to each sample and 1-lam to its partner.
"""

from __future__ import annotations

import math
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
    ho = h + 2 * pad - k + 1
    wo = w + 2 * pad - k + 1
    cols = np.empty((b, c * k * k, ho * wo))
    idx = 0
    for ch in range(c):
        for i in range(k):
            for j in range(k):
                cols[:, idx, :] = xp[:, ch, i : i + ho, j : j + wo].reshape(b, -1)
                idx += 1
    return cols


def _col2im(cols: np.ndarray, x_shape: tuple, k: int, pad: int) -> np.ndarray:
    b, c, h, w = x_shape
    ho = h + 2 * pad - k + 1
    wo = w + 2 * pad - k + 1
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    idx = 0
    for ch in range(c):
        for i in range(k):
            for j in range(k):
                xp[:, ch, i : i + ho, j : j + wo] += cols[:, idx, :].reshape(b, ho, wo)
                idx += 1
    if pad:
        return xp[:, :, pad:-pad, pad:-pad]
    return xp


def _layer_forward(spec, w, bias, x):
    if isinstance(spec, DenseSpec):
        pre = x @ w + bias
        out = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
        return out, (x, pre)
    if isinstance(spec, ConvSpec):
        b, c, h, wd = x.shape
        cols = _im2col(x, spec.ksize, spec.pad)
        wm = w.reshape(spec.out_ch, -1)
        pre = np.einsum("oc,bcp->bop", wm, cols) + bias[None, :, None]
        ho = h + 2 * spec.pad - spec.ksize + 1
        wo = wd + 2 * spec.pad - spec.ksize + 1
        pre = pre.reshape(b, spec.out_ch, ho, wo)
        out = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
        return out, (x.shape, cols, pre)
    if isinstance(spec, PoolSpec):
        b, c, h, wd = x.shape
        s = spec.size
        if h % s or wd % s:
            raise ValueError("pool size must divide the spatial dims")
        windows = (
            x.reshape(b, c, h // s, s, wd // s, s)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h // s, wd // s, s * s)
        )
        amax = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, amax[..., None], axis=-1)[..., 0]
        return out, (x.shape, amax)
    assert isinstance(spec, FlattenSpec)
    return x.reshape(len(x), -1), (x.shape,)


def _layer_backward(spec, w, cache, grad):
    if isinstance(spec, DenseSpec):
        x, pre = cache
        if spec.activation == "relu":
            grad = grad * (pre > 0)
        return x.T @ grad, grad.sum(axis=0), grad @ w.T
    if isinstance(spec, ConvSpec):
        x_shape, cols, pre = cache
        if spec.activation == "relu":
            grad = grad * (pre > 0)
        b = grad.shape[0]
        gf = grad.reshape(b, spec.out_ch, -1)
        dw = np.einsum("bop,bcp->oc", gf, cols).reshape(w.shape)
        db = gf.sum(axis=(0, 2))
        wm = w.reshape(spec.out_ch, -1)
        dcols = np.einsum("oc,bop->bcp", wm, gf)
        return dw, db, _col2im(dcols, x_shape, spec.ksize, spec.pad)
    if isinstance(spec, PoolSpec):
        x_shape, amax = cache
        b, c, h, wd = x_shape
        s = spec.size
        dwin = np.zeros((b, c, h // s, wd // s, s * s))
        np.put_along_axis(dwin, amax[..., None], grad[..., None], axis=-1)
        dx = (
            dwin.reshape(b, c, h // s, wd // s, s, s)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h, wd)
        )
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
    params: Parameters, cache: ActivationCache, grad_logits: np.ndarray
) -> tuple[Parameters, np.ndarray]:
    """Exact gradients of the scalar batch loss w.r.t. parameters and inputs."""
    if cache.num_layers != len(params.specs):
        raise ValueError("cache does not match these parameters")
    grad_logits = np.asarray(grad_logits, dtype=float)
    if len(grad_logits) != cache.batch_size:
        raise ValueError("gradient batch does not match the cached forward")
    grads = zeros_like_params(params)
    g = grad_logits
    for i in range(len(params.specs) - 1, -1, -1):
        if cache.mix is not None and cache.mix[0] == i + 1:
            g = _unmix_grad(g, cache.mix[1], cache.mix[2])
        dw, db, g = _layer_backward(
            params.specs[i], params.weights[i], cache.layer_io[i], g
        )
        if dw is not None:
            grads.weights[i] = dw
            grads.biases[i] = db
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
        velocity.weights[i] = config.momentum * velocity.weights[i] + grads.weights[i]
        velocity.biases[i] = config.momentum * velocity.biases[i] + grads.biases[i]
        params.weights[i] -= lr * (
            velocity.weights[i] + config.weight_decay * params.weights[i]
        )
        params.biases[i] -= lr * velocity.biases[i]
    return params


def plain_targets(labels: np.ndarray) -> Targets:
    """Unmixed labels as degenerate targets (a == b, lam = 1)."""
    return Targets(labels, labels, np.ones(len(labels)))


class TrainingDiverged(ArithmeticError):
    """The scalar batch loss of a training step is NaN or infinite."""


def check_finite_loss(value: float, where: str) -> None:
    """Raise :class:`TrainingDiverged` naming ``where`` if ``value`` is not finite."""
    if not math.isfinite(value):
        raise TrainingDiverged(f"training diverged at {where}: batch loss {value!r}")


def _val_top1(params: Parameters, x: np.ndarray, y: np.ndarray) -> float:
    logits, _ = forward(params, adapt_inputs(params.specs, x))
    return float(np.mean(np.argmax(logits, axis=1) == y))


def train_supervised(
    train_ds,
    val_ds,
    specs: tuple[LayerSpec, ...],
    mix_config: MixConfig | None,
    loss_spec: LossSpec,
    config: TrainConfig,
) -> tuple[Parameters, list[tuple[str, int, float]]]:
    """Mini-batch training loop; deterministic given ``config.seed``.

    Returns the trained parameters and a per-epoch log of
    ("train_loss" | "val_top1", epoch, value) entries. ``mix_config=None``
    trains on plain labels with no mixing.
    """
    if len(train_ds.x) == 0:
        raise ValueError("empty training set")
    ss = np.random.SeedSequence(config.seed)
    init_seq, shuffle_seq, mix_seq = ss.spawn(3)
    init_rng = np.random.default_rng(init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    mix_rng = np.random.default_rng(mix_seq)

    params = init_params(specs, init_rng)
    velocity = zeros_like_params(params)
    n = len(train_ds.x)
    bs = min(config.batch_size, n)
    steps_per_epoch = (n + bs - 1) // bs
    total_steps = config.epochs * steps_per_epoch
    sites = manifold_mix_sites(specs)

    log: list[tuple[str, int, float]] = []
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            xb = train_ds.x[idx]
            yb = train_ds.y[idx]
            if mix_config is None:
                z, cache = forward(params, adapt_inputs(specs, xb))
                targets = plain_targets(yb)
            elif mix_config.policy == "manifold":
                mb = mix_batch(xb, yb, mix_config, mix_rng)
                site = int(mix_rng.choice(sites))
                hspec = HiddenMixSpec(site, mb.targets[0].lam, mb.pairing)
                z, cache = forward_manifold_mix(
                    params, adapt_inputs(specs, mb.inputs), hspec
                )
                targets = mb.targets
            else:
                mb = mix_batch(xb, yb, mix_config, mix_rng)
                z, cache = forward(params, adapt_inputs(specs, mb.inputs))
                targets = mb.targets
            res = batch_loss(z, targets, loss_spec)
            check_finite_loss(res.value, f"epoch {epoch}, step {step}")
            grads, _ = backward(params, cache, res.grad_logits)
            sgd_step(params, grads, velocity, step, total_steps, config)
            step += 1
            epoch_losses.append(res.value)
        log.append(("train_loss", epoch, float(np.mean(epoch_losses))))
        log.append(("val_top1", epoch, _val_top1(params, val_ds.x, val_ds.y)))
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
    data = f.read(n)
    if len(data) != n:
        raise ValueError("truncated checkpoint file")
    return data


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
            size = int(np.prod(shape)) if shape else 1
            arrays.append(
                np.frombuffer(_read_exact(f, 8 * size), dtype="<f8")
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
