"""Per-sample reference forms of the objectives, the mixers and the glyph
generator, the two-pass SSL step and the whole-array forms of the training
step's kernels, for the tests.

Each function takes one logit vector (or one pair of inputs, or one glyph at
a time) and writes the arithmetic out directly, with its analytic gradient
where it has one. The batched kernels in ``demix.losses``, ``demix.mixers``
and ``demix.data`` are what training runs; the tests compare them against
these forms. The ``chain_*`` forms run the conv net as it ran before its
pools took the ReLU of the conv layer before them: each conv layer takes its
ReLU at full size, and ``demix.network`` must match them byte for byte.
:func:`ssl_step` is the SSL step with one cross-entropy pass per
forward, the form ``demix.semisup.ssl_step`` must match byte for byte;
:func:`sgd_step`, :func:`dense_forward`, :func:`dense_backward` and
:func:`cutmix_batch` are the whole-array forms that ``demix.network`` and
``demix.mixers`` must match byte for byte. :func:`input_gradients`,
:func:`fgsm_inputs` and :func:`occlusion_eval` are the probes' forms that
compute every parameter gradient, use out-of-place temporaries and build a
pixel mask; ``demix.network`` and ``demix.evaluation`` must match them byte
for byte.
"""

from __future__ import annotations

import numpy as np

from demix import evaluation
from demix.data import Dataset
from demix.losses import (
    DMConfig,
    LossResult,
    LossSpec,
    RescaleParams,
    _check_labels,
    asymmetric_dm_rows,
    batch_loss,
    log_softmax,
    mce_rows,
)
from demix.mixers import Lambda, MixedTarget, Targets, paste_boxes, sample_cutmix_boxes
from demix.network import (
    ConvSpec,
    Parameters,
    PoolSpec,
    _chunk_rows,
    _col2im,
    _im2col,
    _layer_backward,
    _layer_forward,
    _pool_views,
    backward,
    cosine_lr,
    forward,
    plain_targets,
)

BCE_TARGET_MODES = ("one", "two", "rescaled")


def _logsumexp(z: np.ndarray) -> float:
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m))))


def _decoupled(z: np.ndarray, j: int) -> tuple[np.ndarray, float]:
    """exp(z_i - lse) with lse the logsumexp over every entry but j (which
    gets 0), and lse itself; j is masked to -inf, so a dominant z_j never
    overflows the exponent."""
    masked = z.copy()
    masked[j] = -np.inf
    lse = _logsumexp(masked)
    return np.exp(masked - lse), lse


def target_records(targets: Targets) -> list[MixedTarget]:
    """The rows of a :class:`Targets` batch as one record per sample."""
    return [
        MixedTarget(int(a), int(b), Lambda(float(lam)))
        for a, b, lam in zip(targets.a, targets.b, targets.lam)
    ]


def mce_loss(z: np.ndarray, target: MixedTarget) -> LossResult:
    """Mixed cross-entropy: -(lam*log p_a + (1-lam)*log p_b).

    Gradient is softmax(z) minus the soft label (lam at a, 1-lam at b), so
    minimizing regresses the two class probabilities onto the mixing ratio.
    """
    z = np.asarray(z, dtype=float)
    a, b, lam = target.class_a, target.class_b, target.lam
    logp = log_softmax(z)
    value = -(lam.value * logp[a] + (1.0 - lam.value) * logp[b])
    grad = np.exp(logp)
    grad[a] -= lam.value
    grad[b] -= 1.0 - lam.value
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


def _rescale(lam: Lambda, params: RescaleParams) -> float:
    """Label rescaling min((lam/xi)^t, 1) of one ratio, with the corner
    conventions of ``demix.losses.rescale``."""
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
        out[b] += 1.0 - lam.value
    elif a == b:
        out[a] = 1.0
    elif mode == "two":
        out[a] = 1.0
        out[b] = 1.0
    else:
        assert params is not None, "rescaled mode needs RescaleParams"
        out[a] = _rescale(lam, params)
        out[b] = _rescale(Lambda(1.0 - lam.value), params)
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


def sample_lambda(alpha: float, rng: np.random.Generator) -> Lambda:
    """Draw a mixing ratio from Beta(alpha, alpha).

    One scalar ``rng.beta`` call; a size-n ``rng.beta`` call draws the same n
    values and leaves the generator in the same state as n of these.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return Lambda(float(rng.beta(alpha, alpha)))


def mix_linear(x_a: np.ndarray, x_b: np.ndarray, lam: Lambda) -> np.ndarray:
    """Elementwise convex combination lam*x_a + (1-lam)*x_b."""
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    if x_a.shape != x_b.shape:
        raise ValueError(f"shape mismatch: {x_a.shape} vs {x_b.shape}")
    return lam.value * x_a + (1.0 - lam.value) * x_b


def asymmetric_pair(
    x_labeled: np.ndarray, x_unlabeled: np.ndarray, lam: Lambda
) -> tuple[np.ndarray, Lambda]:
    """Linear mix where the labeled sample always gets the smaller coefficient.

    The ratio is clamped to min(lam, 1-lam), so the unlabeled content
    dominates the pixels while only the labeled class is trusted.
    """
    effective = Lambda(min(lam.value, 1.0 - lam.value))
    return mix_linear(x_labeled, x_unlabeled, effective), effective


def make_image_classes(
    n: int,
    num_classes: int = 10,
    size: int = 28,
    shift: int = 3,
    noise: float = 0.25,
    blobs_per_class: int = 5,
    seed: int = 0,
) -> Dataset:
    """The glyph generator one sample at a time: its draws, then its bumps
    added one blob after another, then its normalisation, noise and clip."""
    ss = np.random.SeedSequence(seed)
    template_rng, sample_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    lo, hi = 8.0, size - 8.0
    centers = template_rng.uniform(lo, hi, size=(num_classes, blobs_per_class, 2))
    widths = template_rng.uniform(1.5, 3.0, size=(num_classes, blobs_per_class))

    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    y = np.arange(n) % num_classes
    x = np.empty((n, size, size))
    for i in range(n):
        c = y[i]
        dy, dx = sample_rng.integers(-shift, shift + 1, size=2)
        amp = sample_rng.uniform(0.7, 1.3, size=blobs_per_class)
        canvas = np.zeros((size, size))
        for k in range(blobs_per_class):
            cy, cx = centers[c, k, 0] + dy, centers[c, k, 1] + dx
            canvas += amp[k] * np.exp(
                -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * widths[c, k] ** 2)
            )
        canvas = canvas / canvas.max()
        canvas += noise * sample_rng.normal(size=canvas.shape)
        x[i] = np.clip(canvas, 0.0, 1.0)
    order = sample_rng.permutation(n)
    return Dataset(x[order], y[order].astype(np.int64), num_classes)


def softmax_two_subtractions(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax_two_subtractions(z: np.ndarray) -> np.ndarray:
    """``z - m - log(sum(exp(z - m)))``: the row max subtracted twice."""
    z = np.asarray(z, dtype=float)
    m = np.max(z, axis=-1, keepdims=True)
    return z - m - np.log(np.sum(np.exp(z - m), axis=-1, keepdims=True))


def ssl_step(params, labeled, unlabeled_x, config, rng):
    """One SSL step with a CE pass for the labeled and accepted rows and a
    second one for the asymmetric pairs, partners drawn by ``rng.choice``."""
    x_l, y_l = labeled
    x_l = np.asarray(x_l, dtype=float)
    n_l, n_u = len(x_l), len(unlabeled_x)
    z, cache = forward(params, np.concatenate([x_l, unlabeled_x]))
    _check_labels(y_l, z.shape[1])
    p = softmax_two_subtractions(z[n_l:])
    classes = np.argmax(p, axis=1)
    accepted = p[np.arange(len(p)), classes] >= config.tau
    w_u = config.unlabeled_weight
    acc_idx = np.flatnonzero(accepted) if w_u > 0.0 else np.empty(0, dtype=np.intp)
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
        eff = np.minimum(lam, 1.0 - lam)
        w = eff.reshape((n_l,) + (1,) * (x_l.ndim - 1))
        mixed = w * x_l + (1.0 - w) * unlabeled_x[partners]
        z_m, cache_m = forward(params, mixed)
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
        for g, g_mix in zip(grads.arrays(), grads_mix.arrays()):
            g += g_mix
    metrics["loss"] = metrics["loss_labeled"] + w_u * (
        metrics["loss_pseudo"] + metrics["loss_mix"]
    )
    return grads, metrics


def sgd_step(params, grads, velocity, step, total_steps, config):
    """Momentum SGD with decoupled weight decay over each whole weight at
    once, with a full-size temporary: v = m*v + g; p -= lr*(v + wd*p)."""
    lr = cosine_lr(step, total_steps, config)
    for i in range(len(params.specs)):
        if params.weights[i] is None:
            continue
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


def dense_forward(spec, w, bias, x):
    """A dense layer that keeps its pre-activation: (out, (x, pre))."""
    pre = x @ w + bias
    out = np.maximum(pre, 0.0) if spec.activation == "relu" else pre
    return out, (x, pre)


def dense_backward(spec, w, cache, grad):
    """(dW, db, d input) of :func:`dense_forward`, masked by ``pre > 0``."""
    x, pre = cache
    if spec.activation == "relu":
        grad = grad * (pre > 0)
    return x.T @ grad, grad.sum(axis=0), grad @ w.T


def cutmix_batch(inputs, labels, alpha, rng):
    """CutMix of a batch through a per-pixel box mask over the gathered
    partners: (mixed inputs, targets, pairing), drawn as ``mix_batch`` draws."""
    inputs = np.asarray(inputs, dtype=float)
    pairing = rng.permutation(len(inputs))
    lam = rng.beta(alpha, alpha)
    *edges, ratio = sample_cutmix_boxes(*inputs.shape[-2:], lam, 1, rng)
    mixed = paste_boxes(inputs, inputs[pairing], *edges)
    return mixed, Targets(labels, labels[pairing], np.full(len(inputs), ratio)), pairing


def input_gradients(params, x, y):
    """d(mean CE)/d(inputs) as the full ``backward`` of each inference chunk,
    every parameter gradient computed and dropped, each chunk's gradient
    weighted by its share of the rows."""
    rows = _chunk_rows(params, x)
    out = []
    for i in range(0, len(x), rows):
        z, cache = forward(params, x[i : i + rows])
        res = batch_loss(z, plain_targets(y[i : i + rows]), LossSpec())
        out.append(backward(params, cache, res.grad_logits * (len(z) / len(x)))[1])
    return np.concatenate(out)


def fgsm_inputs(x, gx, epsilon):
    """The sign attack's inputs x + eps*sign(g), clamped to [0, 1] for images."""
    x_adv = x + epsilon * np.sign(gx)
    return np.clip(x_adv, 0.0, 1.0) if x_adv.ndim >= 3 else x_adv


def occlusion_eval(params, dataset, config, rng):
    """The occlusion curve through a materialised pixel mask per ratio, scored
    by ``evaluation.top1_accuracy`` as looked up at each call."""
    grid_h, grid_w = evaluation.occlusion_grid(dataset, config.patch_size)
    p = config.patch_size
    n_patches = grid_h * grid_w
    x = np.asarray(dataset.x, dtype=float)
    n = len(x)
    out = []
    for ratio in config.ratios:
        k = evaluation.patches_to_mask(ratio, n_patches)
        if k == 0:
            out.append((ratio, evaluation.top1_accuracy(params, dataset)))
            continue
        chosen = np.argsort(rng.random((n, n_patches)), axis=1)[:, :k]
        grid = np.zeros((n, n_patches), dtype=bool)
        np.put_along_axis(grid, chosen, True, axis=1)
        pixels = np.broadcast_to(
            grid.reshape(n, grid_h, 1, grid_w, 1), (n, grid_h, p, grid_w, p)
        ).reshape((n,) + (1,) * (x.ndim - 3) + x.shape[-2:])
        occluded = np.where(pixels, 0.0, x)
        acc = evaluation.top1_accuracy(params, Dataset(occluded, dataset.y, dataset.num_classes))
        out.append((ratio, acc))
    return out


def chain_layer_forward(spec, w, bias, x):
    """One layer with the ReLU of a conv layer at full size; its cache keeps
    the output, whose sign masks the backward. Dense and flatten layers run
    as ``demix.network`` runs them."""
    if isinstance(spec, ConvSpec):
        b, c, h, wd = x.shape
        cols = _im2col(x, spec.ksize, spec.pad)
        out = np.matmul(w.reshape(spec.out_ch, -1), cols)
        out += bias[:, None]
        out = out.reshape(b, spec.out_ch, h + 2 * spec.pad - spec.ksize + 1, -1)
        if spec.activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out, (x.shape, cols, out)
    if isinstance(spec, PoolSpec):
        views = _pool_views(x, spec.size)
        out = views[0].copy()
        for v in views[1:]:
            np.maximum(out, v, out=out)
        return out, (x, out)
    return _layer_forward(spec, w, bias, x)


def chain_layer_backward(spec, w, cache, grad):
    """(dW, db, d input) of :func:`chain_layer_forward`: a ReLU conv layer
    masks the full-size gradient by its output's sign; the pool routes the
    gradient to the first maximum of each window, in row-major order."""
    if isinstance(spec, ConvSpec):
        x_shape, cols, out = cache
        if spec.activation == "relu":
            grad = grad * (out > 0)
        gf = grad.reshape(grad.shape[0], spec.out_ch, -1)
        dw = np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        dcols = np.matmul(w.reshape(spec.out_ch, -1).T, gf)
        return dw, gf.sum(axis=(0, 2)), _col2im(dcols, x_shape, spec.ksize, spec.pad)
    if isinstance(spec, PoolSpec):
        x, out = cache
        dx = np.empty_like(x)
        free = np.ones(out.shape, dtype=bool)
        for v, dv in zip(_pool_views(x, spec.size), _pool_views(dx, spec.size)):
            hit = free & (v == out)
            np.multiply(grad, hit, out=dv)
            free &= ~hit
        return None, None, dx
    return _layer_backward(spec, w, cache, grad)


def chain_forward(params, x, mix=None):
    """Logits and per-layer caches of a raw batch; ``mix = (site, lam,
    pairing)`` mixes the input of layer ``site`` with its partner rows."""
    x = np.asarray(x, dtype=float)
    h = x.reshape(len(x), *params.plan(x.shape[1:])[0])
    caches = []
    for i, spec in enumerate(params.specs):
        if mix is not None and mix[0] == i:
            _, lam, pairing = mix
            h = lam * h + (1.0 - lam) * h[pairing]
        h, cache = chain_layer_forward(spec, params.weights[i], params.biases[i], h)
        caches.append(cache)
    return h, caches


def chain_backward(params, caches, grad_logits, x_shape, mix=None):
    """Every parameter gradient and the input gradient, in ``x_shape``, of
    :func:`chain_forward` run with the same ``mix``."""
    n = len(params.specs)
    weights, biases = [None] * n, [None] * n
    g = grad_logits
    for i in range(n - 1, -1, -1):
        weights[i], biases[i], g = chain_layer_backward(
            params.specs[i], params.weights[i], caches[i], g
        )
        if mix is not None and mix[0] == i:
            _, lam, pairing = mix
            g, g_mixed = lam * g, g
            g[pairing] += (1.0 - lam) * g_mixed
    return Parameters(params.specs, weights, biases), g.reshape(x_shape)


def chain_predict_logits(params, x):
    """Logits of :func:`chain_forward`, one inference chunk at a time."""
    rows = _chunk_rows(params, x)
    return np.concatenate([chain_forward(params, x[i : i + rows])[0]
                           for i in range(0, len(x), rows)])


def chain_input_gradients(params, x, y):
    """d(mean CE)/d(inputs) through :func:`chain_backward`, one inference
    chunk at a time, each chunk's gradient weighted by its share of the rows."""
    rows = _chunk_rows(params, x)
    out = []
    for i in range(0, len(x), rows):
        xs = x[i : i + rows]
        z, caches = chain_forward(params, xs)
        res = batch_loss(z, plain_targets(y[i : i + rows]), LossSpec())
        g = res.grad_logits * (len(z) / len(x))
        out.append(chain_backward(params, caches, g, xs.shape)[1])
    return np.concatenate(out)
