import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from demix import data as dd
from demix.losses import DMConfig, LossSpec, RescaleParams, batch_loss
from demix.mixers import Lambda, MixConfig, MixedTarget, mix_linear
from demix.network import (
    ConvSpec,
    DenseSpec,
    HiddenMixSpec,
    Parameters,
    PoolSpec,
    TrainConfig,
    TrainingDiverged,
    adapt_inputs,
    backward,
    cosine_lr,
    forward,
    forward_manifold_mix,
    init_params,
    load_checkpoint,
    make_conv,
    make_mlp,
    manifold_mix_sites,
    save_checkpoint,
    sgd_step,
    train_supervised,
    zeros_like_params,
    _col2im,
    _im2col,
)

ALL_KINDS = ["mce", "dm_ce", "mbce_one", "mbce_two", "dm_bce"]


def random_targets(rng, n, c):
    return [
        MixedTarget(int(rng.integers(c)), int(rng.integers(c)), Lambda(float(rng.uniform())))
        for _ in range(n)
    ]


class TestForward:
    def test_zero_parameters_zero_logits(self):
        specs = make_mlp(4, 3, 2)
        params = init_params(specs, np.random.default_rng(0))
        for i in range(len(params.weights)):
            if params.weights[i] is not None:
                params.weights[i][:] = 0.0
        z, _ = forward(params, np.random.default_rng(1).normal(size=(5, 4)))
        assert np.array_equal(z, np.zeros((5, 2)))

    def test_identity_linear_layer(self):
        specs = (make_mlp(2, 2, 2)[1],)  # single dense layer, no activation
        params = init_params(specs, np.random.default_rng(0))
        params.weights[0][:] = np.eye(2)
        params.biases[0][:] = 0.0
        x = np.array([[0.5, -2.0], [3.0, 1.0]])
        z, _ = forward(params, x)
        assert np.array_equal(z, x)

    def test_two_layer_recomputation_oracle(self):
        specs = make_mlp(6, 5, 3)
        params = init_params(specs, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(4, 6))
        z, _ = forward(params, x)
        w1, b1 = params.weights[0], params.biases[0]
        w2, b2 = params.weights[1], params.biases[1]
        expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        np.testing.assert_allclose(z, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        specs = make_mlp(6, 5, 3)
        with pytest.raises(ValueError):
            adapt_inputs(specs, np.zeros((2, 7)))


class TestBackward:
    def test_zero_grad_logits(self):
        specs = make_mlp(4, 3, 2)
        params = init_params(specs, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 4))
        _, cache = forward(params, x)
        grads, gx = backward(params, cache, np.zeros((3, 2)))
        assert all(np.all(w == 0) for w in grads.weights if w is not None)
        assert np.all(gx == 0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mlp_param_gradients_vs_fd(self, kind):
        rng = np.random.default_rng(2)
        specs = make_mlp(6, 8, 4)
        params = init_params(specs, np.random.default_rng(3))
        x = rng.normal(size=(5, 6))
        targets = random_targets(rng, 5, 4)
        spec = LossSpec(kind, DMConfig(0.3), RescaleParams(0.5, 0.8))

        z, cache = forward(params, x)
        res = batch_loss(z, targets, spec)
        grads, gx = backward(params, cache, res.grad_logits)

        def value():
            zz, _ = forward(params, x)
            return batch_loss(zz, targets, spec).value

        h = 1e-6
        for li in (0, 1):
            arr, g = params.weights[li], grads.weights[li]
            for idx in [(0, 0), (arr.shape[0] - 1, arr.shape[1] - 1), (1, 2)]:
                orig = arr[idx]
                arr[idx] = orig + h
                vp = value()
                arr[idx] = orig - h
                vm = value()
                arr[idx] = orig
                fd = (vp - vm) / (2 * h)
                assert abs(g[idx] - fd) / max(1.0, abs(g[idx])) < 1e-4
        # input gradients
        for idx in [(0, 0), (4, 5)]:
            orig = x[idx]
            x[idx] = orig + h
            vp = value()
            x[idx] = orig - h
            vm = value()
            x[idx] = orig
            fd = (vp - vm) / (2 * h)
            assert abs(gx[idx] - fd) / max(1.0, abs(gx[idx])) < 1e-4

    def test_conv_param_gradients_vs_fd(self):
        rng = np.random.default_rng(5)
        specs = make_conv(1, 3, (8, 8))
        params = init_params(specs, np.random.default_rng(6))
        x = rng.normal(size=(4, 1, 8, 8))
        targets = random_targets(rng, 4, 3)
        spec = LossSpec("dm_ce", DMConfig(0.2))

        z, cache = forward(params, x)
        res = batch_loss(z, targets, spec)
        grads, gx = backward(params, cache, res.grad_logits)

        def value():
            zz, _ = forward(params, x)
            return batch_loss(zz, targets, spec).value

        h = 1e-6
        checked = 0
        for li, arr in enumerate(params.weights):
            if arr is None:
                continue
            flat = arr.reshape(-1)
            gflat = grads.weights[li].reshape(-1)
            for k in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[k]
                flat[k] = orig + h
                vp = value()
                flat[k] = orig - h
                vm = value()
                flat[k] = orig
                fd = (vp - vm) / (2 * h)
                assert abs(gflat[k] - fd) / max(1.0, abs(gflat[k])) < 1e-4
                checked += 1
        assert checked >= 8
        # input gradient spot check through conv, pool, flatten
        for idx in [(0, 0, 0, 0), (3, 0, 5, 7)]:
            orig = x[idx]
            x[idx] = orig + h
            vp = value()
            x[idx] = orig - h
            vm = value()
            x[idx] = orig
            fd = (vp - vm) / (2 * h)
            assert abs(gx[idx] - fd) / max(1.0, abs(gx[idx])) < 1e-4

    def test_linear_model_normal_equation_oracle(self):
        # Squared-error surrogate on a single linear layer: the parameter
        # gradient has the closed form X^T (X W + b - T) / n.
        rng = np.random.default_rng(9)
        specs = (DenseSpec(3, 2, "none"),)
        params = init_params(specs, np.random.default_rng(10))
        x = rng.normal(size=(6, 3))
        t = rng.normal(size=(6, 2))
        z, cache = forward(params, x)
        grad_logits = (z - t) / len(x)  # d(mean 0.5*||z-t||^2)/dz
        grads, _ = backward(params, cache, grad_logits)
        w, b = params.weights[0], params.biases[0]
        expected_w = x.T @ (x @ w + b - t) / len(x)
        expected_b = (x @ w + b - t).sum(axis=0) / len(x)
        np.testing.assert_allclose(grads.weights[0], expected_w, atol=1e-12)
        np.testing.assert_allclose(grads.biases[0], expected_b, atol=1e-12)

    @pytest.mark.parametrize(
        "arch, site",
        [("mlp", None), ("conv", None), ("mlp", 0), ("mlp", 1), ("conv", 0), ("conv", 2)],
    )
    def test_without_input_grad_same_param_grads(self, arch, site):
        specs = make_mlp(6, 8, 3) if arch == "mlp" else make_conv(1, 3, (8, 8))
        params = init_params(specs, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        x = adapt_inputs(specs, rng.normal(size=(5, 6) if arch == "mlp" else (5, 8, 8)))
        hspec = None
        if site is not None:
            hspec = HiddenMixSpec(site, Lambda(0.3), np.array([2, 0, 4, 1, 3]))
        z, cache = forward_manifold_mix(params, x, hspec)
        res = batch_loss(z, random_targets(rng, 5, 3), LossSpec("dm_ce", DMConfig(0.25)))
        full, gx = backward(params, cache, res.grad_logits)
        grads, none = backward(params, cache, res.grad_logits, input_grad=False)
        assert gx.shape == x.shape and none is None
        assert [w is None for w in grads.weights] == [w is None for w in params.weights]
        for a, b in zip(full.arrays(), grads.arrays(), strict=True):
            assert np.array_equal(a, b)

    def test_mismatched_cache_rejected(self):
        specs = make_mlp(4, 3, 2)
        params = init_params(specs, np.random.default_rng(0))
        _, cache = forward(params, np.zeros((3, 4)))
        other = init_params(make_conv(1, 2, (8, 8)), np.random.default_rng(1))
        with pytest.raises(ValueError):
            backward(other, cache, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros((5, 2)))


# Reference kernels: the per-channel loops, einsum contractions and argmax
# max-pool that the conv net ran on before its BLAS kernels. im2col, col2im
# and the pool must match them bit for bit; the conv contractions sum in
# another order, so they match to 1e-12.


def ref_im2col(x, k, pad):
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    cols = np.empty((b, c * k * k, ho * wo))
    idx = 0
    for ch in range(c):
        for i in range(k):
            for j in range(k):
                cols[:, idx, :] = xp[:, ch, i : i + ho, j : j + wo].reshape(b, -1)
                idx += 1
    return cols


def ref_col2im(cols, x_shape, k, pad):
    b, c, h, w = x_shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    idx = 0
    for ch in range(c):
        for i in range(k):
            for j in range(k):
                xp[:, ch, i : i + ho, j : j + wo] += cols[:, idx, :].reshape(b, ho, wo)
                idx += 1
    return xp[:, :, pad : pad + h, pad : pad + w]


def ref_conv(x, w, bias, k, pad, grad):
    """ReLU conv forward and its (dW, db, dx) for upstream ``grad``."""
    b, _, h, wd = x.shape
    out_ch = w.shape[0]
    cols = ref_im2col(x, k, pad)
    wm = w.reshape(out_ch, -1)
    pre = np.einsum("oc,bcp->bop", wm, cols) + bias[None, :, None]
    pre = pre.reshape(b, out_ch, h + 2 * pad - k + 1, wd + 2 * pad - k + 1)
    gf = (grad * (pre > 0)).reshape(b, out_ch, -1)
    dw = np.einsum("bop,bcp->oc", gf, cols).reshape(w.shape)
    dcols = np.einsum("oc,bop->bcp", wm, gf)
    return np.maximum(pre, 0.0), dw, gf.sum(axis=(0, 2)), ref_col2im(dcols, x.shape, k, pad)


def ref_pool(x, s, grad):
    """Max-pool forward and its input gradient, routed by argmax."""
    b, c, h, w = x.shape
    windows = (
        x.reshape(b, c, h // s, s, w // s, s)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(b, c, h // s, w // s, s * s)
    )
    amax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, amax[..., None], axis=-1)[..., 0]
    dwin = np.zeros(windows.shape)
    np.put_along_axis(dwin, amax[..., None], grad[..., None], axis=-1)
    dx = dwin.reshape(b, c, h // s, w // s, s, s).transpose(0, 1, 2, 4, 3, 5)
    return out, dx.reshape(b, c, h, w)


@st.composite
def conv_inputs(draw):
    """A batch, its kernel geometry and a value kind that makes ties likely."""
    shape = (
        draw(st.integers(1, 4)),
        draw(st.integers(1, 3)),
        draw(st.sampled_from([2, 4, 6])),
        draw(st.sampled_from([2, 4, 6])),
    )
    k = draw(st.sampled_from([1, 3]))
    pad = draw(st.sampled_from([0, 1]))
    assume(k <= min(shape[2:]) + 2 * pad)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "zeros"]))
    if kind == "normal":
        x = rng.normal(size=shape)
    elif kind == "integer":  # small integers: many tied pool windows
        x = rng.integers(-2, 3, size=shape).astype(float)
    else:
        x = np.zeros(shape)
    return x, k, pad, rng


class TestKernelOracles:
    @given(conv_inputs())
    @settings(max_examples=150, deadline=None)
    def test_im2col_col2im_bit_equal(self, case):
        x, k, pad, rng = case
        cols = _im2col(x, k, pad)
        assert np.array_equal(cols, ref_im2col(x, k, pad))
        g = rng.normal(size=cols.shape)
        assert np.array_equal(_col2im(g, x.shape, k, pad), ref_col2im(g, x.shape, k, pad))

    @given(conv_inputs())
    @settings(max_examples=150, deadline=None)
    def test_conv_forward_and_gradients(self, case):
        x, k, pad, rng = case
        spec = ConvSpec(x.shape[1], 3, k, pad)
        params = Parameters((spec,), [rng.normal(size=(3, x.shape[1], k, k))], [rng.normal(size=3)])
        out, cache = forward(params, x)
        grad = rng.normal(size=out.shape)
        grads, dx = backward(params, cache, grad)
        ref_out, ref_dw, ref_db, ref_dx = ref_conv(
            x, params.weights[0], params.biases[0], k, pad, grad
        )
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out, ref_out, **tol)
        np.testing.assert_allclose(grads.weights[0], ref_dw, **tol)
        np.testing.assert_allclose(grads.biases[0], ref_db, **tol)
        np.testing.assert_allclose(dx, ref_dx, **tol)

    @given(conv_inputs())
    @settings(max_examples=150, deadline=None)
    def test_pool_bit_equal_with_ties(self, case):
        x, _, _, rng = case
        params = Parameters((PoolSpec(2),), [None], [None])
        out, cache = forward(params, x)
        grad = rng.normal(size=out.shape)
        _, dx = backward(params, cache, grad)
        ref_out, ref_dx = ref_pool(x, 2, grad)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dx, ref_dx)

    def test_tied_window_routes_to_first_maximum(self):
        x = np.array([[[[1.0, 3.0], [3.0, 3.0]]], [[[0.0, 0.0], [0.0, 0.0]]]])
        params = Parameters((PoolSpec(2),), [None], [None])
        out, cache = forward(params, x)
        _, dx = backward(params, cache, np.array([[[[5.0]]], [[[7.0]]]]))
        assert np.array_equal(out.ravel(), [3.0, 0.0])
        assert np.array_equal(dx[0, 0], [[0.0, 5.0], [0.0, 0.0]])
        assert np.array_equal(dx[1, 0], [[7.0, 0.0], [0.0, 0.0]])


class TestManifoldMix:
    def setup_method(self):
        self.specs = make_mlp(6, 8, 3)
        self.params = init_params(self.specs, np.random.default_rng(1))
        self.x = np.random.default_rng(2).normal(size=(5, 6))
        self.perm = np.array([2, 0, 4, 1, 3])

    def test_site_zero_equals_input_mixing(self):
        lam = Lambda(0.3)
        z1, _ = forward_manifold_mix(self.params, self.x, HiddenMixSpec(0, lam, self.perm))
        z2, _ = forward(self.params, mix_linear(self.x, self.x[self.perm], lam))
        assert np.array_equal(z1, z2)

    def test_lambda_one_is_plain_forward(self):
        z1, _ = forward_manifold_mix(
            self.params, self.x, HiddenMixSpec(1, Lambda(1.0), self.perm)
        )
        z2, _ = forward(self.params, self.x)
        assert np.array_equal(z1, z2)

    def test_identity_pairing_is_plain_forward(self):
        z1, _ = forward_manifold_mix(
            self.params, self.x, HiddenMixSpec(1, Lambda(0.37), np.arange(5))
        )
        z2, _ = forward(self.params, self.x)
        assert np.array_equal(z1, z2)

    def test_invalid_site(self):
        with pytest.raises(ValueError):
            forward_manifold_mix(
                self.params, self.x, HiddenMixSpec(5, Lambda(0.5), self.perm)
            )

    def test_hidden_mix_gradients_vs_fd(self):
        rng = np.random.default_rng(3)
        targets = random_targets(rng, 5, 3)
        spec = LossSpec("dm_ce", DMConfig(0.25))
        hspec = HiddenMixSpec(1, Lambda(0.42), self.perm)

        z, cache = forward_manifold_mix(self.params, self.x, hspec)
        res = batch_loss(z, targets, spec)
        grads, gx = backward(self.params, cache, res.grad_logits)

        def value():
            zz, _ = forward_manifold_mix(self.params, self.x, hspec)
            return batch_loss(zz, targets, spec).value

        h = 1e-6
        w = self.params.weights[0]
        for idx in [(0, 0), (5, 7)]:
            orig = w[idx]
            w[idx] = orig + h
            vp = value()
            w[idx] = orig - h
            vm = value()
            w[idx] = orig
            fd = (vp - vm) / (2 * h)
            assert abs(grads.weights[0][idx] - fd) < 1e-6
        for idx in [(0, 0), (3, 5)]:
            orig = self.x[idx]
            self.x[idx] = orig + h
            vp = value()
            self.x[idx] = orig - h
            vm = value()
            self.x[idx] = orig
            fd = (vp - vm) / (2 * h)
            assert abs(gx[idx] - fd) < 1e-6

    def test_mix_sites(self):
        assert manifold_mix_sites(make_mlp(8, 4, 2)) == [0, 1]
        conv_sites = manifold_mix_sites(make_conv(1, 2, (8, 8)))
        assert conv_sites[0] == 0 and len(conv_sites) >= 2


class TestSgd:
    def test_cosine_endpoints(self):
        cfg = TrainConfig(base_lr=0.4, min_lr=0.01)
        assert cosine_lr(0, 100, cfg) == pytest.approx(0.4)
        assert cosine_lr(100, 100, cfg) == pytest.approx(0.01)
        assert cosine_lr(50, 100, cfg) == pytest.approx((0.4 + 0.01) / 2)

    def test_step_beyond_horizon(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            cosine_lr(101, 100, cfg)

    def test_decoupled_decay_ignores_gradient(self):
        specs = (make_mlp(2, 2, 2)[1],)
        params = init_params(specs, np.random.default_rng(0))
        params.weights[0][:] = 1.0
        grads = zeros_like_params(params)
        vel = zeros_like_params(params)
        cfg = TrainConfig(base_lr=0.1, min_lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(params, grads, vel, 0, 10, cfg)
        # zero gradient: only the decay term moves weights, biases untouched
        np.testing.assert_allclose(params.weights[0], 1.0 - 0.1 * 0.5)
        np.testing.assert_allclose(params.biases[0], 0.0)


    def test_updates_in_place_bit_equal_to_formula(self):
        specs = make_conv(1, 3, (8, 8))
        rng = np.random.default_rng(4)
        params = init_params(specs, rng)
        vel = zeros_like_params(params)
        ref_p, ref_v = params.copy(), vel.copy()
        ids = [id(a) for a in params.arrays() + vel.arrays()]
        cfg = TrainConfig(base_lr=0.3, min_lr=0.01, momentum=0.9, weight_decay=1e-3)
        for step in range(5):
            grads = zeros_like_params(params)
            for arr in grads.arrays():
                arr[...] = rng.normal(size=arr.shape)
            sgd_step(params, grads, vel, step, 5, cfg)
            lr = cosine_lr(step, 5, cfg)
            for i, w in enumerate(ref_p.weights):
                if w is None:
                    continue
                ref_v.weights[i] = cfg.momentum * ref_v.weights[i] + grads.weights[i]
                ref_v.biases[i] = cfg.momentum * ref_v.biases[i] + grads.biases[i]
                ref_p.weights[i] = w - lr * (ref_v.weights[i] + cfg.weight_decay * w)
                ref_p.biases[i] = ref_p.biases[i] - lr * ref_v.biases[i]
        assert [id(a) for a in params.arrays() + vel.arrays()] == ids
        for got, want in zip(params.arrays() + vel.arrays(), ref_p.arrays() + ref_v.arrays()):
            assert np.array_equal(got, want)


class TestTrainSupervised:
    def _blobs(self):
        train = dd.make_synthetic("blobs", 90, 0.3, 1)
        val = dd.make_synthetic("blobs", 60, 0.3, 2)
        return train, val

    @pytest.mark.parametrize("kw", [{"batch_size": 0}, {"batch_size": -5}, {"epochs": -1}])
    def test_batch_size_and_epochs_validated(self, kw):
        with pytest.raises(ValueError, match="batch_size must be positive"):
            TrainConfig(**kw)

    def test_zero_epochs_returns_init(self):
        train, val = self._blobs()
        specs = make_mlp(2, 8, 3)
        cfg = TrainConfig(epochs=0, batch_size=30, seed=5)
        params, log = train_supervised(train, val, specs, None, LossSpec("mce"), cfg)
        fresh = init_params(specs, np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0]))
        assert np.array_equal(params.weights[0], fresh.weights[0])
        assert log == []

    def test_separable_blobs_reach_perfect_accuracy(self):
        train, val = self._blobs()
        cfg = TrainConfig(base_lr=0.1, epochs=20, batch_size=30, seed=3)
        _, log = train_supervised(
            train, val, make_mlp(2, 16, 3), None, LossSpec("mce"), cfg
        )
        assert [v for m, _, v in log if m == "val_top1"][-1] == 1.0

    def test_deterministic_logs(self):
        train, val = self._blobs()
        cfg = TrainConfig(epochs=5, batch_size=30, seed=11)
        mix = MixConfig("linear", 0.2)
        _, log1 = train_supervised(train, val, make_mlp(2, 8, 3), mix, LossSpec("mce"), cfg)
        _, log2 = train_supervised(train, val, make_mlp(2, 8, 3), mix, LossSpec("mce"), cfg)
        assert log1 == log2

    @pytest.mark.parametrize("policy", ["cutmix", "manifold", "resizemix"])
    def test_policies_run_on_images(self, policy):
        ds = dd.make_image_classes(120, num_classes=3, seed=4)
        train, val = dd.split(ds, (90, 30), 0)
        cfg = TrainConfig(epochs=2, batch_size=30, seed=1)
        _, log = train_supervised(
            train, val, make_mlp(784, 16, 3), MixConfig(policy, 0.2), LossSpec("dm_ce"), cfg
        )
        assert len(log) == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises(self):
        train = dd.make_synthetic("two_moons", 200, 0.1, 0)
        cfg = TrainConfig(base_lr=1e6, min_lr=1e-3, epochs=20, batch_size=50, seed=0)
        with pytest.raises(TrainingDiverged, match=r"epoch \d+, step \d+: batch loss"):
            train_supervised(
                train, train, make_mlp(2, 16, 2), MixConfig("linear", 0.2),
                LossSpec("dm_ce"), cfg,
            )


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        for specs in (make_mlp(6, 4, 3), make_conv(1, 3, (8, 8))):
            params = init_params(specs, np.random.default_rng(2))
            path = tmp_path / "model.dmx"
            save_checkpoint(params, path)
            loaded = load_checkpoint(path)
            assert loaded.specs == params.specs
            for a, b in zip(params.arrays(), loaded.arrays()):
                assert np.array_equal(a, b)

    def test_magic_bytes(self, tmp_path):
        params = init_params(make_mlp(4, 3, 2), np.random.default_rng(0))
        path = tmp_path / "m.dmx"
        save_checkpoint(params, path)
        assert path.read_bytes()[:4] == b"DMX1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dmx"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = init_params(make_mlp(4, 3, 2), np.random.default_rng(0))
        path = tmp_path / "m.dmx"
        save_checkpoint(params, path)
        (tmp_path / "t.dmx").write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / "t.dmx")

    def test_malformed_layer_token_named(self, tmp_path):
        arch = b"dense:4"
        path = tmp_path / "m.dmx"
        path.write_bytes(
            b"DMX1" + struct.pack("<I", len(arch)) + arch + struct.pack("<I", 0)
        )
        with pytest.raises(ValueError, match="'dense:4'"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_params(make_mlp(4, 3, 2), np.random.default_rng(0))
        path = tmp_path / "m.dmx"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_non_finite_weights_rejected(self, tmp_path):
        params = init_params(make_mlp(4, 3, 2), np.random.default_rng(0))
        params.weights[1][0, 0] = np.nan
        path = tmp_path / "m.dmx"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)

    @given(
        arch=st.sampled_from(["mlp", "conv"]),
        op=st.sampled_from(["truncate", "flip", "append"]),
        where=st.floats(0.0, 1.0),
        byte=st.integers(1, 255),
    )
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fuzzed_files_raise_only_value_errors(self, tmp_path, arch, op, where, byte):
        specs = make_mlp(4, 3, 2) if arch == "mlp" else make_conv(1, 2, (4, 4))
        path = tmp_path / "m.dmx"
        save_checkpoint(init_params(specs, np.random.default_rng(0)), path)
        raw = bytearray(path.read_bytes())
        at = int(where * len(raw))
        if op == "truncate":
            raw = raw[:at]
        elif op == "flip":
            raw[min(at, len(raw) - 1)] ^= byte
        else:
            raw[at:at] = bytes([byte])
        path.write_bytes(bytes(raw))
        try:
            params = load_checkpoint(path)
        except ValueError:
            return
        assert all(np.isfinite(a).all() for a in params.arrays())
