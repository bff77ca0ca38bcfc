import copy
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from demix import data as dd
from demix import network
from demix.evaluation import top1_accuracy
from demix.losses import DMConfig, LossSpec, RescaleParams, batch_loss
from demix.mixers import Lambda, MixConfig, MixedTarget
from demix.network import (
    CheckpointError,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    Parameters,
    PoolSpec,
    TrainConfig,
    TrainingDiverged,
    backward,
    cosine_lr,
    forward,
    init_params,
    load_checkpoint,
    make_conv,
    make_mlp,
    predict_logits,
    save_checkpoint,
    sgd_step,
    train_supervised,
    zeros_like_params,
    _col2im,
    _im2col,
    _layer_backward,
    _layer_forward,
    _plan,
)
import oracles
from faults import CHAINS, TRAIN_COUNTS, expect_case, expect_faults
from oracles import mix_linear

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
        expect_faults("dense_input")

    @pytest.mark.parametrize("fault", ["empty_forward", "empty_forward"], ids=["mlp", "conv"])
    def test_empty_batch_named(self, fault):
        expect_faults(fault)

    def test_negative_conv_pad_named(self):
        expect_faults("conv_pad")

    def test_empty_network_named(self):
        expect_faults("empty_network")


class TestPlan:
    @pytest.fixture
    def walks(self, monkeypatch):
        rows = []
        monkeypatch.setattr(
            network, "_plan", lambda specs, row: rows.append(row) or _plan(specs, row)
        )
        return rows

    def test_one_walk_per_raw_row_shape(self, walks):
        params = init_params(make_conv(1, 3, (8, 8)), np.random.default_rng(0))
        assert walks == [(1, 8, 8)]  # make_conv's walk of its body sizes the dense head
        walks.clear()
        x = np.random.default_rng(1).uniform(size=(4, 8, 8))
        forward(params, x)
        forward(params, x[:2])
        predict_logits(params, x)
        assert walks == [(8, 8)]
        forward(params, x[:, None])
        assert walks == [(8, 8), (1, 8, 8)]

    def test_a_training_run_walks_once(self, walks):
        train = dd.make_synthetic("two_moons", 60, 0.1, 0)
        train_supervised(
            train, train, make_mlp(2, 8, 2), MixConfig("manifold", 1.0), LossSpec("dm_ce"),
            TrainConfig(epochs=2, batch_size=20),
        )
        assert walks == [(2,)]

    def test_conv_net_for_30x30_images_fails_at_its_first_plan(self, walks):
        # make_conv's plan of its body: the first pool leaves 15x15 maps, which the
        # second cannot halve.
        expect_faults("conv_dims")
        assert walks == [(1, 30, 30)]

    @pytest.mark.parametrize("hw", [(28, 28), (8, 8), (12, 16), (4, 4)])
    def test_conv_head_sized_by_the_plan(self, hw):
        h, w = hw
        assert make_conv(2, 5, hw) == (
            ConvSpec(2, 8), PoolSpec(2), ConvSpec(8, 16), PoolSpec(2), FlattenSpec(),
            DenseSpec(16 * (h // 4) * (w // 4), 5, "none"),
        )

    def test_new_parameters_start_with_no_plan(self, tmp_path):
        params = init_params(make_mlp(4, 3, 2), np.random.default_rng(0))
        forward(params, np.zeros((2, 4)))
        assert list(params._plans) == [(4,)]
        save_checkpoint(params, tmp_path / "model.dmx")
        assert zeros_like_params(params)._plans == {}
        assert load_checkpoint(tmp_path / "model.dmx")._plans == {}


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
        x = rng.normal(size=(5, 6) if arch == "mlp" else (5, 8, 8))
        mix = None if site is None else (site, 0.3, np.array([2, 0, 4, 1, 3]))
        z, cache = forward(params, x, mix)
        res = batch_loss(z, random_targets(rng, 5, 3), LossSpec("dm_ce", DMConfig(0.25)))
        full, gx = backward(params, cache, res.grad_logits)
        grads, none = backward(params, cache, res.grad_logits, input_grad=False)
        assert gx.shape == x.shape and none is None
        assert [w is None for w in grads.weights] == [w is None for w in params.weights]
        for a, b in zip(full.arrays(), grads.arrays(), strict=True):
            assert np.array_equal(a, b)

    def test_mismatched_cache_rejected(self):
        expect_faults("backward_cache", "backward_rows")


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

    def test_float32_conv_and_pool_stay_float32(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
        conv, pool = ConvSpec(1, 3), PoolSpec(2)
        w = rng.normal(size=(3, 1, 3, 3)).astype(np.float32)
        bias = rng.normal(size=3).astype(np.float32)
        h, conv_cache = _layer_forward(conv, w, bias, x)
        out, pool_cache = _layer_forward(pool, None, None, h)
        _, _, dh = _layer_backward(pool, None, pool_cache, np.ones_like(out))
        dw, db, dx = _layer_backward(conv, w, conv_cache, dh)
        assert {a.dtype for a in (h, out, dh, dw, db, dx)} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("activation", ["relu", "none"])
    def test_dense_layer_bytes_equal_pre_activation_form(self, activation):
        # One input per row and a -0.0 bias put each special value in the
        # pre-activation as it is; the 3-wide layer mixes them with others.
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308, 1.0, -1.0, 5e-324]
        rng = np.random.default_rng(3)
        cases = [
            (DenseSpec(1, 1, activation), np.ones((1, 1)), np.array([-0.0]),
             np.array(special)[:, None]),
            (DenseSpec(3, 4, activation), rng.normal(size=(3, 4)), rng.normal(size=4),
             rng.permutation(np.resize(special, (12, 3)).ravel()).reshape(12, 3)),
        ]
        for spec, w, bias, x in cases:
            with np.errstate(invalid="ignore", over="ignore"):
                out, cache = _layer_forward(spec, w, bias, x)
                ref_out, ref_cache = oracles.dense_forward(spec, w, bias, x)
                grad = rng.normal(size=out.shape)
                got = _layer_backward(spec, w, cache, grad)
                want = oracles.dense_backward(spec, w, ref_cache, grad)
            assert out.tobytes() == ref_out.tobytes()
            for g, r in zip(got, want):
                assert g.tobytes() == r.tobytes()


# Value kinds for the ReLU-at-the-pool oracle tests: ties (small integers,
# signed zeros, all-zero windows) and special values move the first-maximum
# hit and the sign of a masked zero, where a wrong mask shows.
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
VALUE_KINDS = ["normal", "integer", "zeros", "special"]


def tie_prone(rng, kind, shape):
    """An array of one value kind: normal floats, integers in [-2, 2], signed
    zeros, or integers with about one entry in ten NaN, +-inf or +-0.0."""
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    ints = rng.integers(-2, 3, size=shape).astype(float)
    if kind == "integer":
        return ints
    return np.where(rng.random(shape) < 0.1, rng.choice(SPECIAL, size=shape), ints)


@st.composite
def conv_pool_nets(draw):
    """The default conv net or a conv-pool-conv-pool stack (either activation,
    kernel 3 with pad 1 or kernel 1), with a batch, parameters and an upstream
    gradient, each of its own value kind."""
    c = draw(st.integers(1, 2))
    hw = (draw(st.sampled_from([4, 8])), draw(st.sampled_from([4, 8])))
    if draw(st.booleans()):
        specs = make_conv(c, 3, hw)
    else:
        geometry = st.sampled_from([(3, 1), (1, 0)])
        act = st.sampled_from(["relu", "relu", "none"])
        specs = (ConvSpec(c, 3, *draw(geometry), draw(act)), PoolSpec(2),
                 ConvSpec(3, 2, *draw(geometry), draw(act)), PoolSpec(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [draw(st.sampled_from(VALUE_KINDS)) for _ in range(4)]
    params = init_params(specs, rng)
    for arrays, kind in ((params.weights, kinds[0]), (params.biases, kinds[1])):
        for i, a in enumerate(arrays):
            if a is not None:
                arrays[i] = tie_prone(rng, kind, a.shape)
    x = tie_prone(rng, kinds[2], (draw(st.integers(1, 3)), c, *hw))
    return params, x, rng, kinds[3]


class TestReluAtThePool:
    """A ReLU conv layer followed by a pool leaves its ReLU and the ReLU's
    backward mask to the pool, on the pooled map; the logits and every
    gradient stay byte-equal to the full-size ReLU of ``oracles.chain_*``."""

    @staticmethod
    def assert_matches_chain(params, x, grad, mix=None):
        with np.errstate(invalid="ignore", over="ignore"):
            z, cache = forward(params, x, mix)
            grads, gx = backward(params, cache, grad)
            no_input, none = backward(params, cache, grad, input_grad=False)
            ref_z, ref_cache = oracles.chain_forward(params, x, mix)
            ref, ref_gx = oracles.chain_backward(params, ref_cache, grad, x.shape, mix)
        assert z.tobytes() == ref_z.tobytes()
        assert gx.tobytes() == ref_gx.tobytes() and none is None
        for a, b, r in zip(grads.arrays(), no_input.arrays(), ref.arrays(), strict=True):
            assert a.tobytes() == b.tobytes() == r.tobytes()

    @given(conv_pool_nets())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_full_size_relu_with_ties_and_special_values(self, case):
        params, x, rng, grad_kind = case
        with np.errstate(invalid="ignore", over="ignore"):
            shape = forward(params, x)[0].shape
        self.assert_matches_chain(params, x, tie_prone(rng, grad_kind, shape))

    def test_caches_record_where_the_relu_ran(self):
        params = init_params(make_conv(1, 3, (8, 8)), np.random.default_rng(0))
        assert params.plan((8, 8))[3] == {1, 3}
        _, cache = forward(params, np.random.default_rng(1).normal(size=(2, 8, 8)))
        conv1, pool1, conv2, pool2 = cache.layer_io[:4]
        assert conv1[2] is None and conv2[2] is None and pool1[2] and pool2[2]
        _, cache = forward(params, np.zeros((2, 8, 8)), (2, 0.3, np.array([1, 0])))
        conv1, pool1, conv2, pool2 = cache.layer_io[:4]
        assert conv1[2] is None and conv2[2] is None and pool1[2] and pool2[2]
        assert init_params(make_mlp(4, 3, 2), np.random.default_rng(0)).plan((4,))[3] == set()

    @pytest.mark.parametrize("site", range(len(make_conv(1, 3))))
    def test_every_mix_site_bytes_equal(self, site):
        # Every layer index: a ManifoldMix site (0, 2, 4) matches the chain
        # byte for byte; any other, such as a pool's input, is rejected.
        rng = np.random.default_rng(site)
        params = init_params(make_conv(1, 3), rng)
        x = rng.uniform(size=(6, 28, 28)) * (rng.random((6, 28, 28)) < 0.7)
        mix = (site, 0.3, np.array([3, 0, 5, 1, 2, 4]))
        if site in (0, 2, 4):
            self.assert_matches_chain(params, x, rng.normal(size=(6, 3)), mix)
            return
        message = rf"^mix site {site} is not one of the ManifoldMix sites \(0, 2, 4\)$"
        with pytest.raises(ValueError, match=message):
            forward(params, x, mix)

    def test_chunked_inference_bytes_equal(self, monkeypatch):
        rng = np.random.default_rng(11)
        params = init_params(make_conv(1, 10), rng)
        x = rng.integers(0, 3, size=(300, 28, 28)) / 2.0
        y = rng.integers(0, 10, size=300)
        monkeypatch.setattr(network, "_CHUNK_BYTES", 100 * 8 * 14112)
        assert network._chunk_rows(params, x) == 100
        want = oracles.chain_predict_logits(params, x)
        assert predict_logits(params, x).tobytes() == want.tobytes()
        want = oracles.chain_input_gradients(params, x, y)
        assert network.input_gradients(params, x, y).tobytes() == want.tobytes()


class TestManifoldMix:
    def setup_method(self):
        self.specs = make_mlp(6, 8, 3)
        self.params = init_params(self.specs, np.random.default_rng(1))
        self.x = np.random.default_rng(2).normal(size=(5, 6))
        self.perm = np.array([2, 0, 4, 1, 3])

    def test_site_zero_equals_input_mixing(self):
        lam = Lambda(0.3)
        z1, _ = forward(self.params, self.x, (0, lam.value, self.perm))
        z2, _ = forward(self.params, mix_linear(self.x, self.x[self.perm], lam))
        assert np.array_equal(z1, z2)

    def test_lambda_one_is_plain_forward(self):
        z1, _ = forward(self.params, self.x, (1, 1.0, self.perm))
        z2, _ = forward(self.params, self.x)
        assert np.array_equal(z1, z2)

    def test_identity_pairing_is_plain_forward(self):
        z1, _ = forward(self.params, self.x, (1, 0.37, np.arange(5)))
        z2, _ = forward(self.params, self.x)
        assert np.array_equal(z1, z2)

    def test_invalid_site(self):
        expect_faults("mix_site")

    @pytest.mark.parametrize("fault", ["mix_pairing", "mix_pairing"], ids=["0", "1"])
    def test_pairing_of_another_length_named(self, fault):
        expect_faults(fault)

    def test_hidden_mix_gradients_vs_fd(self):
        rng = np.random.default_rng(3)
        targets = random_targets(rng, 5, 3)
        spec = LossSpec("dm_ce", DMConfig(0.25))
        mix = (1, 0.42, self.perm)

        z, cache = forward(self.params, self.x, mix)
        res = batch_loss(z, targets, spec)
        grads, gx = backward(self.params, cache, res.grad_logits)

        def value():
            zz, _ = forward(self.params, self.x, mix)
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
        # The input, then the layer after each non-final pool or ReLU dense layer.
        assert _plan(make_mlp(8, 4, 2), (8,))[4] == (0, 1)
        assert _plan(make_conv(1, 2, (8, 8)), (8, 8))[4] == (0, 2, 4)
        conv_pool = (ConvSpec(1, 2), PoolSpec(2), ConvSpec(2, 2), PoolSpec(2))
        assert _plan(conv_pool, (8, 8))[4] == (0, 2)
        assert _plan((DenseSpec(4, 3, "none"), DenseSpec(3, 2, "none")), (4,))[4] == (0,)


class TestRawBatches:
    """``forward`` shapes a raw (n, H, W) batch for the first layer itself."""

    @pytest.mark.parametrize("arch", ["mlp", "conv"])
    def test_raw_batch_matches_shaped_batch(self, arch):
        specs = make_mlp(64, 8, 3) if arch == "mlp" else make_conv(1, 3, (8, 8))
        params = init_params(specs, np.random.default_rng(6))
        x = np.random.default_rng(7).uniform(size=(4, 8, 8))
        shaped = x.reshape(4, 64) if arch == "mlp" else x[:, None]
        z, cache = forward(params, x)
        z_shaped, cache_shaped = forward(params, shaped)
        assert np.array_equal(z, z_shaped)
        g = np.random.default_rng(8).normal(size=z.shape)
        _, gx = backward(params, cache, g)
        _, gx_shaped = backward(params, cache_shaped, g)
        assert gx.shape == x.shape and gx_shaped.shape == shaped.shape
        assert np.array_equal(gx, gx_shaped.reshape(x.shape))

    def test_input_mix_on_raw_conv_batch(self):
        params = init_params(make_conv(1, 3, (8, 8)), np.random.default_rng(6))
        x = np.random.default_rng(7).uniform(size=(4, 8, 8))
        perm = np.array([1, 3, 0, 2])
        z, cache = forward(params, x, (0, 0.3, perm))
        assert np.array_equal(z, forward(params, 0.3 * x + 0.7 * x[perm])[0])
        g = np.random.default_rng(8).normal(size=z.shape)
        _, gx = backward(params, cache, g)
        assert gx.shape == x.shape
        # The input gradient goes through the mix: d sum(g * z) / dx by
        # central differences.
        h = 1e-6
        for idx in [(0, 3, 4), (2, 5, 1)]:
            orig = x[idx]
            x[idx] = orig + h
            vp = np.sum(g * forward(params, x, (0, 0.3, perm))[0])
            x[idx] = orig - h
            vm = np.sum(g * forward(params, x, (0, 0.3, perm))[0])
            x[idx] = orig
            assert abs(gx[idx] - (vp - vm) / (2 * h)) < 1e-6

    def test_pool_first_network_takes_4d_input_as_is(self):
        params = Parameters((PoolSpec(2),), [None], [None])
        x = np.random.default_rng(9).normal(size=(2, 3, 4, 4))
        out, cache = forward(params, x)
        assert out.shape == (2, 3, 2, 2)
        _, dx = backward(params, cache, np.ones(out.shape))
        assert dx.shape == x.shape


class TestSgd:
    def test_cosine_endpoints(self):
        cfg = TrainConfig(base_lr=0.4, min_lr=0.01)
        assert cosine_lr(0, 100, cfg) == pytest.approx(0.4)
        assert cosine_lr(100, 100, cfg) == pytest.approx(0.01)
        assert cosine_lr(50, 100, cfg) == pytest.approx((0.4 + 0.01) / 2)

    def test_step_beyond_horizon(self):
        expect_faults("schedule")

    def test_zero_length_schedule(self):
        cfg = TrainConfig(base_lr=0.4, min_lr=0.01)
        assert cosine_lr(0, 0, cfg) == 0.4
        with pytest.raises(ValueError, match="^step 1 beyond the schedule horizon 0$"):
            cosine_lr(1, 0, cfg)

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
        ref_p, ref_v = copy.deepcopy(params), copy.deepcopy(vel)
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

    @pytest.mark.parametrize(
        "spec, order",
        [(DenseSpec(784, 256), "C"), (DenseSpec(784, 256), "F"), (DenseSpec(129, 256), "C"),
         (DenseSpec(2, 32), "C"), (ConvSpec(8, 16), "C"), (ConvSpec(8, 16), "F")],
        ids=["784x256", "784x256_fortran", "129x256", "2x32", "16x8x3x3", "16x8x3x3_fortran"],
    )
    @pytest.mark.parametrize("momentum, weight_decay", [(0.9, 1e-4), (0.0, 1e-4), (0.9, 0.0)])
    def test_row_blocks_bytes_equal_whole_array_form(self, spec, order, momentum, weight_decay):
        rng = np.random.default_rng(7)
        params = init_params((spec,), rng)
        params.weights[0] = np.asarray(params.weights[0], order=order)
        params.biases[0] = rng.normal(size=params.biases[0].shape)
        vel = zeros_like_params(params)
        ref_p, ref_v = copy.deepcopy(params), copy.deepcopy(vel)
        ids = [id(a) for a in params.arrays() + vel.arrays()]
        cfg = TrainConfig(base_lr=0.3, min_lr=0.01, momentum=momentum, weight_decay=weight_decay)
        for step in range(3):
            grads = zeros_like_params(params)
            for arr in grads.arrays():
                arr[...] = rng.normal(size=arr.shape)
            sgd_step(params, grads, vel, step, 3, cfg)
            oracles.sgd_step(ref_p, grads, ref_v, step, 3, cfg)
        assert [id(a) for a in params.arrays() + vel.arrays()] == ids
        assert params.weights[0].flags.f_contiguous == (order == "F")
        for got, want in zip(params.arrays() + vel.arrays(), ref_p.arrays() + ref_v.arrays()):
            assert got.tobytes() == want.tobytes()

    def test_no_weight_sized_temporary(self):
        rng = np.random.default_rng(8)
        params = init_params(make_mlp(784, 256, 10), rng)
        grads, vel = zeros_like_params(params), zeros_like_params(params)
        for arr in grads.arrays():
            arr[...] = rng.normal(size=arr.shape)
        tracemalloc.start()
        try:
            sgd_step(params, grads, vel, 0, 10, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.weights[0].nbytes / 4


class TestTrainSupervised:
    def _blobs(self):
        train = dd.make_synthetic("blobs", 90, 0.3, 1)
        val = dd.make_synthetic("blobs", 60, 0.3, 2)
        return train, val

    @pytest.mark.parametrize("kw", TRAIN_COUNTS)
    def test_batch_size_and_epochs_validated(self, kw):
        expect_case("train_count", kw)

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

    def test_logged_val_top1_is_top1_accuracy(self):
        ds = dd.make_image_classes(140, num_classes=3, seed=4)
        train, val = dd.split(ds, (60, 80), 0)  # conv chunks of 37, 37 and 6 rows
        cfg = TrainConfig(base_lr=0.05, epochs=2, batch_size=20, seed=7)
        params, log = train_supervised(
            train, val, make_conv(1, 3), MixConfig("cutmix", 0.2), LossSpec("dm_ce"), cfg
        )
        assert log[-1] == ("val_top1", 1, top1_accuracy(params, val))

    def test_empty_val_set_rejected_before_training(self, monkeypatch):
        train, val = self._blobs()
        monkeypatch.setattr(network, "sgd_step", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match="empty evaluation set"):
            train_supervised(
                train, val.subset(np.arange(0)), make_mlp(2, 8, 3), None, LossSpec("mce"),
                TrainConfig(epochs=1, batch_size=30),
            )

    def test_val_labels_without_a_logit_rejected_before_training(self, monkeypatch):
        # A 2-8-3 MLP has no logit for labels 3-6 of a 7-class validation set.
        train, _ = self._blobs()
        val = dd.make_synthetic("blobs", 70, 0.3, 2, num_classes=7)
        monkeypatch.setattr(network, "sgd_step", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match="class index 6 out of range for 3 logits"):
            train_supervised(
                train, val, make_mlp(2, 8, 3), None, LossSpec("mce"),
                TrainConfig(epochs=1, batch_size=30),
            )

    def test_conv_channel_mismatch_rejected_before_training(self, monkeypatch):
        # Layer 2 takes 4 channels, but the conv before it gives 8.
        ds = dd.make_image_classes(60, num_classes=3, seed=4)
        train, val = dd.split(ds, (40, 20), 0)
        specs = (ConvSpec(1, 8), PoolSpec(2), ConvSpec(4, 16), PoolSpec(2), FlattenSpec(),
                 DenseSpec(784, 3, "none"))
        monkeypatch.setattr(network, "sgd_step", lambda *a: pytest.fail("a step ran"))
        message = r"layer 2 needs \(4, H, W\) rows, got shape \(8, 14, 14\)"
        with pytest.raises(ValueError, match=message):
            train_supervised(
                train, val, specs, None, LossSpec("mce"), TrainConfig(epochs=1, batch_size=20)
            )

    def test_divergence_raises(self):
        train = dd.make_synthetic("two_moons", 200, 0.1, 0)
        cfg = TrainConfig(base_lr=1e6, min_lr=1e-3, epochs=20, batch_size=50, seed=0)
        with pytest.raises(TrainingDiverged, match=r"epoch \d+, step \d+: batch loss"):
            train_supervised(
                train, train, make_mlp(2, 16, 2), MixConfig("linear", 0.2),
                LossSpec("dm_ce"), cfg,
            )


class TestPredictLogits:
    @pytest.mark.parametrize(
        "specs, row, widest, chunks",
        [
            # conv-2's patch matrix, 8*9*14*14 floats per row
            (make_conv(1, 10), (1, 28, 28), 14112, [37] * 27 + [1]),
            (make_mlp(784, 256, 10), (784,), 784, [668, 332]),
            (make_mlp(2, 32, 2), (2,), 32, [1000]),
        ],
        ids=["conv", "mlp_784_256_10", "mlp_2_32_2"],
    )
    def test_chunks_sized_from_the_widest_array(self, monkeypatch, specs, row, widest, chunks):
        assert _plan(specs, row)[1:3] == (widest, (specs[-1].out_dim,))
        params = init_params(specs, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(size=(1000, *row))
        sizes = []
        monkeypatch.setattr(
            network, "forward", lambda p, c: sizes.append(len(c)) or forward(p, c)
        )
        logits = predict_logits(params, x)
        assert sizes == chunks
        assert logits.shape == (1000, specs[-1].out_dim)

    @pytest.mark.parametrize(
        "fault",
        ["conv_rank", "conv_channels", "forward_dims", "pool_rank", "conv_kernel",
         "conv_kernel_later"],
        ids=["conv_rank", "conv_channels", "pool_divisor", "pool_rank", "conv_kernel",
             "conv_kernel_one_side"],
    )
    def test_row_a_layer_cannot_take_named(self, fault):
        expect_faults(fault)

    def test_kernel_past_its_maps_named_before_the_dense_layer(self):
        expect_faults("conv_kernel")

    def test_kernel_that_just_fits_gives_one_pixel(self):
        assert _plan((ConvSpec(1, 2, ksize=5, pad=0),), (1, 5, 5))[1:3] == (25, (2, 1, 1))


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

    def test_bad_magic_rejected(self):
        expect_faults("checkpoint_magic")

    def test_truncated_rejected(self):
        expect_faults("checkpoint_cut")

    def test_malformed_layer_token_named(self):
        expect_faults("checkpoint_fields")

    def test_trailing_bytes_rejected(self):
        expect_faults("checkpoint_trailing")

    def test_non_finite_weights_rejected(self):
        expect_faults("checkpoint_nan")

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
        except CheckpointError:
            return
        assert all(np.isfinite(a).all() for a in params.arrays())

    def test_token_sizes_allocate_nothing_before_the_checks(self, tmp_path):
        # 50 bytes that name two 3000-wide dense layers and hold no arrays.
        arch = b"dense:3000:3000:relu;dense:3000:2:none"
        path = tmp_path / "m.dmx"
        path.write_bytes(b"DMX1" + struct.pack("<I", len(arch)) + arch + struct.pack("<I", 0))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="arrays do not match"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_conv_shape_table_checked_before_the_payload(self, tmp_path):
        # The table claims a 65535x65535x3x3 kernel for conv:1:2:3:1 (2x1x3x3)
        # and the file ends there: the table, not the missing payload, fails.
        arch = b"conv:1:2:3:1:relu"
        table = struct.pack("<B4I", 4, 65535, 65535, 3, 3) + struct.pack("<BI", 1, 2)
        path = tmp_path / "m.dmx"
        path.write_bytes(
            b"DMX1" + struct.pack("<I", len(arch)) + arch + struct.pack("<I", 2) + table
        )
        with pytest.raises(CheckpointError, match="shapes do not match"):
            load_checkpoint(path)

    @pytest.mark.parametrize("specs, first, second, fault", CHAINS)
    def test_layers_that_do_not_chain_named(self, specs, first, second, fault):
        expect_case("chain", specs, first, second, fault)
