import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demix import data as dd
from demix import evaluation, network
from demix.evaluation import (
    AttackConfig,
    OcclusionConfig,
    confidence_histogram,
    fgsm_attack,
    input_gradients,
    make_hard_mixed_set,
    mixed_pair_eval,
    occlusion_eval,
    patches_to_mask,
    predict_logits,
    top1_accuracy,
)
from demix.losses import LossSpec, batch_loss
from demix.mixers import MixConfig, MixedBatch, Targets
from demix.network import (
    TrainConfig, backward, forward, init_params, make_conv, make_mlp, plain_targets,
    train_supervised,
)

import oracles
from faults import expect_faults


def record_scored(monkeypatch):
    """Record the inputs of each top-1 scoring in ``evaluation``; score them as before."""
    scored, score = [], evaluation.top1_accuracy
    monkeypatch.setattr(
        evaluation, "top1_accuracy", lambda params, ds: scored.append(ds.x) or score(params, ds)
    )
    return scored


def constant_net(num_classes, in_dim=4):
    """Zero weights: identical logits for every input (argmax picks class 0)."""
    params = init_params(make_mlp(in_dim, 3, num_classes), np.random.default_rng(0))
    for i in range(len(params.weights)):
        if params.weights[i] is not None:
            params.weights[i][:] = 0.0
            params.biases[i][:] = 0.0
    return params


def identity_net(c):
    """Logits equal the inputs, so one-hot inputs are classified perfectly."""
    from demix.network import DenseSpec

    params = init_params((DenseSpec(c, c, "none"),), np.random.default_rng(0))
    params.weights[0][:] = np.eye(c)
    params.biases[0][:] = 0.0
    return params


class TestTop1:
    def test_constant_classifier_on_balanced_set(self):
        c = 4
        x = np.random.default_rng(0).normal(size=(40, 4))
        y = np.arange(40) % c
        acc = top1_accuracy(constant_net(c), dd.Dataset(x, y, c))
        assert acc == 1.0 / c  # argmax of equal logits is class 0; balanced labels

    def test_one_hot_inputs_are_perfect(self):
        c = 5
        y = np.arange(20) % c
        x = np.eye(c)[y]
        assert top1_accuracy(identity_net(c), dd.Dataset(x, y, c)) == 1.0

    def test_three_of_four(self):
        c = 3
        x = np.eye(c)[[0, 1, 2, 2]]
        y = np.array([0, 1, 2, 0])
        assert top1_accuracy(identity_net(c), dd.Dataset(x, y, c)) == 0.75

    def test_negative_label_rejected(self):
        expect_faults("top1_labels")

    def test_fractional_label_rejected(self):
        expect_faults("top1_fraction")

    def test_whole_float_labels_scored(self):
        c = 3
        x, y = np.eye(c)[[0, 1, 2, 2]], np.array([0.0, 1.0, 2.0, 0.0])
        assert top1_accuracy(identity_net(c), dd.Dataset(x, y, c)) == 0.75

    def test_empty_rejected(self):
        expect_faults("empty_forward")

    def test_chunked_logits_are_the_whole_batch_logits(self):
        c = 3
        ds = dd.make_image_classes(100, num_classes=c, seed=2)
        net = init_params(make_conv(1, c), np.random.default_rng(1))
        assert network._chunk_rows(net, ds.x) == 37  # chunks of 37, 37 and 26
        whole = forward(net, ds.x)[0]
        logits = predict_logits(net, ds.x)
        np.testing.assert_allclose(logits, whole, rtol=1e-12, atol=0)
        assert np.array_equal(np.argmax(logits, axis=1), np.argmax(whole, axis=1))
        assert top1_accuracy(net, ds) == float(np.mean(np.argmax(whole, axis=1) == ds.y))


def test_inference_passes_are_the_network_functions():
    # perfbench's tracer patches these names by object identity.
    assert evaluation.predict_logits is network.predict_logits
    assert evaluation.input_gradients is network.input_gradients
    assert evaluation.top1_accuracy is network.top1_accuracy


# An empty mixed batch is rejected when it is built, before any scoring.
@pytest.mark.parametrize(
    "fault",
    ["empty_forward", "empty_forward", "empty_forward", "mixed_batch_empty", "empty_forward"],
    ids=["predict_logits_mlp", "predict_logits_conv", "confidence_histogram",
         "mixed_pair_eval", "fgsm_attack"],
)
def test_empty_input_rejected(fault):
    expect_faults(fault)


def test_rows_the_dense_layer_cannot_take_rejected():
    expect_faults("dense_width")


def test_glyphs_the_second_pool_cannot_halve_rejected():
    expect_faults("forward_dims")


class TestMixedPairEval:
    def _batch(self, targets, n, dim):
        return MixedBatch(np.eye(dim)[np.arange(n) % dim], targets, np.arange(n))

    def test_hand_case_top1_but_not_top2(self):
        # logits (2, 1, 0) with pair {0, 2}: argmax 0 is in the pair, but the
        # top-2 set {0, 1} is not equal to it.
        net = identity_net(3)
        x = np.array([[2.0, 1.0, 0.0]])
        mb = MixedBatch(x, Targets([0], [2], [0.5]), np.arange(1))
        res = mixed_pair_eval(net, mb)
        assert res.top1_pair_acc == 1.0
        assert res.top2_pair_acc == 0.0

    def test_exact_pair_tops(self):
        net = identity_net(4)
        x = np.array([[3.0, 0.0, 2.0, 0.0], [0.0, 2.0, 0.0, 3.0]])
        targets = Targets([0, 3], [2, 1], [0.5, 0.5])
        res = mixed_pair_eval(net, MixedBatch(x, targets, np.arange(2)))
        assert res.top1_pair_acc == 1.0
        assert res.top2_pair_acc == 1.0

    def test_third_class_argmax_scores_zero(self):
        net = identity_net(3)
        x = np.array([[0.0, 0.0, 5.0]])
        res = mixed_pair_eval(net, MixedBatch(x, Targets([0], [1], [0.5]), np.arange(1)))
        assert res.top1_pair_acc == 0.0
        assert res.top2_pair_acc == 0.0

    def test_permutation_invariance(self):
        net = identity_net(4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4))
        t_ab = Targets([0] * 20, [2] * 20, [0.4] * 20)
        t_ba = Targets([2] * 20, [0] * 20, [0.6] * 20)
        r1 = mixed_pair_eval(net, MixedBatch(x, t_ab, np.arange(20)))
        r2 = mixed_pair_eval(net, MixedBatch(x, t_ba, np.arange(20)))
        assert r1 == r2

    def test_hard_set_class_distinct(self):
        ds = dd.make_image_classes(60, num_classes=3, seed=1)
        mb = make_hard_mixed_set(ds, 25, np.random.default_rng(2))
        assert len(mb.targets) == 25
        assert np.all(mb.targets.a != mb.targets.b)


def constant_rows(n, shape, num_classes, seed):
    """Row r is the constant r + 1, so each pixel names the row it came from."""
    x = np.broadcast_to((np.arange(n) + 1.0).reshape((n,) + (1,) * len(shape)), (n,) + shape)
    y = np.random.default_rng(seed).integers(0, num_classes, size=n)
    return dd.Dataset(np.array(x), y, num_classes)


def _fills_bounding_box(hit):
    rows, cols = np.nonzero(hit)
    return bool(np.all(hit[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]))


class TestHardMixedSetProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([(20, 28), (2, 20, 28)]))
    @settings(max_examples=30, deadline=None)
    def test_two_sources_second_in_one_rectangle(self, seed, shape):
        ds = constant_rows(40, shape, 3, seed)
        band = (0.35, 0.65)
        mb = make_hard_mixed_set(ds, 30, np.random.default_rng(seed), 0.5, band)
        assert mb.inputs.shape == (30,) + shape
        for row, a, b, lam in zip(mb.inputs, mb.targets.a, mb.targets.b, mb.targets.lam):
            channels = row.reshape((-1,) + shape[-2:])
            assert np.all(channels == channels[0])
            pixels = channels[0]
            values = np.unique(pixels)
            assert len(values) == 2
            # The 14x18 box at lam 0.5 spans neither side of 20x28, so only
            # the second source can fill its bounding rectangle.
            boxes = [v for v in values if _fills_bounding_box(pixels == v)]
            assert len(boxes) == 1
            first = int(values[values != boxes[0]][0]) - 1
            second = int(boxes[0]) - 1
            assert lam == np.mean(pixels == first + 1)
            assert (a, b) == (ds.y[first], ds.y[second]) and a != b
            assert band[0] <= lam <= band[1]

    @pytest.mark.parametrize(
        "fault",
        ["hard_set_one_class", "hard_set_band", "hard_set_count", "hard_set_empty",
         "hard_set_vectors"],
        ids=["one_class", "band_unreachable", "count_zero", "empty", "not_images"],
    )
    def test_bad_input_names_fault(self, fault):
        expect_faults(fault)

    @pytest.mark.parametrize(
        "lam, message",
        [(2.0, r"lie in \[0, 1\], got 2.0"), (float("nan"), "be a finite number, got nan")],
        ids=["above_one", "nan"],
    )
    def test_bad_ratio_named_before_any_draw(self, lam, message):
        ds = dd.Dataset(np.zeros((6, 8, 8)), np.arange(6) % 2, 2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^lam must {message}$"):
            make_hard_mixed_set(ds, 3, rng, lam=lam)
        assert rng.bit_generator.state == state


class TestFgsm:
    def _trained(self):
        ds = dd.make_image_classes(300, num_classes=3, seed=3)
        train, val = dd.split(ds, (200, 100), 0)
        cfg = TrainConfig(epochs=8, batch_size=50, seed=1)
        params, _ = train_supervised(
            train, val, make_mlp(784, 32, 3), None, LossSpec("mce"), cfg
        )
        return params, val

    def test_epsilon_zero_equals_clean_exactly(self):
        params, val = self._trained()
        clean = top1_accuracy(params, val)
        acc, err = fgsm_attack(params, val, AttackConfig(epsilon=0.0))
        assert acc == clean
        assert err == 1.0 - acc

    def test_epsilon_zero_leaves_vectors_unclamped(self):
        # Two-moons coordinates reach outside [0, 1]; only images are clamped.
        ds = dd.make_synthetic("two_moons", 300, 0.1, seed=0)
        train, val = dd.split(ds, (200, 100), 0)
        cfg = TrainConfig(epochs=20, batch_size=20, seed=1)
        params, _ = train_supervised(
            train, val, make_mlp(2, 16, 2), None, LossSpec("mce"), cfg
        )
        assert np.abs(val.x).max() > 1.0
        acc, _ = fgsm_attack(params, val, AttackConfig(epsilon=0.0))
        assert acc == top1_accuracy(params, val)

    def test_attack_degrades_accuracy(self):
        params, val = self._trained()
        clean = top1_accuracy(params, val)
        acc, _ = fgsm_attack(params, val, AttackConfig(epsilon=8 / 255))
        assert acc <= clean

    def test_chunked_gradient_is_the_whole_batch_gradient(self):
        # 100 conv rows run as chunks of 37, 37 and 26; each chunk's mean-CE
        # gradient weighted by its share of the rows sums the same terms.
        ds = dd.make_image_classes(100, num_classes=3, seed=5)
        params = init_params(make_conv(1, 3), np.random.default_rng(2))
        z, cache = forward(params, ds.x)
        res = batch_loss(z, plain_targets(ds.y), LossSpec())
        whole = backward(params, cache, res.grad_logits)[1]
        gx = input_gradients(params, ds.x, ds.y)
        assert gx.shape == ds.x.shape
        np.testing.assert_allclose(gx, whole, rtol=0, atol=1e-12 * np.abs(whole).max())

    @pytest.mark.parametrize(
        "specs, shape",
        [(make_mlp(784, 256, 10), (1000, 28, 28)), (make_conv(1, 10), (100, 28, 28)),
         (make_conv(1, 10), (80, 1, 28, 28))],
        ids=["mlp", "conv", "conv_channel_axis"],
    )
    def test_input_gradients_bytes_equal_full_backward(self, specs, shape):
        rng = np.random.default_rng(4)
        params = init_params(specs, rng)
        x = rng.uniform(size=shape)
        y = rng.integers(0, 10, size=len(x))
        assert network._chunk_rows(params, x) < len(x)  # 668 and 37 rows per chunk
        got = input_gradients(params, x, y)
        want = oracles.input_gradients(params, x, y)
        assert got.shape == want.shape == x.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("epsilon", [0.0, 8 / 255, 0.5])
    @pytest.mark.parametrize("kind", ["vectors", "images", "channel_images"])
    def test_adversarial_inputs_bytes_equal_out_of_place_form(self, monkeypatch, kind, epsilon):
        rng = np.random.default_rng(6)
        if kind == "vectors":  # rows reach past [0, 1] and are not clamped
            specs, x = make_mlp(2, 8, 3), rng.normal(scale=3.0, size=(50, 2))
        else:  # pixels outside [0, 1], so the clamp acts at both ends
            shape = (50, 28, 28) if kind == "images" else (40, 1, 28, 28)
            specs = make_mlp(784, 16, 3) if kind == "images" else make_conv(1, 3)
            x = rng.uniform(-0.5, 1.5, size=shape)
        params = init_params(specs, rng)
        ds = dd.Dataset(x, rng.integers(0, 3, size=len(x)), 3)
        scored = record_scored(monkeypatch)
        acc, err = fgsm_attack(params, ds, AttackConfig(epsilon))
        want = oracles.fgsm_inputs(x, oracles.input_gradients(params, x, ds.y), epsilon)
        assert len(scored) == 1
        assert scored[0].shape == want.shape and scored[0].tobytes() == want.tobytes()
        assert acc == network.top1_accuracy(params, dd.Dataset(want, ds.y, 3))
        assert err == 1.0 - acc

    def test_bounds_respected(self):
        params, val = self._trained()
        cfg = AttackConfig(epsilon=0.1)
        gx = input_gradients(params, val.x, val.y)
        adv = np.clip(val.x + cfg.epsilon * np.sign(gx), 0, 1)
        assert adv.min() >= 0.0 and adv.max() <= 1.0


class TestOcclusion:
    def test_mask_count_floor(self):
        assert patches_to_mask(0.5, 49) == 24
        assert patches_to_mask(0.0, 49) == 0
        assert patches_to_mask(1.0, 49) == 49

    def test_grid_divisibility(self):
        expect_faults("occlusion_tiling")

    def test_ratio_zero_is_clean_exactly(self):
        ds = dd.make_image_classes(40, num_classes=2, seed=0)
        net = constant_net(2, 784)
        curve = occlusion_eval(net, ds, OcclusionConfig(4, (0.0,)), np.random.default_rng(0))
        assert curve[0] == (0.0, top1_accuracy(net, ds))

    @pytest.mark.parametrize("shape", [(8, 12), (2, 8, 12)])
    @pytest.mark.parametrize("seed", range(4))
    def test_zeroes_k_whole_patches(self, monkeypatch, shape, seed):
        scored = []
        monkeypatch.setattr(
            evaluation, "top1_accuracy", lambda params, ds: scored.append(ds.x) or 0.0
        )
        ds = constant_rows(30, shape, 2, seed)
        ratios = (0.2, 0.5, 1.0)  # 1, 3 and 6 of the 2x3 patches of 4x4
        occlusion_eval(None, ds, OcclusionConfig(4, ratios), np.random.default_rng(seed))
        assert len(scored) == 3
        for x, k in zip(scored, (1, 3, 6)):
            assert x.shape == ds.x.shape
            kept = x == ds.x
            assert np.all(kept | (x == 0.0))
            patches = kept.reshape(30, -1, 2, 4, 3, 4).transpose(0, 1, 2, 4, 3, 5)
            whole = patches.reshape(30, -1, 2, 3, 16)
            assert np.all(whole.all(axis=-1) | ~whole.any(axis=-1))
            assert np.all((~whole.any(axis=-1)).sum(axis=(-2, -1)) == k)

    @pytest.mark.parametrize("shape", [(28, 28), (1, 28, 28), (2, 8, 12)])
    @pytest.mark.parametrize("seed", range(3))
    def test_curve_bytes_equal_pixel_mask_form(self, monkeypatch, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(30,) + shape)
        ds = dd.Dataset(x, rng.integers(0, 3, size=30), 3)
        params = init_params(make_mlp(x[0].size, 16, 3), rng)
        config = OcclusionConfig(4, (0.0, 0.1, 0.5, 0.75, 1.0))
        scored = record_scored(monkeypatch)
        got = occlusion_eval(params, ds, config, np.random.default_rng([seed, 1]))
        want = oracles.occlusion_eval(params, ds, config, np.random.default_rng([seed, 1]))
        assert got == want
        assert len(scored) == 2 * len(config.ratios)
        for new, old in zip(scored[: len(config.ratios)], scored[len(config.ratios) :]):
            assert new.shape == old.shape and new.tobytes() == old.tobytes()

    def test_ratio_one_is_all_zero_input(self):
        ds = dd.make_image_classes(40, num_classes=4, seed=0)
        net = constant_net(4, 784)
        curve = occlusion_eval(net, ds, OcclusionConfig(4, (1.0,)), np.random.default_rng(0))
        # all-zero inputs, constant prediction: accuracy is the class-0 share
        assert curve[0][1] == np.mean(ds.y == 0)


def test_probes_leave_read_only_data_and_parameters_as_they_were():
    ds = dd.make_image_classes(40, num_classes=3, seed=7)
    ds.x.setflags(write=False)
    rng = np.random.default_rng(7)
    for specs in (make_mlp(784, 16, 3), make_conv(1, 3)):
        params = init_params(specs, rng)
        before = [a.tobytes() for a in params.arrays()]
        hard = make_hard_mixed_set(ds, 20, np.random.default_rng(0))
        hard.inputs.setflags(write=False)
        mixed_pair_eval(params, hard)
        fgsm_attack(params, ds, AttackConfig())
        occlusion_eval(params, ds, OcclusionConfig(), np.random.default_rng(0))
        confidence_histogram(params, ds, 5)
        assert [a.tobytes() for a in params.arrays()] == before


class TestConfidenceHistogram:
    def test_mass_conserved(self):
        ds = dd.make_image_classes(37, num_classes=3, seed=0)
        counts = confidence_histogram(constant_net(3, 784), ds, bins=7)
        assert counts.sum() == 37

    def test_uniform_predictor_lands_in_one_bin(self):
        c = 10
        x = np.random.default_rng(0).normal(size=(30, 4))
        y = np.zeros(30, dtype=int)
        counts = confidence_histogram(constant_net(c), dd.Dataset(x, y, c), bins=10)
        assert counts[1] == 30  # max prob 0.1 falls in [0.1, 0.2) by edge rule

    def test_edge_convention(self):
        # p_max = 0.5 with two bins lands in the second (upper) bin.
        c = 2
        x = np.zeros((1, 4))
        counts = confidence_histogram(constant_net(c), dd.Dataset(x, np.zeros(1, int), c), bins=2)
        assert counts.tolist() == [0, 1]

    def test_bin_validation(self):
        expect_faults("histogram_bins")
