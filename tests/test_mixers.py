import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from demix.mixers import (
    Lambda,
    MixConfig,
    MixedTarget,
    Targets,
    cutmix_ratios,
    mix_batch,
    paste_boxes,
    paste_resized,
    sample_cutmix_boxes,
    sample_resizemix_boxes,
)
from faults import LAMBDA_VALUES, expect_case, expect_faults
from oracles import asymmetric_pair, cutmix_batch, mix_linear, sample_lambda, target_records


class _FixedCenter:
    """Generator stand-in that pins the cut box centers."""

    def __init__(self, value):
        self.value = value

    def integers(self, _high, size):
        return np.full(size, self.value)


def box_mask(height, width, lam, cy, cx):
    """Reference CutMix mask for a given center, written with scalar slices."""
    cut = math.sqrt(1.0 - lam)
    half_h, half_w = int(height * cut) // 2, int(width * cut) // 2
    values = np.ones((height, width))
    values[max(cy - half_h, 0) : min(cy + half_h, height),
           max(cx - half_w, 0) : min(cx + half_w, width)] = 0.0
    return values


def scalar_cutmix_mask(height, width, lam, rng):
    """Reference CutMix draw: a scalar center row, then a scalar center
    column, and no draw when the box has a zero side."""
    cut = math.sqrt(1.0 - lam)
    if int(height * cut) > 0 and int(width * cut) > 0:
        cy = int(rng.integers(height))
        return box_mask(height, width, lam, cy, int(rng.integers(width)))
    return np.ones((height, width))


def scalar_resizemix(x_a, x_b, lam, rng):
    """Reference ResizeMix with one box for all of ``x_a``: a scalar top row,
    then a scalar left column, and no draw when the box has a zero side.
    Returns the mixed images and the realized ratio."""
    h, w = x_a.shape[-2:]
    cut = math.sqrt(1.0 - lam)
    th, tw = int(h * cut), int(w * cut)
    out = x_a.copy()
    if th > 0 and tw > 0:
        top, left = int(rng.integers(h - th + 1)), int(rng.integers(w - tw + 1))
        rows, cols = (np.arange(th) * h) // th, (np.arange(tw) * w) // tw
        out[..., top : top + th, left : left + tw] = x_b[..., rows[:, None], cols[None, :]]
    return out, 1.0 - (th * tw) / (h * w)


def replay_list_form(policy, shape):
    """Replay the draws of mix_batch on a copy of its generator with the scalar
    references above, one row at a time, and compare inputs, targets and the
    generator state bit for bit."""
    rng = np.random.default_rng(17)
    replay = np.random.default_rng(17)
    x = rng.random(shape)
    replay.random(shape)
    n, (h, w) = shape[0], shape[-2:]
    y = np.array([0, 1, 2, 1, 0, 3], dtype=np.uint8)
    mb = mix_batch(x, y, MixConfig(policy, 0.5), rng)

    pairing = replay.permutation(n)
    lams = [sample_lambda(0.5, replay)] * n
    if policy == "cutmix":
        mask = scalar_cutmix_mask(h, w, lams[0].value, replay)
        rows = [np.where(mask == 1.0, x[i], x[pairing[i]]) for i in range(n)]
        adjusted = [Lambda(mask.mean())] * n
    elif policy == "resizemix":
        out, ratio = scalar_resizemix(x, x[pairing], lams[0].value, replay)
        rows, adjusted = list(out), [Lambda(ratio)] * n
    elif policy == "linear":
        rows = [mix_linear(x[i], x[pairing[i]], lams[i]) for i in range(n)]
        adjusted = lams
    else:
        rows, adjusted = list(x), lams
    assert isinstance(mb.targets, Targets)
    assert np.array_equal(mb.pairing, pairing)
    assert np.array_equal(mb.targets.a, y) and np.array_equal(mb.targets.b, y[pairing])
    assert mb.targets.lam.tolist() == [t.value for t in adjusted]
    assert rng.bit_generator.state == replay.bit_generator.state
    assert mb.inputs.tobytes() == np.stack(rows).tobytes()


class TestSampleLambda:
    def test_support(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam = sample_lambda(0.2, rng)
            assert 0.0 <= lam.value <= 1.0

    def test_rejects_nonpositive_alpha(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            sample_lambda(0.0, rng)
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            sample_lambda(-1.0, rng)

    def test_alpha_one_is_uniform(self):
        # Beta(1, 1) is Uniform(0, 1): moment check plus a KS test at 1%.
        rng = np.random.default_rng(7)
        draws = np.array([sample_lambda(1.0, rng).value for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.005
        ks = stats.kstest(draws, "uniform")
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 2.0])
    def test_size_n_draw_equals_n_scalar_draws(self, alpha):
        # ssl_step draws all its ratios with one size-n call.
        rng, batched = np.random.default_rng(5), np.random.default_rng(5)
        scalar = [sample_lambda(alpha, rng).value for _ in range(50)]
        assert np.array_equal(batched.beta(alpha, alpha, size=50), scalar)
        assert rng.bit_generator.state == batched.bit_generator.state

    def test_scalar_draw_equals_size_one_draw(self):
        # mix_batch draws its one ratio without a size.
        rng, sized = np.random.default_rng(8), np.random.default_rng(8)
        for alpha in (0.2, 0.5, 1.0, 2.0):
            assert rng.beta(alpha, alpha) == sized.beta(alpha, alpha, size=1)[0]
        assert rng.bit_generator.state == sized.bit_generator.state

    def test_small_alpha_variance(self):
        # Var Beta(a, a) = 1 / (4 * (2a + 1)); a=0.2 gives 0.178571...
        rng = np.random.default_rng(11)
        draws = np.array([sample_lambda(0.2, rng).value for _ in range(100_000)])
        assert abs(draws.var() - 1.0 / (4.0 * 1.4)) < 0.005


class TestMixLinear:
    def test_boundary_lambda_one(self):
        x, y = np.arange(6.0).reshape(2, 3), np.ones((2, 3))
        assert np.array_equal(mix_linear(x, y, Lambda(1.0)), x)

    def test_equal_inputs_idempotent(self):
        x = np.linspace(-1, 1, 8)
        out = mix_linear(x, x, Lambda(0.5))
        np.testing.assert_allclose(out, x, rtol=0, atol=1e-15)

    def test_hand_value(self):
        out = mix_linear(np.array([0.0, 2.0]), np.array([4.0, 0.0]), Lambda(0.25))
        np.testing.assert_allclose(out, [3.0, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^shape mismatch: \(3,\) vs \(4,\)$"):
            mix_linear(np.zeros(3), np.zeros(4), Lambda(0.5))

    @given(st.integers(min_value=0, max_value=256), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50)
    def test_symmetry_exact_on_dyadic_ratios(self, k, seed):
        # 1 - (1 - lam) == lam holds exactly for lam = k/256, so the symmetry
        # identity is testable bitwise on this domain.
        lam = k / 256.0
        rng = np.random.default_rng(seed)
        x_a = rng.normal(size=5)
        x_b = rng.normal(size=5)
        left = mix_linear(x_a, x_b, Lambda(lam))
        right = mix_linear(x_b, x_a, Lambda(1.0 - lam))
        assert np.array_equal(left, right)


class TestCutMixMask:
    """CutMix boxes as arrays (:func:`sample_cutmix_boxes`); a box is the zero
    rectangle of a binary mask."""

    def test_lambda_one_degenerate(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        y1, y2, x1, x2, ratio = sample_cutmix_boxes(28, 28, 1.0, 2, rng)
        x_a, x_b = np.ones((2, 28, 28)), np.zeros((2, 28, 28))
        assert np.array_equal(paste_boxes(x_a, x_b, y1, y2, x1, x2), x_a)
        assert np.all(ratio == 1.0)
        assert rng.bit_generator.state == state

    def test_unclipped_box_area(self):
        # Center pinned to (14, 14): a 14x14 box inside 28x28.
        y1, y2, x1, x2, ratio = sample_cutmix_boxes(28, 28, 0.75, 1, _FixedCenter(14))
        out = paste_boxes(np.ones((1, 28, 28)), np.zeros((1, 28, 28)), y1, y2, x1, x2)
        assert (out == 0).sum() == 196
        assert ratio[0] == 1.0 - 196.0 / 784.0 == 0.75

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_adjusted_equals_mask_mean(self, seed, lam):
        # The realized ratio is the share of pixels kept from the first image.
        rng = np.random.default_rng(seed)
        *edges, ratio = sample_cutmix_boxes(14, 22, lam, 3, rng)
        kept = paste_boxes(np.ones((3, 14, 22)), np.zeros((3, 14, 22)), *edges)
        assert np.array_equal(kept.mean(axis=(1, 2)), ratio)

    def test_invalid_dims(self):
        expect_faults("cut_dims", "resize_dims")

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=200)
    def test_one_row_sampler_equals_scalar_reference(self, seed, lam, h, w):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        reference = scalar_cutmix_mask(h, w, lam, rngs[0])
        y1, y2, x1, x2, ratio = sample_cutmix_boxes(h, w, lam, 1, rngs[1])
        boxed = np.ones((h, w))
        boxed[y1[0] : y2[0], x1[0] : x2[0]] = 0.0
        assert np.array_equal(boxed, reference)
        assert ratio[0] == reference.mean()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("h, w, lam", [(28, 28, 0.5), (7, 12, 0.3), (5, 5, 0.99), (9, 4, 0.0)])
    def test_reachable_ratios_cover_every_center(self, h, w, lam):
        means = {box_mask(h, w, lam, cy, cx).mean() for cy in range(h) for cx in range(w)}
        assert set(cutmix_ratios(h, w, lam).tolist()) == means


class TestApplyMask:
    """:func:`paste_boxes`, which applies each row's box as a binary mask."""

    def _edges(self, *box):
        return [np.array([v]) for v in box]

    def test_all_ones_keeps_first(self):
        x_a, x_b = np.full((3, 4, 4), 2.0), np.full((3, 4, 4), 9.0)
        out = paste_boxes(x_a, x_b, *self._edges(0, 0, 0, 0))
        assert np.array_equal(out, x_a)

    def test_all_zeros_keeps_second(self):
        x_a, x_b = np.full((3, 4, 4), 2.0), np.full((3, 4, 4), 9.0)
        out = paste_boxes(x_a, x_b, *self._edges(0, 4, 0, 4))
        assert np.array_equal(out, x_b)

    def test_dimension_mismatch(self):
        expect_faults("paste_dims")

    @pytest.mark.parametrize("fault", ["paste_shapes", "paste_partner_vector"],
                             ids=["one_row", "vector"])
    def test_broadcast_partner_rejected(self, fault):
        expect_faults(fault)

    def test_box_count_neither_one_nor_n(self):
        expect_faults("paste_boxes")


class TestResizeMix:
    """:func:`sample_resizemix_boxes` and :func:`paste_resized`."""

    def _mix(self, x_a, x_b, lam, rng):
        *box, ratio = sample_resizemix_boxes(*x_a.shape[-2:], lam, rng)
        return paste_resized(x_a, x_b, *box), ratio

    def test_lambda_one_unchanged(self):
        rng = np.random.default_rng(0)
        x_a, x_b = rng.random((2, 28, 28)), rng.random((2, 28, 28))
        out, ratio = self._mix(x_a, x_b, 1.0, rng)
        assert np.array_equal(out, x_a)
        assert ratio == 1.0

    def test_lambda_zero_full_resize(self):
        rng = np.random.default_rng(1)
        x_a, x_b = rng.random((2, 28, 28)), rng.random((2, 28, 28))
        out, ratio = self._mix(x_a, x_b, 0.0, rng)
        assert np.array_equal(out, x_b)  # same-size nearest resize is identity
        assert ratio == 0.0

    def test_area_oracle(self):
        rng = np.random.default_rng(2)
        x_a, x_b = rng.random((2, 28, 28)), rng.random((2, 28, 28))
        out, ratio = self._mix(x_a, x_b, 0.75, rng)
        assert ratio == 0.75  # 14x14 paste box in 28x28
        assert (out != x_a).sum(axis=(1, 2)).max() <= 196

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100)
    def test_rows_equal_scalar_reference(self, seed, lam, h, w):
        data = np.random.default_rng(seed)
        x_a, x_b = data.random((5, 2, h, w)), data.random((5, 2, h, w))
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        reference, reference_ratio = scalar_resizemix(x_a, x_b, lam, rngs[0])
        out, ratio = self._mix(x_a, x_b, lam, rngs[1])
        assert np.array_equal(out, reference)
        assert ratio == reference_ratio
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


class _BetaOnes:
    """Generator whose Beta draws are all 1; every other draw is real."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def beta(self, _a, _b, size=None):
        return 1.0 if size is None else np.ones(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestMixBatch:
    @pytest.mark.parametrize("policy", ["linear", "cutmix", "manifold", "resizemix"])
    def test_lambda_one_preserves_inputs(self, policy):
        rng = np.random.default_rng(3)
        x = rng.random((4, 8, 8))
        y = np.array([0, 1, 0, 1])
        mb = mix_batch(x, y, MixConfig(policy, 0.2), _BetaOnes(3))
        assert np.array_equal(mb.inputs, x)
        assert np.all(mb.targets.lam == 1.0)

    def test_linear_recomputation_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.random((4, 6, 6))
        y = np.array([0, 1, 2, 3])
        mb = mix_batch(x, y, MixConfig("linear", 0.5), rng)
        assert sorted(mb.pairing.tolist()) == [0, 1, 2, 3]
        for i in range(4):
            lam = mb.targets.lam[i]
            expected = lam * x[i] + (1 - lam) * x[mb.pairing[i]]
            assert np.array_equal(mb.inputs[i], expected)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40)
    def test_pairing_is_bijection(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((7, 4, 4))
        y = rng.integers(0, 3, size=7)
        mb = mix_batch(x, y, MixConfig("cutmix", 0.2), rng)
        assert sorted(mb.pairing.tolist()) == list(range(7))

    def test_empty_batch(self):
        expect_faults("mix_empty")

    def test_manifold_leaves_inputs(self):
        rng = np.random.default_rng(9)
        x = rng.random((4, 5))
        y = np.array([0, 1, 0, 1])
        mb = mix_batch(x, y, MixConfig("manifold", 2.0), rng)
        assert np.array_equal(mb.inputs, x)

    def test_pairing_out_of_range_rejected(self):
        expect_faults("pairing")

    @pytest.mark.parametrize("shape", [(4,), (4, 5)], ids=["1d", "2d"])
    @pytest.mark.parametrize("policy", ["cutmix", "resizemix"])
    def test_cut_policy_rejects_non_images_before_any_draw(self, policy, shape):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        message = f"{policy}: inputs must be images .* got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            mix_batch(np.zeros(shape), np.zeros(4, dtype=int), MixConfig(policy, 0.2), rng)
        assert rng.bit_generator.state == state

    def test_label_count_rejected(self):
        x, y = np.zeros((4, 3, 3)), np.array([0, 1, 0])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="one target per sample required, got 3 for 4"):
            mix_batch(x, y, MixConfig(), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("policy", ["linear", "cutmix", "manifold", "resizemix"])
    def test_targets_equal_list_form(self, policy):
        replay_list_form(policy, (6, 8, 8))

    def test_channel_images_equal_list_form(self):
        for policy in ("linear", "cutmix", "manifold", "resizemix"):
            replay_list_form(policy, (6, 2, 8, 8))

    @pytest.mark.parametrize("shape", [(6, 5, 7), (4, 3, 8, 6), (3, 1, 28, 28)])
    def test_cutmix_bytes_equal_mask_form(self, shape):
        data = np.random.default_rng(1).normal(size=shape)
        data.flat[::7] = -0.0
        before = data.copy()
        labels = np.arange(shape[0]) % 3
        h, w = shape[-2:]
        empty = clipped = 0
        for seed in range(60):
            rngs = [np.random.default_rng(seed) for _ in range(3)]
            mb = mix_batch(data, labels, MixConfig("cutmix", 0.2), rngs[0])
            mixed, targets, pairing = cutmix_batch(data, labels, 0.2, rngs[1])
            assert mb.inputs.tobytes() == mixed.tobytes()
            assert np.array_equal(mb.pairing, pairing)
            for got, want in [(mb.targets.a, targets.a), (mb.targets.b, targets.b),
                              (mb.targets.lam, targets.lam)]:
                assert got.tobytes() == want.tobytes()
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            # The same box again, to count empty and border-clipped ones.
            rngs[2].permutation(shape[0])
            lam = rngs[2].beta(0.2, 0.2)
            (y1,), (y2,), (x1,), (x2,), _ = sample_cutmix_boxes(h, w, lam, 1, rngs[2])
            cut = math.sqrt(1.0 - lam)
            empty += y1 == y2 or x1 == x2
            clipped += 0 < y2 - y1 < int(h * cut) // 2 * 2 or 0 < x2 - x1 < int(w * cut) // 2 * 2
        assert empty and clipped
        assert data.tobytes() == before.tobytes()

class TestTargets:
    def test_records_round_trip(self):
        records = [MixedTarget(2, 0, Lambda(0.25)), MixedTarget(1, 1, Lambda(1.0))]
        t = Targets.from_records(records)
        assert len(t) == 2 and target_records(t) == records
        assert t.a.dtype == np.int64 and t.lam.dtype == float

    @pytest.mark.parametrize(
        "fault", ["targets_shape", "targets_sign", "targets_ratio", "targets_ratio"],
        ids=[f"a{i}-b{i}-lam{i}" for i in range(4)],
    )
    def test_rejects_bad_fields(self, fault):
        expect_faults(fault)

    @pytest.mark.parametrize(
        "fault", ["targets_whole", "targets_whole_nan"], ids=["a0-b0-0.5", "a1-b1-nan"]
    )
    def test_class_index_must_be_whole(self, fault):
        expect_faults(fault)

    def test_whole_float_class_indices_accepted(self):
        t = Targets([0.0, 2.0], [1.0, 0.0], [0.5, 0.5])
        assert t.a.dtype == np.int64 and t.a.tolist() == [0, 2] and t.b.tolist() == [1, 0]


class TestAsymmetricPair:
    def test_clamps_large_lambda(self):
        _, eff = asymmetric_pair(np.zeros(3), np.ones(3), Lambda(0.9))
        assert eff.value == pytest.approx(0.1, abs=1e-15)

    def test_passes_small_lambda(self):
        _, eff = asymmetric_pair(np.zeros(3), np.ones(3), Lambda(0.3))
        assert eff.value == 0.3

    def test_hand_value_after_clamp(self):
        out, eff = asymmetric_pair(np.ones(4), np.zeros(4), Lambda(0.8))
        np.testing.assert_allclose(out, 0.2, atol=1e-15)
        assert eff.value <= 0.5

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_effective_lambda_below_half(self, lam):
        _, eff = asymmetric_pair(np.zeros(2), np.ones(2), Lambda(lam))
        assert eff.value <= 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^shape mismatch: \(2,\) vs \(3,\)$"):
            asymmetric_pair(np.zeros(2), np.zeros(3), Lambda(0.4))


class TestLambdaType:
    @pytest.mark.parametrize("bad", LAMBDA_VALUES)
    def test_rejects_out_of_range(self, bad):
        expect_case("lambda_value", bad)
