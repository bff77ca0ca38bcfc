import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from demix.mixers import (
    Lambda,
    MixConfig,
    MixMask,
    MixedTarget,
    Targets,
    apply_mask,
    asymmetric_pair,
    make_cutmix_mask,
    make_resizemix,
    mix_batch,
    mix_linear,
    sample_lambda,
)


class _FixedCenter:
    """Generator stand-in that pins the cut box center."""

    def __init__(self, value):
        self.value = value

    def integers(self, *_args, **_kw):
        return self.value


class TestSampleLambda:
    def test_support(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam = sample_lambda(0.2, rng)
            assert 0.0 <= lam.value <= 1.0

    def test_rejects_nonpositive_alpha(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_lambda(0.0, rng)
        with pytest.raises(ValueError):
            sample_lambda(-1.0, rng)

    def test_alpha_one_is_uniform(self):
        # Beta(1, 1) is Uniform(0, 1): moment check plus a KS test at 1%.
        rng = np.random.default_rng(7)
        draws = np.array([sample_lambda(1.0, rng).value for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.005
        ks = stats.kstest(draws, "uniform")
        assert ks.pvalue > 0.01

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
        with pytest.raises(ValueError):
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
    def test_lambda_one_degenerate(self):
        mask, adj = make_cutmix_mask(28, 28, Lambda(1.0), np.random.default_rng(0))
        assert np.array_equal(mask.values, np.ones((28, 28)))
        assert adj.value == 1.0

    def test_unclipped_box_area(self):
        # Center pinned to (14, 14): a 14x14 zero box inside 28x28.
        mask, adj = make_cutmix_mask(28, 28, Lambda(0.75), _FixedCenter(14))
        assert (mask.values == 0).sum() == 196
        assert adj.value == 1.0 - 196.0 / 784.0 == 0.75

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_adjusted_equals_mask_mean(self, seed, lam):
        rng = np.random.default_rng(seed)
        mask, adj = make_cutmix_mask(14, 22, Lambda(lam), rng)
        assert adj.value == mask.values.mean()
        assert adj.value == mask.area_ratio

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            make_cutmix_mask(0, 28, Lambda(0.5), np.random.default_rng(0))


class TestApplyMask:
    def test_all_ones_keeps_first(self):
        x_a, x_b = np.full((4, 4), 2.0), np.full((4, 4), 9.0)
        out = apply_mask(x_a, x_b, MixMask(np.ones((4, 4))))
        assert np.array_equal(out, x_a)

    def test_all_zeros_keeps_second(self):
        x_a, x_b = np.full((4, 4), 2.0), np.full((4, 4), 9.0)
        out = apply_mask(x_a, x_b, MixMask(np.zeros((4, 4))))
        assert np.array_equal(out, x_b)

    def test_checkerboard_mean_is_mask_mean(self):
        mask = np.indices((6, 6)).sum(axis=0) % 2
        out = apply_mask(np.ones((6, 6)), np.zeros((6, 6)), MixMask(mask.astype(float)))
        assert out.mean() == mask.mean()

    def test_channel_broadcast(self):
        x_a = np.ones((3, 4, 4))
        x_b = np.zeros((3, 4, 4))
        mask = MixMask(np.ones((4, 4)))
        assert apply_mask(x_a, x_b, mask).shape == (3, 4, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_mask(np.ones((4, 4)), np.ones((4, 4)), MixMask(np.ones((5, 5))))


class TestResizeMix:
    def test_lambda_one_unchanged(self):
        rng = np.random.default_rng(0)
        x_a, x_b = rng.random((28, 28)), rng.random((28, 28))
        out, adj = make_resizemix(x_a, x_b, Lambda(1.0), rng)
        assert np.array_equal(out, x_a)
        assert adj.value == 1.0

    def test_lambda_zero_full_resize(self):
        rng = np.random.default_rng(1)
        x_a, x_b = rng.random((28, 28)), rng.random((28, 28))
        out, adj = make_resizemix(x_a, x_b, Lambda(0.0), rng)
        assert np.array_equal(out, x_b)  # same-size nearest resize is identity
        assert adj.value == 0.0

    def test_area_oracle(self):
        rng = np.random.default_rng(2)
        x_a, x_b = rng.random((28, 28)), rng.random((28, 28))
        out, adj = make_resizemix(x_a, x_b, Lambda(0.75), rng)
        assert adj.value == 0.75  # 14x14 paste box in 28x28
        assert (out != x_a).sum() <= 196


class TestMixBatch:
    def test_identity_pairing_same_classes(self):
        rng = np.random.default_rng(0)
        x = rng.random((4, 8, 8))
        y = np.array([0, 1, 2, 3])
        mb = mix_batch(x, y, MixConfig("linear", 0.2), rng, pairing=np.arange(4))
        assert all(t.class_a == t.class_b for t in mb.targets)

    @pytest.mark.parametrize("policy", ["linear", "cutmix", "manifold", "resizemix"])
    def test_lambda_one_preserves_inputs(self, policy):
        rng = np.random.default_rng(3)
        x = rng.random((4, 8, 8))
        y = np.array([0, 1, 0, 1])
        mb = mix_batch(x, y, MixConfig(policy, 0.2), rng, lam=Lambda(1.0))
        assert np.array_equal(mb.inputs, x)
        assert all(t.lam.value == 1.0 for t in mb.targets)

    def test_linear_recomputation_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.random((4, 6, 6))
        y = np.array([0, 1, 2, 3])
        mb = mix_batch(x, y, MixConfig("linear", 0.5), rng)
        assert sorted(mb.pairing.tolist()) == [0, 1, 2, 3]
        for i in range(4):
            lam = mb.targets[i].lam.value
            expected = lam * x[i] + (1 - lam) * x[mb.pairing[i]]
            assert np.array_equal(mb.inputs[i], expected)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40)
    def test_pairing_is_bijection(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((7, 4, 4))
        y = rng.integers(0, 3, size=7)
        mb = mix_batch(x, y, MixConfig("cutmix", 0.2, per_batch_lambda=False), rng)
        assert sorted(mb.pairing.tolist()) == list(range(7))

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            mix_batch(np.empty((0, 4, 4)), np.empty(0), MixConfig(), np.random.default_rng(0))

    def test_manifold_leaves_inputs(self):
        rng = np.random.default_rng(9)
        x = rng.random((4, 5))
        y = np.array([0, 1, 0, 1])
        mb = mix_batch(x, y, MixConfig("manifold", 2.0), rng)
        assert np.array_equal(mb.inputs, x)

    @pytest.mark.parametrize("per_batch", [True, False])
    @pytest.mark.parametrize("policy", ["linear", "cutmix", "manifold", "resizemix"])
    def test_targets_equal_list_form(self, policy, per_batch):
        # Replays the draws of mix_batch on a copy of its generator and builds
        # one MixedTarget per row with the realized ratio of that row.
        rng = np.random.default_rng(17)
        replay = np.random.default_rng(17)
        x = rng.random((6, 8, 8))
        replay.random((6, 8, 8))
        y = np.array([0, 1, 2, 1, 0, 3], dtype=np.uint8)
        config = MixConfig(policy, 0.5, per_batch_lambda=per_batch)
        mb = mix_batch(x, y, config, rng)

        pairing = replay.permutation(6)
        if per_batch or policy == "manifold":
            lams = [sample_lambda(0.5, replay)] * 6
        else:
            lams = [sample_lambda(0.5, replay) for _ in range(6)]
        adjusted = []
        for i in range(6):
            if per_batch and i > 0 and policy in ("cutmix", "resizemix"):
                adjusted.append(adjusted[0])
            elif policy == "cutmix":
                adjusted.append(make_cutmix_mask(8, 8, lams[i], replay)[1])
            elif policy == "resizemix":
                adjusted.append(make_resizemix(x[i], x[pairing[i]], lams[i], replay)[1])
            else:
                adjusted.append(lams[i])
        expected = [
            MixedTarget(int(y[i]), int(y[pairing[i]]), adjusted[i]) for i in range(6)
        ]
        assert isinstance(mb.targets, Targets)
        assert np.array_equal(mb.pairing, pairing)
        assert list(mb.targets) == expected
        assert [mb.targets[i] for i in range(len(mb.targets))] == expected
        assert rng.bit_generator.state == replay.bit_generator.state


class TestTargets:
    def test_records_round_trip(self):
        records = [MixedTarget(2, 0, Lambda(0.25)), MixedTarget(1, 1, Lambda(1.0))]
        t = Targets.from_records(records)
        assert len(t) == 2 and list(t) == records
        assert t.a.dtype == np.int64 and t.lam.dtype == float

    @pytest.mark.parametrize(
        "a, b, lam",
        [([0, 1], [1], [0.5, 0.5]), ([-1], [0], [0.5]), ([0], [1], [1.5]), ([0], [1], [np.nan])],
    )
    def test_rejects_bad_fields(self, a, b, lam):
        with pytest.raises(ValueError):
            Targets(a, b, lam)


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
        with pytest.raises(ValueError):
            asymmetric_pair(np.zeros(2), np.zeros(3), Lambda(0.4))


class TestLambdaType:
    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Lambda(bad)

    def test_mask_area_ratio_definitional(self):
        values = np.random.default_rng(0).random((5, 7))
        assert MixMask(values).area_ratio == values.mean()
