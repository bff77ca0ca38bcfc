import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demix import selftest
from demix.losses import (
    LOSS_KINDS,
    DMConfig,
    LossResult,
    LossSpec,
    RescaleParams,
    _decoupled_rows,
    asymmetric_dm_rows,
    batch_loss,
    log_softmax,
    rescale,
    softmax,
)
from demix.mixers import Lambda, MixedTarget, Targets
from oracles import (
    asymmetric_dm_loss,
    build_mixed_bce_targets,
    dm_ce_loss,
    dm_regularizer,
    log_softmax_two_subtractions,
    mbce_loss,
    mce_loss,
    softmax_two_subtractions,
    target_records,
)

finite_logits = st.lists(
    st.floats(min_value=-20, max_value=20), min_size=2, max_size=8
).map(lambda v: np.array(v))


def central_diff(f, z, h=1e-6):
    g = np.zeros_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2 * h)
    return g


class TestSoftmax:
    def test_uniform_on_zeros(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), 1 / 3)

    def test_shift_invariance(self):
        for c in (-100.0, 0.0, 42.0):
            np.testing.assert_allclose(softmax(np.full(5, c)), 0.2)

    def test_hand_value(self):
        p = softmax(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(p, [0.5761, 0.2119, 0.2119], atol=1e-4)

    @given(finite_logits)
    def test_sums_to_one(self, z):
        assert abs(softmax(z).sum() - 1.0) < 1e-12


any_logits = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False)
    | st.sampled_from([-np.inf, np.inf, 1e308, -1e308, 7e2, -7e2]),
)


@given(any_logits)
@settings(max_examples=300)
def test_softmax_and_log_softmax_bytes_equal_the_two_subtraction_forms(z):
    with np.errstate(all="ignore"):
        pairs = [
            (softmax(z), softmax_two_subtractions(z)),
            (log_softmax(z), log_softmax_two_subtractions(z)),
        ]
    for ours, ref in pairs:
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()


def decoupled_softmax(z, excluded):
    """One row of ``_decoupled_rows``: the softmax of ``z`` with class
    ``excluded`` removed from the normalizer (and scored 0)."""
    return _decoupled_rows(np.asarray(z, dtype=float)[None], np.array([excluded]))[0][0]


class TestDecoupledSoftmax:
    def test_two_equal_survivors(self):
        phi = decoupled_softmax(np.zeros(3), 2)
        assert phi[0] == pytest.approx(0.5)

    def test_hand_value(self):
        phi = decoupled_softmax(np.array([1.0, 0.0, 0.0]), 2)
        assert phi[0] == pytest.approx(math.e / (math.e + 1), abs=1e-12)

    def test_dominant_excluded_logit_is_finite(self):
        with np.errstate(all="raise", under="ignore"):
            phi = decoupled_softmax(np.array([1000.0, 0.0, -5.0]), 0)
        assert phi[0] == 0.0
        assert phi[1] == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-15)
        assert phi.sum() == pytest.approx(1.0, abs=1e-15)

    # logits capped at |z| <= 8 so 1 - softmax stays resolvable in float64;
    # beyond that both sides saturate to 1.0 and strictness is invisible.
    @given(
        st.lists(st.floats(min_value=-8, max_value=8), min_size=2, max_size=8).map(np.array),
        st.data(),
    )
    @settings(max_examples=80)
    def test_dominates_softmax(self, z, data):
        j = data.draw(st.integers(min_value=0, max_value=len(z) - 1))
        phi = decoupled_softmax(z, j)
        p = softmax(z)
        for i in range(len(z)):
            if i != j:
                assert phi[i] > p[i]


class TestMceLoss:
    def test_uniform_value(self):
        res = mce_loss(np.zeros(3), MixedTarget(0, 1, Lambda(0.7)))
        assert res.value == pytest.approx(math.log(3), abs=1e-12)

    def test_uniform_gradient(self):
        res = mce_loss(np.zeros(3), MixedTarget(0, 1, Lambda(0.7)))
        np.testing.assert_allclose(
            res.grad_logits, [1 / 3 - 0.7, 1 / 3 - 0.3, 1 / 3], atol=1e-12
        )

    def test_lambda_one_is_plain_ce(self):
        z = np.array([0.3, -1.0, 2.0])
        res = mce_loss(z, MixedTarget(0, 1, Lambda(1.0)))
        expected = -(z[0] - math.log(np.exp(z).sum()))
        assert res.value == pytest.approx(expected, abs=1e-12)

    @given(finite_logits, st.data())
    @settings(max_examples=60)
    def test_finite_differences(self, z, data):
        c = len(z)
        a = data.draw(st.integers(0, c - 1))
        b = data.draw(st.integers(0, c - 1))
        lam = data.draw(st.floats(0.0, 1.0))
        target = MixedTarget(a, b, Lambda(lam))
        res = mce_loss(z, target)
        fd = central_diff(lambda v: mce_loss(v, target).value, z)
        np.testing.assert_allclose(res.grad_logits, fd, rtol=1e-6, atol=1e-7)

    @given(finite_logits, st.floats(-50, 50))
    @settings(max_examples=50)
    def test_shift_invariance(self, z, c):
        target = MixedTarget(0, 1, Lambda(0.4))
        r1 = mce_loss(z, target)
        r2 = mce_loss(z + c, target)
        assert abs(r1.value - r2.value) < 1e-10
        np.testing.assert_allclose(r1.grad_logits, r2.grad_logits, atol=1e-10)
        assert abs(r1.grad_logits.sum()) < 1e-10


class TestDmRegularizer:
    def test_hand_value(self):
        res = dm_regularizer(np.zeros(3), 0, 1)
        assert res.value == pytest.approx(-2 * math.log(0.5), abs=1e-12)

    def test_hand_gradient(self):
        res = dm_regularizer(np.zeros(3), 0, 1)
        np.testing.assert_allclose(res.grad_logits, [-0.5, -0.5, 1.0], atol=1e-12)

    def test_same_class_pair_is_zero(self):
        res = dm_regularizer(np.array([1.0, -2.0, 0.5]), 1, 1)
        assert res.value == 0.0
        assert np.array_equal(res.grad_logits, np.zeros(3))

    def test_ratio_form_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.normal(scale=2, size=6)
            a, b = rng.choice(6, size=2, replace=False)
            p = softmax(z)
            ratio_form = -(
                math.log(p[a] / (1 - p[b])) + math.log(p[b] / (1 - p[a]))
            )
            assert dm_regularizer(z, a, b).value == pytest.approx(ratio_form, abs=1e-12)

    @given(finite_logits, st.data())
    @settings(max_examples=60)
    def test_finite_differences(self, z, data):
        c = len(z)
        a = data.draw(st.integers(0, c - 1))
        b = data.draw(st.integers(0, c - 1))
        res = dm_regularizer(z, a, b)
        fd = central_diff(lambda v: dm_regularizer(v, a, b).value, z)
        np.testing.assert_allclose(res.grad_logits, fd, rtol=1e-6, atol=1e-7)
        assert abs(res.grad_logits.sum()) < 1e-10


class TestDmCeLoss:
    def test_eta_zero_identical_to_mce(self):
        z = np.array([0.5, -1.0, 2.0])
        target = MixedTarget(0, 2, Lambda(0.3))
        base = mce_loss(z, target)
        combo = dm_ce_loss(z, target, DMConfig(0.0))
        assert combo.value == base.value
        assert np.array_equal(combo.grad_logits, base.grad_logits)

    def test_hand_value(self):
        res = dm_ce_loss(np.zeros(3), MixedTarget(0, 1, Lambda(0.7)), DMConfig(0.1))
        assert res.value == pytest.approx(math.log(3) + 0.1 * 2 * math.log(2), abs=1e-12)

    def test_degenerate_pair_falls_back_to_mce(self):
        z = np.array([0.5, -1.0, 2.0])
        target = MixedTarget(1, 1, Lambda(0.6))
        assert dm_ce_loss(z, target, DMConfig(5.0)).value == mce_loss(z, target).value

    def test_regularizer_part_is_lambda_independent(self):
        z = np.array([0.5, -1.0, 2.0])
        cfg = DMConfig(0.7)
        d1 = dm_ce_loss(z, MixedTarget(0, 1, Lambda(0.1)), cfg)
        d2 = dm_ce_loss(z, MixedTarget(0, 1, Lambda(0.9)), cfg)
        m1 = mce_loss(z, MixedTarget(0, 1, Lambda(0.1)))
        m2 = mce_loss(z, MixedTarget(0, 1, Lambda(0.9)))
        assert d1.value - m1.value == pytest.approx(d2.value - m2.value, abs=1e-12)


class TestAsymmetricDmLoss:
    def test_hand_value(self):
        res = asymmetric_dm_loss(np.zeros(3), 0, 1)
        assert res.value == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_prediction_vanishes(self):
        res = asymmetric_dm_loss(np.array([60.0, 0.0, 0.0]), 0, 1)
        assert res.value < 1e-20

    @given(finite_logits, st.data())
    @settings(max_examples=60)
    def test_grad_sums_to_zero_and_matches_fd(self, z, data):
        c = len(z)
        a = data.draw(st.integers(0, c - 1))
        b = data.draw(st.integers(0, c - 1))
        res = asymmetric_dm_loss(z, a, b)
        assert abs(res.grad_logits.sum()) < 1e-10
        fd = central_diff(lambda v: asymmetric_dm_loss(v, a, b).value, z)
        np.testing.assert_allclose(res.grad_logits, fd, rtol=1e-6, atol=1e-7)


class TestRescale:
    def test_linear_anchor(self):
        assert rescale(0.5, RescaleParams(t=1.0, xi=1.0)) == 0.5

    def test_two_hot_anchor(self):
        np.testing.assert_array_equal(
            rescale(np.array([0.3, 0.0, 1.0]), RescaleParams(t=0.0, xi=0.0)), [1.0, 0.0, 1.0]
        )

    def test_truncation(self):
        assert rescale(0.9, RescaleParams(t=1.0, xi=0.8)) == 1.0

    def test_threshold_saturates(self):
        for t in (0.5, 1.0, 2.0):
            assert rescale(0.8, RescaleParams(t=t, xi=0.8)) == 1.0

    @given(st.floats(0.01, 3.0), st.floats(0.1, 1.0), st.data())
    @settings(max_examples=60)
    def test_nondecreasing_in_lambda(self, t, xi, data):
        lams = sorted(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
        )
        vals = rescale(np.array(lams), RescaleParams(t=t, xi=xi))
        assert np.all(np.diff(vals) >= 0)


class TestMbceLoss:
    def test_hand_value_at_zero(self):
        res = mbce_loss(np.zeros(2), np.array([1.0, 1.0]))
        assert res.value == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_stationary_when_targets_match(self):
        z = np.array([0.5, -2.0, 3.0])
        s = 1 / (1 + np.exp(-z))
        res = mbce_loss(z, s)
        np.testing.assert_allclose(res.grad_logits, 0.0, atol=1e-12)

    def test_hand_gradient(self):
        res = mbce_loss(np.zeros(3), np.array([0.7, 0.3, 0.0]))
        np.testing.assert_allclose(res.grad_logits, [-0.2, 0.2, 0.5], atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        res = mbce_loss(np.array([500.0, -500.0]), np.array([1.0, 0.0]))
        assert np.isfinite(res.value)
        assert np.all(np.isfinite(res.grad_logits))

    @given(finite_logits, st.data())
    @settings(max_examples=60)
    def test_finite_differences(self, z, data):
        t = np.array(
            data.draw(
                st.lists(st.floats(0, 1), min_size=len(z), max_size=len(z))
            )
        )
        res = mbce_loss(z, t)
        fd = central_diff(lambda v: mbce_loss(v, t).value, z)
        np.testing.assert_allclose(res.grad_logits, fd, rtol=1e-8, atol=1e-8)


class TestBceTargets:
    def test_two_hot(self):
        vec = build_mixed_bce_targets(MixedTarget(1, 3, Lambda(0.2)), 5, "two")
        assert np.array_equal(vec, [0, 1, 0, 1, 0])

    def test_rescaled_identity_matches_one(self):
        target = MixedTarget(0, 2, Lambda(0.35))
        one = build_mixed_bce_targets(target, 4, "one")
        resc = build_mixed_bce_targets(target, 4, "rescaled", RescaleParams(1.0, 1.0))
        np.testing.assert_allclose(resc, one, atol=1e-15)

    def test_rescaled_hand_values(self):
        vec = build_mixed_bce_targets(
            MixedTarget(0, 1, Lambda(0.4)), 3, "rescaled", RescaleParams(0.5, 1.0)
        )
        np.testing.assert_allclose(vec, [0.4**0.5, 0.6**0.5, 0.0], atol=1e-12)

    def test_same_class_single_one(self):
        for mode in ("one", "two"):
            vec = build_mixed_bce_targets(MixedTarget(2, 2, Lambda(0.4)), 4, mode)
            np.testing.assert_allclose(vec, [0, 0, 1, 0], atol=1e-15)


class TestBatchLoss:
    def test_identical_samples_match_single(self):
        z = np.array([0.2, -1.0, 0.5])
        target = MixedTarget(0, 2, Lambda(0.6))
        spec = LossSpec("dm_ce", DMConfig(0.3))
        single = dm_ce_loss(z, target, DMConfig(0.3))
        batch = batch_loss(np.stack([z, z, z]), [target] * 3, spec)
        assert batch.value == pytest.approx(single.value, abs=1e-12)

    def test_two_sample_mean(self):
        z = np.stack([np.zeros(3), np.array([1.0, 0.0, 0.0])])
        targets = [MixedTarget(0, 1, Lambda(0.5)), MixedTarget(1, 2, Lambda(0.5))]
        spec = LossSpec("mce")
        v1 = mce_loss(z[0], targets[0]).value
        v2 = mce_loss(z[1], targets[1]).value
        assert batch_loss(z, targets, spec).value == pytest.approx((v1 + v2) / 2)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="^empty batch$"):
            batch_loss(np.empty((0, 3)), [], LossSpec("mce"))

    def test_target_count_named(self):
        targets = Targets([0, 1], [1, 0], [0.5, 0.5])
        with pytest.raises(ValueError, match="one target per sample required, got 2 for 3"):
            batch_loss(np.zeros((3, 2)), targets, LossSpec())

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 2)])
    def test_logits_must_be_2d(self, shape):
        targets = Targets([0, 0, 0], [0, 0, 0], [1.0, 1.0, 1.0])
        message = f"logits must have shape (n, classes), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            batch_loss(np.zeros(shape), targets, LossSpec())

    @pytest.mark.parametrize("kind", ["mce", "dm_ce", "mbce_one", "mbce_two", "dm_bce"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 4))
        targets = [
            MixedTarget(int(rng.integers(4)), int(rng.integers(4)), Lambda(float(rng.uniform())))
            for _ in range(5)
        ]
        spec = LossSpec(kind, DMConfig(0.2), RescaleParams(0.5, 0.8))
        res = batch_loss(z, targets, spec)
        h = 1e-6
        for i in range(5):
            for j in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (
                    batch_loss(zp, targets, spec).value
                    - batch_loss(zm, targets, spec).value
                ) / (2 * h)
                assert res.grad_logits[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def per_sample_reference(z, target, spec):
    """The objective of one sample, assembled from the scalar functions."""
    if spec.kind == "mce":
        return mce_loss(z, target)
    if spec.kind == "dm_ce":
        return dm_ce_loss(z, target, spec.dm)
    mode = {"mbce_one": "one", "mbce_two": "two", "dm_bce": "rescaled"}[spec.kind]
    res = mbce_loss(z, build_mixed_bce_targets(target, len(z), mode, spec.rescale))
    if spec.kind == "dm_bce" and spec.dm.eta > 0.0:
        reg = dm_regularizer(z, target.class_a, target.class_b)
        res = LossResult(
            res.value + spec.dm.eta * reg.value,
            res.grad_logits + spec.dm.eta * reg.grad_logits,
        )
    return res


@st.composite
def mixed_batches(draw):
    """Logits up to 1e3 in magnitude, rows with a gap of 50 or more between
    the top logit and the rest, C down to 2, and same-class pairs."""
    c = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    entry = st.floats(-1e3, 1e3, allow_nan=False)
    z = np.array(draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=n, max_size=n)))
    for i in range(n):
        if draw(st.booleans()):
            k = draw(st.integers(0, c - 1))
            rest = np.delete(z[i], k)
            gap = draw(st.floats(50.0, 500.0))
            z[i] = np.clip(z[i], -1e3, 1e3 - gap - 1.0)
            z[i, k] = min(rest.max(), 1e3 - gap - 1.0) + gap
    a = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    b = [ai if draw(st.booleans()) else draw(st.integers(0, c - 1)) for ai in a]
    lam = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return z, Targets(a, b, lam)


class TestBatchedOracle:
    """The batched objectives against the per-sample functions."""

    @given(
        mixed_batches(),
        st.sampled_from(LOSS_KINDS),
        st.sampled_from([0.0, 0.3]),
        st.sampled_from([(1.0, 1.0), (0.5, 0.8), (2.0, 0.3), (0.0, 0.0)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_loss_matches_per_sample(self, batch, kind, eta, rescale_params):
        z, targets = batch
        spec = LossSpec(kind, DMConfig(eta), RescaleParams(*rescale_params))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            res = batch_loss(z, targets, spec)
            records = target_records(targets)
            ref = [per_sample_reference(z[i], t, spec) for i, t in enumerate(records)]
        n = len(z)
        ref_value = sum(r.value for r in ref) / n
        ref_grad = np.stack([r.grad_logits for r in ref]) / n
        assert res.value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(res.grad_logits, ref_grad, rtol=1e-12, atol=1e-12)
        assert batch_loss(z, records, spec).value == res.value

    @given(mixed_batches())
    @settings(max_examples=200, deadline=None)
    def test_asymmetric_rows_match_scalar(self, batch):
        z, t = batch
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value, grad = asymmetric_dm_rows(z, t.a, t.b)
        for i in range(len(z)):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                ref = asymmetric_dm_loss(z[i], int(t.a[i]), int(t.b[i]))
            assert value[i] == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad[i], ref.grad_logits, rtol=1e-12, atol=1e-12)

    def test_same_class_rows_contribute_zero(self):
        z = np.array([[900.0, -900.0, 3.0], [0.5, 0.2, -0.1]])
        targets = Targets([0, 2], [0, 2], [0.3, 0.9])
        spec = LossSpec("dm_ce", DMConfig(0.5))
        plain = batch_loss(z, targets, LossSpec("mce"))
        mixed = batch_loss(z, targets, spec)
        assert mixed.value == plain.value
        assert np.array_equal(mixed.grad_logits, plain.grad_logits)
        value, grad = asymmetric_dm_rows(z, targets.a, targets.b)
        assert np.all(value == 0.0) and np.all(grad == 0.0)

    def test_class_index_out_of_range(self):
        with pytest.raises(ValueError, match="class index 3 out of range for 3 logits"):
            batch_loss(np.zeros((1, 3)), Targets([0], [3], [0.5]), LossSpec("mce"))


class TestScalarLargeGaps:
    """The scalar oracles at logit gaps past exp's range: no overflow and the
    row kernels' values. Underflow stays ignored: exp of a gap below about
    -745 rounds to 0, which is the correctly rounded result."""

    @pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (0, 2), (2, 0)])
    def test_decoupled_terms(self, a, b):
        z = np.array([1000.0, 0.0, -5.0])
        ia, ib = np.array([a]), np.array([b])
        with np.errstate(all="raise", under="ignore"):
            reg = dm_regularizer(z, a, b)
            asym = asymmetric_dm_loss(z, a, b)
            both = batch_loss(z[None], Targets(ia, ib, [1.0]), LossSpec("dm_ce", DMConfig(1.0)))
            plain = batch_loss(z[None], Targets(ia, ib, [1.0]), LossSpec("mce"))
            rows_value, rows_grad = asymmetric_dm_rows(z[None], ia, ib)
        assert reg.value == pytest.approx(both.value - plain.value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(
            reg.grad_logits, both.grad_logits[0] - plain.grad_logits[0], rtol=1e-12, atol=1e-12
        )
        assert asym.value == pytest.approx(rows_value[0], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(asym.grad_logits, rows_grad[0], rtol=1e-12, atol=1e-12)

    def test_mbce(self):
        z, t = np.array([800.0, -800.0]), np.array([1.0, 0.0])
        with np.errstate(all="raise", under="ignore"):
            res = mbce_loss(z, t)
        assert res.value == 0.0
        assert np.array_equal(res.grad_logits, [0.0, 0.0])


class TestSelftestReadsKernels:
    """The criterion 1 suite measures the row kernels that train: a 1e-9 error
    in one gradient entry of either kernel shows past criterion 1's bound."""

    @pytest.mark.parametrize("kernel", ["mce_rows", "_dm_rows"])
    def test_perturbed_kernel_fails_closed_form_bound(self, monkeypatch, kernel):
        original = getattr(selftest, kernel)

        def perturbed(*args):
            value, grad = original(*args)
            grad[:, 0] += 1e-9
            return value, grad

        monkeypatch.setattr(selftest, kernel, perturbed)
        worst_closed, _, _ = selftest.gradient_oracle_suite()
        assert worst_closed > 1e-12
