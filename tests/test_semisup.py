import copy

import numpy as np
import pytest

from demix import data as dd
from demix import network, semisup
from demix.losses import LossResult, LossSpec
from demix.mixers import Lambda, MixedTarget
from demix.network import (
    TrainConfig,
    TrainingDiverged,
    backward,
    forward,
    make_mlp,
    sgd_step,
    train_supervised,
    zeros_like_params,
)
from demix.semisup import (
    SSLConfig,
    pseudo_label_batch,
    ssl_step,
    train_ssl,
)
from demix.network import init_params
import oracles
from faults import EVAL_INTERVALS, expect_case, expect_faults
from oracles import asymmetric_dm_loss, asymmetric_pair, mce_loss, sample_lambda


def _moons(n, seed, noise=0.1):
    return dd.make_synthetic("two_moons", n, noise, seed)


class TestPseudoLabel:
    def test_confident_accepted(self):
        logits = np.log(np.array([[0.96, 0.02, 0.02]]))
        classes, conf, accepted = pseudo_label_batch(logits, tau=0.95)
        assert classes[0] == 0
        assert accepted[0]
        assert conf[0] == pytest.approx(0.96)

    def test_unconfident_rejected(self):
        logits = np.log(np.array([[0.5, 0.3, 0.2]]))
        classes, _, accepted = pseudo_label_batch(logits, tau=0.95)
        assert classes[0] == 0
        assert not accepted[0]

    def test_tau_one_rejects_nondegenerate(self):
        _, _, accepted = pseudo_label_batch(np.array([[2.0, 1.0, 0.0]]), tau=1.0)
        assert not accepted[0]

    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_bytes_equal_the_gathered_form(self, classes):
        z = np.random.default_rng(classes).normal(scale=4, size=(200, classes))
        z[::7, 0] = z[::7, 1]  # ties go to the first maximum
        p = oracles.softmax_two_subtractions(z)
        ref_classes = np.argmax(p, axis=1)
        ref_conf = p[np.arange(len(p)), ref_classes]
        out = pseudo_label_batch(z, 0.9)
        for ours, ref in zip(out, (ref_classes, ref_conf, ref_conf >= 0.9)):
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()

    def test_accepted_implies_threshold(self):
        rng = np.random.default_rng(1)
        z = rng.normal(scale=3, size=(200, 3))
        _, conf, acc = pseudo_label_batch(z, 0.9)
        assert np.all(conf[acc] >= 0.9)


class TestSslConfig:
    @pytest.mark.parametrize("interval", EVAL_INTERVALS)
    def test_eval_interval_must_be_positive(self, interval):
        expect_case("eval_interval", interval)


class TestSslStep:
    def test_no_accepted_reduces_to_supervised_step(self):
        specs = make_mlp(2, 8, 2)
        labeled = _moons(20, 0)
        unlabeled = _moons(30, 1).x
        cfg = SSLConfig(tau=1.0, unlabeled_weight=1.0, eta=0.1, steps=10)
        tcfg = TrainConfig(base_lr=0.1, epochs=1, batch_size=20, seed=0)

        p1 = init_params(specs, np.random.default_rng(7))
        p2 = copy.deepcopy(p1)
        grads_ssl, _ = ssl_step(
            p1, (labeled.x, labeled.y), unlabeled, cfg, np.random.default_rng(0)
        )
        sgd_step(p1, grads_ssl, zeros_like_params(p1), 0, 10, tcfg)
        # manual supervised CE step
        from demix.network import plain_targets
        from demix.losses import batch_loss

        z, cache = forward(p2, labeled.x)
        res = batch_loss(z, plain_targets(labeled.y), LossSpec("mce"))
        grads, _ = backward(p2, cache, res.grad_logits)
        sgd_step(p2, grads, zeros_like_params(p2), 0, 10, tcfg)
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_empty_batches_rejected(self):
        expect_faults("ssl_batch", "ssl_unlabeled")

    @pytest.mark.parametrize(
        "x_l, y_l, x_u, message",
        [
            (np.zeros((4, 2)), np.zeros(4, dtype=int), np.zeros((5, 3)),
             r"unlabeled rows \(5, 3\) unlike labeled rows \(4, 2\)"),
            (np.zeros((3, 2)), np.zeros(2, dtype=int), np.zeros((5, 2)),
             "one target per sample required, got 2 for 3"),
        ],
        ids=["unlabeled_width", "label_count"],
    )
    def test_mismatched_inputs_rejected_before_any_forward_or_draw(
        self, monkeypatch, x_l, y_l, x_u, message
    ):
        params = init_params(make_mlp(2, 4, 2), np.random.default_rng(0))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        monkeypatch.setattr(semisup, "forward", lambda *a: pytest.fail("forward ran"))
        with pytest.raises(ValueError, match=message):
            ssl_step(params, (x_l, y_l), x_u, SSLConfig(tau=0.5), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n_l", [1, 10])
    @pytest.mark.parametrize("n_acc", [1, 2, 7, 64])
    def test_partner_draw_is_the_choice_draw(self, n_acc, n_l):
        acc_idx = np.sort(np.random.default_rng(n_acc).choice(100, size=n_acc, replace=False))
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        partners = acc_idx[ours.integers(len(acc_idx), size=n_l)]
        assert np.array_equal(partners, ref.choice(acc_idx, size=n_l, replace=True))
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_matches_scalar_step_with_separate_backwards(self, eta):
        # Reference: per-sample scalar losses, with one forward and one
        # backward for each of the labeled, unlabeled and mixed batches.
        specs = make_mlp(2, 8, 3)
        labeled = dd.make_synthetic("blobs", 12, 0.6, 0)
        unlabeled = dd.make_synthetic("blobs", 30, 0.6, 1).x
        cfg = SSLConfig(tau=0.5, unlabeled_weight=0.7, eta=eta, alpha=0.4, steps=5)
        tcfg = TrainConfig(base_lr=0.2, epochs=1, batch_size=12, seed=0)
        p_batched = init_params(specs, np.random.default_rng(3))
        p_scalar = copy.deepcopy(p_batched)
        v_batched, v_scalar = zeros_like_params(p_batched), zeros_like_params(p_scalar)
        rng_batched, rng_scalar = np.random.default_rng(8), np.random.default_rng(8)
        for step in range(cfg.steps):
            before = [a.copy() for a in p_batched.arrays()]
            grads, metrics = ssl_step(
                p_batched, (labeled.x, labeled.y), unlabeled, cfg, rng_batched
            )
            for a, b in zip(p_batched.arrays(), before):
                assert np.array_equal(a, b)
            sgd_step(p_batched, grads, v_batched, step, cfg.steps, tcfg)
            ref = _scalar_ssl_step(
                p_scalar, labeled, unlabeled, cfg, tcfg, rng_scalar, v_scalar, step
            )
            assert metrics["accepted_frac"] > 0
            for key, value in ref.items():
                assert metrics[key] == pytest.approx(value, rel=1e-12, abs=1e-12)
            for a, b in zip(p_batched.arrays(), p_scalar.arrays()):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        assert rng_batched.bit_generator.state == rng_scalar.bit_generator.state


class TestSslStepBytes:
    """The one-CE-pass step against ``oracles.ssl_step`` (a CE pass per
    forward, partners from ``rng.choice``): equal bytes on every branch."""

    @pytest.mark.parametrize(
        "classes, overrides",
        [
            (3, dict(eta=0.3)),
            (3, dict(eta=0.0)),
            (2, dict(eta=0.1)),
            (3, dict(asymmetric_mixing=False, eta=0.3)),
            (3, dict(asymmetric_mixing=False, eta=0.0)),
            (3, dict(unlabeled_weight=0.0)),
            (3, dict(tau=1.0)),
        ],
        ids=["mix_eta", "mix_no_eta", "mix_two_classes", "no_mix_eta", "no_mix_no_eta",
             "unlabeled_weight_zero", "none_accepted"],
    )
    def test_gradients_metrics_and_stream_equal_the_two_pass_step(self, classes, overrides):
        specs = make_mlp(2, 8, classes)
        labeled = dd.make_synthetic("blobs", 12, 0.6, 0, num_classes=classes)
        unlabeled = dd.make_synthetic("blobs", 30, 0.6, 1, num_classes=classes).x
        cfg = SSLConfig(**{"tau": 0.5, "unlabeled_weight": 0.7, "alpha": 0.4, **overrides})
        tcfg = TrainConfig(base_lr=0.2, epochs=1, batch_size=12, seed=0)
        params = init_params(specs, np.random.default_rng(3))
        velocity = zeros_like_params(params)
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        accepted = []
        for step in range(6):
            grads, metrics = ssl_step(params, (labeled.x, labeled.y), unlabeled, cfg, ours)
            ref_grads, ref_metrics = oracles.ssl_step(
                params, (labeled.x, labeled.y), unlabeled, cfg, ref
            )
            for g, r in zip(grads.arrays(), ref_grads.arrays()):
                assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
            assert metrics == ref_metrics
            assert all(type(metrics[k]) is type(ref_metrics[k]) for k in metrics)
            assert ours.bit_generator.state == ref.bit_generator.state
            accepted.append(metrics["accepted_frac"])
            sgd_step(params, grads, velocity, step, 6, tcfg)
        assert (max(accepted) == 0.0) == (cfg.tau == 1.0)


def _scalar_ssl_step(params, labeled, unlabeled, cfg, tcfg, rng, velocity, step):
    specs = params.specs

    def backward_sum(x, rows):
        # Mean over the rows of the per-sample results; returns the parameter
        # gradients and the mean value.
        z, cache = forward(params, x)
        results = [fn(z[i]) for i, fn in enumerate(rows)]
        grad = np.stack([r.grad_logits for r in results]) / len(x)
        return backward(params, cache, grad)[0], sum(r.value for r in results) / len(x)

    def add(into, other, weight):
        for i in range(len(specs)):
            if into.weights[i] is not None:
                into.weights[i] += weight * other.weights[i]
                into.biases[i] += weight * other.biases[i]

    x_l, y_l = labeled.x, labeled.y
    ce = lambda c: lambda z: mce_loss(z, MixedTarget(int(c), int(c), Lambda(1.0)))
    grads, loss_l = backward_sum(x_l, [ce(c) for c in y_l])
    z_u, _ = forward(params, unlabeled)
    classes, _, accepted = pseudo_label_batch(z_u, cfg.tau)
    zero = lambda z: LossResult(0.0, np.zeros_like(z))
    g_u, loss_u = backward_sum(
        unlabeled, [ce(classes[i]) if accepted[i] else zero for i in range(len(unlabeled))]
    )
    add(grads, g_u, cfg.unlabeled_weight)

    acc_idx = np.flatnonzero(accepted)
    partners = rng.choice(acc_idx, size=len(x_l), replace=True)
    mixed, targets = [], []
    for i, j in enumerate(partners):
        x, eff = asymmetric_pair(x_l[i], unlabeled[j], sample_lambda(cfg.alpha, rng))
        mixed.append(x)
        targets.append(MixedTarget(int(y_l[i]), int(classes[j]), eff))

    def mixed_loss(t):
        def fn(z):
            r = mce_loss(z, t)
            if cfg.eta == 0.0:
                return r
            d = asymmetric_dm_loss(z, t.class_a, t.class_b)
            return LossResult(
                r.value + cfg.eta * d.value, r.grad_logits + cfg.eta * d.grad_logits
            )
        return fn

    g_m, loss_m = backward_sum(np.stack(mixed), [mixed_loss(t) for t in targets])
    add(grads, g_m, cfg.unlabeled_weight)
    sgd_step(params, grads, velocity, step, cfg.steps, tcfg)
    return {
        "loss_labeled": loss_l,
        "loss_pseudo": loss_u,
        "loss_mix": loss_m,
        "accepted_frac": float(accepted.mean()),
    }


class TestTrainSsl:
    def test_divergence_raises(self):
        train = _moons(200, 0)
        labeled, rest = dd.stratified_take(train, 10, seed=0)
        with pytest.raises(TrainingDiverged, match=r"step \d+: batch loss"):
            train_ssl(
                labeled, rest.x, train, make_mlp(2, 16, 2), SSLConfig(steps=200),
                TrainConfig(base_lr=1e6, seed=0),
            )

    def test_empty_test_set_rejected_before_training(self, monkeypatch):
        train = _moons(60, 5)
        labeled, rest = dd.stratified_take(train, 10, seed=0)
        monkeypatch.setattr(network, "sgd_step", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match="empty evaluation set"):
            train_ssl(
                labeled, rest.x, train.subset(np.arange(0)), make_mlp(2, 8, 2),
                SSLConfig(steps=5), TrainConfig(seed=0),
            )

    def test_labeled_class_without_a_logit_rejected(self):
        expect_faults("ssl_labels")

    def test_labeled_class_past_the_sets_own_count_named(self):
        expect_faults("labeled_class")

    def test_missing_class_rejected(self):
        expect_faults("labeled_missing", "labeled_coverage")

    def test_unlabeled_weight_zero_equals_supervised(self):
        train = _moons(60, 5)
        test = _moons(100, 6)
        specs = make_mlp(2, 16, 2)
        tcfg = TrainConfig(base_lr=0.1, min_lr=0.001, epochs=5, batch_size=20, seed=11)
        _, log_sup = train_supervised(train, test, specs, None, LossSpec("mce"), tcfg)
        sup_curve = [v for m, _, v in log_sup if m == "val_top1"]

        spe = 3
        cfg = SSLConfig(
            tau=0.95, unlabeled_weight=0.0, eta=0.0, steps=5 * spe,
            labeled_batch=20, unlabeled_batch=8, eval_interval=spe,
        )
        _, log_ssl = train_ssl(train, _moons(40, 9).x, test, specs, cfg, tcfg)
        ssl_curve = [v for m, _, v in log_ssl if m == "test_top1"]
        assert ssl_curve == sup_curve

    def test_empty_unlabeled_pool_equals_supervised(self):
        train = _moons(60, 5)
        test = _moons(100, 6)
        specs = make_mlp(2, 16, 2)
        tcfg = TrainConfig(base_lr=0.1, min_lr=0.001, epochs=5, batch_size=20, seed=11)
        _, log_sup = train_supervised(train, test, specs, None, LossSpec("mce"), tcfg)
        spe = 3
        cfg = SSLConfig(steps=5 * spe, labeled_batch=20, eval_interval=spe)
        _, log_ssl = train_ssl(train, np.empty((0, 2)), test, specs, cfg, tcfg)
        assert [v for m, _, v in log_ssl if m == "test_top1"] == [
            v for m, _, v in log_sup if m == "val_top1"
        ]

    def test_tau_one_matches_supervised_plus_rejections(self):
        train = _moons(60, 5)
        test = _moons(80, 6)
        specs = make_mlp(2, 8, 2)
        tcfg = TrainConfig(epochs=1, batch_size=20, seed=3)
        cfg = SSLConfig(tau=1.0, steps=9, labeled_batch=20, eval_interval=3)
        _, log = train_ssl(train, _moons(50, 7).x, test, specs, cfg, tcfg)
        accepted = [v for m, _, v in log if m == "accepted_frac"]
        assert accepted == [0.0, 0.0, 0.0]

    def test_evaluates_after_last_step(self):
        train, test = _moons(60, 5), _moons(80, 6)
        labeled, rest = dd.stratified_take(train, 10, seed=0)
        cfg = SSLConfig(steps=7, eval_interval=3)
        _, log = train_ssl(
            labeled, rest.x, test, make_mlp(2, 8, 2), cfg, TrainConfig(seed=1)
        )
        assert [(m, s) for m, s, _ in log] == [
            (m, s) for s in (2, 5, 6) for m in ("test_top1", "accepted_frac")
        ]

    def test_deterministic(self):
        train = _moons(60, 5)
        test = _moons(80, 6)
        labeled, rest = dd.stratified_take(train, 10, seed=0)
        specs = make_mlp(2, 8, 2)
        tcfg = TrainConfig(base_lr=0.2, epochs=1, batch_size=10, seed=21)
        cfg = SSLConfig(steps=60, eval_interval=20)
        _, log1 = train_ssl(labeled, rest.x, test, specs, cfg, tcfg)
        _, log2 = train_ssl(labeled, rest.x, test, specs, cfg, tcfg)
        assert log1 == log2

    def test_ssl_improves_over_supervised_smoke(self):
        # single-seed smoke version of the paired trend
        train = _moons(1000, 0, noise=0.15)
        test = _moons(1000, 1, noise=0.15)
        labeled, rest = dd.stratified_take(train, 10, seed=0)
        specs = make_mlp(2, 32, 2)
        tcfg = TrainConfig(base_lr=0.3, min_lr=0.003, epochs=1, batch_size=10, seed=1)
        base = SSLConfig(tau=0.95, unlabeled_weight=0.0, eta=0.0, steps=800,
                         asymmetric_mixing=False, eval_interval=100)
        full = SSLConfig(tau=0.95, unlabeled_weight=1.0, eta=0.1, alpha=0.2,
                         steps=800, asymmetric_mixing=True, eval_interval=100)
        _, log_b = train_ssl(labeled, rest.x, test, specs, base, tcfg)
        _, log_f = train_ssl(labeled, rest.x, test, specs, full, tcfg)
        best_b = max(v for m, _, v in log_b if m == "test_top1")
        best_f = max(v for m, _, v in log_f if m == "test_top1")
        assert best_f > best_b
