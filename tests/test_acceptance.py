"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The supervised-trend fixtures train 25 small models (about two minutes);
everything else is seconds. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import struct
import time

import numpy as np
import pytest

from demix import data as dd
from demix import evaluation as deval
from demix import network as net
from demix import selftest
from demix.config import parse_config, serialize_config
from demix.experiment import run_experiment
from demix.losses import DMConfig, RescaleParams, rescale
from demix.mixers import MixConfig
from demix.semisup import SSLConfig, train_ssl

SEEDS = (1, 2, 3, 4, 5)


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared supervised-trend fixture: the glyph dataset written to and read back
# from IDX files, plus the 25 trained models used by criteria 6, 7 and 9.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def image_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("idx")
    raw = dd.make_image_classes(2000, noise=0.25, shift=3, blobs_per_class=5, seed=0)
    dd.save_idx(raw.x, raw.y, tmp / "images.idx", tmp / "labels.idx")
    full = dd.load_idx(tmp / "images.idx", tmp / "labels.idx")
    train, val = dd.split(full, (1000, 1000), 0)
    specs = net.make_mlp(784, 256, 10)

    def train_arm(policy, kind, eta):
        accs, models = [], []
        for seed in SEEDS:
            cfg = net.TrainConfig(
                base_lr=0.1, min_lr=0.001, epochs=50, batch_size=100, seed=seed
            )
            from demix.losses import LossSpec

            params, log = net.train_supervised(
                train, val, specs, MixConfig(policy, 0.2), LossSpec(kind, DMConfig(eta)), cfg
            )
            curve = [v for m, _, v in log if m == "val_top1"]
            accs.append(float(np.median(curve[-10:])))
            models.append(params)
        return accs, models

    arms = {
        ("linear", "mce"): train_arm("linear", "mce", 0.0),
        ("linear", "dm_ce"): train_arm("linear", "dm_ce", 0.1),
        ("cutmix", "mce"): train_arm("cutmix", "mce", 0.0),
        ("cutmix", "dm_ce"): train_arm("cutmix", "dm_ce", 0.1),
        ("cutmix", "dm_ce_strong"): train_arm("cutmix", "dm_ce", 1.0),
    }
    return {"train": train, "val": val, "arms": arms}


# ---------------------------------------------------------------------------
# 1. Gradient oracle suite
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_oracles():
    start = time.monotonic()
    worst_closed, worst_fd, cases = selftest.gradient_oracle_suite()
    elapsed = time.monotonic() - start
    report(
        1,
        worst_closed < selftest.BOUNDS["gradient_closed_forms"]
        and worst_fd < selftest.BOUNDS["gradient_finite_differences"]
        and cases >= 100
        and elapsed < 5.0,
        f"{cases} cases: closed-form dev {worst_closed:.2e}, "
        f"FD rel dev {worst_fd:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Mixed-CE stationarity
# ---------------------------------------------------------------------------


def test_criterion_02_mce_stationarity():
    start = time.monotonic()
    worst = selftest.mce_stationarity_suite()
    elapsed = time.monotonic() - start
    report(
        2,
        worst < selftest.BOUNDS["mce_stationarity"] and elapsed < 1.0,
        f"max |p - target weight| = {worst:.2e} over five ratios, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. Decoupled-regularizer mutual boost and ratio independence
# ---------------------------------------------------------------------------


def test_criterion_03_dm_mutual_boost():
    start = time.monotonic()
    boost, identical = selftest.dm_mutual_boost_suite()
    elapsed = time.monotonic() - start
    report(
        3,
        boost > selftest.BOUNDS["dm_mutual_boost"] and identical and elapsed < 1.0,
        f"p_a + p_b = {boost:.6f}, trajectories bit-identical across ratios, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. Equivalence of the two regularizer forms
# ---------------------------------------------------------------------------


def test_criterion_04_form_equivalence():
    worst = selftest.dm_form_equivalence_suite()
    report(
        4,
        worst < selftest.BOUNDS["dm_form_equivalence"],
        f"max form deviation {worst:.2e} over 10000 draws",
    )


# ---------------------------------------------------------------------------
# 5. Rescaling-curve anchors
# ---------------------------------------------------------------------------


def test_criterion_05_rescale_curve():
    lams = np.linspace(0.0, 1.0, 201)
    identity_dev = float(np.abs(rescale(lams, RescaleParams(1.0, 1.0)) - lams).max())
    threshold_ok = all(
        rescale(xi, RescaleParams(t, xi)) == 1.0
        for t in (0.3, 0.5, 1.0, 2.0)
        for xi in (0.2, 0.5, 0.8, 1.0)
    )
    two_hot = rescale(lams, RescaleParams(0.0, 0.0))
    two_hot_ok = bool(np.all(two_hot[lams > 0] == 1.0)) and two_hot[0] == 0.0
    monotone_ok = True
    for t in (0.3, 0.5, 1.0, 2.0):
        for xi in (0.2, 0.8, 1.0):
            vals = rescale(lams, RescaleParams(t, xi))
            monotone_ok &= bool(np.all(np.diff(vals) >= 0))
    report(
        5,
        identity_dev <= 1e-15 and threshold_ok and two_hot_ok and monotone_ok,
        f"identity dev {identity_dev:.1e}; threshold, two-hot and monotonicity anchors hold",
    )


# ---------------------------------------------------------------------------
# 6. Supervised trend at the recommended operating point
# ---------------------------------------------------------------------------


def test_criterion_06_supervised_trend(image_bundle):
    lines = []
    ok = True
    for policy in ("linear", "cutmix"):
        mce_accs, _ = image_bundle["arms"][(policy, "mce")]
        dm_accs, _ = image_bundle["arms"][(policy, "dm_ce")]
        deltas = [d - m for d, m in zip(dm_accs, mce_accs)]
        mean_pp = float(np.mean(deltas)) * 100
        wins = sum(1 for d in deltas if d > 0)
        ok &= mean_pp >= -0.1 and wins >= 3
        lines.append(f"{policy}: mean {mean_pp:+.2f}pp, wins {wins}/5")
    report(6, ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 7. Hard-sample trend on balanced cut mixes
# ---------------------------------------------------------------------------


def test_criterion_07_hard_sample_trend(image_bundle):
    rng = np.random.default_rng(123)
    hard = deval.make_hard_mixed_set(
        image_bundle["val"], 1000, rng, lam=0.5, area_band=(0.35, 0.65)
    )
    _, mce_models = image_bundle["arms"][("cutmix", "mce")]
    _, dm_models = image_bundle["arms"][("cutmix", "dm_ce_strong")]
    r_mce = [deval.mixed_pair_eval(p, hard) for p in mce_models]
    r_dm = [deval.mixed_pair_eval(p, hard) for p in dm_models]
    m2 = float(np.mean([r.top2_pair_acc for r in r_mce]))
    d2 = float(np.mean([r.top2_pair_acc for r in r_dm]))
    mc = float(np.mean([r.mean_max_confidence for r in r_mce]))
    dc = float(np.mean([r.mean_max_confidence for r in r_dm]))
    report(
        7,
        d2 > m2 and dc > mc,
        f"top2 pair {m2:.4f} -> {d2:.4f}; mean max confidence {mc:.4f} -> {dc:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. Semi-supervised trend on two moons
# ---------------------------------------------------------------------------


def test_criterion_08_ssl_trend():
    start = time.monotonic()
    train = dd.make_synthetic("two_moons", 1000, 0.15, seed=0)
    test = dd.make_synthetic("two_moons", 1000, 0.15, seed=1)
    labeled, rest = dd.stratified_take(train, 10, seed=0)
    assert len(rest) == 990
    specs = net.make_mlp(2, 32, 2)

    def best(cfg, seed):
        tcfg = net.TrainConfig(base_lr=0.3, min_lr=0.003, epochs=1, batch_size=10, seed=seed)
        _, log = train_ssl(labeled, rest.x, test, specs, cfg, tcfg)
        return max(v for m, _, v in log if m == "test_top1")

    supervised = SSLConfig(
        tau=0.95, unlabeled_weight=0.0, eta=0.0, alpha=0.2, steps=2000,
        asymmetric_mixing=False, eval_interval=100,
    )
    plain_pl = SSLConfig(
        tau=0.95, unlabeled_weight=1.0, eta=0.0, alpha=0.2, steps=2000,
        asymmetric_mixing=False, eval_interval=100,
    )
    with_dm = SSLConfig(
        tau=0.95, unlabeled_weight=1.0, eta=0.1, alpha=0.2, steps=2000,
        asymmetric_mixing=True, eval_interval=100,
    )
    acc_sup = [best(supervised, s) for s in SEEDS]
    acc_pl = [best(plain_pl, s) for s in SEEDS]
    acc_dm = [best(with_dm, s) for s in SEEDS]
    gain_sup = (np.mean(acc_dm) - np.mean(acc_sup)) * 100
    gain_pl = (np.mean(acc_dm) - np.mean(acc_pl)) * 100
    elapsed = time.monotonic() - start
    report(
        8,
        gain_sup > 2.0 and gain_pl > 0.0 and elapsed < 120.0,
        f"supervised {np.mean(acc_sup):.4f}, pseudo-label {np.mean(acc_pl):.4f}, "
        f"with mixing+decoupling {np.mean(acc_dm):.4f} "
        f"(+{gain_sup:.1f}pp / +{gain_pl:.1f}pp), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. Robustness protocol sanity
# ---------------------------------------------------------------------------


def test_criterion_09_robustness_sanity(image_bundle):
    params = image_bundle["arms"][("cutmix", "dm_ce")][1][0]
    val = image_bundle["val"]
    clean = deval.top1_accuracy(params, val)
    fgsm0, _ = deval.fgsm_attack(params, val, deval.AttackConfig(epsilon=0.0))
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)
    curves = []
    for mask_seed in range(5):
        rng = np.random.default_rng(1000 + mask_seed)
        curve = deval.occlusion_eval(params, val, deval.OcclusionConfig(4, ratios), rng)
        curves.append([acc for _, acc in curve])
    mean_curve = np.mean(curves, axis=0)
    zero_exact = all(c[0] == clean for c in curves)
    steps_ok = all(
        mean_curve[i + 1] <= mean_curve[i] + 0.02 for i in range(len(ratios) - 1)
    )
    report(
        9,
        fgsm0 == clean and zero_exact and steps_ok,
        f"fgsm(0) == clean == {clean:.4f}; occlusion curve "
        f"{[round(float(v), 3) for v in mean_curve]} non-increasing within 2pp",
    )


# ---------------------------------------------------------------------------
# 10. Plumbing exactness
# ---------------------------------------------------------------------------

TINY_RUN = """
dataset.source = blobs
dataset.size = 90
dataset.val_size = 60
dataset.num_classes = 3
dataset.noise = 0.5
mixer.policy = linear
loss.kind = {kind}
loss.eta = {eta}
train.epochs = 4
train.batch_size = 30
train.base_lr = 0.05
network.hidden = 16
run.seeds = 1,2
run.name = {name}
eval.fgsm = true
"""


def test_criterion_10_plumbing_exactness(tmp_path):
    # IDX round trip through a hand-assembled two-image fixture
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[1, 14, 14] = 128
    labels = np.array([7, 2], dtype=np.uint8)
    (tmp_path / "img.idx").write_bytes(
        struct.pack(">iiii", 0x803, 2, 28, 28) + images.tobytes()
    )
    (tmp_path / "lbl.idx").write_bytes(struct.pack(">ii", 0x801, 2) + labels.tobytes())
    ds = dd.load_idx(tmp_path / "img.idx", tmp_path / "lbl.idx")
    dd.save_idx(ds.x, ds.y, tmp_path / "img2.idx", tmp_path / "lbl2.idx")
    idx_ok = (tmp_path / "img2.idx").read_bytes() == (tmp_path / "img.idx").read_bytes()
    idx_ok &= (tmp_path / "lbl2.idx").read_bytes() == (tmp_path / "lbl.idx").read_bytes()
    idx_ok &= ds.x[0, 0, 0] == 1.0 and np.array_equal(ds.y, [7, 2])

    # degenerate-eta equivalence: dm_ce at eta 0 produces the mce metric log
    cfg_m = parse_config(TINY_RUN.format(kind="mce", eta="0.5", name="m"))
    cfg_d = parse_config(TINY_RUN.format(kind="dm_ce", eta="0.0", name="d"))
    run_experiment(cfg_m, tmp_path / "m")
    run_experiment(cfg_d, tmp_path / "d")
    strip = lambda p: [
        line.split(",", 1)[1] for line in (p / "metrics.csv").read_text().splitlines()[1:]
    ]
    eta_ok = strip(tmp_path / "m") == strip(tmp_path / "d")

    # config round trip is the identity
    cfg_ok = parse_config(serialize_config(cfg_m)) == cfg_m

    # repeated seeded runs are byte-identical
    run_experiment(cfg_m, tmp_path / "m2")
    repeat_ok = (tmp_path / "m/metrics.csv").read_bytes() == (
        tmp_path / "m2/metrics.csv"
    ).read_bytes() and (tmp_path / "m/summary.json").read_bytes() == (
        tmp_path / "m2/summary.json"
    ).read_bytes()

    report(
        10,
        idx_ok and eta_ok and cfg_ok and repeat_ok,
        f"idx round-trip {idx_ok}, eta-0 equivalence {eta_ok}, "
        f"config round-trip {cfg_ok}, repeat determinism {repeat_ok}",
    )
