"""The claims report runner (scripts/claims.py) at a tiny size, checked
against direct calls of the library it runs on."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from demix import data as dd
from demix import evaluation as deval
from demix import network as net
from demix.config import DatasetSpec
from demix.experiment import load_dataset
from demix.losses import DMConfig, LossSpec
from demix.mixers import MixConfig
from demix.semisup import SSLConfig, train_ssl

SCRIPT = Path(__file__).parent.parent / "scripts" / "claims.py"
ARMS = ("linear/mce", "linear/dm_ce", "cutmix/mce", "cutmix/dm_ce",
        "robustness/mce", "robustness/dm_ce")
RATIOS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("claims", SCRIPT)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    out = tmp_path_factory.mktemp("trend")
    runner.main(["--out", str(out), "--epochs", "2", "--seeds", "1", "--mask-seeds", "1",
                 "--ssl-steps", "40"])
    return out


def test_writes_every_output(report):
    assert (report / "trend.json").is_file() and (report / "robustness.csv").is_file()
    for arm in ARMS:
        assert json.loads((report / arm / "summary.json").read_text())["run"] == arm


def test_trend_top1_is_the_median_of_a_direct_run(report):
    full = dd.load_idx(report / "images.idx", report / "labels.idx")
    train, val = dd.split(full, (1000, 1000), 0)
    _, log = net.train_supervised(
        train, val, net.make_mlp(784, 256, 10), MixConfig("cutmix", 0.2),
        LossSpec("dm_ce", DMConfig(0.1)), net.TrainConfig(epochs=2, batch_size=100, seed=1),
    )
    curve = [v for m, _, v in log if m == "val_top1"]
    trend = json.loads((report / "trend.json").read_text())
    assert trend["cutmix/dm_ce"]["top1"] == [float(np.median(curve[-10:]))]


def test_robustness_rows_match_direct_probes(report):
    full = dd.make_image_classes(2000, noise=0.25, shift=3, seed=0)
    val = dd.split(full, (1000, 1000), 0)[1]
    params = net.load_checkpoint(report / "robustness/dm_ce/seed_1.dmx")
    eps = 8 / 255
    acc, err = deval.fgsm_attack(params, val, deval.AttackConfig(eps))
    curve = deval.occlusion_eval(
        params, val, deval.OcclusionConfig(4, RATIOS), np.random.default_rng(1000)
    )
    expected = [
        f"dm_ce,clean_top1,,{deval.top1_accuracy(params, val):.6f}",
        f"dm_ce,fgsm_top1,{eps:.6f},{acc:.6f}",
        f"dm_ce,fgsm_error,{eps:.6f},{err:.6f}",
    ] + [f"dm_ce,occlusion_top1,{r:g},{a:.6f}" for r, a in curve]
    rows = (report / "robustness.csv").read_text().splitlines()
    assert [r for r in rows if r.startswith("dm_ce,")] == expected


def test_ssl_best_top1_is_that_of_a_direct_run(report):
    moons = DatasetSpec(source="two_moons", size=1000, val_size=1000, label_fraction=0.01,
                        noise=0.15, seed=0, num_classes=2)
    labeled, test, unlabeled_x = load_dataset(moons)
    assert len(labeled) == 10
    ssl = SSLConfig(unlabeled_weight=1.0, eta=0.1, alpha=0.2, steps=40,
                    asymmetric_mixing=True, eval_interval=100)
    _, log = train_ssl(labeled, unlabeled_x, test, net.make_mlp(2, 32, 2), ssl,
                       net.TrainConfig(base_lr=0.3, min_lr=0.003, seed=1))
    best = max(v for m, _, v in log if m == "test_top1")
    summary = json.loads((report / "ssl/pl_asym_decoupled/summary.json").read_text())
    assert summary["seeds"] == {"1": best}
