import json

import numpy as np
import pytest

from demix.cli import main as cli_main
from demix.config import DatasetSpec, parse_config
from demix.data import IdxError, save_idx
from demix.experiment import (
    CSV_HEADER,
    compare_runs,
    load_dataset,
    metric_row,
    parse_dataset_arg,
    rows_to_csv,
    run_experiment,
)

FAST_BLOBS = """
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
"""


class TestMetricRows:
    def test_registry_enforced(self):
        with pytest.raises(ValueError, match="registry"):
            metric_row("r", 1, 0, "made_up_metric", 1.0)

    def test_parametric_names_allowed(self):
        row = metric_row("r", 1, 0, "occlusion_top1@0.25", 0.5)
        assert row[3] == "occlusion_top1@0.25"

    def test_csv_format(self):
        csv = rows_to_csv([("r", 1, 0, "val_top1", 1 / 3)])
        lines = csv.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "r,1,0,val_top1,0.33333333333333331"


class TestRunExperiment:
    def test_deterministic_bytes(self, tmp_path):
        cfg = parse_config(FAST_BLOBS.format(kind="mce", eta="0.0", name="det"))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == (
            tmp_path / "b/metrics.csv"
        ).read_bytes()
        assert (tmp_path / "a/summary.json").read_bytes() == (
            tmp_path / "b/summary.json"
        ).read_bytes()

    def test_eta_zero_dm_ce_matches_mce_rows(self, tmp_path):
        cfg_m = parse_config(FAST_BLOBS.format(kind="mce", eta="0.3", name="m"))
        cfg_d = parse_config(FAST_BLOBS.format(kind="dm_ce", eta="0.0", name="d"))
        run_experiment(cfg_m, tmp_path / "m")
        run_experiment(cfg_d, tmp_path / "d")
        rows_m = (tmp_path / "m/metrics.csv").read_text().splitlines()[1:]
        rows_d = (tmp_path / "d/metrics.csv").read_text().splitlines()[1:]
        strip = lambda rows: [r.split(",", 1)[1] for r in rows]  # drop run id
        assert strip(rows_m) == strip(rows_d)

    def test_summary_matches_final_csv_rows(self, tmp_path):
        cfg = parse_config(FAST_BLOBS.format(kind="mce", eta="0.0", name="s"))
        summary = run_experiment(cfg, tmp_path / "s")
        csv = (tmp_path / "s/metrics.csv").read_text().splitlines()[1:]
        finals = {}
        for line in csv:
            run, seed, step, metric, value = line.split(",")
            if metric == "final_top1":
                finals[seed] = float(value)
        assert summary["seeds"] == finals
        assert summary["metric"] == "final_top1"

    def test_zero_epochs_summary(self, tmp_path):
        text = FAST_BLOBS.format(kind="mce", eta="0.0", name="z").replace(
            "train.epochs = 4", "train.epochs = 0"
        ).replace("run.seeds = 1,2", "run.seeds = 1")
        summary = run_experiment(parse_config(text), tmp_path / "z")
        assert set(summary["seeds"]) == {"1"}
        # initial parameters on a 3-class problem: near-chance accuracy
        assert 0.0 <= summary["seeds"]["1"] <= 1.0

    def test_checkpoints_written(self, tmp_path):
        cfg = parse_config(FAST_BLOBS.format(kind="mce", eta="0.0", name="c"))
        run_experiment(cfg, tmp_path / "c")
        assert (tmp_path / "c/seed_1.dmx").exists()
        assert (tmp_path / "c/seed_2.dmx").read_bytes()[:4] == b"DMX1"

    def test_ssl_run_reports_best(self, tmp_path):
        text = """
dataset.source = two_moons
dataset.size = 200
dataset.val_size = 100
dataset.num_classes = 2
dataset.noise = 0.15
dataset.label_fraction = 0.05
mixer.policy = none
ssl.enabled = true
ssl.steps = 60
ssl.eval_interval = 20
ssl.unlabeled_batch = 32
network.hidden = 16
train.base_lr = 0.2
run.seeds = 3
run.name = sslrun
"""
        summary = run_experiment(parse_config(text), tmp_path / "ssl")
        assert summary["metric"] == "best_top1"
        csv = (tmp_path / "ssl/metrics.csv").read_text()
        assert "accepted_frac" in csv and "test_top1" in csv


    def test_ssl_run_shorter_than_eval_interval(self, tmp_path):
        # 50 steps with the default interval of 100 still log an evaluation.
        text = """
dataset.source = two_moons
dataset.size = 200
dataset.val_size = 100
dataset.num_classes = 2
dataset.label_fraction = 0.05
mixer.policy = none
ssl.enabled = true
ssl.steps = 50
network.hidden = 16
run.seeds = 1,2
"""
        summary = run_experiment(parse_config(text), tmp_path / "short")
        assert all(np.isfinite(v) for v in summary["seeds"].values())
        assert np.isfinite(summary["mean"])
        csv = (tmp_path / "short/metrics.csv").read_text()
        assert "1,49,test_top1," in csv and "2,49,best_top1," in csv


class TestCompare:
    def test_equal_runs_tie(self):
        s = {"run": "a", "seeds": {"1": 0.5, "2": 0.7}}
        rep = compare_runs(s, dict(s, run="b"))
        assert rep["mean_delta"] == 0.0
        assert rep["ties"] == 2

    def test_uniform_improvement(self):
        a = {"run": "a", "seeds": {str(s): 0.5 for s in range(5)}}
        b = {"run": "b", "seeds": {str(s): 0.51 for s in range(5)}}
        rep = compare_runs(a, b)
        assert rep["mean_delta"] == pytest.approx(0.01)
        assert rep["wins_b"] == 5

    def test_seed_keyed_pairing(self):
        a = {"run": "a", "seeds": {"1": 0.1, "2": 0.2}}
        b = {"run": "b", "seeds": {"2": 0.25, "1": 0.05}}
        rep = compare_runs(a, b)
        assert rep["deltas"] == {"1": pytest.approx(-0.05), "2": pytest.approx(0.05)}

    def test_mismatched_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed sets"):
            compare_runs({"seeds": {"1": 0.1}}, {"seeds": {"2": 0.1}})


class TestDatasetArg:
    def test_two_moons_spec(self):
        ds = parse_dataset_arg("two_moons:n=100,noise=0.05,seed=3,classes=2")
        assert len(ds) == 100 and ds.num_classes == 2

    def test_idx_spec(self, tmp_path):
        from demix.data import save_idx

        images = np.zeros((3, 4, 4), dtype=np.uint8)
        labels = np.array([0, 1, 1], dtype=np.uint8)
        save_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        ds = parse_dataset_arg(f"idx:{tmp_path}/i.idx:{tmp_path}/l.idx")
        assert len(ds) == 3

    def _idx_spec(self, tmp_path, labels, num_classes):
        images = np.zeros((len(labels), 4, 4), dtype=np.uint8)
        save_idx(images, np.array(labels, dtype=np.uint8), tmp_path / "i.idx", tmp_path / "l.idx")
        return DatasetSpec(
            source="idx", size=4, val_size=2, num_classes=num_classes,
            images=str(tmp_path / "i.idx"), labels=str(tmp_path / "l.idx"),
        )

    def test_idx_source_keeps_configured_classes(self, tmp_path):
        # No sample has the top class 2; the class count is still 3.
        train, val, _, _ = load_dataset(self._idx_spec(tmp_path, [0, 1, 0, 1, 1, 0], 3))
        assert train.num_classes == val.num_classes == 3

    def test_idx_label_above_configured_classes(self, tmp_path):
        spec = self._idx_spec(tmp_path, [0, 1, 4, 1, 1, 0], 3)
        with pytest.raises(IdxError, match=r"l\.idx: label 4 is not below dataset.num_classes = 3"):
            load_dataset(spec)

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset options"):
            parse_dataset_arg("blobs:n=10,frobnicate=1")


class TestCli:
    def test_train_eval_compare_selftest(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(FAST_BLOBS.format(kind="mce", eta="0.0", name="cli"))
        assert cli_main(["train", "--config", str(conf), "--out", str(tmp_path / "out")]) == 0
        assert cli_main(
            [
                "eval",
                "--checkpoint",
                str(tmp_path / "out/seed_1.dmx"),
                "--dataset",
                "blobs:n=60,classes=3,noise=0.5,seed=9",
            ]
        ) == 0
        assert "top1" in capsys.readouterr().out
        assert cli_main(
            [
                "compare",
                str(tmp_path / "out/summary.json"),
                str(tmp_path / "out/summary.json"),
            ]
        ) == 0
        capsys.readouterr()
        assert cli_main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_seed_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(FAST_BLOBS.format(kind="mce", eta="0.0", name="cli"))
        cli_main(["train", "--config", str(conf), "--seed", "7", "--out", str(tmp_path / "o")])
        summary = json.loads((tmp_path / "o/summary.json").read_text())
        assert list(summary["seeds"]) == ["7"]
