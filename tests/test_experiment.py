import json
import re
from dataclasses import replace

import numpy as np
import pytest

from demix.cli import main as cli_main
from demix.config import ConfigError, DatasetSpec, parse_config
from demix.data import IdxError, save_idx, stratified_take
from demix.experiment import (
    CSV_HEADER,
    compare_runs,
    load_dataset,
    metric_row,
    parse_dataset_arg,
    rows_to_csv,
    run_experiment,
)
from demix.evaluation import (
    OcclusionConfig,
    make_hard_mixed_set,
    mixed_pair_eval,
    occlusion_eval,
    top1_accuracy,
)
from demix.network import (
    init_params, load_checkpoint, make_conv, make_mlp, save_checkpoint, train_supervised,
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

    def test_zero_epochs_probe_rows_share_the_final_step(self, tmp_path):
        text = FAST_BLOBS.format(kind="mce", eta="0.0", name="z").replace(
            "train.epochs = 4", "train.epochs = 0"
        ) + "eval.fgsm = true\neval.confidence_bins = 2\n"
        run_experiment(parse_config(text), tmp_path / "z")
        rows = [r.split(",") for r in (tmp_path / "z/metrics.csv").read_text().splitlines()[1:]]
        assert {r[3] for r in rows} >= {"final_top1", "clean_top1", "fgsm_top1"}
        assert {r[2] for r in rows} == {"0"}

    def test_checkpoints_written(self, tmp_path):
        cfg = parse_config(FAST_BLOBS.format(kind="mce", eta="0.0", name="c"))
        run_experiment(cfg, tmp_path / "c")
        assert (tmp_path / "c/seed_1.dmx").exists()
        assert (tmp_path / "c/seed_2.dmx").read_bytes()[:4] == b"DMX1"

    def test_config_written_as_run(self, tmp_path):
        cfg = parse_config(FAST_BLOBS.format(kind="dm_ce", eta="0.3", name="conf"))
        run_experiment(cfg, tmp_path / "conf")
        assert parse_config((tmp_path / "conf/config.conf").read_text()) == cfg

    def test_supervised_run_trains_on_the_labeled_rows(self, tmp_path):
        text = FAST_BLOBS.format(kind="mce", eta="0.0", name="few").replace(
            "run.seeds = 1,2", "run.seeds = 1"
        )
        run_experiment(parse_config(text), tmp_path / "all")
        cfg = parse_config(text + "dataset.label_fraction = 0.1\n")
        run_experiment(cfg, tmp_path / "few")
        train, val = load_dataset(replace(cfg.dataset, label_fraction=1.0))[:2]
        labeled = stratified_take(train, 9, cfg.dataset.seed)[0]
        _, log = train_supervised(
            labeled, val, make_mlp(2, 16, 3), cfg.mixer, cfg.loss, replace(cfg.train, seed=1)
        )
        rows = (tmp_path / "few/metrics.csv").read_text().splitlines()[1:]
        assert rows[: len(log)] == rows_to_csv(
            [("few", 1, step, m, v) for m, step, v in log]
        ).splitlines()[1:]
        assert rows != (tmp_path / "all/metrics.csv").read_text().splitlines()[1:]

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

    @pytest.mark.parametrize(
        "settings, message",
        [
            ("eval.occlusion = true\neval.occlusion_patch = 5",
             "eval.occlusion_patch: patch size 5 does not tile 28x28"),
            ("eval.mixed_pairs = true\ndataset.num_classes = 1",
             "eval.mixed_pairs: hard mixed set: pairs need two classes"),
        ],
    )
    def test_probe_faults_named_before_training(self, tmp_path, monkeypatch, settings, message):
        monkeypatch.setattr(
            "demix.experiment.train_supervised", lambda *_: pytest.fail("a seed trained")
        )
        text = "dataset.size = 20\ndataset.val_size = 20\nnetwork.hidden = 8\n" + settings
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(parse_config(text), tmp_path / "p")

    def test_probe_keys_log_the_direct_probe_values(self, tmp_path):
        text = (
            "dataset.size = 60\ndataset.val_size = 40\ndataset.num_classes = 3\n"
            "network.hidden = 8\ntrain.epochs = 1\ntrain.batch_size = 30\n"
            "eval.mixed_pairs = true\neval.mixed_pair_count = 20\n"
            "eval.occlusion = true\neval.occlusion_ratios = 0,0.5,1\nrun.seeds = 1,2\n"
        )
        cfg = parse_config(text)
        run_experiment(cfg, tmp_path)
        rows = [r.split(",") for r in (tmp_path / "metrics.csv").read_text().splitlines()[1:]]
        _, val, _ = load_dataset(cfg.dataset)
        hard_rng = np.random.default_rng(np.random.SeedSequence((cfg.dataset.seed, 1)))
        hard = make_hard_mixed_set(val, 20, hard_rng)
        for seed in (1, 2):
            logged = [(m, float(v)) for _, s, _, m, v in rows
                      if s == str(seed) and m.startswith(("mixed_", "occlusion_"))]
            params = load_checkpoint(tmp_path / f"seed_{seed}.dmx")
            pair = mixed_pair_eval(params, hard)
            rng = np.random.default_rng(np.random.SeedSequence((cfg.dataset.seed, 2, seed)))
            curve = occlusion_eval(params, val, OcclusionConfig(4, (0.0, 0.5, 1.0)), rng)
            assert logged == [
                ("mixed_top1_pair", pair.top1_pair_acc),
                ("mixed_top2_pair", pair.top2_pair_acc),
                ("mixed_mean_conf", pair.mean_max_confidence),
                ("occlusion_top1@0", curve[0][1]),
                ("occlusion_top1@0.5", curve[1][1]),
                ("occlusion_top1@1", curve[2][1]),
            ]

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


EVAL_RUNS = {
    "mlp": FAST_BLOBS.format(kind="dm_ce", eta="0.1", name="mlp").replace(
        "dataset.noise = 0.5", "dataset.noise = 3.0"
    ),
    "conv": """
dataset.size = 40
dataset.val_size = 30
dataset.num_classes = 4
network.arch = conv
mixer.policy = cutmix
loss.kind = dm_ce
train.epochs = 2
train.batch_size = 20
run.seeds = 1,2
""",
    "ssl": """
dataset.source = two_moons
dataset.size = 200
dataset.val_size = 100
dataset.num_classes = 2
dataset.label_fraction = 0.05
mixer.policy = none
ssl.enabled = true
ssl.steps = 30
ssl.eval_interval = 20
network.hidden = 16
run.seeds = 1,2
""",
}


@pytest.mark.parametrize("arch", sorted(EVAL_RUNS))
def test_eval_on_run_config_reproduces_last_logged_top1(tmp_path, capsys, arch):
    out = tmp_path / arch
    cfg = parse_config(EVAL_RUNS[arch])
    run_experiment(cfg, out)
    metric = "test_top1" if cfg.ssl is not None else "val_top1"
    last = {}  # seed -> the value of its last `metric` row
    for line in (out / "metrics.csv").read_text().splitlines()[1:]:
        _, seed, _, name, value = line.split(",")
        if name == metric:
            last[int(seed)] = float(value)
    assert sorted(last) == list(cfg.run.seeds)
    conf = str(out / "config.conf")
    dataset = parse_dataset_arg(conf)
    for seed, logged in last.items():
        checkpoint = str(out / f"seed_{seed}.dmx")
        assert top1_accuracy(load_checkpoint(checkpoint), dataset) == logged
        capsys.readouterr()
        assert cli_main(["eval", "--checkpoint", checkpoint, "--dataset", conf]) == 0
        assert capsys.readouterr().out == f"top1 {logged:.6f} on {len(dataset)} samples\n"


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

    def test_summary_without_seeds_named(self):
        with pytest.raises(ValueError, match="summary B has no per-seed results"):
            compare_runs({"seeds": {"1": 0.1}}, {"run": "b", "mean": 0.1})

    def test_summary_that_is_not_an_object_named(self):
        with pytest.raises(ValueError, match="summary A is not an object: list"):
            compare_runs([0.5, 0.6], {"seeds": {"1": 0.5}})

    @pytest.mark.parametrize("value", ["0.5", None, True, float("nan"), float("inf")])
    def test_non_numeric_seed_value_named(self, value):
        with pytest.raises(ValueError, match="summary B: seed 1 has .*, not a finite number"):
            compare_runs({"seeds": {"1": 0.5}}, {"seeds": {"1": value}})

    def test_empty_seed_sets_rejected(self):
        with pytest.raises(ValueError, match="summary A has no per-seed results"):
            compare_runs({"seeds": {}}, {"seeds": {}})


class TestDatasetArg:
    def test_two_moons_spec(self, tmp_path):
        # A config file stands for the validation split a run with it scores.
        conf = tmp_path / "moons.conf"
        conf.write_text("dataset.source = two_moons\ndataset.val_size = 100\n")
        ds = parse_dataset_arg(str(conf))
        val = load_dataset(parse_config(conf.read_text()).dataset)[1]
        assert len(ds) == 100 and ds.num_classes == 2
        assert ds.x.tobytes() == val.x.tobytes() and ds.y.tobytes() == val.y.tobytes()

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
        train, val, _ = load_dataset(self._idx_spec(tmp_path, [0, 1, 0, 1, 1, 0], 3))
        assert train.num_classes == val.num_classes == 3

    def test_idx_label_above_configured_classes(self, tmp_path):
        spec = self._idx_spec(tmp_path, [0, 1, 4, 1, 1, 0], 3)
        with pytest.raises(IdxError, match=r"l\.idx: label 4 is not below dataset.num_classes = 3"):
            load_dataset(spec)

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("dataset.source = blobs\ndataset.n = 10\n")
        with pytest.raises(ConfigError, match="line 2: unknown config key 'dataset.n'"):
            parse_dataset_arg(str(conf))

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_dataset_arg(str(tmp_path / "absent.conf"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("dataset.source = blobs\ndataset.num_classes = 0",
             "config section 'dataset' (line 1: dataset.source, line 2: dataset.num_classes): "
             "num_classes must be positive, got 0"),
            ("dataset.source = blobs\ndataset.size = abc",
             "line 2: bad value for dataset.size: invalid literal for int()"),
            ("dataset.source = two_moons\ndataset.noise = x",
             "line 2: bad value for dataset.noise: could not convert string to float"),
            ("dataset.source = blobs\ndataset.size = 1",
             "config section 'dataset' (line 1: dataset.source, line 2: dataset.size): "
             "size must be at least 2 for blobs, got 1"),
            ("dataset.source = two_moons\ndataset.seed = -1",
             "config section 'dataset' (line 1: dataset.source, line 2: dataset.seed): "
             "seed must be nonnegative, got -1"),
        ],
        ids=["classes", "int", "float", "rows", "seed"],
    )
    def test_bad_dataset_value_named(self, tmp_path, text, message):
        conf = tmp_path / "bad.conf"
        conf.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_dataset_arg(str(conf))


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
                str(tmp_path / "out/config.conf"),
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

    def test_eval_of_images_the_checkpoint_cannot_take(self, tmp_path):
        # A 28x28 conv checkpoint scored on 32x32 IDX images.
        params = init_params(make_conv(1, 3), np.random.default_rng(0))
        save_checkpoint(params, tmp_path / "conv.dmx")
        images, labels = np.zeros((4, 32, 32), dtype=np.uint8), np.arange(4, dtype=np.uint8) % 3
        save_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
        fault = r"layer 5 needs 784 inputs per row, got shape \(1024,\)"
        with pytest.raises(ValueError, match=fault):
            cli_main([
                "eval", "--checkpoint", str(tmp_path / "conv.dmx"),
                "--dataset", f"idx:{tmp_path}/i.idx:{tmp_path}/l.idx",
            ])

    def test_eval_of_labels_the_checkpoint_cannot_predict(self, tmp_path):
        # A 2-8-3 MLP has no logit for labels 3-6 of a 7-class dataset.
        params = init_params(make_mlp(2, 8, 3), np.random.default_rng(0))
        save_checkpoint(params, tmp_path / "mlp.dmx")
        conf = tmp_path / "blobs7.conf"
        conf.write_text("dataset.source = blobs\ndataset.num_classes = 7\ndataset.val_size = 60\n")
        with pytest.raises(ValueError, match="class index 6 out of range for 3 logits"):
            cli_main([
                "eval", "--checkpoint", str(tmp_path / "mlp.dmx"), "--dataset", str(conf),
            ])

    def test_seed_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(FAST_BLOBS.format(kind="mce", eta="0.0", name="cli"))
        cli_main(["train", "--config", str(conf), "--seed", "7", "--out", str(tmp_path / "o")])
        summary = json.loads((tmp_path / "o/summary.json").read_text())
        assert list(summary["seeds"]) == ["7"]

    def test_negative_seed_override_fails_before_any_data(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(FAST_BLOBS.format(kind="mce", eta="0.0", name="cli"))
        with pytest.raises(ValueError, match=r"seeds must be nonnegative, got \(-1,\)"):
            cli_main(["train", "--config", str(conf), "--seed", "-1", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()
