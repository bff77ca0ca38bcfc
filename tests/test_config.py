import pytest

from demix.config import (
    DatasetSpec,
    ExperimentConfig,
    parse_config,
    serialize_config,
)

SAMPLE = """
# supervised trend run
dataset.source = images
dataset.size = 1000
dataset.val_size = 1000
dataset.noise = 0.25
mixer.policy = cutmix
mixer.alpha = 0.2
loss.kind = dm_ce
loss.eta = 0.1
train.epochs = 50
train.batch_size = 100
run.seeds = 1,2,3,4,5
run.name = cutmix_dm
eval.mixed_pairs = true
"""

# serialize_config(ExperimentConfig()): every key, in order, with its default.
DEFAULT_LINES = (
    "dataset.source = images",
    "dataset.size = 1000",
    "dataset.val_size = 1000",
    "dataset.label_fraction = 1",
    "dataset.noise = 0.25",
    "dataset.seed = 0",
    "dataset.num_classes = 10",
    "dataset.shift = 3",
    "dataset.images = ",
    "dataset.labels = ",
    "mixer.policy = linear",
    "mixer.alpha = 0.20000000000000001",
    "mixer.per_batch_lambda = true",
    "loss.kind = mce",
    "loss.eta = 0.10000000000000001",
    "loss.t = 1",
    "loss.xi = 1",
    "network.arch = mlp",
    "network.hidden = 256",
    "train.base_lr = 0.10000000000000001",
    "train.min_lr = 0.001",
    "train.momentum = 0.90000000000000002",
    "train.weight_decay = 0.0001",
    "train.epochs = 50",
    "train.batch_size = 100",
    "ssl.enabled = false",
    "ssl.tau = 0.94999999999999996",
    "ssl.unlabeled_weight = 1",
    "ssl.eta = 0.10000000000000001",
    "ssl.alpha = 0.20000000000000001",
    "ssl.steps = 2000",
    "ssl.asymmetric_mixing = true",
    "ssl.labeled_batch = 0",
    "ssl.unlabeled_batch = 64",
    "ssl.eval_interval = 100",
    "eval.mixed_pairs = false",
    "eval.mixed_pair_count = 200",
    "eval.fgsm = false",
    "eval.fgsm_epsilon = 0.031372549019607843",
    "eval.occlusion = false",
    "eval.occlusion_patch = 4",
    "eval.occlusion_ratios = 0,0.25,0.5,0.75,1",
    "eval.confidence_bins = 0",
    "run.name = exp",
    "run.seeds = 1",
    "run.out = runs",
)
DEFAULT_TEXT = "\n".join(DEFAULT_LINES) + "\n"


class TestParse:
    def test_defaults_fill_in(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_sample_values(self):
        cfg = parse_config(SAMPLE)
        assert cfg.mixer.policy == "cutmix"
        assert cfg.loss.kind == "dm_ce"
        assert cfg.loss.dm.eta == 0.1
        assert cfg.run.seeds == (1, 2, 3, 4, 5)
        assert cfg.eval.mixed_pairs is True
        assert cfg.ssl is None

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("dataset.sizes = 10")

    def test_bad_value_reported_with_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("train.epochs = soon")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config("just some words")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# comment only\n\ntrain.epochs = 7  # trailing\n")
        assert cfg.train.epochs == 7

    def test_mixer_none(self):
        cfg = parse_config("mixer.policy = none")
        assert cfg.mixer is None

    def test_ssl_block(self):
        cfg = parse_config("ssl.enabled = true\nssl.tau = 0.9\nssl.steps = 500")
        assert cfg.ssl is not None
        assert cfg.ssl.tau == 0.9
        assert cfg.ssl.steps == 500

    def test_invalid_loss_kind(self):
        with pytest.raises(ValueError):
            parse_config("loss.kind = focal")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            SAMPLE,
            "mixer.policy = none\nssl.enabled = true\nssl.unlabeled_weight = 0.5",
            "eval.occlusion = true\neval.occlusion_ratios = 0,0.25,0.5\nloss.kind = dm_bce\nloss.t = 0.5\nloss.xi = 0.8",
        ],
    )
    def test_parse_serialize_parse_identity(self, text):
        once = parse_config(text)
        assert parse_config(serialize_config(once)) == once

    def test_serialized_floats_survive(self):
        cfg = parse_config("train.base_lr = 0.030000000000000002")
        again = parse_config(serialize_config(cfg))
        assert again.train.base_lr == cfg.train.base_lr


class TestValidation:
    def test_dataset_source(self):
        with pytest.raises(ValueError):
            DatasetSpec(source="mnist")

    def test_label_fraction_bounds(self):
        with pytest.raises(ValueError):
            DatasetSpec(label_fraction=0.0)

    def test_seeds_nonempty(self):
        from demix.config import RunConfig

        with pytest.raises(ValueError):
            RunConfig(seeds=())


class TestSchema:
    def test_default_text(self):
        assert len(DEFAULT_LINES) == 46
        assert serialize_config(ExperimentConfig()) == DEFAULT_TEXT
        assert parse_config(DEFAULT_TEXT) == ExperimentConfig()

    def test_keys_in_order_with_optional_sections(self):
        cfg = parse_config("mixer.policy = none\nssl.enabled = true")
        keys = [line.partition(" = ")[0] for line in serialize_config(cfg).splitlines()]
        assert keys == [line.partition(" = ")[0] for line in DEFAULT_LINES]

    def test_train_seed_is_unknown(self):
        # the per-run seed comes from run.seeds
        with pytest.raises(ValueError, match=r"line 2: unknown config key 'train.seed'"):
            parse_config("train.epochs = 3\ntrain.seed = 4")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("ssl.enabled = maybe", "bad value for ssl.enabled: not a boolean"),
            ("run.seeds = 1,x", "bad value for run.seeds"),
            ("eval.occlusion_ratios = 0,half", "bad value for eval.occlusion_ratios"),
            ("dataset.size = 1.5", "bad value for dataset.size"),
        ],
    )
    def test_bad_value_names_line_and_key(self, line, message):
        with pytest.raises(ValueError, match=f"line 3: {message}"):
            parse_config(f"# header\n\n{line}")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mixer.policy = cutmix\nmixer.alpha = 0",
             "config section 'mixer' (line 2: mixer.policy, line 3: mixer.alpha): "
             "alpha must be positive"),
            ("ssl.enabled = true\nssl.alpha = 0",
             "config section 'ssl' (line 2: ssl.enabled, line 3: ssl.alpha): "
             "alpha must be positive"),
            ("loss.kind = focal",
             "config section 'loss' (line 2: loss.kind): unknown loss kind 'focal'"),
            ("ssl.enabled = true\nssl.eval_interval = 0",
             "config section 'ssl' (line 2: ssl.enabled, line 3: ssl.eval_interval): "
             "eval_interval must be positive"),
        ],
    )
    def test_section_check_names_section_lines_and_keys(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_config(f"train.epochs = 3\n{text}")
        assert str(info.value) == message


class TestDmBceCurveDefault:
    @pytest.mark.parametrize(
        "policy, curve",
        [
            ("cutmix", (1.0, 0.8)),
            ("resizemix", (1.0, 0.8)),
            ("linear", (0.5, 1.0)),
            ("manifold", (0.5, 1.0)),
            ("none", (0.5, 1.0)),
        ],
    )
    def test_per_family_default(self, policy, curve):
        cfg = parse_config(f"loss.kind = dm_bce\nmixer.policy = {policy}")
        assert (cfg.loss.rescale.t, cfg.loss.rescale.xi) == curve

    @pytest.mark.parametrize(
        "policy, line, curve",
        [
            ("cutmix", "loss.t = 1", (1.0, 1.0)),
            ("cutmix", "loss.xi = 0.5", (1.0, 0.5)),
            ("linear", "loss.t = 2", (2.0, 1.0)),
            ("linear", "loss.xi = 1", (1.0, 1.0)),
        ],
    )
    def test_explicit_curve_key_turns_default_off(self, policy, line, curve):
        cfg = parse_config(f"loss.kind = dm_bce\nmixer.policy = {policy}\n{line}")
        assert (cfg.loss.rescale.t, cfg.loss.rescale.xi) == curve

    def test_other_kinds_keep_dataclass_curve(self):
        cfg = parse_config("loss.kind = dm_ce\nmixer.policy = cutmix")
        assert (cfg.loss.rescale.t, cfg.loss.rescale.xi) == (1.0, 1.0)
