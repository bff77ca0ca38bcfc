import math
import re
from pathlib import Path

import pytest

from demix import ConfigError
from demix.config import (
    DatasetSpec,
    ExperimentConfig,
    parse_config,
    serialize_config,
)
from demix.evaluation import AttackConfig, OcclusionConfig
from demix.losses import DMConfig, RescaleParams
from demix.mixers import MixConfig
from demix.network import TrainConfig
from demix.semisup import SSLConfig

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

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -3.0])
    def test_bad_noise_named(self, noise):
        bound = "be nonnegative" if math.isfinite(noise) else "be a finite number"
        message = rf"^noise must {bound}, got {noise!r}$"
        with pytest.raises(ValueError, match=message):
            DatasetSpec(noise=noise)

    def test_seeds_nonempty(self):
        from demix.config import RunConfig

        with pytest.raises(ValueError):
            RunConfig(seeds=())

    @pytest.mark.parametrize("name", ["a\nb", "a\r", "cutmix,dm"])
    def test_name_fits_one_csv_field(self, name):
        from demix.config import RunConfig

        with pytest.raises(ValueError, match="name must hold no comma or line break"):
            RunConfig(name=name)


class TestSchema:
    def test_default_text(self):
        assert len(DEFAULT_LINES) == 45
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

    def test_per_batch_lambda_is_unknown(self):
        # every batch draws one ratio; there is no per-sample option
        with pytest.raises(ValueError, match=r"line 2: unknown config key 'mixer.per_batch_lambda'"):
            parse_config("mixer.policy = cutmix\nmixer.per_batch_lambda = false")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("ssl.enabled = maybe", "bad value for ssl.enabled: not a boolean"),
            ("run.seeds = 1,x", "bad value for run.seeds"),
            ("eval.occlusion_ratios = 0,half", "bad value for eval.occlusion_ratios"),
            ("dataset.size = 1.5", "bad value for dataset.size"),
            ("dataset.size = abc", "bad value for dataset.size: invalid literal for int"),
            ("dataset.noise = x",
             "bad value for dataset.noise: could not convert string to float"),
            # A non-finite float parses; its section's check names the field.
            *(pytest.param(line, message, id=f"{line}-bad value for {line.split()[0]}")
              for line, message in [
                  ("train.base_lr = nan",
                   r"train.base_lr\): base_lr must be a finite number, got nan"),
                  ("loss.eta = inf", r"loss.eta\): eta must be a finite number, got inf"),
                  ("dataset.noise = nan",
                   r"dataset.noise\): noise must be a finite number, got nan"),
                  ("eval.fgsm_epsilon = nan",
                   r"eval.fgsm_epsilon\): epsilon must be a finite number, got nan"),
                  ("eval.occlusion_ratios = 0,nan",
                   r"eval.occlusion_ratios\): ratios\[1\] must be a finite number, got nan"),
              ]),
        ],
    )
    def test_bad_value_names_line_and_key(self, line, message):
        with pytest.raises(ValueError, match=f"line 3: {message}"):
            parse_config(f"# header\n\n{line}")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match="line 3: train.epochs is already set on line 1"):
            parse_config("train.epochs = 1\nmixer.alpha = 0.4\ntrain.epochs = 2")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mixer.policy = cutmix\nmixer.alpha = 0",
             "config section 'mixer' (line 2: mixer.policy, line 3: mixer.alpha): "
             "alpha must be positive, got 0.0"),
            ("ssl.enabled = true\nssl.alpha = 0",
             "config section 'ssl' (line 2: ssl.enabled, line 3: ssl.alpha): "
             "alpha must be positive, got 0.0"),
            ("loss.kind = focal",
             "config section 'loss' (line 2: loss.kind): unknown loss kind 'focal'"),
            ("ssl.enabled = true\nssl.eval_interval = 0",
             "config section 'ssl' (line 2: ssl.enabled, line 3: ssl.eval_interval): "
             "eval_interval must be positive, got 0"),
            ("eval.mixed_pair_count = 0",
             "config section 'eval' (line 2: eval.mixed_pair_count): "
             "mixed_pair_count must be at least 1, got 0"),
            ("eval.occlusion = true\neval.occlusion_patch = 0",
             "config section 'eval' (line 2: eval.occlusion, line 3: eval.occlusion_patch): "
             "patch_size must be positive, got 0"),
            ("eval.occlusion_ratios = 0,1.5",
             "config section 'eval' (line 2: eval.occlusion_ratios): "
             "ratios[1] must lie in [0, 1], got 1.5"),
            ("eval.fgsm_epsilon = -0.1",
             "config section 'eval' (line 2: eval.fgsm_epsilon): epsilon must be nonnegative, got -0.1"),
            ("eval.confidence_bins = -1",
             "config section 'eval' (line 2: eval.confidence_bins): "
             "confidence_bins must be nonnegative, got -1"),
            ("dataset.size = 0",
             "config section 'dataset' (line 2: dataset.size): size must be positive, got 0"),
            ("dataset.val_size = 0",
             "config section 'dataset' (line 2: dataset.val_size): "
             "val_size must be positive, got 0"),
            ("dataset.source = blobs\ndataset.num_classes = 0",
             "config section 'dataset' (line 2: dataset.source, line 3: dataset.num_classes): "
             "num_classes must be positive, got 0"),
            ("dataset.shift = -1",
             "config section 'dataset' (line 2: dataset.shift): "
             "shift must be nonnegative, got -1"),
            ("dataset.seed = -1",
             "config section 'dataset' (line 2: dataset.seed): "
             "seed must be nonnegative, got -1"),
            ("dataset.source = two_moons\ndataset.size = 1",
             "config section 'dataset' (line 2: dataset.source, line 3: dataset.size): "
             "size must be at least 2 for two_moons, got 1"),
            ("dataset.source = blobs\ndataset.size = 1",
             "config section 'dataset' (line 2: dataset.source, line 3: dataset.size): "
             "size must be at least 2 for blobs, got 1"),
            ("dataset.noise = -3",
             "config section 'dataset' (line 2: dataset.noise): "
             "noise must be nonnegative, got -3.0"),
            ("run.seeds = 1,1",
             "config section 'run' (line 2: run.seeds): seeds must be distinct, got (1, 1)"),
            ("run.seeds = 1,-2",
             "config section 'run' (line 2: run.seeds): seeds must be nonnegative, got (1, -2)"),
            ("run.name = a,b",
             "config section 'run' (line 2: run.name): "
             "name must hold no comma or line break, got 'a,b'"),
            ("dataset.source = idx",
             "config section 'dataset' (line 2: dataset.source): "
             "source idx needs images and labels set to a file path"),
            ("dataset.source = idx\ndataset.images = i.idx",
             "config section 'dataset' (line 2: dataset.source, line 3: dataset.images): "
             "source idx needs labels set to a file path"),
            ("dataset.source = idx\ndataset.images =\ndataset.labels = l.idx",
             "config section 'dataset' (line 2: dataset.source, line 3: dataset.images, "
             "line 4: dataset.labels): source idx needs images set to a file path"),
            ("network.hidden = 0",
             "config section 'network' (line 2: network.hidden): hidden must be positive, got 0"),
            ("ssl.enabled = true\nssl.unlabeled_batch = 0",
             "config section 'ssl' (line 2: ssl.enabled, line 3: ssl.unlabeled_batch): "
             "unlabeled_batch must be positive, got 0"),
            ("ssl.enabled = true\nssl.unlabeled_batch = -5",
             "config section 'ssl' (line 2: ssl.enabled, line 3: ssl.unlabeled_batch): "
             "unlabeled_batch must be positive, got -5"),
            ("ssl.enabled = true\nssl.labeled_batch = -1",
             "config section 'ssl' (line 2: ssl.enabled, line 3: ssl.labeled_batch): "
             "labeled_batch must be nonnegative, got -1"),
        ],
    )
    def test_section_check_names_section_lines_and_keys(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_config(f"train.epochs = 3\n{text}")
        assert str(info.value) == message


@pytest.mark.parametrize(
    "text",
    ["train.epoch = 3", "train.epochs = three", "dataset.shift = -1", "dataset.source = blobs\n"
     "network.arch = conv"],
    ids=["bad_key", "bad_value", "section_check", "image_only"],
)
def test_every_fault_raises_config_error(text):
    with pytest.raises(ConfigError):
        parse_config(text)


class TestImageOnlySettings:
    @pytest.mark.parametrize(
        "source, line, setting",
        [
            ("two_moons", "mixer.policy = cutmix", "mixer.policy = cutmix"),
            ("blobs", "mixer.policy = resizemix", "mixer.policy = resizemix"),
            ("blobs", "network.arch = conv", "network.arch = conv"),
            ("two_moons", "eval.mixed_pairs = yes", "eval.mixed_pairs = true"),
            ("blobs", "eval.occlusion = true", "eval.occlusion = true"),
        ],
    )
    def test_rejected_on_vector_sources(self, source, line, setting):
        key = setting.partition(" = ")[0]
        with pytest.raises(ValueError) as info:
            parse_config(f"dataset.source = {source}\ntrain.epochs = 3\n{line}")
        assert str(info.value) == (
            f"config (line 1: dataset.source, line 3: {key}): {setting} needs image "
            f"inputs, but dataset.source = {source} gives vectors"
        )

    @pytest.mark.parametrize("source", ["images", "idx"])
    def test_accepted_on_image_sources(self, source):
        text = "\n".join(
            [f"dataset.source = {source}", "dataset.images = i.idx", "dataset.labels = l.idx",
             "mixer.policy = cutmix", "network.arch = conv", "eval.mixed_pairs = true",
             "eval.occlusion = true"]
        )
        cfg = parse_config(text)
        assert (cfg.mixer.policy, cfg.network.arch) == ("cutmix", "conv")
        assert cfg.eval.mixed_pairs and cfg.eval.occlusion


class TestTwoMoonsClassCount:
    def test_unset_count_becomes_two(self):
        cfg = parse_config("dataset.source = two_moons")
        assert cfg.dataset.num_classes == 2
        assert "\ndataset.num_classes = 2\n" in serialize_config(cfg)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("count", [3, 10])
    def test_other_count_names_both_lines(self, count):
        with pytest.raises(ConfigError) as info:
            parse_config(
                f"dataset.source = two_moons\ntrain.epochs = 3\ndataset.num_classes = {count}"
            )
        assert str(info.value) == (
            "config section 'dataset' (line 1: dataset.source, line 3: dataset.num_classes): "
            f"num_classes must be 2 for two_moons, got {count}"
        )

    def test_count_of_two_and_other_sources_parse(self):
        cfg = parse_config("dataset.source = two_moons\ndataset.num_classes = 2")
        assert cfg.dataset.num_classes == 2
        assert parse_config("dataset.source = blobs").dataset.num_classes == 10


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


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (TrainConfig, "base_lr", math.nan),
        (TrainConfig, "base_lr", math.inf),
        (TrainConfig, "min_lr", math.nan),
        (TrainConfig, "weight_decay", math.nan),
        (SSLConfig, "unlabeled_weight", math.nan),
        (SSLConfig, "eta", math.nan),
        (SSLConfig, "eta", math.inf),
        (SSLConfig, "alpha", math.nan),
        (DMConfig, "eta", math.nan),
        (RescaleParams, "t", math.nan),
        (MixConfig, "alpha", math.inf),
        (MixConfig, "alpha", math.nan),
        (AttackConfig, "epsilon", math.inf),
    ],
)
def test_config_dataclasses_reject_non_finite_floats(cls, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be a finite number, got {value!r}$"):
        cls(**{field: value})


@pytest.mark.parametrize(
    "cls, field, value, bound",
    [
        (TrainConfig, "base_lr", 0.0, "be positive"),
        (TrainConfig, "min_lr", 0.0, "be positive"),
        (TrainConfig, "weight_decay", -1e-4, "be nonnegative"),
        (TrainConfig, "seed", -1, "be nonnegative"),
        (TrainConfig, "momentum", -0.1, "lie in [0, 1)"),
        (TrainConfig, "momentum", 1.0, "lie in [0, 1)"),
        (SSLConfig, "tau", 0.0, "lie in (0, 1]"),
        (SSLConfig, "tau", 1.5, "lie in (0, 1]"),
        (SSLConfig, "unlabeled_weight", -1.0, "be nonnegative"),
        (SSLConfig, "eta", -0.5, "be nonnegative"),
        (SSLConfig, "steps", 0, "be positive"),
        (DMConfig, "eta", -0.1, "be nonnegative"),
        (RescaleParams, "t", -1.0, "be nonnegative"),
        (RescaleParams, "xi", -0.1, "lie in [0, 1]"),
        (RescaleParams, "xi", 1.5, "lie in [0, 1]"),
        (DatasetSpec, "label_fraction", 1.5, "lie in (0, 1]"),
    ],
)
def test_each_field_bound_names_field_bound_and_value(cls, field, value, bound):
    # base_lr and min_lr, and unlabeled_weight and eta, once shared a message.
    with pytest.raises(ValueError, match=rf"^{field} must {re.escape(bound)}, got {value!r}$"):
        cls(**{field: value})


def test_empty_occlusion_ratio_list_rejected():
    with pytest.raises(ValueError, match="^ratios must hold at least one ratio$"):
        OcclusionConfig(4, ())
    message = "config section 'eval' (line 1: eval.occlusion_ratios): ratios must hold at least one"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config("eval.occlusion_ratios = ,")


def test_readme_config_example_parses():
    # The README documents the config syntax with this block; the parser keeps it honest.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = parse_config(block)
    assert (cfg.mixer.policy, cfg.loss.kind, cfg.run.seeds) == ("cutmix", "dm_ce", (1, 2, 3, 4, 5))
    assert cfg.eval.mixed_pairs and cfg.eval.fgsm and cfg.eval.occlusion
