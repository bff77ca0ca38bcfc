import re
from pathlib import Path

import pytest

from demix import ConfigError
from demix.config import ExperimentConfig, parse_config, serialize_config
from faults import (
    BAD_NOISES, BAD_RUN_NAMES, FAULTS, FIELD_BOUNDS, IMAGE_ONLY, MOONS_CLASS_COUNTS, NON_FINITE,
    SECTION_CHECKS, case_name, expect_case, expect_faults,
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
        expect_faults("unknown_key")

    def test_bad_value_reported_with_line(self):
        expect_faults("bad_int")

    def test_missing_equals_rejected(self):
        expect_faults("no_equals")

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
        expect_faults("loss_kind")


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
        expect_faults("dataset_source")

    def test_label_fraction_bounds(self):
        expect_faults("label_fraction_zero")

    @pytest.mark.parametrize("noise", BAD_NOISES)
    def test_bad_noise_named(self, noise):
        expect_case("dataset_noise", noise)

    def test_seeds_nonempty(self):
        expect_faults("no_seed")

    @pytest.mark.parametrize("name", BAD_RUN_NAMES)
    def test_name_fits_one_csv_field(self, name):
        expect_case("run_name", name)


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
        expect_faults("unknown_key")

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
        expect_faults("repeated_key")

    @pytest.mark.parametrize("text, message", SECTION_CHECKS)
    def test_section_check_names_section_lines_and_keys(self, text, message):
        expect_case("section", text, message)


@pytest.mark.parametrize(
    "fault",
    ["unknown_key", "bad_int", case_name("section", *SECTION_CHECKS[0]),
     case_name("image_only", *IMAGE_ONLY[2])],
    ids=["bad_key", "bad_value", "section_check", "image_only"],
)
def test_every_fault_raises_config_error(fault):
    assert FAULTS[fault][0] is ConfigError
    expect_faults(fault)


class TestImageOnlySettings:
    @pytest.mark.parametrize("source, line, setting", IMAGE_ONLY)
    def test_rejected_on_vector_sources(self, source, line, setting):
        expect_case("image_only", source, line, setting)

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

    @pytest.mark.parametrize("count", MOONS_CLASS_COUNTS)
    def test_other_count_names_both_lines(self, count):
        expect_case("moons_classes", count)

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


@pytest.mark.parametrize("cls, field, value", NON_FINITE)
def test_config_dataclasses_reject_non_finite_floats(cls, field, value):
    expect_case("non_finite", cls, field, value)


@pytest.mark.parametrize("cls, field, value, bound", FIELD_BOUNDS)
def test_each_field_bound_names_field_bound_and_value(cls, field, value, bound):
    expect_case("field_bound", cls, field, value, bound)


def test_empty_occlusion_ratio_list_rejected():
    expect_faults("no_ratios", case_name("section", *SECTION_CHECKS[-1]))


def test_readme_config_example_parses():
    # The README documents the config syntax with this block; the parser keeps it honest.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = parse_config(block)
    assert (cfg.mixer.policy, cfg.loss.kind, cfg.run.seeds) == ("cutmix", "dm_ce", (1, 2, 3, 4, 5))
    assert cfg.eval.mixed_pairs and cfg.eval.fgsm and cfg.eval.occlusion
