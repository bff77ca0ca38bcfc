"""The one table of bad input, ``FAULTS``: a row for each input check, with
the exact error type and message.

A check is a ``raise`` statement of ``src/demix``, or a call site of one of
its shared check helpers (per field, for ``_check_fields``). A new input check
gets its row here; ``test_fault_table_reaches_each_check_once`` in
``test_package.py`` fails while a check has no row, or two rows pin one check
with one message. A module's tests run a row with :func:`expect_faults`
instead of spelling out its call and message again.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from demix.cli import main as cli_main
from demix.config import (
    ConfigError, DatasetSpec, EvalConfig, ExperimentConfig, NetworkConfig, RunConfig,
    parse_config,
)
from demix.data import (
    Dataset, IdxError, load_idx, make_image_classes, make_synthetic, save_idx, split,
    stratified_take,
)
from demix.evaluation import (
    AttackConfig, OcclusionConfig, confidence_histogram, fgsm_attack, make_hard_mixed_set,
    occlusion_grid, top1_accuracy,
)
from demix.experiment import (
    compare_runs, load_dataset, metric_row, parse_dataset_arg, run_experiment,
)
from demix.losses import DMConfig, LossSpec, RescaleParams, batch_loss
from demix.mixers import (
    Lambda, MixConfig, MixedBatch, MixedTarget, Targets, mix_batch, paste_boxes, paste_resized,
    sample_cutmix_boxes, sample_resizemix_boxes,
)
from demix.network import (
    CheckpointError, ConvSpec, DenseSpec, FlattenSpec, Parameters, PoolSpec, TrainConfig, backward,
    cosine_lr, forward, init_params, load_checkpoint, make_conv, make_mlp, predict_logits,
    save_checkpoint, train_supervised,
)
from demix.semisup import SSLConfig, ssl_step, train_ssl


# Bad-input fixtures. The table runs in a scratch working directory, so files
# are named relative to it and messages name them the same way.

_IDX_IMAGES = struct.pack(">iiii", 0x803, 2, 2, 2) + bytes(8)
_IDX_LABELS = struct.pack(">ii", 0x801, 2) + bytes(2)


def _load_idx(images=_IDX_IMAGES, labels=_IDX_LABELS):
    Path("i.idx").write_bytes(images)
    Path("l.idx").write_bytes(labels)
    return load_idx("i.idx", "l.idx")


def _idx_spec(labels, num_classes=2):
    save_idx(np.zeros((len(labels), 4, 4)), np.array(labels), "i.idx", "l.idx")
    return DatasetSpec(source="idx", size=4, val_size=2, num_classes=num_classes,
                       images="i.idx", labels="l.idx")


def _load(raw):
    Path("m.dmx").write_bytes(raw)
    return load_checkpoint("m.dmx")


def _dmx(arch, count=0, table=b""):
    """Checkpoint bytes with the layer tokens ``arch`` and an array table."""
    return b"DMX1" + struct.pack("<I", len(arch)) + arch + struct.pack("<I", count) + table


def _rng():
    return np.random.default_rng(0)


def _reload(specs, edit=lambda raw: raw):
    """``load_checkpoint`` of a saved net of ``specs``, its bytes passed through ``edit``."""
    save_checkpoint(init_params(specs, _rng()), "m.dmx")
    return _load(edit(Path("m.dmx").read_bytes()))


def _cli_eval_32x32():
    """``demix eval`` of a 28x28 conv checkpoint on 32x32 IDX images."""
    save_checkpoint(init_params(make_conv(1, 3), _rng()), "m.dmx")
    save_idx(np.zeros((4, 32, 32)), np.arange(4) % 3, "i.idx", "l.idx")
    return cli_main(["eval", "--checkpoint", "m.dmx", "--dataset", "idx:i.idx:l.idx"])


def _mlp():
    return init_params(make_mlp(2, 4, 2), _rng())


def _vectors(n=6):
    return Dataset(np.zeros((n, 2)), np.arange(n) % 2, 2)


def _glyphs(n=6, hw=(8, 8), y=None):
    return Dataset(np.zeros((n, *hw)), np.arange(n) % 2 if y is None else y, 2)


def _parse_on_vectors(line, source="blobs"):
    return parse_config(f"dataset.source = {source}\ntrain.epochs = 3\n{line}")


def _section(text):
    return parse_config(f"train.epochs = 3\n{text}")


_SHAPE = "inputs must be images (n, ..., height, width), got shape"


def _rows(error, **rows):
    """name -> (error type, the bad calls that must raise it, message): one bad
    call, or a tuple of calls that reach the check through other entry points."""
    return {name: (error, calls if isinstance(calls, tuple) else (calls,), message)
            for name, (calls, message) in rows.items()}


def case_name(name, *case):
    """The row name of one case of a family: ``name(arg, ...)``."""
    return f"{name}({', '.join(getattr(v, '__name__', repr(v)) for v in case)})"


def _cases(name, error, call, message, cases):
    """A family of rows, one per case (a tuple of arguments, or the one
    argument of a one-argument ``call``): ``call(*case)`` raises
    ``message(*case)``. A module's parametrized test runs its row with
    :func:`expect_case`."""
    cases = [(case,) if call.__code__.co_argcount == 1 else case for case in cases]
    return {case_name(name, *case): (error, (lambda case=case: call(*case),), message(*case))
            for case in cases}


# Each section's check names the section, the lines and keys it was given.
SECTION_CHECKS = [
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
    ("eval.occlusion_ratios = ,",
     "config section 'eval' (line 2: eval.occlusion_ratios): ratios must hold at least one ratio"),
]

# Settings that need image inputs, on a vector source: (source, line, the setting as read).
IMAGE_ONLY = [
    ("two_moons", "mixer.policy = cutmix", "mixer.policy = cutmix"),
    ("blobs", "mixer.policy = resizemix", "mixer.policy = resizemix"),
    ("blobs", "network.arch = conv", "network.arch = conv"),
    ("two_moons", "eval.mixed_pairs = yes", "eval.mixed_pairs = true"),
    ("blobs", "eval.occlusion = true", "eval.occlusion = true"),
]
def _noise_message(noise):
    bound = "be nonnegative" if math.isfinite(noise) else "be a finite number"
    return f"noise must {bound}, got {noise!r}"


# A set class count stays as set, so two_moons names both lines.
MOONS_CLASS_COUNTS = [3, 10]
BAD_NOISES = [math.nan, math.inf, -3.0]
SYNTHETIC_NOISES = [math.nan, math.inf, -math.inf, -0.5]
IDX_LABEL_COUNTS = [-1, 0]
LOGIT_SHAPES = [(3,), (3, 2, 2)]
LAMBDA_VALUES = [-0.1, 1.1, math.nan, math.inf]
TRAIN_COUNTS = [{"batch_size": 0}, {"batch_size": -5}, {"epochs": -1}]
# Saved layers, the token of the layer before and of the one that does not follow it, the fault.
CHAINS = [
    ((DenseSpec(4, 3), DenseSpec(5, 2, "none")),
     "dense:4:3:relu", "dense:5:2:none", "in_dim 5 is not the out_dim 3"),
    ((ConvSpec(1, 8), PoolSpec(2), ConvSpec(4, 16)),
     "conv:1:8:3:1:relu", "conv:4:16:3:1:relu", "in_ch 4 is not the out_ch 8"),
    ((ConvSpec(1, 8), PoolSpec(2), FlattenSpec(), DenseSpec(30, 2, "none")),
     "conv:1:8:3:1:relu", "dense:30:2:none", "in_dim 30 is not a multiple of the out_ch 8"),
]
EVAL_INTERVALS = [0, -1]
SEED_VALUES = ["0.5", None, True, math.nan, math.inf]
BAD_RUN_NAMES = ["a\nb", "a\r", "cutmix,dm"]
NON_FINITE = [
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
]
# base_lr and min_lr, and unlabeled_weight and eta, once shared a message.
FIELD_BOUNDS = [
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
]


FAULTS = {
    # config
    **_cases("section", ConfigError, lambda text, message: _section(text),
             lambda text, message: message, SECTION_CHECKS),
    **_cases("image_only", ConfigError, lambda source, line, setting: _parse_on_vectors(line, source),
             lambda source, line, setting: f"config (line 1: dataset.source, line 3: "
             f"{setting.partition(' = ')[0]}): {setting} needs image inputs, but dataset.source = "
             f"{source} gives vectors", IMAGE_ONLY),
    **_cases("moons_classes", ConfigError,
             lambda count: parse_config("dataset.source = two_moons\ntrain.epochs = 3\n"
                                        f"dataset.num_classes = {count}"),
             lambda count: "config section 'dataset' (line 1: dataset.source, line 3: "
             f"dataset.num_classes): num_classes must be 2 for two_moons, got {count}",
             MOONS_CLASS_COUNTS),
    **_cases("dataset_noise", ValueError, lambda noise: DatasetSpec(noise=noise), _noise_message,
             BAD_NOISES),
    **_cases("run_name", ValueError, lambda name: RunConfig(name=name),
             lambda name: f"name must hold no comma or line break, got {name!r}", BAD_RUN_NAMES),
    **_cases("non_finite", ValueError, lambda cls, field, value: cls(**{field: value}),
             lambda cls, field, value: f"{field} must be a finite number, got {value!r}", NON_FINITE),
    **_cases("field_bound", ValueError, lambda cls, field, value, bound: cls(**{field: value}),
             lambda cls, field, value, bound: f"{field} must {bound}, got {value!r}", FIELD_BOUNDS),
    **_rows(
        ValueError,
        dataset_source=(lambda: DatasetSpec(source="mnist"), "unknown dataset source 'mnist'"),
        label_fraction_zero=(lambda: DatasetSpec(label_fraction=0.0),
                             "label_fraction must lie in (0, 1], got 0.0"),
        dataset_size=(lambda: DatasetSpec(size=0), "size must be positive, got 0"),
        dataset_val_size=(lambda: DatasetSpec(val_size=0), "val_size must be positive, got 0"),
        dataset_classes=(lambda: DatasetSpec(num_classes=0), "num_classes must be positive, got 0"),
        dataset_shift=(lambda: DatasetSpec(shift=-1), "shift must be nonnegative, got -1"),
        dataset_seed=(lambda: DatasetSpec(seed=-1), "seed must be nonnegative, got -1"),
        vector_size=(lambda: DatasetSpec(source="blobs", size=1),
                     "size must be at least 2 for blobs, got 1"),
        idx_paths=(lambda: DatasetSpec(source="idx"),
                   "source idx needs images and labels set to a file path"),
        idx_labels_path=(lambda: DatasetSpec(source="idx", images="i.idx"),
                         "source idx needs labels set to a file path"),
        unknown_arch=(lambda: NetworkConfig(arch="rnn"), "unknown architecture 'rnn'"),
        hidden=(lambda: NetworkConfig(hidden=0), "hidden must be positive, got 0"),
        mixed_pair_count=(lambda: EvalConfig(mixed_pair_count=0),
                          "mixed_pair_count must be at least 1, got 0"),
        confidence_bins=(lambda: EvalConfig(confidence_bins=-1),
                         "confidence_bins must be nonnegative, got -1"),
        no_seed=(lambda: RunConfig(seeds=()), "at least one seed required"),
        seeds_distinct=(lambda: RunConfig(seeds=(1, 1)), "seeds must be distinct, got (1, 1)"),
        seeds_sign=(lambda: RunConfig(seeds=(1, -2)), "seeds must be nonnegative, got (1, -2)"),
    ),
    **_rows(
        ConfigError,
        no_equals=(lambda: parse_config("just some words"),
                   "line 1: expected 'section.key = value'"),
        # The per-run seed comes from run.seeds.
        unknown_key=(lambda: _section("train.seed = 4"), "line 2: unknown config key 'train.seed'"),
        repeated_key=(lambda: _section("mixer.alpha = 0.4\ntrain.epochs = 2"),
                      "line 3: train.epochs is already set on line 1"),
        bad_boolean=(lambda: _section("ssl.enabled = maybe"),
                     "line 2: bad value for ssl.enabled: not a boolean: 'maybe'"),
        bad_int=(lambda: _section("dataset.size = 1.5"),
                 "line 2: bad value for dataset.size: invalid literal for int() with base 10: "
                 "'1.5'"),
    ),
    # data
    **_cases("idx_label_count", IdxError,
             lambda count: _load_idx(labels=struct.pack(">ii", 0x801, count)),
             lambda count: f"l.idx: header field count is {count}, must be positive",
             IDX_LABEL_COUNTS),
    **_cases("synthetic_noise", ValueError, lambda noise: make_synthetic("blobs", 4, noise, 0),
             _noise_message, SYNTHETIC_NOISES),
    **_cases("seed_value", ValueError,
             lambda value: compare_runs({"seeds": {"1": 0.5}}, {"seeds": {"1": value}}),
             lambda value: f"summary B: seed 1 has {value!r}, not a finite number", SEED_VALUES),
    **_cases("logits_rank", ValueError,
             lambda shape: batch_loss(np.zeros(shape), Targets([0] * 3, [0] * 3, [1.0] * 3),
                                      LossSpec()),
             lambda shape: f"logits must have shape (n, classes), got {shape}", LOGIT_SHAPES),
    **_cases("lambda_value", ValueError, lambda lam: Lambda(lam),
             lambda lam: f"lam must {'lie in [0, 1]' if math.isfinite(lam) else 'be a finite number'}"
             f", got {lam!r}", LAMBDA_VALUES),
    **_cases("train_count", ValueError, lambda kw: TrainConfig(**kw),
             lambda kw: "".join(f"{name} must be {'positive' if name == 'batch_size' else 'nonnegative'}"
                                f", got {value}" for name, value in kw.items()), TRAIN_COUNTS),
    **_cases("chain", CheckpointError, lambda specs, first, second, fault: _reload(specs),
             lambda specs, first, second, fault: f"layer '{second}' does not follow '{first}': {fault}",
             CHAINS),
    **_cases("eval_interval", ValueError, lambda interval: SSLConfig(eval_interval=interval),
             lambda interval: f"eval_interval must be positive, got {interval}", EVAL_INTERVALS),
    **_rows(
        IdxError,
        idx_header=(lambda: _load_idx(images=_IDX_IMAGES[:10]),
                    "i.idx: image header (magic, count, rows, cols) is cut short at 10 bytes"),
        idx_magic=(lambda: _load_idx(images=struct.pack(">i", 0x102) + _IDX_IMAGES[4:]),
                   "i.idx: bad image magic 0x00000102"),
        idx_rows=(lambda: _load_idx(images=struct.pack(">iiii", 0x803, 2, 0, 2)),
                  "i.idx: header field rows is 0, must be positive"),
        idx_label_magic=(lambda: _load_idx(labels=struct.pack(">ii", 0x803, 2) + bytes(2)),
                         "l.idx: bad label magic 0x00000803"),
        idx_label_header=(lambda: _load_idx(labels=_IDX_LABELS[:6]),
                          "l.idx: label header (magic, count) is cut short at 6 bytes"),
        idx_trailing_images=(lambda: _load_idx(images=_IDX_IMAGES + b"\0"),
                             "i.idx: 1 trailing bytes after the 8-byte payload of header fields "
                             "count x rows x cols = 2 x 2 x 2"),
        idx_payload=(lambda: _load_idx(images=_IDX_IMAGES[:-1]),
                     "i.idx: header fields count x rows x cols = 2 x 2 x 2 need 8 payload "
                     "bytes, file has 7"),
        idx_trailing_labels=(lambda: _load_idx(labels=_IDX_LABELS + b"\0"),
                      "l.idx: 1 trailing bytes after the 2-byte payload of header fields "
                      "count = 2"),
        idx_count=(lambda: _load_idx(labels=struct.pack(">ii", 0x801, 3) + bytes(3)),
                   "header field count: 2 images in i.idx but 3 labels in l.idx"),
        idx_label_class=(lambda: load_dataset(_idx_spec([0, 1, 4, 1, 1, 0], 3)),
                         "l.idx: label 4 is not below dataset.num_classes = 3"),
    ),
    **_rows(
        ValueError,
        dataset_length=(lambda: Dataset(np.zeros((3, 2)), np.zeros(2), 2),
                        "inputs and labels must have equal length"),
        save_idx_rank=(lambda: save_idx(np.zeros((3, 16)), np.zeros(3), "i", "l"),
                       "save_idx: images must be (n, rows, cols), got shape (3, 16)"),
        save_idx_empty=(lambda: save_idx(np.zeros((3, 0, 4)), np.zeros(3), "i", "l"),
                        "save_idx: images must not be empty, got shape (3, 0, 4)"),
        save_idx_labels=(lambda: save_idx(np.zeros((3, 4, 4)), np.array([0, 256, 1]), "i", "l"),
                         "save_idx: labels must be 0..255, got 0..256"),
        save_idx_length=(lambda: save_idx(np.zeros((3, 4, 4)), np.zeros(2), "i", "l"),
                         "images and labels must have equal length"),
        save_idx_finite=(lambda: save_idx(np.full((3, 4, 4), np.inf), np.zeros(3), "i", "l"),
                         "save_idx: images must be finite, image 0 is not"),
        synthetic_size=(lambda: make_synthetic("blobs", 1, 0.1, 0), "n must be at least 2, got 1"),
        synthetic_classes=(lambda: make_synthetic("blobs", 10, 0.1, 0, num_classes=0),
                           "num_classes must be at least 1, got 0"),
        synthetic_kind=(lambda: make_synthetic("spirals", 10, 0.1, 0),
                        "unknown synthetic kind 'spirals'"),
        glyph_count=(lambda: make_image_classes(-1), "n must be nonnegative, got -1"),
        glyph_shift=(lambda: make_image_classes(4, shift=-1), "shift must be nonnegative, got -1"),
        glyph_noise=(lambda: make_image_classes(4, noise=np.nan),
                     "noise must be a finite number, got nan"),
        glyph_classes=(lambda: make_image_classes(4, num_classes=0),
                       "num_classes must be at least 1, got 0"),
        glyph_blobs=(lambda: make_image_classes(4, blobs_per_class=0),
                     "blobs_per_class must be at least 1, got 0"),
        glyph_size=(lambda: make_image_classes(4, size=15), "size must be at least 16, got 15"),
        split_sizes=(lambda: split(_vectors(10), (8, 8), 0), "cannot split 10 samples into (8, 8)"),
        split_negative=(lambda: split(_vectors(), (-1, 5), 0),
                        "cannot split 6 samples into (-1, 5)"),
        stratified_count=(lambda: stratified_take(_vectors(), 1, 0),
                          "need at least one sample per class"),
        stratified_class=(lambda: stratified_take(Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 1]),
                                                          2), 4, 0),
                          "class 1 has only 1 samples"),
    ),
    # evaluation
    **_rows(
        ValueError,
        epsilon=(lambda: AttackConfig(-0.1), "epsilon must be nonnegative, got -0.1"),
        patch_size=(lambda: OcclusionConfig(0), "patch_size must be positive, got 0"),
        no_ratios=(lambda: OcclusionConfig(4, ()), "ratios must hold at least one ratio"),
        ratio_above_one=(lambda: OcclusionConfig(4, (0.0, 1.5)),
                         "ratios[1] must lie in [0, 1], got 1.5"),
        ratio_below_zero=(lambda: OcclusionConfig(4, (-0.5,)),
                          "ratios[0] must lie in [0, 1], got -0.5"),
        hard_set_vectors=(lambda: make_hard_mixed_set(_vectors(), 3, _rng()),
                          f"hard mixed set: {_SHAPE} (6, 2)"),
        hard_set_count=(lambda: make_hard_mixed_set(_glyphs(), 0, _rng()),
                        "count must be at least 1, got 0"),
        hard_set_empty=(lambda: make_hard_mixed_set(_glyphs(0), 3, _rng()),
                        "hard mixed set: the dataset is empty"),
        hard_set_one_class=(lambda: make_hard_mixed_set(_glyphs(y=np.ones(6, int)), 3, _rng()),
                            "hard mixed set: pairs need two classes, the dataset has only class 1"),
        hard_set_band=(lambda: make_hard_mixed_set(_glyphs(hw=(28, 28)), 3, _rng(),
                                                   area_band=(0.9, 1.0)),
                       "hard mixed set: no box at lam=0.5 on 28x28 gives a ratio in [0.9, 1.0] "
                       "(reachable 0.5867 to 0.8967)"),
        hard_set_ratio=(lambda: make_hard_mixed_set(_glyphs(), 3, _rng(), lam=2.0),
                        "lam must lie in [0, 1], got 2.0"),
        occlusion_vectors=(lambda: occlusion_grid(_vectors(), 4), f"occlusion: {_SHAPE} (6, 2)"),
        occlusion_tiling=(lambda: occlusion_grid(_glyphs(), 3), "patch size 3 does not tile 8x8"),
        histogram_bins=(lambda: confidence_histogram(_mlp(), _vectors(), 0),
                        "bins must be at least 1, got 0"),
    ),
    # experiment
    **_rows(
        ValueError,
        metric=(lambda: metric_row("r", 1, 0, "val_top", 0.0),
                "metric 'val_top' is not in the registry"),
        idx_too_small=(lambda: load_dataset(_idx_spec([0, 1, 0])),
                       "IDX source has 3 samples, need 6"),
        conv_on_vectors=((lambda: run_experiment(ExperimentConfig(
            DatasetSpec(source="blobs", size=20, val_size=10, num_classes=3),
            network=NetworkConfig(arch="conv")), "run"), lambda: make_conv(1, 3, (2,))),
                         "conv architecture needs 2-D image inputs, got shape (2,)"),
        probe_fault=(lambda: run_experiment(parse_config(
            "dataset.size = 20\ndataset.val_size = 20\neval.mixed_pairs = true\n"
            "dataset.num_classes = 1"), "run"),
                     "eval.mixed_pairs: hard mixed set: pairs need two classes, the dataset has "
                     "only class 0"),
        summary_type=(lambda: compare_runs([0.5], {"seeds": {"1": 0.5}}),
                      "summary A is not an object: list"),
        summary_seeds=(lambda: compare_runs({"seeds": {"1": 0.1}}, {"mean": 0.1}),
                       "summary B has no per-seed results ('seeds')"),
        summary_no_seeds=(lambda: compare_runs({"seeds": {}}, {"seeds": {}}),
                          "summary A has no per-seed results ('seeds')"),
        seed_sets=(lambda: compare_runs({"seeds": {"1": 0.1}}, {"seeds": {"2": 0.1}}),
                   "seed sets differ: ['1'] vs ['2']"),
        idx_arg_without_labels=(lambda: parse_dataset_arg("idx:images.idx"),
                                "idx spec needs 'idx:<images>:<labels>'"),
    ),
    # losses
    **_rows(
        ValueError,
        loss_kind=(lambda: LossSpec("focal"), "unknown loss kind 'focal'"),
        loss_batch=(lambda: batch_loss(np.empty((0, 3)), Targets([], [], []), LossSpec()),
                    "empty batch"),
        loss_targets=(lambda: batch_loss(np.zeros((3, 2)), Targets([0, 1], [1, 0], [0.5, 0.5]),
                                         LossSpec()),
                      "one target per sample required, got 2 for 3"),
        loss_class=(lambda: batch_loss(np.zeros((1, 3)), Targets([0], [3], [0.5]), LossSpec()),
                    "class index 3 out of range for 3 logits"),
    ),
    # mixers
    **_rows(
        ValueError,
        lambda_ratio=(lambda: Lambda(2.0), "lam must lie in [0, 1], got 2.0"),
        unknown_policy=(lambda: MixConfig("mixup"), "unknown mixing policy 'mixup'"),
        mix_alpha=(lambda: MixConfig(alpha=0.0), "alpha must be positive, got 0.0"),
        mixed_target_a=(lambda: MixedTarget(-1, 0, Lambda(0.5)),
                        "class_a must be nonnegative, got -1"),
        mixed_target_class=(lambda: MixedTarget(0, -1, Lambda(0.5)),
                            "class_b must be nonnegative, got -1"),
        targets_whole=(lambda: Targets([0.5], [1], [0.5]), "class index 0.5 is not a whole number"),
        targets_whole_nan=(lambda: Targets([0, 1], [1.0, np.nan], [0.5, 0.5]),
                           "class index nan is not a whole number"),
        targets_sign=(lambda: Targets([0], [-1], [0.5]),
                      "class indices must be nonnegative, got -1"),
        targets_shape=(lambda: Targets([0, 1], [1], [0.5, 0.5]),
                       "a, b and lam must be 1-D arrays of one length"),
        targets_ratio=((lambda: Targets([0], [1], [1.5]), lambda: Targets([0], [1], [np.nan])),
                       "mixing ratios must lie in [0, 1]"),
        mixed_batch_empty=(lambda: MixedBatch(np.empty((0, 2)), Targets([], [], []), np.arange(0)),
                           "empty batch"),
        pairing=(lambda: MixedBatch(np.zeros((2, 2)), Targets([0, 1], [1, 0], [1, 1]),
                                    np.array([0, 7])),
                 "pairing must be a permutation of the batch indices"),
        cut_dims=(lambda: sample_cutmix_boxes(0, 28, 0.5, 1, _rng()),
                  "image dimensions must be at least 1"),
        cut_ratio=(lambda: sample_cutmix_boxes(8, 8, np.nan, 1, _rng()),
                   "lam must be a finite number, got nan"),
        cut_ratio_bound=(lambda: sample_cutmix_boxes(8, 8, -0.5, 1, _rng()),
                         "lam must lie in [0, 1], got -0.5"),
        resize_dims=(lambda: sample_resizemix_boxes(28, 0, 0.5, _rng()),
                     "image dimensions must be at least 1"),
        paste_shapes=(lambda: paste_boxes(np.ones((3, 4, 4)), np.ones((1, 4, 4)), *[[0]] * 4),
                      "shape mismatch: (3, 4, 4) vs (1, 4, 4)"),
        paste_partner_vector=(lambda: paste_boxes(np.ones((3, 4, 4)), np.ones(4), *[[0]] * 4),
                              "shape mismatch: (3, 4, 4) vs (4,)"),
        paste_dims=(lambda: paste_boxes(np.ones((1, 4, 4)), np.ones((1, 5, 5)), *[[0]] * 4),
                    "shape mismatch: (1, 4, 4) vs (1, 5, 5)"),
        resize_shapes=(lambda: paste_resized(np.ones((3, 4, 4)), np.ones((3, 5, 4)), 0, 1, 0, 1),
                       "shape mismatch: (3, 4, 4) vs (3, 5, 4)"),
        paste_vectors=(lambda: paste_boxes(np.ones((3, 4)), np.ones((3, 4)), *[[0]] * 4),
                       f"paste: {_SHAPE} (3, 4)"),
        paste_boxes=(lambda: paste_boxes(np.ones((3, 4, 4)), np.ones((3, 4, 4)), *[[0, 0]] * 4),
                     "2 boxes for 3 images: need 1 or 3"),
        mix_vectors=(lambda: mix_batch(np.zeros((4, 5)), np.zeros(4), MixConfig("cutmix"), _rng()),
                     f"cutmix: {_SHAPE} (4, 5)"),
        mix_labels=(lambda: mix_batch(np.zeros((4, 2)), np.zeros(3), MixConfig(), _rng()),
                    "one target per sample required, got 3 for 4"),
        mix_empty=(lambda: mix_batch(np.empty((0, 4, 4)), np.empty(0), MixConfig(), _rng()),
                   "empty batch"),
    ),
    # network
    **_rows(
        ValueError,
        activation=(lambda: ConvSpec(1, 8, activation="tanh"),
                    "activation must be one of ('relu', 'none'), got 'tanh'"),
        dense_activation=(lambda: DenseSpec(2, 3, "sigmoid"),
                          "activation must be one of ('relu', 'none'), got 'sigmoid'"),
        dense_size=(lambda: DenseSpec(0, 3), "in_dim must be positive, got 0"),
        dense_out=(lambda: DenseSpec(3, 0), "out_dim must be positive, got 0"),
        conv_in=(lambda: ConvSpec(0, 8), "in_ch must be positive, got 0"),
        conv_out=(lambda: ConvSpec(1, 0), "out_ch must be positive, got 0"),
        conv_size=(lambda: ConvSpec(1, 8, ksize=0), "ksize must be positive, got 0"),
        conv_pad=(lambda: ConvSpec(1, 2, pad=-1), "pad must be nonnegative, got -1"),
        pool_size=(lambda: PoolSpec(0), "size must be positive, got 0"),
        min_lr_above_base=(lambda: TrainConfig(base_lr=0.01, min_lr=0.1),
                           "min_lr must not exceed base_lr"),
        # Inference runs at least one chunk, so empty input reaches forward's check.
        empty_forward=((lambda: top1_accuracy(_mlp(), _vectors(0)),
                        lambda: predict_logits(_mlp(), np.empty((0, 2))),
                        lambda: confidence_histogram(_mlp(), _vectors(0), 5),
                        lambda: fgsm_attack(_mlp(), _vectors(0), AttackConfig()),
                        lambda: predict_logits(init_params(make_conv(1, 3), _rng()),
                                               np.empty((0, 28, 28)))),
                       "no rows to run through the network: the batch is empty"),
        mix_site=(lambda: forward(_mlp(), np.zeros((3, 2)), (5, 0.5, np.arange(3))),
                  "mix site 5 is not one of the ManifoldMix sites (0, 1)"),
        mix_pairing=((lambda: forward(_mlp(), np.zeros((3, 2)), (0, 0.5, np.array([1, 0]))),
                      lambda: forward(_mlp(), np.zeros((3, 2)), (1, 0.5, np.array([1, 0])))),
                     "mix pairing has 2 rows for a batch of 3"),
        backward_cache=(lambda: backward(init_params((DenseSpec(2, 2),), _rng()),
                                         forward(_mlp(), np.zeros((3, 2)))[1], np.zeros((3, 2))),
                        "cache does not match these parameters"),
        backward_rows=(lambda: (lambda net: backward(net, forward(net, np.zeros((3, 2)))[1],
                                                     np.zeros((5, 2))))(_mlp()),
                       "gradient batch does not match the cached forward"),
        empty_network=(lambda: forward(init_params((), _rng()), np.zeros((2, 3))),
                       "no layers to run: the network is empty"),
        conv_channels=(lambda: forward(init_params(make_conv(1, 3, (8, 8)), _rng()),
                                       np.zeros((2, 3, 8, 8))),
                       "layer 0 needs (1, H, W) rows, got shape (3, 8, 8)"),
        conv_rank=(lambda: forward(init_params(make_conv(1, 3, (8, 8)), _rng()), np.zeros((2, 64))),
                   "layer 0 needs (1, H, W) rows, got shape (64,)"),
        # Too short on one side; named before the dense layer, which cannot take it either.
        conv_kernel=(lambda: predict_logits(init_params(
            (ConvSpec(1, 2, ksize=5, pad=0), FlattenSpec(), DenseSpec(2, 2, "none")), _rng()),
            np.zeros((3, 1, 2, 6))), "layer 0: kernel 5 with pad 0 does not fit 2x6 maps"),
        conv_kernel_later=(lambda: forward(init_params(
            (ConvSpec(1, 2, ksize=3, pad=1), ConvSpec(2, 2, ksize=5, pad=1)), _rng()),
            np.zeros((2, 1, 2, 4))), "layer 1: kernel 5 with pad 1 does not fit 2x4 maps"),
        pool_rank=(lambda: forward(Parameters((PoolSpec(2),), [None], [None]), np.zeros((2, 8, 8))),
                   "layer 0 needs (C, H, W) rows, H and W divisible by 2, got (8, 8)"),
        # 16*7*7 after the second pool would still fit the dense layer of a 28x28 net.
        conv_dims=(lambda: make_conv(1, 3, (30, 30)),
                   "layer 3 needs (C, H, W) rows, H and W divisible by 2, got (16, 15, 15)"),
        forward_dims=(lambda: forward(init_params(make_conv(1, 3), _rng()), np.zeros((2, 30, 30))),
                      "layer 3 needs (C, H, W) rows, H and W divisible by 2, got (16, 15, 15)"),
        conv_dims_2x2=(lambda: make_conv(1, 3, (2, 2)),
                       "layer 3 needs (C, H, W) rows, H and W divisible by 2, got (16, 1, 1)"),
        dense_input=(lambda: forward(init_params(make_mlp(6, 5, 3), _rng()), np.zeros((2, 7))),
                     "layer 0 needs 6 inputs per row, got shape (7,)"),
        dense_width=((lambda: predict_logits(init_params(make_conv(1, 3), _rng()),
                                             np.zeros((4, 32, 32))), _cli_eval_32x32),
                     "layer 5 needs 784 inputs per row, got shape (1024,)"),
        top1_labels=(lambda: top1_accuracy(_mlp(), Dataset(np.eye(2), np.array([0, -1]), 2)),
                     "class indices must be nonnegative, got -1"),
        top1_fraction=(lambda: top1_accuracy(_mlp(), Dataset(np.eye(2), np.array([0.0, 0.5]), 2)),
                       "class index 0.5 is not a whole number"),
        schedule=(lambda: cosine_lr(1, 0, TrainConfig()), "step 1 beyond the schedule horizon 0"),
        empty_eval_set=(lambda: train_supervised(_vectors(), _vectors(0), make_mlp(2, 4, 2), None,
                                                 LossSpec(), TrainConfig()),
                        "empty evaluation set"),
        eval_labels=(lambda: train_supervised(_vectors(), Dataset(np.zeros((2, 2)), [0.5, 1.0], 2),
                                              make_mlp(2, 4, 2), None, LossSpec(), TrainConfig()),
                     "class index 0.5 is not a whole number"),
        empty_training_set=(lambda: train_supervised(_vectors(0), _vectors(), make_mlp(2, 4, 2),
                                                     None, LossSpec(), TrainConfig()),
                            "empty training set"),
    ),
    **_rows(
        CheckpointError,
        checkpoint_magic=(lambda: _load(b"NOPE" + bytes(32)), "not a DMX1 checkpoint (bad magic)"),
        # A file cut short within each read: the weights, then each header field.
        checkpoint_cut=(lambda: _reload(make_mlp(4, 3, 2), lambda raw: raw[:-9]),
                        "truncated checkpoint file"),
        cut_in_magic=(lambda: _load(b"DMX"), "truncated checkpoint file"),
        cut_in_arch_length=(lambda: _load(b"DMX1\0"), "truncated checkpoint file"),
        cut_in_arch=(lambda: _load(b"DMX1" + struct.pack("<I", 9) + b"dense"),
                     "truncated checkpoint file"),
        cut_in_count=(lambda: _load(_dmx(b"dense:3:2:none")[:-1]), "truncated checkpoint file"),
        cut_in_rank=(lambda: _load(_dmx(b"dense:3:2:none", 2)), "truncated checkpoint file"),
        cut_in_shape=(lambda: _load(_dmx(b"dense:3:2:none", 2, b"\2\3\0")),
                      "truncated checkpoint file"),
        checkpoint_layer=(lambda: _load(_dmx(b"lstm:3")), "unknown layer token 'lstm:3'"),
        checkpoint_fields=(lambda: _load(_dmx(b"dense:4")),
                           "malformed layer token 'dense:4': dense takes 3 fields, got 1"),
        checkpoint_token=(lambda: _load(_dmx(b"dense:0:3:none")),
                          "malformed layer token 'dense:0:3:none': in_dim must be positive, got 0"),
        checkpoint_count=(lambda: _load(_dmx(b"dense:3:2:none")),
                          "checkpoint arrays do not match the architecture"),
        checkpoint_shape=(lambda: _load(_dmx(b"dense:3:2:none", 2, struct.pack("<B2I", 2, 2, 3))),
                          "checkpoint shapes do not match the architecture"),
        checkpoint_trailing=(lambda: _reload(make_mlp(4, 3, 2), lambda raw: raw + b"junk"),
                             "trailing bytes after the checkpoint payload"),
        checkpoint_nan=(lambda: _reload(make_mlp(4, 3, 2),
                                        lambda raw: raw[:-8] + struct.pack("<d", np.nan)),
                        "checkpoint holds non-finite weights"),
    ),
    # semisup
    **_rows(
        ValueError,
        labeled_batch=(lambda: SSLConfig(labeled_batch=-1),
                       "labeled_batch must be nonnegative, got -1"),
        ssl_alpha=(lambda: SSLConfig(alpha=0.0), "alpha must be positive, got 0.0"),
        unlabeled_batch=(lambda: SSLConfig(unlabeled_batch=0),
                         "unlabeled_batch must be positive, got 0"),
        ssl_batch=(lambda: ssl_step(_mlp(), (np.empty((0, 2)), np.empty(0, int)), np.ones((3, 2)),
                                    SSLConfig(), _rng()),
                   "empty batch"),
        ssl_unlabeled=(lambda: ssl_step(_mlp(), (np.ones((3, 2)), np.zeros(3, int)),
                                        np.empty((0, 2)), SSLConfig(), _rng()),
                       "empty unlabeled batch"),
        ssl_rows=(lambda: ssl_step(_mlp(), (np.zeros((4, 2)), np.zeros(4, int)), np.zeros((5, 3)),
                                   SSLConfig(), _rng()),
                  "unlabeled rows (5, 3) unlike labeled rows (4, 2)"),
        ssl_label_sign=(lambda: ssl_step(_mlp(), (np.zeros((2, 2)), np.array([-1, 0])),
                                         np.ones((3, 2)), SSLConfig(), _rng()),
                        "class indices must be nonnegative, got -1"),
        ssl_labels=(lambda: ssl_step(_mlp(), (np.zeros((3, 2)), np.array([0, 1, 2])),
                                     np.ones((3, 2)), SSLConfig(), _rng()),
                    "class index 2 out of range for 2 logits"),
        labeled_class=(lambda: train_ssl(Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2),
                                         np.ones((3, 2)), _vectors(), make_mlp(2, 4, 2),
                                         SSLConfig(steps=5), TrainConfig()),
                       "class index 2 out of range for 2 logits"),
        labeled_missing=(lambda: train_ssl(Dataset(np.zeros((3, 2)), np.zeros(3, int), 2),
                                           np.ones((3, 2)), _vectors(), make_mlp(2, 4, 2),
                                           SSLConfig(steps=5), TrainConfig()),
                         "labeled set is missing classes [1]"),
        # An empty labeled set passes the label check and fails this one.
        ssl_eval_set=(lambda: train_ssl(_vectors(), np.ones((3, 2)), _vectors(0), make_mlp(2, 4, 2),
                                        SSLConfig(steps=5), TrainConfig()),
                      "empty evaluation set"),
        labeled_coverage=(lambda: train_ssl(_vectors(0), np.ones((3, 2)), _vectors(),
                                            make_mlp(2, 4, 2), SSLConfig(steps=5), TrainConfig()),
                          "labeled set is missing classes [0, 1]"),
    ),
}


def expect_faults(*names):
    """Run the calls of each named row in a scratch working directory: each
    raises exactly the row's error type and message."""
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.chdir(scratch)
        for name in names:
            error, calls, message = FAULTS[name]
            for call in calls:
                with pytest.raises(Exception) as caught:
                    call()
                assert (type(caught.value), str(caught.value)) == (error, message), name


def expect_case(name, *case):
    """:func:`expect_faults` of the row of ``case`` in the family ``name``."""
    expect_faults(case_name(name, *case))


# The byte fuzzers of the IDX and DMX1 loaders: each draws one mutation of a
# good file and asks the loader to read it.
MUTATIONS = {"op": st.sampled_from(["truncate", "flip", "append"]),
             "where": st.floats(0.0, 1.0), "byte": st.integers(1, 255)}
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate_file(path, op, where, byte):
    """Cut ``path`` at, xor ``byte`` into, or insert ``byte`` at the fraction
    ``where`` of its length."""
    raw = bytearray(Path(path).read_bytes())
    at = int(where * len(raw))
    if op == "truncate":
        raw = raw[:at]
    elif op == "flip":
        raw[min(at, len(raw) - 1)] ^= byte
    else:
        raw[at:at] = bytes([byte])
    Path(path).write_bytes(bytes(raw))
