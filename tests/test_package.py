"""Checks over the package as a whole: what its source imports and reads, and
how it reports bad input."""

import ast
import struct
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "demix").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "network.py", "evaluation.py"}
    assert {p.name for p in SCRIPTS} == {"claims.py", "rescale_curve.py"}


def _imports_outside(path, allowed):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in allowed]
    return outside


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert _imports_outside(path, ALLOWED) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_only_numpy_demix_and_the_standard_library(path):
    assert _imports_outside(path, ALLOWED | {"demix"}) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_reads_no_environment_variable(path):
    reads = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            reads.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in ENV_READERS]
    assert reads == []


def _raise_site(call):
    """``file:line`` of the statement that raised the ``ValueError`` of ``call``,
    with its message."""
    with pytest.raises(ValueError) as caught:
        call()
    tb = caught.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno}", str(caught.value)


def _bad_calls(tmp):
    from demix.config import DatasetSpec, ExperimentConfig, NetworkConfig
    from demix.data import Dataset, make_image_classes, make_synthetic
    from demix.evaluation import AttackConfig, make_hard_mixed_set, top1_accuracy
    from demix.experiment import run_experiment
    from demix.losses import LossSpec, batch_loss
    from demix.mixers import Lambda, MixConfig, MixedBatch, Targets, mix_batch, sample_cutmix_boxes
    from demix.network import DenseSpec, TrainConfig, init_params, make_conv
    from demix.semisup import SSLConfig, ssl_step

    nan, inf = float("nan"), float("inf")
    rng = np.random.default_rng(0)
    net = init_params((DenseSpec(2, 3, "none"),), rng)
    glyphs = Dataset(np.zeros((4, 8, 8)), np.arange(4) % 2, 2)
    conv_on_blobs = ExperimentConfig(
        dataset=DatasetSpec(source="blobs", size=20, val_size=10, num_classes=3),
        network=NetworkConfig(arch="conv"),
    )
    return {
        "must be a finite number": (
            lambda: TrainConfig(base_lr=nan),
            lambda: make_synthetic("blobs", 10, inf, 0),
            lambda: AttackConfig(inf),
        ),
        "num_classes must be at least 1": (
            lambda: make_synthetic("blobs", 10, 0.1, 0, num_classes=0),
            lambda: make_image_classes(4, num_classes=0),
        ),
        "lam must lie in [0, 1]": (
            lambda: Lambda(2.0),
            lambda: sample_cutmix_boxes(8, 8, -0.5, 1, rng),
            lambda: make_hard_mixed_set(glyphs, 2, rng, lam=2.0),
        ),
        "empty batch": (
            lambda: mix_batch(np.empty((0, 2)), np.empty(0, int), MixConfig(), rng),
            lambda: batch_loss(np.empty((0, 3)), Targets([], [], []), LossSpec()),
            lambda: MixedBatch(np.empty((0, 2)), Targets([], [], []), np.arange(0)),
            lambda: ssl_step(net, (np.empty((0, 2)), np.empty(0, int)), np.ones((3, 2)),
                             SSLConfig(), rng),
        ),
        "class indices must be nonnegative": (
            lambda: Targets([0, -1], [0, 1], [1.0, 1.0]),
            lambda: top1_accuracy(net, Dataset(np.eye(2), np.array([0, -1]), 3)),
            lambda: ssl_step(net, (np.eye(2), np.array([-1, 0])), np.ones((3, 2)),
                             SSLConfig(), rng),
        ),
        "conv architecture needs 2-D image inputs": (
            lambda: make_conv(1, 3, (2,)),
            lambda: run_experiment(conv_on_blobs, tmp / "run"),
        ),
    }


@pytest.mark.parametrize(
    "message",
    [
        "out of range for",
        "is not a whole number",
        "inputs must be images",
        "must {bound}, got {value!r}",
        "must be a finite number",
        "num_classes must be at least 1",
        "one target per sample required",
        "images must not be empty",
        "images must be finite",
        "lam must lie in [0, 1]",
        "empty batch",
        "class indices must be nonnegative",
        "mixing ratios must lie in [0, 1]",
        "activation must be one of",
        "conv architecture needs 2-D image inputs",
    ],
)
def test_each_input_check_raised_in_one_place(message, tmp_path):
    """A message is raised by one statement: the ``raise`` whose source holds
    it, or, for a message built by a helper, the one statement every bad call
    listed for it reaches (and no ``raise`` spells it out again)."""
    raises = []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Raise) and message in ast.get_source_segment(text, node):
                raises.append(f"{path.name}:{node.lineno}")
    for call in _bad_calls(tmp_path).get(message, ()):
        site, text = _raise_site(call)
        assert message in text
        raises.append(site)
    assert len(set(raises)) == 1, raises


def _message_template(node):
    """The message of ``raise E("...")`` or ``raise E(f"...")`` with ``{}`` for
    each placeholder; None for any other statement."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
        return None
    message = node.exc.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in message.values)
    return None


def test_no_two_raises_spell_out_one_message():
    """Each input fault has one ``raise``: a second check of the same fault
    goes through the first one's helper instead of repeating its message."""
    sites = defaultdict(list)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            template = _message_template(node)
            if template is not None:
                sites[template].append(f"{path.name}:{node.lineno}")
    assert {t: where for t, where in sites.items() if len(where) > 1} == {}


def _write_checkpoint_token(path, token):
    path.write_bytes(b"DMX1" + struct.pack("<I", len(token)) + token + struct.pack("<I", 0))
    return path


def _faults():
    from demix.config import DatasetSpec, ExperimentConfig, NetworkConfig
    from demix.data import Dataset, save_idx, stratified_take
    from demix.experiment import load_dataset, parse_dataset_arg, run_experiment
    from demix.losses import LossSpec
    from demix.mixers import Lambda, MixConfig, MixedTarget, sample_cutmix_boxes
    from demix.network import (
        ConvSpec, DenseSpec, PoolSpec, TrainConfig, load_checkpoint, make_conv, make_mlp,
        train_supervised,
    )

    vectors = Dataset(np.zeros((6, 2)), np.arange(6) % 2, 2)

    def idx_spec(tmp):
        save_idx(np.zeros((3, 4, 4)), np.array([0, 1, 0]), tmp / "i.idx", tmp / "l.idx")
        return DatasetSpec(source="idx", size=4, val_size=2, num_classes=2,
                           images=str(tmp / "i.idx"), labels=str(tmp / "l.idx"))

    blobs = DatasetSpec(source="blobs", size=20, val_size=10, num_classes=3)
    return {
        "unknown_arch": (lambda tmp: NetworkConfig(arch="rnn"), "unknown architecture 'rnn'"),
        "save_idx_length": (
            lambda tmp: save_idx(np.zeros((3, 4, 4)), np.zeros(2), tmp / "i", tmp / "l"),
            "images and labels must have equal length",
        ),
        "stratified_count": (
            lambda tmp: stratified_take(vectors, 1, 0), "need at least one sample per class"
        ),
        "stratified_class": (
            lambda tmp: stratified_take(Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 1]), 2), 4, 0),
            "class 1 has only 1 samples",
        ),
        "idx_too_small": (
            lambda tmp: load_dataset(idx_spec(tmp)), "IDX source has 3 samples, need 6"
        ),
        "conv_on_vectors": (
            lambda tmp: run_experiment(
                ExperimentConfig(dataset=blobs, network=NetworkConfig(arch="conv")), tmp / "run"
            ),
            "conv architecture needs 2-D image inputs, got shape (2,)",
        ),
        "idx_arg_without_labels": (
            lambda tmp: parse_dataset_arg("idx:images.idx"),
            "idx spec needs 'idx:<images>:<labels>'",
        ),
        "unknown_policy": (lambda tmp: MixConfig("mixup"), "unknown mixing policy 'mixup'"),
        "min_lr_above_base": (
            lambda tmp: TrainConfig(base_lr=0.01, min_lr=0.1), "min_lr must not exceed base_lr"
        ),
        "conv_dims": (
            lambda tmp: make_conv(1, 3, (30, 30)),
            "layer 3 needs (C, H, W) rows, H and W divisible by 2, got (16, 15, 15)",
        ),
        "conv_dims_2x2": (
            lambda tmp: make_conv(1, 3, (2, 2)),
            "layer 3 needs (C, H, W) rows, H and W divisible by 2, got (16, 1, 1)",
        ),
        "empty_training_set": (
            lambda tmp: train_supervised(
                vectors.subset([]), vectors, make_mlp(2, 4, 2), None, LossSpec(), TrainConfig()
            ),
            "empty training set",
        ),
        "dense_size": (lambda tmp: DenseSpec(0, 3), "in_dim must be positive, got 0"),
        "conv_size": (lambda tmp: ConvSpec(1, 8, ksize=0), "ksize must be positive, got 0"),
        "pool_size": (lambda tmp: PoolSpec(0), "size must be positive, got 0"),
        "activation": (
            lambda tmp: ConvSpec(1, 8, activation="tanh"),
            "activation must be one of ('relu', 'none'), got 'tanh'",
        ),
        "checkpoint_token": (
            lambda tmp: load_checkpoint(_write_checkpoint_token(tmp / "m.dmx", b"dense:0:3:none")),
            "malformed layer token 'dense:0:3:none': in_dim must be positive, got 0",
        ),
        "lambda_ratio": (lambda tmp: Lambda(2.0), "lam must lie in [0, 1], got 2.0"),
        "cut_ratio": (
            lambda tmp: sample_cutmix_boxes(8, 8, float("nan"), 1, np.random.default_rng(0)),
            "lam must be a finite number, got nan",
        ),
        "mixed_target_class": (
            lambda tmp: MixedTarget(0, -1, Lambda(0.5)), "class_b must be nonnegative, got -1"
        ),
    }


@pytest.mark.parametrize("fault", list(_faults()))
def test_fault_raises_value_error_naming_it(fault, tmp_path):
    call, message = _faults()[fault]
    with pytest.raises(ValueError) as caught:
        call(tmp_path)
    assert str(caught.value) == message
