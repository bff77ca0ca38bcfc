"""Bit-reproducibility guard for both training loops.

Each case trains a short run and pins a sha256 of the final parameter bytes
plus ``repr(log)``. A refactor of the loops must leave every digest as it
is: the same RNG streams in the same order, the same float operations and
the same log. The digests hold for one numpy build and BLAS; a different
one may round differently and needs them taken again.
"""

import hashlib

import numpy as np
import pytest

from demix import data as dd
from demix.losses import LossSpec
from demix.mixers import MixConfig
from demix.network import TrainConfig, make_conv, make_mlp, train_supervised
from demix.semisup import SSLConfig, train_ssl


def _digest(params, log) -> str:
    h = hashlib.sha256()
    for arr in params.arrays():
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(repr(log).encode())
    return h.hexdigest()


def _moons(n, seed):
    return dd.make_synthetic("two_moons", n, 0.1, seed)


def _glyphs():
    ds = dd.make_image_classes(60, num_classes=3, seed=4)
    return dd.split(ds, (40, 20), 0)


def supervised_plain_mce():
    train, val = _moons(90, 1), _moons(60, 2)
    cfg = TrainConfig(epochs=4, batch_size=32, seed=3)
    return train_supervised(train, val, make_mlp(2, 16, 2), None, LossSpec("mce"), cfg)


def mlp_cutmix_dm_ce():
    train, val = _glyphs()
    cfg = TrainConfig(epochs=3, batch_size=16, seed=5)
    return train_supervised(
        train, val, make_mlp(784, 16, 3), MixConfig("cutmix", 0.2), LossSpec("dm_ce"), cfg
    )


def mlp_cutmix_dm_ce_wide():
    # 784x64 = 50176 floats: wider than one sgd_step row block, so the
    # update crosses a block boundary (512 + 272 rows).
    train, val = _glyphs()
    cfg = TrainConfig(epochs=2, batch_size=16, seed=12)
    return train_supervised(
        train, val, make_mlp(784, 64, 3), MixConfig("cutmix", 0.2), LossSpec("dm_ce"), cfg
    )


def mlp_manifold_dm_ce():
    train, val = _glyphs()
    cfg = TrainConfig(epochs=3, batch_size=16, seed=6)
    return train_supervised(
        train, val, make_mlp(784, 16, 3), MixConfig("manifold", 0.4), LossSpec("dm_ce"), cfg
    )


def conv_cutmix_dm_ce():
    train, val = _glyphs()
    cfg = TrainConfig(base_lr=0.05, epochs=2, batch_size=20, seed=7)
    return train_supervised(
        train, val, make_conv(1, 3), MixConfig("cutmix", 0.2), LossSpec("dm_ce"), cfg
    )


def conv_manifold_dm_ce():
    # Seed 13 draws sites 0, 4, 2, 2: the input and both pools' outputs.
    train, val = _glyphs()
    cfg = TrainConfig(base_lr=0.05, epochs=2, batch_size=20, seed=13)
    return train_supervised(
        train, val, make_conv(1, 3), MixConfig("manifold", 0.4), LossSpec("dm_ce"), cfg
    )


def ssl_asymmetric_eta():
    train, test = _moons(120, 5), _moons(80, 6)
    labeled, rest = dd.stratified_take(train, 10, seed=0)
    cfg = SSLConfig(tau=0.7, eta=0.1, steps=40, asymmetric_mixing=True,
                    unlabeled_batch=16, eval_interval=10)
    tcfg = TrainConfig(base_lr=0.2, seed=8)
    return train_ssl(labeled, rest.x, test, make_mlp(2, 16, 2), cfg, tcfg)


def ssl_plain_pseudo_label():
    train, test = _moons(120, 5), _moons(80, 6)
    labeled, rest = dd.stratified_take(train, 10, seed=0)
    cfg = SSLConfig(tau=0.7, eta=0.0, steps=40, asymmetric_mixing=False,
                    unlabeled_batch=16, eval_interval=10)
    tcfg = TrainConfig(base_lr=0.2, seed=10)
    return train_ssl(labeled, rest.x, test, make_mlp(2, 16, 2), cfg, tcfg)


def ssl_some_steps_accept_none():
    # tau = 0.995 leaves 14 of the 40 steps with no accepted row.
    train, test = _moons(120, 5), _moons(80, 6)
    labeled, rest = dd.stratified_take(train, 10, seed=0)
    cfg = SSLConfig(tau=0.995, eta=0.1, steps=40, asymmetric_mixing=True,
                    unlabeled_batch=16, eval_interval=10)
    tcfg = TrainConfig(base_lr=0.2, seed=11)
    return train_ssl(labeled, rest.x, test, make_mlp(2, 16, 2), cfg, tcfg)


def ssl_empty_pool():
    train, test = _moons(60, 5), _moons(80, 6)
    cfg = SSLConfig(steps=12, labeled_batch=20, eval_interval=3)
    tcfg = TrainConfig(base_lr=0.1, seed=9)
    return train_ssl(train, np.empty((0, 2)), test, make_mlp(2, 16, 2), cfg, tcfg)


GUARD_DIGESTS = {
    supervised_plain_mce: (
        "2dd139e4b2d6d78ae35056bd62042e80"
        "487917832d2303a0b597d87e3419cffd"
    ),
    mlp_cutmix_dm_ce: (
        "d04fd0c5dd9b7b9e0c15dd3645e26bbc"
        "962b6d040616689b2af74f740d19d6d3"
    ),
    mlp_cutmix_dm_ce_wide: (
        "74ef936480a6caab4c73799bf58b9bc2"
        "7082f43fda310a54a589e76da00b5b7c"
    ),
    mlp_manifold_dm_ce: (
        "c19b29b23c480d175872a610df67f86d"
        "cf2eee4ca75e1b471793876729d86668"
    ),
    conv_cutmix_dm_ce: (
        "ba3ac40dae4ea261eeaa7493de21bff4"
        "b7e1ebdf287d72e57cf705cc58b39276"
    ),
    conv_manifold_dm_ce: (
        "7291544c946e18822e4092371ab63749"
        "e998e88c7e29b5c30f689c9684aea381"
    ),
    ssl_asymmetric_eta: (
        "fabbd87963e6467978afbf8728346bab"
        "a8e7fd8a2e5ccebcad39b7d374a49b22"
    ),
    ssl_plain_pseudo_label: (
        "369b267e4c58a37ca67d96385a105760"
        "4c01feefcf2d3d46e2dc19ae2a1d8de9"
    ),
    ssl_some_steps_accept_none: (
        "ad260a33e62731d8e5aacc3f27d21fcb"
        "e139430aa717bd1417997dfa37de1241"
    ),
    ssl_empty_pool: (
        "d15d7c392f7da523e1829e6faadeebe6"
        "c99d80f59a651c153c1449342356dd17"
    ),
}


@pytest.mark.parametrize("run", list(GUARD_DIGESTS), ids=lambda f: f.__name__)
def test_final_parameters_and_log_unchanged(run):
    assert _digest(*run()) == GUARD_DIGESTS[run]
