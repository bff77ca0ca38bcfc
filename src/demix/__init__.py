"""Decoupled-mixup objectives, static mixers, and a small training core."""

from .losses import (
    DMConfig,
    LossResult,
    LossSpec,
    RescaleParams,
    asymmetric_dm_loss,
    batch_loss,
    build_mixed_bce_targets,
    decoupled_softmax,
    dm_ce_loss,
    dm_regularizer,
    mbce_loss,
    mce_loss,
    rescale,
    softmax,
)
from .mixers import (
    Lambda,
    MixConfig,
    MixMask,
    MixedBatch,
    MixedTarget,
    Targets,
    apply_mask,
    asymmetric_pair,
    make_cutmix_mask,
    make_resizemix,
    mix_batch,
    mix_linear,
    sample_lambda,
)
from .network import (
    HiddenMixSpec,
    Parameters,
    TrainConfig,
    TrainingDiverged,
    backward,
    forward,
    forward_manifold_mix,
    load_checkpoint,
    make_conv,
    make_mlp,
    save_checkpoint,
    sgd_step,
    train_supervised,
)
from .semisup import PseudoLabel, SSLConfig, pseudo_label, ssl_step, train_ssl

__version__ = "0.1.0"
