"""Decoupled-mixup objectives, static mixers, and a small training core."""

from .config import ConfigError
from .losses import (
    DMConfig,
    LossResult,
    LossSpec,
    RescaleParams,
    batch_loss,
    rescale,
    softmax,
)
from .mixers import (
    Lambda,
    MixConfig,
    MixedBatch,
    MixedTarget,
    Targets,
    mix_batch,
)
from .network import (
    CheckpointError,
    Parameters,
    TrainConfig,
    TrainingDiverged,
    backward,
    forward,
    load_checkpoint,
    make_conv,
    make_mlp,
    save_checkpoint,
    sgd_step,
    train_supervised,
)
from .semisup import SSLConfig, ssl_step, train_ssl

__version__ = "0.1.0"
