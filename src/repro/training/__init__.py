"""Training runtime: shared loop, pluggable step strategies, histories."""

from .history import EpochRecord, History
from .losses import LossTerms, autoencoder_loss
from .parallel import ParallelTrainStep, ShardedTrainStep
from .strategies import (
    NonFiniteGradientError,
    NonFiniteLossError,
    SequentialTrainStep,
    TrainStep,
    clip_grad_norm,
)
from .trainer import (
    PAPER_CLASSICAL_LR,
    PAPER_QUANTUM_LR,
    TrainConfig,
    Trainer,
    evaluate_reconstruction,
)

__all__ = [
    "History",
    "EpochRecord",
    "LossTerms",
    "autoencoder_loss",
    "TrainConfig",
    "Trainer",
    "TrainStep",
    "SequentialTrainStep",
    "ShardedTrainStep",
    "ParallelTrainStep",
    "NonFiniteLossError",
    "NonFiniteGradientError",
    "clip_grad_norm",
    "evaluate_reconstruction",
    "PAPER_QUANTUM_LR",
    "PAPER_CLASSICAL_LR",
]
