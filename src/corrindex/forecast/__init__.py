"""From-scratch recurrent and convolutional-recurrent forecasting models."""

from .conv import ConvParams, conv_backward_batch, conv_forward_batch
from .lstm import LstmParams, lstm_backward_batch, lstm_forward_batch
from .models import MODEL_KINDS, Model
from .serialize import load_model, save_model
from .training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    backward_and_step,
    batch_loss,
    build_model,
    predict,
    train,
)

__all__ = [
    "AdamState",
    "ConvParams",
    "LstmParams",
    "Model",
    "MODEL_KINDS",
    "TrainConfig",
    "TrainingDiverged",
    "backward_and_step",
    "batch_loss",
    "build_model",
    "conv_backward_batch",
    "conv_forward_batch",
    "load_model",
    "lstm_backward_batch",
    "lstm_forward_batch",
    "predict",
    "save_model",
    "train",
]
