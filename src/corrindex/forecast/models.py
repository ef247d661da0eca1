"""Model wrappers tying the convolution front end and the recurrent core together."""

from __future__ import annotations

import numpy as np

from .conv import ConvParams, conv_backward_batch, conv_forward_batch
from .lstm import LstmParams, lstm_backward_batch, lstm_forward_batch

MODEL_KINDS = ("lstm", "cnn_lstm")


class LstmModel:
    kind = "lstm"

    def __init__(self, params: LstmParams):
        self.params = params

    @property
    def n_features(self) -> int:
        return self.params.input_size

    def arrays(self) -> list[np.ndarray]:
        return self.params.arrays()

    def forward_batch(self, x: np.ndarray, keep_steps: bool = True) -> tuple[np.ndarray, dict]:
        return lstm_forward_batch(self.params, x, keep_steps)

    def backward_batch(self, cache: dict, dpred: np.ndarray) -> list[np.ndarray]:
        grads, _ = lstm_backward_batch(self.params, cache, dpred)
        return grads


class CnnLstmModel:
    """Convolution + pooling front end whose output sequence feeds the LSTM."""

    kind = "cnn_lstm"

    def __init__(self, conv: ConvParams, lstm: LstmParams):
        if lstm.input_size != conv.n_kernels:
            raise ValueError(
                f"recurrent input size {lstm.input_size} must equal "
                f"kernel count {conv.n_kernels}"
            )
        self.conv = conv
        self.lstm = lstm

    @property
    def n_features(self) -> int:
        return self.conv.input_size

    def arrays(self) -> list[np.ndarray]:
        return self.conv.arrays() + self.lstm.arrays()

    def forward_batch(self, x: np.ndarray, keep_steps: bool = True) -> tuple[np.ndarray, dict]:
        pooled, conv_cache = conv_forward_batch(self.conv, x)
        pred, lstm_cache = lstm_forward_batch(self.lstm, pooled, keep_steps)
        return pred, {"conv": conv_cache, "lstm": lstm_cache}

    def backward_batch(self, cache: dict, dpred: np.ndarray) -> list[np.ndarray]:
        lstm_grads, d_pooled = lstm_backward_batch(self.lstm, cache["lstm"], dpred)
        conv_grads, _ = conv_backward_batch(self.conv, cache["conv"], d_pooled)
        return conv_grads + lstm_grads


Model = LstmModel | CnnLstmModel

