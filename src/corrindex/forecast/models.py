"""The forecasting model: an LSTM with an optional convolution front end."""

from __future__ import annotations

import numpy as np

from .conv import ConvParams, conv_backward_batch, conv_forward_batch
from .lstm import LstmParams, lstm_backward_batch, lstm_forward_batch

MODEL_KINDS = ("lstm", "cnn_lstm")


class Model:
    """LSTM core; with `conv`, a convolution + pooling front end feeds it (CNN-LSTM)."""

    def __init__(self, lstm: LstmParams, conv: ConvParams | None = None):
        if conv is not None and lstm.input_size != conv.n_kernels:
            raise ValueError(
                f"recurrent input size {lstm.input_size} must equal "
                f"kernel count {conv.n_kernels}"
            )
        self.lstm = lstm
        self.conv = conv

    @property
    def kind(self) -> str:
        return "lstm" if self.conv is None else "cnn_lstm"

    @property
    def n_features(self) -> int:
        return self.lstm.input_size if self.conv is None else self.conv.input_size

    def arrays(self) -> list[np.ndarray]:
        front = [] if self.conv is None else self.conv.arrays()
        return front + self.lstm.arrays()

    def forward_batch(self, x: np.ndarray, keep_steps: bool = True) -> tuple[np.ndarray, dict]:
        conv_cache = None
        if self.conv is not None:
            x, conv_cache = conv_forward_batch(self.conv, x)
        pred, lstm_cache = lstm_forward_batch(self.lstm, x, keep_steps)
        return pred, {"conv": conv_cache, "lstm": lstm_cache}

    def backward_batch(self, cache: dict, dpred: np.ndarray) -> list[np.ndarray]:
        lstm_grads, d_seq = lstm_backward_batch(self.lstm, cache["lstm"], dpred)
        if self.conv is None:
            return lstm_grads
        conv_grads, _ = conv_backward_batch(self.conv, cache["conv"], d_seq)
        return conv_grads + lstm_grads
