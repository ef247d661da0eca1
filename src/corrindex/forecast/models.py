"""The forecasting model: an LSTM with an optional convolution front end."""

from __future__ import annotations

import numpy as np

from .conv import ConvParams, conv_backward_batch, conv_forward_batch
from .lstm import LstmParams, lstm_backward_batch, lstm_forward_batch

MODEL_KINDS = ("lstm", "cnn_lstm")


class Model:
    """LSTM core; with `conv`, a convolution + pooling front end feeds it (CNN-LSTM).

    A stack of models of one kind and shape (`Model.stack`) carries a leading
    run axis on every parameter array; its passes take and give that axis too.
    """

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

    @classmethod
    def stack(cls, models: list["Model"]) -> "Model":
        """The models, of one kind and shape, stacked in order on a new run axis."""
        first = models[0]
        lstm = LstmParams(*map(np.stack, zip(*(m.lstm.arrays() for m in models))))
        if first.conv is None:
            return cls(lstm)
        conv_arrays = map(np.stack, zip(*(m.conv.arrays() for m in models)))
        return cls(lstm, ConvParams(*conv_arrays, first.conv.pool_width))

    def select(self, runs: np.ndarray) -> "Model":
        """The runs at indices `runs` of a stacked model, as a new stack."""
        lstm = LstmParams(*(a[runs] for a in self.lstm.arrays()))
        if self.conv is None:
            return Model(lstm)
        return Model(lstm, ConvParams(*(a[runs] for a in self.conv.arrays()), self.conv.pool_width))

    def forward_batch(self, x: np.ndarray, keep_steps: bool = True) -> tuple[np.ndarray, dict]:
        conv_cache = None
        if self.conv is not None:
            x, conv_cache = conv_forward_batch(self.conv, x)
        pred, lstm_cache = lstm_forward_batch(self.lstm, x, keep_steps)
        return pred, {"conv": conv_cache, "lstm": lstm_cache}

    def backward_batch(self, cache: dict, dpred: np.ndarray) -> list[np.ndarray]:
        # only a convolution front end needs the LSTM's input gradient
        lstm_grads, d_seq = lstm_backward_batch(self.lstm, cache["lstm"], dpred, self.conv is not None)
        if self.conv is None:
            return lstm_grads
        return conv_backward_batch(self.conv, cache["conv"], d_seq) + lstm_grads
