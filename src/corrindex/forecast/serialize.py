"""Flat binary model format.

Layout: magic "IDXF", format version (u16 LE), model type (u16 LE, 0 = lstm,
1 = cnn_lstm), then five u32 LE header fields (hidden size, input features,
kernel count, kernel width, pool width; the conv fields are zero for a plain
LSTM), then every parameter array as little-endian float64 in this order:
conv kernels, conv bias (cnn_lstm only), then for each gate i, f, g, o its
wx, wh and b, then w_out and b_out. Round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .conv import ConvParams
from .lstm import LstmParams
from .models import Model

MAGIC = b"IDXF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHIIIII")
_MODEL_CODES = {"lstm": 0, "cnn_lstm": 1}


def _lstm_file_arrays(p: LstmParams) -> list[np.ndarray]:
    """The LSTM arrays in file order: per gate wx, wh, b, then the readout."""
    return [a for k in range(4) for a in (p.wx[k], p.wh[k], p.b[k])] + [p.w_out, p.b_out]


def save_model(model: Model, path: str | Path) -> None:
    if model.lstm.wx.ndim != 3:
        raise ValueError("save_model writes one model, not a stack of them")
    conv = model.conv
    front = (0, 0, 0) if conv is None else (conv.n_kernels, conv.width, conv.pool_width)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, _MODEL_CODES[model.kind], model.lstm.hidden_size,
        model.n_features, *front,
    )
    arrays = ([] if conv is None else conv.arrays()) + _lstm_file_arrays(model.lstm)
    with Path(path).open("wb") as handle:
        handle.write(header)
        for array in arrays:
            handle.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def load_model(path: str | Path) -> Model:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: file too short for a model header")
    magic, version, code, hidden, features, kernels, width, pool = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")

    offset = _HEADER.size

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        count = int(np.prod(shape))
        array = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        return array.reshape(shape).astype(float)

    def take_lstm(input_size: int) -> LstmParams:
        gates = [
            (take((input_size, hidden)), take((hidden, hidden)), take((hidden,)))
            for _ in range(4)
        ]
        wx, wh, b = (np.stack(blocks) for blocks in zip(*gates))
        return LstmParams(wx, wh, b, take((hidden,)), take((1,)))

    if code not in _MODEL_CODES.values():
        raise ValueError(f"{path}: unknown model type code {code}")
    conv = None
    if code == _MODEL_CODES["cnn_lstm"]:
        conv = ConvParams(take((kernels, width, features)), take((kernels,)), pool)
    model = Model(take_lstm(features if conv is None else kernels), conv)
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes after parameters")
    return model
