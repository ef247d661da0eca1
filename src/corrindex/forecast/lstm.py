"""Gated recurrent core: parameters, batched forward pass, and exact BPTT.

Everything is plain numpy. The forward pass keeps per-step activations so the
backward pass can run the standard truncation-free backpropagation through
time. Shapes are batch-major: inputs are (batch, steps, features).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LstmParams:
    """Gate-stacked input / recurrent weights and biases, plus the readout.

    The leading axis of wx (4, features, hidden), wh (4, hidden, hidden) and
    b (4, hidden) is the gate, in the order i, f, g, o. The dense readout
    (w_out, b_out) maps the final hidden state to one scalar. Field order is
    the parameter order of `arrays()`, of the gradients and of the optimizer.
    """

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        if self.wx.ndim != 3 or self.wx.shape[0] != 4:
            raise ValueError(f"wx must have shape (4, features, hidden), got {self.wx.shape}")
        _, f, h = self.wx.shape
        expected = {"wh": (4, h, h), "b": (4, h), "w_out": (h,), "b_out": (1,)}
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
        if not all(np.all(np.isfinite(a)) for a in self.arrays()):
            raise ValueError("parameters contain non-finite values")

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.wx.shape[2]

    def arrays(self) -> list[np.ndarray]:
        return [self.wx, self.wh, self.b, self.w_out, self.b_out]

    @classmethod
    def init(cls, input_size: int, hidden_size: int, rng: np.random.Generator) -> "LstmParams":
        """Seeded uniform init in +-1/sqrt(fan_in) per array.

        Draws gate by gate (wx, wh, b of each), then the readout.
        """

        def uniform(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
            bound = 1.0 / np.sqrt(max(1, fan_in))
            return rng.uniform(-bound, bound, size=shape)

        wx = np.empty((4, input_size, hidden_size))
        wh = np.empty((4, hidden_size, hidden_size))
        b = np.empty((4, hidden_size))
        for k in range(4):
            wx[k] = uniform(wx.shape[1:], input_size)
            wh[k] = uniform(wh.shape[1:], hidden_size)
            b[k] = uniform(b.shape[1:], hidden_size)
        w_out = uniform((hidden_size,), hidden_size)
        return cls(wx, wh, b, w_out, uniform((1,), hidden_size))


def lstm_forward_batch(
    p: LstmParams, x: np.ndarray, keep_steps: bool = True
) -> tuple[np.ndarray, dict]:
    """Run the recurrence over a (batch, steps, features) tensor.

    Hidden and cell states start at zero. The prediction is the dense readout
    of the final hidden state. Returns (predictions, cache) where the cache
    holds everything the backward pass needs. Forward-only callers pass
    `keep_steps=False`: the per-step states are then dropped as the loop
    goes, and the cache cannot be used for a backward pass.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != p.input_size:
        raise ValueError(
            f"input shape {x.shape} incompatible with input size {p.input_size}"
        )
    batch, steps, _ = x.shape
    h = np.zeros((batch, p.hidden_size))
    c = np.zeros((batch, p.hidden_size))
    bias = p.b[:, None, :]
    step_cache = []
    for t in range(steps):
        x_t = x[:, t, :]
        a = x_t @ p.wx + h @ p.wh + bias
        gate_i, gate_f, gate_o = sigmoid(a[[0, 1, 3]])
        gate_g = np.tanh(a[2])
        c_next = gate_f * c + gate_i * gate_g
        tanh_c = np.tanh(c_next)
        h_next = gate_o * tanh_c
        if keep_steps:
            step_cache.append((x_t, h, c, gate_i, gate_f, gate_g, gate_o, tanh_c))
        h, c = h_next, c_next
    pred = h @ p.w_out + p.b_out[0]
    return pred, {"steps": step_cache, "h_final": h, "input_shape": x.shape}


def lstm_backward_batch(
    p: LstmParams, cache: dict, dpred: np.ndarray, need_dx: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact gradients of a scalar loss given d(loss)/d(prediction).

    Returns (gradients in `arrays()` order, d(loss)/d(input)); the input
    gradient is skipped, and returned as None, when `need_dx` is false.
    """
    steps = cache["steps"]
    dpred = np.asarray(dpred, dtype=float)

    gwx, gwh, gb = np.zeros_like(p.wx), np.zeros_like(p.wh), np.zeros_like(p.b)
    wx_t, wh_t = p.wx.transpose(0, 2, 1), p.wh.transpose(0, 2, 1)
    dh = np.outer(dpred, p.w_out)
    dc = np.zeros_like(dh)
    da = np.empty((4, *dh.shape))  # gate pre-activation gradients, refilled each step
    da_i, da_f, da_g, da_o = da
    dx = np.zeros(cache["input_shape"]) if need_dx else None
    for t in range(len(steps) - 1, -1, -1):
        x_t, h_prev, c_prev, gate_i, gate_f, gate_g, gate_o, tanh_c = steps[t]
        dc = dc + dh * gate_o * (1.0 - tanh_c**2)
        np.multiply(dc, gate_g, out=da_i)
        da_i *= gate_i
        da_i *= 1.0 - gate_i
        np.multiply(dc, c_prev, out=da_f)
        da_f *= gate_f
        da_f *= 1.0 - gate_f
        np.multiply(dc, gate_i, out=da_g)
        da_g *= 1.0 - gate_g**2
        np.multiply(dh, tanh_c, out=da_o)
        da_o *= gate_o
        da_o *= 1.0 - gate_o
        gwx += x_t.T @ da
        gwh += h_prev.T @ da
        gb += da.sum(axis=1)
        if need_dx:
            dx[:, t, :] = (da @ wx_t).sum(axis=0)
        dh = (da @ wh_t).sum(axis=0)
        dc = dc * gate_f
    grads = [gwx, gwh, gb, cache["h_final"].T @ dpred, np.array([dpred.sum()])]
    return grads, dx
