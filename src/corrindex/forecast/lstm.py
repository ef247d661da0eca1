"""Gated recurrent core: parameters, batched forward pass, and exact BPTT.

Everything is plain numpy. The forward pass keeps per-step activations so the
backward pass can run the standard truncation-free backpropagation through
time. Shapes are batch-major: inputs are (batch, steps, features).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


# The forward pass runs the gates in the order i, f, o, g, so the three
# sigmoid gates form one contiguous slice. The permutation is its own inverse.
KERNEL_ORDER = [0, 1, 3, 2]


def lstm_forward_batch(
    p: LstmParams, x: np.ndarray, keep_steps: bool = True
) -> tuple[np.ndarray, dict]:
    """Run the recurrence over a (batch, steps, features) tensor.

    Hidden and cell states start at zero. The prediction is the dense readout
    of the final hidden state. Returns (predictions, cache) where the cache
    holds everything the backward pass needs: the input, the gate activations
    (steps, 4, batch, hidden) in `KERNEL_ORDER`, tanh of each new cell state,
    and the hidden and cell states (steps + 1, batch, hidden), state t being
    the one before step t. Forward-only callers pass `keep_steps=False`: the
    loop then reuses one gate slot and two state slots, and the cache cannot
    be used for a backward pass.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[2] != p.input_size:
        raise ValueError(
            f"input shape {x.shape} incompatible with input size {p.input_size}"
        )
    batch, steps, _ = x.shape
    hidden = p.hidden_size
    wx = p.wx.take(KERNEL_ORDER, axis=0)
    wh = p.wh.take(KERNEL_ORDER, axis=0)
    bias = p.b.take(KERNEL_ORDER, axis=0)[:, None, :]
    slots = steps if keep_steps else 1
    gates = np.empty((slots, 4, batch, hidden))
    tanh_c = np.empty((slots, batch, hidden))
    h = np.zeros((slots + 1, batch, hidden))
    c = np.zeros((slots + 1, batch, hidden))
    h_wh = np.empty((4, batch, hidden))
    i_g = np.empty((batch, hidden))
    for t in range(steps):
        a, tanh_c_t = gates[t % slots], tanh_c[t % slots]
        h_prev, c_prev = h[t % (slots + 1)], c[t % (slots + 1)]
        h_next, c_next = h[(t + 1) % (slots + 1)], c[(t + 1) % (slots + 1)]
        np.matmul(x[:, t, :], wx, out=a)
        a += np.matmul(h_prev, wh, out=h_wh)
        a += bias
        sig, gate_g = a[:3], a[3]
        np.negative(sig, out=sig)  # 1 / (1 + exp(-a)), in place
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        np.tanh(gate_g, out=gate_g)
        np.multiply(a[1], c_prev, out=c_next)  # c = f * c + i * g
        c_next += np.multiply(a[0], gate_g, out=i_g)
        np.tanh(c_next, out=tanh_c_t)
        np.multiply(a[2], tanh_c_t, out=h_next)  # h = o * tanh(c)
    pred = h[steps % (slots + 1)] @ p.w_out + p.b_out[0]
    return pred, {"x": x, "gates": gates, "tanh_c": tanh_c, "h": h, "c": c}


def lstm_backward_batch(
    p: LstmParams, cache: dict, dpred: np.ndarray, need_dx: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact gradients of a scalar loss given d(loss)/d(prediction).

    Returns (gradients in `arrays()` order, d(loss)/d(input)); the input
    gradient is skipped, and returned as None, when `need_dx` is false.
    """
    x, gates, tanh_c, h, c = (cache[k] for k in ("x", "gates", "tanh_c", "h", "c"))
    dpred = np.asarray(dpred, dtype=float)
    steps = x.shape[1]
    gate_i, gate_f, gate_o, gate_g = gates.swapaxes(0, 1)
    # Step-independent factors for all steps at once, in stored gate order:
    # 1 - i, 1 - f, 1 - g^2, 1 - o. The loop multiplies each step's slice, in
    # place, into that step's pre-activation gradients.
    da = gates.take(KERNEL_ORDER, axis=1)
    np.square(da[:, 2], out=da[:, 2])
    np.subtract(1.0, da, out=da)
    d_tanh_c = 1.0 - tanh_c**2

    gwx, gwh = np.zeros(p.wx.shape), np.zeros(p.wh.shape)
    wx_t, wh_t = p.wx.transpose(0, 2, 1), p.wh.transpose(0, 2, 1)
    dh = dpred[:, None] * p.w_out
    dc = np.zeros(dh.shape)
    dc_o = np.empty(dh.shape)
    # d(loss)/d(gate activation), times the activation for the sigmoid gates
    up = np.empty((4, *dh.shape))
    up_i, up_f, up_g, up_o = up
    up_if, gate_if = up[:2], gates[:, :2]
    dx = np.zeros(x.shape) if need_dx else None
    for t in range(steps - 1, -1, -1):
        np.multiply(dh, gate_o[t], out=dc_o)
        dc_o *= d_tanh_c[t]
        dc += dc_o
        np.multiply(dc, gate_g[t], out=up_i)
        np.multiply(dc, c[t], out=up_f)
        up_if *= gate_if[t]
        np.multiply(dc, gate_i[t], out=up_g)
        np.multiply(dh, tanh_c[t], out=up_o)
        up_o *= gate_o[t]
        da_t = da[t]
        da_t *= up
        gwx += x[:, t, :].T @ da_t
        gwh += h[t].T @ da_t
        if need_dx:
            np.add.reduce(da_t @ wx_t, axis=0, out=dx[:, t, :])
        np.add.reduce(da_t @ wh_t, axis=0, out=dh)
        dc *= gate_f[t]
    # the bias gradient sums each step's batch sum, latest step first
    gb = np.add.reduce(np.add.reduce(da, axis=2)[::-1], axis=0)
    grads = [gwx, gwh, gb, h[steps].T @ dpred, np.array([dpred.sum()])]
    return grads, dx
