"""1-D convolution over time with rectifier activation and max pooling.

As in `lstm`, parameters and inputs may carry leading run axes (`...`); each
run's results are bit-identical to running it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ConvParams:
    """K kernels of fixed width over all input channels, plus max-pool width.

    `kernels` is (..., n_kernels, width, features) and `bias` (..., n_kernels);
    pooling is non-overlapping (stride equals the window), with any odd tail
    step dropped.
    """

    kernels: np.ndarray
    bias: np.ndarray
    pool_width: int = 2

    def __post_init__(self):
        if self.kernels.ndim < 3:
            raise ValueError(f"kernels must be at least 3-D, got shape {self.kernels.shape}")
        if self.bias.shape != self.kernels.shape[:-2]:
            raise ValueError("bias must have one entry per kernel")
        if self.pool_width < 1:
            raise ValueError("pool width must be positive")
        if not (np.all(np.isfinite(self.kernels)) and np.all(np.isfinite(self.bias))):
            raise ValueError("parameters contain non-finite values")

    @property
    def n_kernels(self) -> int:
        return self.kernels.shape[-3]

    @property
    def width(self) -> int:
        return self.kernels.shape[-2]

    @property
    def input_size(self) -> int:
        return self.kernels.shape[-1]

    def arrays(self) -> list[np.ndarray]:
        return [self.kernels, self.bias]

    @classmethod
    def init(
        cls,
        input_size: int,
        n_kernels: int,
        rng: np.random.Generator,
        width: int = 3,
        pool_width: int = 2,
    ) -> "ConvParams":
        bound = 1.0 / np.sqrt(width * input_size)
        return cls(
            kernels=rng.uniform(-bound, bound, size=(n_kernels, width, input_size)),
            bias=rng.uniform(-bound, bound, size=(n_kernels,)),
            pool_width=pool_width,
        )


def conv_forward_batch(c: ConvParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Valid (no padding) convolution along time, ReLU, then max pooling.

    Input (..., batch, steps, features) must satisfy steps >= width + pool - 1
    so the pooled sequence is non-empty. Output is (..., batch, pooled, kernels).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 3 or x.shape[-1] != c.input_size:
        raise ValueError(f"input shape {x.shape} incompatible with {c.input_size} channels")
    batch, steps, _ = x.shape[-3:]
    runs = np.broadcast_shapes(x.shape[:-3], c.bias.shape[:-1])
    conv_len = steps - c.width + 1
    pooled = conv_len // c.pool_width
    if conv_len < 1 or pooled < 1:
        raise ValueError(
            f"sequence of {steps} steps too short for width {c.width} "
            f"and pool {c.pool_width}"
        )
    pre = np.broadcast_to(c.bias[..., None, None, :], (*runs, batch, conv_len, c.n_kernels)).copy()
    for d in range(c.width):
        pre += np.einsum("...btf,...kf->...btk", x[..., d : d + conv_len, :], c.kernels[..., d, :])
    activated = np.maximum(pre, 0.0)
    trimmed = activated[..., : pooled * c.pool_width, :].reshape(
        *runs, batch, pooled, c.pool_width, c.n_kernels
    )
    winners = trimmed.argmax(axis=-2)
    out = np.take_along_axis(trimmed, winners[..., None, :], axis=-2).squeeze(-2)
    cache = {"x": x, "pre": pre, "winners": winners, "pooled": pooled}
    return out, cache


def conv_backward_batch(c: ConvParams, cache: dict, dout: np.ndarray) -> list[np.ndarray]:
    """Gradients through pooling argmax and the rectifier mask: [d_kernels, d_bias].

    The convolution is the model's first layer, so no input gradient is formed.
    """
    x = cache["x"]
    pre = cache["pre"]
    winners = cache["winners"]
    pooled = cache["pooled"]
    *runs, batch, conv_len, n_k = pre.shape

    d_trimmed = np.zeros((*runs, batch, pooled, c.pool_width, n_k))
    np.put_along_axis(d_trimmed, winners[..., None, :], dout[..., None, :], axis=-2)
    d_act = np.zeros_like(pre)
    d_act[..., : pooled * c.pool_width, :] = d_trimmed.reshape(*runs, batch, pooled * c.pool_width, n_k)
    d_pre = d_act * (pre > 0)

    d_kernels = np.zeros_like(c.kernels)
    for d in range(c.width):
        window = x[..., d : d + conv_len, :]
        d_kernels[..., d, :] = np.einsum("...btk,...btf->...kf", d_pre, window)
    d_bias = d_pre.sum(axis=(-3, -2))
    return [d_kernels, d_bias]
