"""Training loop: Adam updates, mean-squared-error loss, seeded determinism."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import WindowedDataset
from .conv import ConvParams
from .lstm import LstmParams
from .models import MODEL_KINDS, Model

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run and for multi-run protocols.

    `runs` only matters to multi-run evaluation; a single `train` call uses
    `seed` for init and batch order. Architecture sizes live here too so one
    object fingerprints a whole experiment.
    """

    epochs: int = 100
    runs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    hidden_size: int = 32
    kernels: int = 16
    kernel_width: int = 3
    pool_width: int = 2

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.hidden_size < 1 or self.kernels < 1:
            raise ValueError("hidden size and kernel count must be positive")


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch where it happened."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss {loss!r})")
        self.epoch = epoch
        self.loss = loss


class AdamState:
    """First/second moment accumulators, one pair per parameter array."""

    def __init__(self, arrays: list[np.ndarray]):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(
        self, arrays: list[np.ndarray], grads: list[np.ndarray], learning_rate: float
    ) -> None:
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        for array, grad, m, v in zip(arrays, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad**2
            array -= learning_rate * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def build_model(model_spec: str, n_features: int, cfg: TrainConfig, rng) -> Model:
    """Fresh model with seeded uniform init; each `init` fixes its own draw order."""
    if model_spec not in MODEL_KINDS:
        raise ValueError(f"unknown model spec {model_spec!r}, expected one of {MODEL_KINDS}")
    conv = None
    if model_spec == "cnn_lstm":
        conv = ConvParams.init(
            n_features, cfg.kernels, width=cfg.kernel_width, pool_width=cfg.pool_width, rng=rng
        )
    lstm_inputs = n_features if conv is None else conv.n_kernels
    return Model(LstmParams.init(lstm_inputs, cfg.hidden_size, rng), conv)


def batch_loss(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Forward-only mean squared error over a batch."""
    pred, _ = model.forward_batch(x, keep_steps=False)
    diff = pred - np.asarray(y, dtype=float)
    return float(np.mean(diff**2))


def backward_and_step(
    model: Model,
    batch: tuple[np.ndarray, np.ndarray],
    adam: AdamState,
    learning_rate: float,
) -> float:
    """One gradient step on a batch, updating `model` in place; returns the batch loss."""
    x, y = batch
    y = np.asarray(y, dtype=float)
    pred, cache = model.forward_batch(x)
    diff = pred - y
    loss = float(np.mean(diff**2))
    if not np.isfinite(loss):
        return loss
    dpred = 2.0 * diff / y.shape[0]
    grads = model.backward_batch(cache, dpred)
    adam.step(model.arrays(), grads, learning_rate)
    return loss


def train(
    model_spec: str, train_ds: WindowedDataset, cfg: TrainConfig
) -> tuple[Model, list[float]]:
    """Train a fresh model on the split; deterministic given (dataset, cfg, seed).

    Batch order reshuffles every epoch from the same seeded generator that
    initialized the parameters. Returns the model and the per-epoch mean
    training loss. Raises TrainingDiverged when a batch loss goes non-finite.
    """
    if train_ds.sample_count < 1:
        raise ValueError("training split is empty")
    rng = np.random.default_rng(cfg.seed)
    model = build_model(model_spec, train_ds.feature_count, cfg, rng)
    adam = AdamState(model.arrays())
    x_all, y_all = train_ds.X, train_ds.y
    n = train_ds.sample_count
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss = backward_and_step(model, (x_all[idx], y_all[idx]), adam, cfg.learning_rate)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, loss)
            epoch_loss += loss * idx.shape[0]
        losses.append(epoch_loss / n)
    return model, losses


def predict(model: Model, ds: WindowedDataset) -> np.ndarray:
    """One scalar per sample, in sample order, in scaled units."""
    if ds.feature_count != model.n_features:
        raise ValueError(
            f"dataset has {ds.feature_count} features but model expects {model.n_features}"
        )
    pred, _ = model.forward_batch(ds.X, keep_steps=False)
    return pred
