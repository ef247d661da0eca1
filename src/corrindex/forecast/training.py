"""Training loop: Adam updates, mean-squared-error loss, seeded determinism.

`train` can train several seeds at once, as one stack of models on a leading
run axis (see `lstm`): each numpy call then serves every run of the stack,
and each run's parameters and losses stay bit-identical to training it alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..config import TrainConfig
from .conv import ConvParams
from .lstm import LstmParams
from .models import MODEL_KINDS, Model

if TYPE_CHECKING:
    from ..dataset import WindowedDataset

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch where it happened."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch} (loss {loss!r})")
        self.epoch = epoch
        self.loss = loss


class AdamState:
    """First/second moment accumulators for all parameter arrays, kept flat.

    `step` runs each update ufunc once over the concatenated gradients, with
    the same float operations per element as a per-array Adam. The arrays of
    a stacked model simply carry their run axis into the flat vectors.
    """

    def __init__(self, arrays: list[np.ndarray]):
        self._shapes = [a.shape for a in arrays]
        self.m = np.zeros(sum(a.size for a in arrays))
        self.v = np.zeros_like(self.m)
        self.t = 0
        self._scratch = np.empty_like(self.m)
        self._update = np.empty_like(self.m)
        self._updates = self._split(self._update)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of `flat`, one shaped like each parameter array."""
        views, start = [], 0
        for shape in self._shapes:
            end = start + math.prod(shape)
            views.append(flat[start:end].reshape(shape))
            start = end
        return views

    def select(self, runs: np.ndarray) -> "AdamState":
        """The state of the runs at indices `runs` of a stacked model."""
        kept = AdamState([update[runs] for update in self._updates])
        kept.t = self.t
        for old, new in ((self.m, kept.m), (self.v, kept.v)):
            for source, target in zip(self._split(old), kept._split(new)):
                target[...] = source[runs]
        return kept

    def step(
        self, arrays: list[np.ndarray], grads: list[np.ndarray], learning_rate: float
    ) -> None:
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        m, v, g, u = self.m, self.v, self._scratch, self._update
        np.concatenate(grads, axis=None, out=g)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=u)
        v *= ADAM_BETA2
        np.square(g, out=g)
        g *= 1.0 - ADAM_BETA2
        v += g
        np.divide(v, correct2, out=g)  # g becomes the denominator
        np.sqrt(g, out=g)
        g += ADAM_EPS
        np.divide(m, correct1, out=u)
        u *= learning_rate
        u /= g
        for array, update in zip(arrays, self._updates):
            array -= update


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


def _mse(diff: np.ndarray) -> float | np.ndarray:
    """Mean square over the sample axis: a float, or one per run of a stack."""
    loss = np.mean(diff**2, axis=-1)
    return loss if loss.ndim else float(loss)


def batch_loss(model: Model, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Forward-only mean squared error over a batch (per run of a stack)."""
    pred, _ = model.forward_batch(x, keep_steps=False)
    return _mse(pred - np.asarray(y, dtype=float))


def backward_and_step(
    model: Model,
    batch: tuple[np.ndarray, np.ndarray],
    adam: AdamState,
    learning_rate: float,
) -> float | np.ndarray:
    """One gradient step on a batch, updating `model` in place; returns the
    batch loss (per run of a stack). If a loss is not finite, no run steps."""
    x, y = batch
    y = np.asarray(y, dtype=float)
    pred, cache = model.forward_batch(x)
    diff = pred - y
    loss = _mse(diff)
    if not np.isfinite(loss).all():
        return loss
    dpred = 2.0 * diff / y.shape[-1]
    grads = model.backward_batch(cache, dpred)
    adam.step(model.arrays(), grads, learning_rate)
    return loss


def train(
    model_spec: str,
    train_ds: WindowedDataset,
    cfg: TrainConfig,
    seeds: Sequence[int] | None = None,
) -> tuple[Model, list]:
    """Train a fresh model on the split; deterministic given (dataset, cfg, seed).

    Batch order reshuffles every epoch from the same seeded generator that
    initialized the parameters. Returns the model and the per-epoch mean
    training loss. Raises TrainingDiverged when a batch loss goes non-finite.

    With `seeds`, trains one model per seed (`cfg.seed` is then unused) as a
    stack on a leading run axis. Each seed has its own generator, init and
    batch order, and gathers its own batches. A run whose batch loss goes
    non-finite leaves the stack at that batch. Returns (the stacked model of
    the runs that completed, in seed order; per seed, its epoch losses or the
    TrainingDiverged that training it alone raises).
    """
    if train_ds.sample_count < 1:
        raise ValueError("training split is empty")
    stacked = seeds is not None
    rngs = [np.random.default_rng(seed) for seed in (seeds if stacked else [cfg.seed])]
    models = [build_model(model_spec, train_ds.feature_count, cfg, rng) for rng in rngs]
    model = Model.stack(models) if stacked else models[0]
    adam = AdamState(model.arrays())
    x_all, y_all = train_ds.X, train_ds.y
    n = train_ds.sample_count
    live = np.arange(len(rngs))  # seed index of each run in the stack
    outcomes: list = [[] for _ in rngs]
    with np.errstate(over="ignore"):  # a diverging run is caught by its loss
        for epoch in range(cfg.epochs):
            if live.size == 0:
                break
            orders = np.array([rngs[k].permutation(n) for k in live])
            orders = orders if stacked else orders[0]
            epoch_loss = np.zeros(orders.shape[:-1])
            for start in range(0, n, cfg.batch_size):
                idx = orders[..., start : start + cfg.batch_size]
                loss = backward_and_step(model, (x_all[idx], y_all[idx]), adam, cfg.learning_rate)
                bad = ~np.isfinite(loss)
                if bad.any():
                    if not stacked:
                        raise TrainingDiverged(epoch, loss)
                    for k, value in zip(live[bad], loss[bad]):
                        outcomes[k] = TrainingDiverged(epoch, float(value))
                    keep = np.flatnonzero(~bad)
                    live, orders, epoch_loss = live[keep], orders[keep], epoch_loss[keep]
                    model, adam = model.select(keep), adam.select(keep)
                    if live.size == 0:
                        break
                    # the runs left take the step the diverged ones held back
                    idx = orders[..., start : start + cfg.batch_size]
                    loss = backward_and_step(model, (x_all[idx], y_all[idx]), adam, cfg.learning_rate)
                epoch_loss += loss * idx.shape[-1]
            for k, value in zip(live, (epoch_loss / n).reshape(-1).tolist()):
                outcomes[k].append(value)
    return model, outcomes if stacked else outcomes[0]


def predict(model: Model, ds: WindowedDataset) -> np.ndarray:
    """One scalar per sample, in sample order, in scaled units; a row per run
    of a stacked model."""
    if ds.feature_count != model.n_features:
        raise ValueError(
            f"dataset has {ds.feature_count} features but model expects {model.n_features}"
        )
    pred, _ = model.forward_batch(ds.X, keep_steps=False)
    return pred
