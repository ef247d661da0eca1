from __future__ import annotations

import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diverge_seeds
from corrindex.dataset import make_windows
from corrindex.forecast import training
from corrindex.forecast.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from corrindex.forecast import (
    MODEL_KINDS,
    AdamState,
    ConvParams,
    LstmParams,
    Model,
    TrainConfig,
    TrainingDiverged,
    backward_and_step,
    batch_loss,
    build_model,
    conv_backward_batch,
    conv_forward_batch,
    load_model,
    lstm_backward_batch,
    lstm_forward_batch,
    predict,
    save_model,
    train,
)


def small_lstm(rng, features=2, hidden=4) -> LstmParams:
    return LstmParams.init(features, hidden, rng)


def small_conv(rng, features=2, kernels=3) -> ConvParams:
    return ConvParams.init(features, kernels, rng=rng)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _reference_lstm_forward_batch(p: LstmParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Per-gate forward pass (one matmul pair per gate), the oracle for the stacked one."""
    (wx_i, wx_f, wx_g, wx_o), (wh_i, wh_f, wh_g, wh_o), (b_i, b_f, b_g, b_o) = p.wx, p.wh, p.b
    batch, steps, _ = x.shape
    h = np.zeros((batch, p.hidden_size))
    c = np.zeros((batch, p.hidden_size))
    step_cache = []
    for t in range(steps):
        x_t = x[:, t, :]
        gate_i = sigmoid(x_t @ wx_i + h @ wh_i + b_i)
        gate_f = sigmoid(x_t @ wx_f + h @ wh_f + b_f)
        gate_g = np.tanh(x_t @ wx_g + h @ wh_g + b_g)
        gate_o = sigmoid(x_t @ wx_o + h @ wh_o + b_o)
        c_next = gate_f * c + gate_i * gate_g
        tanh_c = np.tanh(c_next)
        h_next = gate_o * tanh_c
        step_cache.append((x_t, h, c, gate_i, gate_f, gate_g, gate_o, tanh_c))
        h, c = h_next, c_next
    pred = h @ p.w_out + p.b_out[0]
    return pred, {"steps": step_cache, "h_final": h, "input_shape": x.shape}


def _reference_lstm_backward_batch(
    p: LstmParams, cache: dict, dpred: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-gate BPTT; gradients keyed wx_i, wh_i, b_i, ..., w_out, b_out."""
    (wx_i, wx_f, wx_g, wx_o), (wh_i, wh_f, wh_g, wh_o) = p.wx, p.wh
    steps = cache["steps"]
    grads = {
        f"{name}_{gate}": np.zeros_like(getattr(p, name)[0])
        for gate in "ifgo"
        for name in ("wx", "wh", "b")
    }
    grads["w_out"] = cache["h_final"].T @ dpred
    grads["b_out"] = np.array([dpred.sum()])

    dh = np.outer(dpred, p.w_out)
    dc = np.zeros_like(dh)
    dx = np.zeros(cache["input_shape"])
    for t in range(len(steps) - 1, -1, -1):
        x_t, h_prev, c_prev, gate_i, gate_f, gate_g, gate_o, tanh_c = steps[t]
        d_o = dh * tanh_c
        da_o = d_o * gate_o * (1.0 - gate_o)
        dc = dc + dh * gate_o * (1.0 - tanh_c**2)
        da_i = (dc * gate_g) * gate_i * (1.0 - gate_i)
        da_f = (dc * c_prev) * gate_f * (1.0 - gate_f)
        da_g = (dc * gate_i) * (1.0 - gate_g**2)

        for gate, da in (("i", da_i), ("f", da_f), ("g", da_g), ("o", da_o)):
            grads[f"wx_{gate}"] += x_t.T @ da
            grads[f"wh_{gate}"] += h_prev.T @ da
            grads[f"b_{gate}"] += da.sum(axis=0)

        dx[:, t, :] = da_i @ wx_i.T + da_f @ wx_f.T + da_g @ wx_g.T + da_o @ wx_o.T
        dh = da_i @ wh_i.T + da_f @ wh_f.T + da_g @ wh_g.T + da_o @ wh_o.T
        dc = dc * gate_f
    return grads, dx


def _reference_adam_step(arrays, grads, ms, vs, t, learning_rate) -> None:
    """Per-array Adam step `t` (1-based), the oracle for the flat `AdamState`."""
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    for array, grad, m, v in zip(arrays, grads, ms, vs):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad**2
        array -= learning_rate * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


def _reference_train(model_spec, ds, cfg) -> tuple[Model, list[float]]:
    """`train` rebuilt from the per-gate LSTM oracles and the per-array Adam."""
    rng = np.random.default_rng(cfg.seed)
    model = build_model(model_spec, ds.feature_count, cfg, rng)
    p = model.lstm
    ms = [np.zeros_like(a) for a in model.arrays()]
    vs = [np.zeros_like(a) for a in model.arrays()]
    losses, t = [], 0
    for _ in range(cfg.epochs):
        order = rng.permutation(ds.sample_count)
        epoch_loss = 0.0
        for start in range(0, ds.sample_count, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, y = ds.X[idx], ds.y[idx]
            conv_cache = None
            if model.conv is not None:
                x, conv_cache = conv_forward_batch(model.conv, x)
            pred, cache = _reference_lstm_forward_batch(p, x)
            diff = pred - y
            loss = float(np.mean(diff**2))
            dpred = 2.0 * diff / y.shape[0]
            ref, dx = _reference_lstm_backward_batch(p, cache, dpred)
            grads = [np.stack([ref[f"{name}_{gate}"] for gate in "ifgo"]) for name in ("wx", "wh", "b")]
            grads += [ref["w_out"], ref["b_out"]]
            if model.conv is not None:
                grads = conv_backward_batch(model.conv, conv_cache, dx) + grads
            t += 1
            _reference_adam_step(model.arrays(), grads, ms, vs, t, cfg.learning_rate)
            epoch_loss += loss * idx.shape[0]
        losses.append(epoch_loss / ds.sample_count)
    return model, losses


# =============================================================================
# lstm forward
# =============================================================================


def test_lstm_zero_params_predict_zero():
    zeros = LstmParams(*(np.zeros(s) for s in [(4, 2, 4), (4, 4, 4), (4, 4), (4,), (1,)]))
    pred, _ = lstm_forward_batch(zeros, np.ones((5, 2))[None])
    assert pred == 0.0


def test_lstm_length_one_equals_single_cell_step(rng):
    p = small_lstm(rng)
    x = rng.normal(size=(1, 2))

    x0 = x[0]
    gate_i = sigmoid(x0 @ p.wx[0] + p.b[0])
    gate_f = sigmoid(x0 @ p.wx[1] + p.b[1])
    gate_g = np.tanh(x0 @ p.wx[2] + p.b[2])
    gate_o = sigmoid(x0 @ p.wx[3] + p.b[3])
    c = gate_f * 0.0 + gate_i * gate_g
    h = gate_o * np.tanh(c)
    expected = float(h @ p.w_out + p.b_out[0])

    pred, _ = lstm_forward_batch(p, x[None])
    assert pred == pytest.approx(expected, abs=1e-15)


def test_lstm_matches_step_by_step_oracle(rng):
    p = small_lstm(rng)
    x = rng.normal(size=(5, 2))

    h = np.zeros(4)
    c = np.zeros(4)
    for t in range(5):
        xt = x[t]
        gate_i = sigmoid(xt @ p.wx[0] + h @ p.wh[0] + p.b[0])
        gate_f = sigmoid(xt @ p.wx[1] + h @ p.wh[1] + p.b[1])
        gate_g = np.tanh(xt @ p.wx[2] + h @ p.wh[2] + p.b[2])
        gate_o = sigmoid(xt @ p.wx[3] + h @ p.wh[3] + p.b[3])
        c = gate_f * c + gate_i * gate_g
        h = gate_o * np.tanh(c)
    expected = float(h @ p.w_out + p.b_out[0])

    pred, _ = lstm_forward_batch(p, x[None])
    assert pred == pytest.approx(expected, abs=1e-12)


def test_lstm_shape_mismatch_rejected(rng):
    p = small_lstm(rng, features=3)
    with pytest.raises(ValueError, match="incompatible"):
        lstm_forward_batch(p, np.zeros((5, 2))[None])


def test_lstm_gate_ranges(rng):
    p = small_lstm(rng)
    x = rng.normal(0, 5, size=(8, 2))
    _, cache = lstm_forward_batch(p, x[None])
    for gate_i, gate_f, gate_o, gate_g in cache["gates"]:  # kernel order i, f, o, g
        for gate in (gate_i, gate_f, gate_o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(gate_g > -1.0) and np.all(gate_g < 1.0)


@given(
    batch=st.integers(1, 33),
    steps=st.integers(1, 12),
    features=st.integers(1, 16),
    hidden=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_lstm_gate_stacked_matches_per_gate_reference_bytes(batch, steps, features, hidden, seed):
    rng = np.random.default_rng(seed)
    p = LstmParams.init(features, hidden, rng)
    x = rng.normal(size=(batch, steps, features))
    dpred = rng.normal(size=batch)

    pred, cache = lstm_forward_batch(p, x)
    ref_pred, ref_cache = _reference_lstm_forward_batch(p, x)
    assert pred.tobytes() == ref_pred.tobytes()

    (gwx, gwh, gb, gw_out, gb_out), dx = lstm_backward_batch(p, cache, dpred)
    ref, ref_dx = _reference_lstm_backward_batch(p, ref_cache, dpred)
    for k, gate in enumerate("ifgo"):
        assert gwx[k].tobytes() == ref[f"wx_{gate}"].tobytes()
        assert gwh[k].tobytes() == ref[f"wh_{gate}"].tobytes()
        assert gb[k].tobytes() == ref[f"b_{gate}"].tobytes()
    assert gw_out.tobytes() == ref["w_out"].tobytes()
    assert gb_out.tobytes() == ref["b_out"].tobytes()
    assert dx.tobytes() == ref_dx.tobytes()

    grads, no_dx = lstm_backward_batch(p, cache, dpred, need_dx=False)
    assert no_dx is None
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in (gwx, gwh, gb, gw_out, gb_out)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lstm_saturated_g_gate_raises_no_warning(rng):
    """exp runs on the i, f and o pre-activations only, so a g pre-activation
    of magnitude 1e3 cannot overflow it."""
    p = small_lstm(rng, features=3, hidden=6)
    p.b[2] = np.where(np.arange(6) % 2, 1e3, -1e3)
    x = rng.normal(size=(5, 7, 3))
    dpred = rng.normal(size=5)
    pred, cache = lstm_forward_batch(p, x)
    ref_pred, ref_cache = _reference_lstm_forward_batch(p, x)
    assert pred.tobytes() == ref_pred.tobytes()
    assert np.all(np.abs(cache["gates"][:, 3]) == 1.0)
    (gwx, gwh, gb, _, _), dx = lstm_backward_batch(p, cache, dpred)
    ref, ref_dx = _reference_lstm_backward_batch(p, ref_cache, dpred)
    assert gb[2].tobytes() == ref["b_g"].tobytes()
    assert dx.tobytes() == ref_dx.tobytes()


def test_lstm_params_has_five_gate_stacked_arrays(rng):
    p = small_lstm(rng, features=3, hidden=5)
    assert [a.shape for a in p.arrays()] == [(4, 3, 5), (4, 5, 5), (4, 5), (5,), (1,)]
    conv = small_conv(rng, features=2, kernels=3)
    assert len(Model(small_lstm(rng, features=3), conv).arrays()) == 7
    with pytest.raises(ValueError, match="wh must have shape"):
        LstmParams(p.wx, p.wh[:3], p.b, p.w_out, p.b_out)


# =============================================================================
# conv forward
# =============================================================================


def test_conv_output_length_for_all_lookbacks(rng):
    c = small_conv(rng)
    for lookback in range(4, 25):
        out, _ = conv_forward_batch(c, rng.normal(size=(2, lookback, 2)))
        assert out.shape[1] == (lookback - 2) // 2


def test_conv_constant_signal_constant_output(rng):
    c = ConvParams(
        kernels=np.abs(rng.normal(size=(3, 3, 2))),
        bias=np.zeros(3),
    )
    x = np.full((1, 10, 2), 0.7)
    out, _ = conv_forward_batch(c, x)
    for k in range(3):
        expected = 0.7 * c.kernels[k].sum()  # nonnegative kernels, ReLU passes
        np.testing.assert_allclose(out[0, :, k], expected, atol=1e-12)


def test_conv_matches_nested_loop_oracle(rng):
    c = small_conv(rng)
    x = rng.normal(size=(2, 9, 2))
    out, _ = conv_forward_batch(c, x)

    conv_len = 9 - 3 + 1
    pre = np.zeros((2, conv_len, 3))
    for b in range(2):
        for t in range(conv_len):
            for k in range(3):
                acc = c.bias[k]
                for d in range(3):
                    for f in range(2):
                        acc += x[b, t + d, f] * c.kernels[k, d, f]
                pre[b, t, k] = acc
    relu = np.maximum(pre, 0.0)
    pooled = conv_len // 2
    expected = np.zeros((2, pooled, 3))
    for b in range(2):
        for s in range(pooled):
            for k in range(3):
                expected[b, s, k] = max(relu[b, 2 * s, k], relu[b, 2 * s + 1, k])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_conv_too_short_rejected(rng):
    conv = small_conv(rng)
    lstm = small_lstm(rng, features=3)
    with pytest.raises(ValueError, match="too short"):
        Model(lstm, conv).forward_batch(np.zeros((3, 2))[None])


def test_cnn_lstm_forward_composes(rng):
    conv = small_conv(rng)
    lstm = small_lstm(rng, features=3)
    x = rng.normal(size=(20, 2))
    pred, cache = Model(lstm, conv).forward_batch(x[None])
    assert np.isfinite(pred)
    assert len(cache["lstm"]["gates"]) == 9


# =============================================================================
# gradients
# =============================================================================


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def finite_difference_check(model, x, y, rng, n_samples=50, step=1e-5) -> float:
    """Max relative error between BPTT gradients and central differences."""
    pred, cache = model.forward_batch(x)
    dpred = 2.0 * (pred - y) / y.shape[0]
    grads = model.backward_batch(cache, dpred)
    arrays = model.arrays()

    worst = 0.0
    sizes = np.array([a.size for a in arrays])
    total = sizes.sum()
    for flat_index in rng.choice(total, size=min(n_samples, total), replace=False):
        arr_idx = int(np.searchsorted(np.cumsum(sizes), flat_index, side="right"))
        offset = int(flat_index - np.concatenate([[0], np.cumsum(sizes)])[arr_idx])
        array = arrays[arr_idx]
        original = array.flat[offset]

        array.flat[offset] = original + step
        loss_plus = batch_loss(model, x, y)
        array.flat[offset] = original - step
        loss_minus = batch_loss(model, x, y)
        array.flat[offset] = original

        numeric = (loss_plus - loss_minus) / (2 * step)
        analytic = grads[arr_idx].flat[offset]
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def test_lstm_gradients_match_finite_differences(rng):
    model = Model(small_lstm(rng))
    x = rng.normal(size=(4, 6, 2))
    y = rng.normal(size=4)
    assert finite_difference_check(model, x, y, rng) < 1e-4


def test_cnn_lstm_gradients_match_finite_differences(rng):
    model = Model(conv=small_conv(rng), lstm=small_lstm(rng, features=3))
    x = rng.normal(size=(4, 12, 2))
    y = rng.normal(size=4)
    assert finite_difference_check(model, x, y, rng) < 1e-4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    shapes=st.lists(
        st.lists(st.integers(1, 5), max_size=3).map(tuple), min_size=1, max_size=7
    ),
    steps=st.integers(1, 4),
    learning_rate=st.sampled_from([1e-3, 0.5, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_adam_flat_step_matches_per_array_reference_bytes(shapes, steps, learning_rate, seed):
    rng = np.random.default_rng(seed)

    def signed_zeros(a):
        """Set about a third of the entries to 0.0 and a third to -0.0."""
        pick = rng.integers(0, 3, size=a.shape)
        return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, a))

    arrays = [signed_zeros(rng.normal(size=shape)) for shape in shapes]
    ref_arrays = [a.copy() for a in arrays]
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    adam = AdamState(arrays)
    for t in range(1, steps + 1):
        grads = [signed_zeros(rng.normal(size=shape)) for shape in shapes]
        adam.step(arrays, grads, learning_rate)
        _reference_adam_step(ref_arrays, grads, ms, vs, t, learning_rate)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in ref_arrays]
    assert adam.m.tobytes() == np.concatenate([m.ravel() for m in ms]).tobytes()
    assert adam.v.tobytes() == np.concatenate([v.ravel() for v in vs]).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, features", [("lstm", 2), ("cnn_lstm", 3)])
def test_train_matches_reference_trainer_bytes(spec, features):
    rng = np.random.default_rng(17)
    ds = make_windows(rng.normal(size=(51, features)), lookback=9)  # 42 samples
    cfg = TrainConfig(epochs=2, batch_size=16, seed=5, hidden_size=5, kernels=3)
    assert ds.sample_count % cfg.batch_size != 0
    model, losses = train(spec, ds, cfg)
    ref_model, ref_losses = _reference_train(spec, ds, cfg)
    assert losses == ref_losses
    assert [a.tobytes() for a in model.arrays()] == [a.tobytes() for a in ref_model.arrays()]


def test_zero_learning_rate_leaves_params_unchanged(rng):
    model = Model(small_lstm(rng))
    before = [a.copy() for a in model.arrays()]
    adam = AdamState(model.arrays())
    x = rng.normal(size=(3, 5, 2))
    y = rng.normal(size=3)
    loss = backward_and_step(model, (x, y), adam, learning_rate=0.0)
    assert np.isfinite(loss)
    for a, b in zip(model.arrays(), before):
        assert np.array_equal(a, b)


def test_identical_models_update_identically(rng):
    seed_rng = lambda: np.random.default_rng(42)
    x = rng.normal(size=(4, 6, 2))
    y = rng.normal(size=4)

    results = []
    for _ in range(2):
        model = Model(LstmParams.init(2, 4, seed_rng()))
        adam = AdamState(model.arrays())
        backward_and_step(model, (x, y), adam, learning_rate=1e-3)
        results.append([a.copy() for a in model.arrays()])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


# =============================================================================
# train / predict
# =============================================================================


def tiny_dataset(rng, length=40, lookback=5, features=1):
    matrix = rng.normal(size=(length, features))
    return make_windows(matrix, lookback=lookback)


def test_train_one_epoch_zero_effect_with_tiny_lr(rng):
    ds = tiny_dataset(rng)
    cfg = TrainConfig(epochs=1, runs=1, learning_rate=1e-300, batch_size=8, seed=3)
    model, losses = train("lstm", ds, cfg)
    fresh = build_model("lstm", ds.feature_count, cfg, np.random.default_rng(3))
    for a, b in zip(model.arrays(), fresh.arrays()):
        np.testing.assert_allclose(a, b, atol=1e-290)
    assert len(losses) == 1


def test_train_deterministic_per_seed(rng):
    ds = tiny_dataset(rng)
    cfg = TrainConfig(epochs=3, runs=1, batch_size=8, seed=9, hidden_size=6)
    model_a, losses_a = train("lstm", ds, cfg)
    model_b, losses_b = train("lstm", ds, cfg)
    assert losses_a == losses_b
    for a, b in zip(model_a.arrays(), model_b.arrays()):
        assert np.array_equal(a, b)


def test_train_sine_wave_sanity():
    t = np.arange(300)
    signal = np.sin(2 * np.pi * t / 25.0)
    scaled = (signal + 1.0) / 2.0  # already in [0, 1]
    ds = make_windows(scaled, lookback=10)
    cfg = TrainConfig(epochs=100, runs=1, batch_size=32, seed=0, hidden_size=16)
    model, losses = train("lstm", ds, cfg)
    assert all(np.isfinite(losses))
    train_rmse = float(np.sqrt(np.mean((predict(model, ds) - ds.y) ** 2)))
    assert train_rmse < 0.05


def test_train_loss_curve_finite_on_synthetic(rng):
    ds = tiny_dataset(rng, length=80, lookback=8)
    cfg = TrainConfig(epochs=5, runs=1, batch_size=16, seed=1, hidden_size=8)
    _, losses = train("cnn_lstm", ds, cfg)
    assert len(losses) == 5
    assert all(np.isfinite(losses))


def test_train_divergence_reports_epoch(rng):
    ds = tiny_dataset(rng, length=60, lookback=6)
    cfg = TrainConfig(epochs=10, runs=1, learning_rate=1e200, batch_size=16, seed=2)
    with pytest.raises((TrainingDiverged, FloatingPointError)):
        with np.errstate(over="ignore", invalid="ignore"):
            train("lstm", ds, cfg)


def _random_walk_windows():
    rng = np.random.default_rng(0)
    return make_windows(np.cumsum(rng.normal(size=(300, 3)), axis=0), lookback=10)


@pytest.mark.parametrize("spec", ["lstm", "cnn_lstm"])
def test_saturated_sigmoid_trains_without_warning_and_same_bits(spec):
    # lr 100 drives gate pre-activations below -709, where exp(-a) overflows to inf
    ds = _random_walk_windows()
    cfg = TrainConfig(epochs=5, runs=1, learning_rate=100.0, seed=0, hidden_size=8, kernels=4)
    _, losses = train(spec, ds, cfg)  # RuntimeWarning is an error in this suite
    with np.errstate(all="ignore"):
        _, quiet = train(spec, ds, cfg)
    assert all(np.isfinite(losses))
    assert [loss.hex() for loss in losses] == [loss.hex() for loss in quiet]


@pytest.mark.parametrize("spec", ["lstm", "cnn_lstm"])
def test_divergence_raises_training_diverged_without_warning(spec):
    ds = _random_walk_windows()
    cfg = TrainConfig(epochs=5, runs=1, learning_rate=1e300, seed=0, hidden_size=8, kernels=4)
    with pytest.raises(TrainingDiverged) as err:
        train(spec, ds, cfg)
    assert err.value.epoch == 0


def test_predict_overfits_memorized_dataset():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(9, 1))  # 4 samples at lookback 5
    ds = make_windows(matrix, lookback=5)
    assert ds.sample_count == 4
    cfg = TrainConfig(epochs=2000, runs=1, learning_rate=5e-3, batch_size=4, seed=7, hidden_size=8)
    model, _ = train("lstm", ds, cfg)
    rmse = float(np.sqrt(np.mean((predict(model, ds) - ds.y) ** 2)))
    assert rmse < 1e-2


def test_predict_deterministic_and_ordered(rng):
    ds = tiny_dataset(rng)
    cfg = TrainConfig(epochs=2, runs=1, batch_size=8, seed=4, hidden_size=6)
    model, _ = train("lstm", ds, cfg)
    a = predict(model, ds)
    b = predict(model, ds)
    assert np.array_equal(a, b)
    assert a.shape == (ds.sample_count,)


@pytest.mark.parametrize("spec, features", [("lstm", 1), ("cnn_lstm", 12)])
def test_predict_keeps_no_step_cache(spec, features):
    rng = np.random.default_rng(0)
    ds = make_windows(rng.normal(size=(1620, features)), lookback=20)  # 1,600 samples
    model = build_model(spec, features, TrainConfig(hidden_size=32), rng)
    tracemalloc.start()
    try:
        got = predict(model, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want, _ = model.forward_batch(ds.X)
    assert got.tobytes() == want.tobytes()
    # the full BPTT step cache at these shapes is over 30 MiB
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_predict_feature_mismatch_rejected(rng):
    ds1 = tiny_dataset(rng, features=1)
    ds2 = tiny_dataset(rng, features=2)
    cfg = TrainConfig(epochs=1, runs=1, batch_size=8, seed=4)
    model, _ = train("lstm", ds1, cfg)
    with pytest.raises(ValueError, match="features"):
        predict(model, ds2)


def test_train_empty_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(runs=0)


# =============================================================================
# training a stack of seeds
# =============================================================================


def _bytes(model: Model, run: int | None = None) -> list[bytes]:
    return [(a if run is None else a[run]).tobytes() for a in model.arrays()]


@given(
    spec=st.sampled_from(MODEL_KINDS),
    hidden=st.integers(1, 32),
    features=st.integers(1, 12),
    kernels=st.integers(1, 4),
    runs=st.integers(1, 6),
    batch=st.integers(2, 12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_stack_of_seeds_is_bit_identical_to_training_each_seed_alone(
    spec, hidden, features, kernels, runs, batch, seed
):
    rng = np.random.default_rng(seed)
    samples = 2 * batch + 1 + seed % (batch - 1)  # the last batch of an epoch is short
    ds = make_windows(rng.normal(size=(samples + 6, features)), lookback=6)
    cfg = TrainConfig(epochs=2, batch_size=batch, seed=seed, hidden_size=hidden, kernels=kernels)
    seeds = [seed + run for run in range(runs)]
    model, outcomes = train(spec, ds, cfg, seeds=seeds)
    preds = predict(model, ds)
    assert preds.shape == (runs, samples)
    for run, run_seed in enumerate(seeds):
        alone, losses = train(spec, ds, replace(cfg, seed=run_seed))
        assert [loss.hex() for loss in outcomes[run]] == [loss.hex() for loss in losses]
        assert _bytes(model, run) == _bytes(alone)
        assert preds[run].tobytes() == predict(alone, ds).tobytes()


def _train_blowing_up_readout(call: int, run: int, monkeypatch):
    """A `train` that sets the readout of stack row `run` (or of its single
    model) to 1e200 just before its `call`-th batch step, counted from 0: that
    batch's loss overflows to inf."""
    real_step, steps = training.backward_and_step, [0]

    def backward_and_step(model, batch, adam, learning_rate):
        if steps[0] == call:
            w_out = model.lstm.w_out
            (w_out if w_out.ndim == 1 else w_out[run])[...] = 1e200
        steps[0] += 1
        return real_step(model, batch, adam, learning_rate)

    def train_blowing_up(*args, **kwargs):
        steps[0] = 0
        return train(*args, **kwargs)

    monkeypatch.setattr(training, "backward_and_step", backward_and_step)
    return train_blowing_up


@pytest.mark.parametrize("call, epoch", [(0, 0), (4, 1), (5, 1)], ids=["first-batch", "mid-epoch", "short-batch"])
@pytest.mark.parametrize("spec", MODEL_KINDS)
def test_a_run_diverging_in_a_stack_leaves_it_and_the_others_keep_their_bytes(
    spec, call, epoch, monkeypatch
):
    rng = np.random.default_rng(3)
    ds = make_windows(rng.normal(size=(51, 2)), lookback=9)  # 42 samples: batches of 16, 16, 10
    cfg = TrainConfig(epochs=3, batch_size=16, seed=0, hidden_size=5, kernels=3)
    seeds = [4, 5, 6, 7]
    expected = {seed: train(spec, ds, replace(cfg, seed=seed)) for seed in (4, 6, 7)}
    patched_train = _train_blowing_up_readout(call, seeds.index(5), monkeypatch)
    with pytest.raises(TrainingDiverged) as alone:
        patched_train(spec, ds, replace(cfg, seed=5))
    assert alone.value.epoch == epoch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, outcomes = patched_train(spec, ds, cfg, seeds=seeds)
        preds = predict(model, ds)
    assert isinstance(outcomes[1], TrainingDiverged)
    assert (outcomes[1].epoch, outcomes[1].loss) == (alone.value.epoch, alone.value.loss)
    assert preds.shape == (3, ds.sample_count)
    for row, seed in enumerate([4, 6, 7]):
        alone_model, losses = expected[seed]
        assert outcomes[seeds.index(seed)] == losses
        assert _bytes(model, row) == _bytes(alone_model)
        assert preds[row].tobytes() == predict(alone_model, ds).tobytes()


@pytest.mark.parametrize("spec", MODEL_KINDS)
def test_a_run_built_to_diverge_leaves_the_stack_at_its_first_batch(spec, monkeypatch):
    rng = np.random.default_rng(4)
    ds = make_windows(rng.normal(size=(40, 3)), lookback=6)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=0, hidden_size=4, kernels=2)
    kept, _ = train(spec, ds, replace(cfg, seed=1))
    diverge_seeds(monkeypatch, [2, 3])
    with pytest.raises(TrainingDiverged) as alone:
        train(spec, ds, replace(cfg, seed=2))
    model, outcomes = train(spec, ds, cfg, seeds=[1, 2, 3])
    assert [type(o) for o in outcomes[1:]] == [TrainingDiverged] * 2
    assert outcomes[1].epoch == outcomes[2].epoch == alone.value.epoch == 0
    assert _bytes(model) == _bytes(Model.stack([kept]))
    nothing_left, outcomes = train(spec, ds, cfg, seeds=[2, 3])
    assert [o.epoch for o in outcomes] == [0, 0]
    assert predict(nothing_left, ds).shape == (0, ds.sample_count)


def test_model_stack_and_select_keep_each_runs_arrays(rng):
    cfg = TrainConfig(hidden_size=3, kernels=2)
    models = [build_model("cnn_lstm", 2, cfg, np.random.default_rng(seed)) for seed in range(3)]
    stack = Model.stack(models)
    assert stack.kind == "cnn_lstm" and stack.n_features == 2
    assert [_bytes(stack, run) for run in range(3)] == [_bytes(m) for m in models]
    assert _bytes(stack.select(np.array([2, 0]))) == _bytes(Model.stack([models[2], models[0]]))


def test_save_model_rejects_a_stack(tmp_path, rng):
    stack = Model.stack([Model(small_lstm(rng)), Model(small_lstm(rng))])
    with pytest.raises(ValueError, match="stack"):
        save_model(stack, tmp_path / "model.bin")


# =============================================================================
# serialization
# =============================================================================


def test_lstm_serialization_bit_exact(tmp_path, rng):
    model = Model(small_lstm(rng, features=3, hidden=5))
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "lstm"
    for a, b in zip(model.arrays(), back.arrays()):
        assert np.array_equal(a, b)


def test_cnn_lstm_serialization_bit_exact(tmp_path, rng):
    model = Model(conv=small_conv(rng), lstm=small_lstm(rng, features=3))
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "cnn_lstm"
    assert back.conv.pool_width == model.conv.pool_width
    for a, b in zip(model.arrays(), back.arrays()):
        assert np.array_equal(a, b)


def test_serialization_round_trip_preserves_predictions(tmp_path, rng):
    model = Model(conv=small_conv(rng), lstm=small_lstm(rng, features=3))
    x = rng.normal(size=(3, 10, 2))
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    pred_a, _ = model.forward_batch(x)
    pred_b, _ = back.forward_batch(x)
    assert np.array_equal(pred_a, pred_b)


def _idxf_v1(model) -> bytes:
    """IDXF version 1 written by hand: header, conv blocks, per-gate LSTM blocks, readout."""
    if model.kind == "cnn_lstm":
        conv, lstm, code = model.conv, model.lstm, 1
        shape = (conv.input_size, conv.n_kernels, conv.width, conv.pool_width)
        blocks = [conv.kernels, conv.bias]
    else:
        lstm, code = model.lstm, 0
        shape = (lstm.input_size, 0, 0, 0)
        blocks = []
    for k in range(4):
        blocks += [lstm.wx[k], lstm.wh[k], lstm.b[k]]
    blocks += [lstm.w_out, lstm.b_out]
    out = struct.pack("<4sHHIIIII", b"IDXF", 1, code, lstm.hidden_size, *shape)
    for block in blocks:
        values = block.ravel().tolist()
        out += struct.pack(f"<{len(values)}d", *values)
    return out


@pytest.mark.parametrize("kind", ["lstm", "cnn_lstm"])
def test_idxf_v1_layout_is_per_gate(tmp_path, kind):
    cfg = TrainConfig(hidden_size=5, kernels=3)
    model = build_model(kind, 2, cfg, np.random.default_rng(11))
    path = tmp_path / "model.bin"
    save_model(model, path)
    assert path.read_bytes() == _idxf_v1(model)
    back = load_model(path)
    assert [a.tobytes() for a in back.arrays()] == [a.tobytes() for a in model.arrays()]


def test_serialization_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)
