from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrindex.dataset import (
    chronological_split,
    feature_matrix,
    fit_scaler,
    load_windows_csv,
    make_windows,
    save_windows_csv,
)
from corrindex.market_data import ReturnSeries
from conftest import weekdays


# =============================================================================
# scaler
# =============================================================================


def test_scaler_minmax_endpoints():
    scaler = fit_scaler(np.array([[2.0], [4.0], [6.0]]))
    out = scaler.transform(np.array([[2.0], [4.0], [6.0]]))
    np.testing.assert_array_equal(out.ravel(), [0.0, 0.5, 1.0])


def test_scaler_round_trip(rng):
    train = rng.normal(0, 1.0, size=(40, 3))
    scaler = fit_scaler(train)
    x = rng.normal(0, 2.0, size=(10, 3))
    back = scaler.inverse(scaler.transform(x))
    np.testing.assert_allclose(back, x, atol=1e-12)


@given(
    arrays(
        np.float64,
        (6, 2),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_scaler_round_trip_property(matrix):
    scaler = fit_scaler(matrix)
    back = scaler.inverse(scaler.transform(matrix))
    np.testing.assert_allclose(back, matrix, atol=1e-6, rtol=1e-12)


def test_scaler_out_of_range_not_clipped():
    scaler = fit_scaler(np.array([[2.0], [6.0]]))
    assert scaler.transform(np.array([[8.0]]))[0, 0] == pytest.approx(1.5)


def test_scaler_constant_feature_maps_to_half():
    scaler = fit_scaler(np.array([[3.0, 1.0], [3.0, 2.0]]))
    out = scaler.transform(np.array([[3.0, 1.5], [99.0, 2.0]]))
    assert out[0, 0] == 0.5 and out[1, 0] == 0.5
    # inverse of a constant feature recovers the constant
    back = scaler.inverse(out)
    assert back[0, 0] == 3.0 and back[1, 0] == 3.0


# =============================================================================
# make_windows
# =============================================================================


def test_window_count_formula():
    ds = make_windows(np.arange(5.0), lookback=3)
    assert ds.sample_count == 2


def test_window_hand_trace():
    ds = make_windows(np.array([1.0, 2.0, 3.0, 4.0]), lookback=2)
    np.testing.assert_array_equal(ds.X[:, :, 0], [[1, 2], [2, 3]])
    np.testing.assert_array_equal(ds.y, [3, 4])


def test_window_multifeature_shape(rng):
    matrix = rng.normal(size=(120, 12))
    ds = make_windows(matrix, lookback=20)
    assert ds.X.shape == (100, 20, 12)
    assert ds.y.shape == (100,)


def test_window_too_short_rejected():
    with pytest.raises(ValueError, match="exceed lookback"):
        make_windows(np.arange(4.0), lookback=4)


def test_window_targets_reconstruct_series_tail(rng):
    matrix = rng.normal(size=(50, 3))
    ds = make_windows(matrix, lookback=7)
    np.testing.assert_array_equal(ds.y, matrix[7:, 0])


# =============================================================================
# chronological_split
# =============================================================================


def test_split_80_20(rng):
    ds = make_windows(rng.normal(size=110), lookback=10)  # 100 samples
    train, test = chronological_split(ds, 0.8)
    assert train.sample_count == 80
    assert test.sample_count == 20


def test_split_floor_rule(rng):
    ds = make_windows(rng.normal(size=110), lookback=10)
    train, test = chronological_split(ds, 0.99)
    assert train.sample_count == 99
    assert test.sample_count == 1


def test_split_preserves_order(rng):
    matrix = np.arange(30.0)
    ds = make_windows(matrix, lookback=5)
    train, test = chronological_split(ds, 0.6)
    scaler = train.scaler
    rebuilt = np.concatenate([scaler.inverse(train.y, 0), scaler.inverse(test.y, 0)])
    np.testing.assert_allclose(rebuilt, matrix[5:], atol=1e-12)


def test_split_empty_side_rejected(rng):
    ds = make_windows(rng.normal(size=15), lookback=5)
    with pytest.raises(ValueError, match="empty split"):
        chronological_split(ds, 0.01)
    with pytest.raises(ValueError, match="empty split"):
        chronological_split(ds, 1.0)


def test_split_scaler_sees_only_train_rows(rng):
    matrix = rng.normal(size=(60, 2))
    ds = make_windows(matrix, lookback=6)
    train, test = chronological_split(ds, 0.7)
    scaler = train.scaler
    train_rows = ds.X[: train.sample_count].reshape(-1, 2)
    for f in range(2):
        assert scaler.feature_min[f] in train_rows[:, f]
        assert scaler.feature_max[f] in train_rows[:, f]
        assert scaler.feature_min[f] == train_rows[:, f].min()
        assert scaler.feature_max[f] == train_rows[:, f].max()
    assert train is not test
    assert test.scaler is scaler


def test_split_train_window_values_in_unit_range(rng):
    matrix = rng.normal(size=(80, 3))
    ds = make_windows(matrix, lookback=8)
    train, _ = chronological_split(ds, 0.75)
    assert train.X.min() >= 0.0
    assert train.X.max() <= 1.0


def test_split_test_values_may_exceed_unit_range():
    # strictly increasing series guarantees test values above the train max
    matrix = np.arange(40.0)
    ds = make_windows(matrix, lookback=4)
    _, test = chronological_split(ds, 0.5)
    assert test.X.max() > 1.0
    assert test.y.max() > 1.0


def test_split_rejects_scaled_input(rng):
    ds = make_windows(rng.normal(size=30), lookback=5)
    train, _ = chronological_split(ds, 0.5)
    with pytest.raises(ValueError, match="already scaled"):
        chronological_split(train, 0.5)


# =============================================================================
# feature_matrix
# =============================================================================


def _return_series(name: str, values: np.ndarray) -> ReturnSeries:
    return ReturnSeries(ticker=name, dates=weekdays(len(values)), returns=values)


def test_feature_matrix_single_feature(rng):
    idx = _return_series("INDEX", rng.normal(size=30))
    matrix, names = feature_matrix(idx)
    assert matrix.shape == (30, 1)
    assert names == ("INDEX",)


def test_feature_matrix_with_eleven_factors(rng):
    idx = _return_series("INDEX", rng.normal(size=30))
    factors = [_return_series(f"F{i:02d}", rng.normal(size=30)) for i in range(11)]
    matrix, names = feature_matrix(idx, factors)
    assert matrix.shape == (30, 12)
    assert names[0] == "INDEX"
    assert len(names) == 12


def test_feature_matrix_keeps_the_index_calendar_on_ragged_dates():
    days = weekdays(10)
    index = ReturnSeries("INDEX", [d for i, d in enumerate(days) if i != 4], np.arange(1, 10) / 100)
    factor = ReturnSeries("F00", days, -np.arange(1, 11) / 100)
    matrix, names = feature_matrix(index, [factor])
    assert names == ("INDEX", "F00")
    assert matrix.shape == (9, 2)
    assert matrix[:, 0].tobytes() == index.returns.tobytes()
    # the factor's return on the index's missing day is not carried onto any row
    np.testing.assert_array_equal(matrix[:, 1], np.delete(factor.returns, 4))


def test_feature_matrix_drops_index_dates_before_a_factor_starts():
    days = weekdays(10)
    index = ReturnSeries("INDEX", days, np.arange(1, 11) / 100)
    factor = ReturnSeries("F00", days[3:], -np.arange(4, 11) / 100)
    matrix, _ = feature_matrix(index, [factor])
    assert matrix[:, 0].tobytes() == index.returns[3:].tobytes()


# =============================================================================
# CSV round-trip
# =============================================================================


def test_windows_csv_round_trip_bit_exact(tmp_path, rng):
    matrix = rng.normal(size=(25, 3))
    ds = make_windows(matrix, lookback=4, feature_names=("a", "b", "c"))
    path = tmp_path / "windows.csv"
    save_windows_csv(ds, path)
    back = load_windows_csv(path)
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


@pytest.mark.parametrize(
    "line, replace, message",
    [
        (5, lambda rows: rows[3], "line 5: expected sample 0, lag 3, got 0, 2"),
        (9, lambda rows: rows[10], "line 9: expected sample 1, lag 3, got 2, 1"),
        (7, lambda rows: rows[6][:-1], "line 7: expected 6 fields, got 5"),
        (3, lambda rows: ["0", "x", *rows[2][2:]], "line 3: invalid literal"),
        (41, lambda rows: ["9", "x", *rows[40][2:]], "line 41: invalid literal"),
    ],
    ids=["repeated-row", "row-from-later-sample", "short-row", "bad-lag", "bad-last-row"],
)
def test_windows_csv_row_out_of_order_rejected(tmp_path, rng, line, replace, message):
    ds = make_windows(rng.normal(size=(14, 3)), lookback=4, feature_names=("a", "b", "c"))
    path = tmp_path / "windows.csv"
    save_windows_csv(ds, path)
    rows = [row.split(",") for row in path.read_text().splitlines()]
    rows[line - 1] = replace(rows)
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match=message):
        load_windows_csv(path)


def test_windows_csv_with_trailing_blank_line_loads(tmp_path, rng):
    ds = make_windows(rng.normal(size=(14, 3)), lookback=4, feature_names=("a", "b", "c"))
    path = tmp_path / "windows.csv"
    save_windows_csv(ds, path)
    path.write_bytes(path.read_bytes() + b"\r\n")
    back = load_windows_csv(path)
    assert back.X.tobytes() == ds.X.tobytes()
    assert back.y.tobytes() == ds.y.tobytes()


def test_windows_csv_reserved_names_rejected(tmp_path, rng):
    ds = make_windows(rng.normal(size=(10, 1)), lookback=2, feature_names=("target",))
    with pytest.raises(ValueError, match="reserved"):
        save_windows_csv(ds, tmp_path / "bad.csv")
