from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrindex import dataset
from corrindex.dataset import (
    WindowedDataset,
    chronological_split,
    feature_matrix,
    fit_scaler,
    load_windows_csv,
    make_windows,
    save_windows_csv,
)
from corrindex.csvio import write_csv
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


def _save_windows_reference(ds, path) -> None:
    """The row-at-a-time writer `save_windows_csv` had before the bulk float writer."""
    rows = (
        [s, lag, *values, target]
        for s, target in enumerate(ds.y.tolist())
        for lag, values in enumerate(ds.X[s].tolist())
    )
    write_csv(path, ["sample", "lag", *ds.feature_names, "target"], rows)


def _windows_cases(rng):
    """A scaled train split of real windows, and windows with no shifted-row
    structure; both span several blocks of the writer."""
    walk = np.cumsum(rng.normal(size=(260, 3)), axis=0)
    train, _ = chronological_split(make_windows(walk, lookback=10), 0.8)
    unshifted = WindowedDataset(
        X=rng.normal(size=(150, 9, 2)), y=rng.normal(size=150), feature_names=("u", "v")
    )
    return {"make_windows": train, "random": unshifted}


@pytest.mark.parametrize("case", ["make_windows", "random"])
def test_save_windows_csv_bytes_equal_row_at_a_time_writer(tmp_path, rng, case):
    ds = _windows_cases(rng)[case]
    assert ds.sample_count * ds.lookback > 1000
    save_windows_csv(ds, tmp_path / "new.csv")
    _save_windows_reference(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_windows_csv_rows_repeating_across_blocks_equal_row_at_a_time_writer(tmp_path, rng):
    """A series of period 7: the same window rows and targets recur within
    each block of the writer and on both sides of its block boundaries."""
    ds = make_windows(np.tile(rng.normal(size=(7, 2)), (400, 1)), lookback=10)
    assert ds.sample_count * ds.lookback > 2 * dataset._BLOCK_ROWS
    save_windows_csv(ds, tmp_path / "new.csv")
    _save_windows_reference(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


_special_floats = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
# Names `csv.writer` must quote, and names it leaves as they are.
_feature_names = st.sampled_from(["a,b", 'say "hi"', "x\r\ny", "", " ", "plain"]) | st.text(
    st.characters(exclude_categories=["Cs"]), max_size=4
).filter(lambda name: name not in {"sample", "lag", "target"})


@st.composite
def _pooled_windows(draw):
    """Windows whose rows come from a pool of up to 6 rows of finite and
    special floats, so that rows repeat within and across blocks; and a block
    size of 1 to 5 samples."""
    samples, lookback = draw(st.integers(0, 9)), draw(st.integers(0, 4))
    features = draw(st.integers(0, 3))
    values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_special_floats)
    pool = draw(arrays(np.float64, (draw(st.integers(1, 6)), features), elements=values))
    picks = draw(arrays(np.int64, (samples, lookback), elements=st.integers(0, len(pool) - 1)))
    ds = WindowedDataset(
        X=pool[picks],
        y=draw(arrays(np.float64, samples, elements=values)),
        feature_names=draw(st.lists(_feature_names, min_size=features, max_size=features)),
    )
    return ds, draw(st.integers(1, 5))


@given(case=_pooled_windows())
@settings(max_examples=150, deadline=None)
def test_save_windows_csv_blocks_of_pooled_rows_equal_row_at_a_time_writer(tmp_path_factory, case):
    """Same bytes as `csv.writer` writing the rows, whatever the block size,
    with quoted feature names, no features, or no lags; and the values read
    back bit-exactly."""
    ds, block_samples = case
    root = tmp_path_factory.mktemp("windows")
    with mock.patch.object(dataset, "_BLOCK_ROWS", block_samples * ds.lookback):
        save_windows_csv(ds, root / "new.csv")
    _save_windows_reference(ds, root / "old.csv")
    assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()
    if ds.sample_count and ds.lookback:
        back = load_windows_csv(root / "new.csv")
        assert back.feature_names == ds.feature_names
        assert (back.X.tobytes(), back.y.tobytes()) == (ds.X.tobytes(), ds.y.tobytes())


def test_save_windows_csv_spans_blocks_of_mixed_zeros_and_extremes(tmp_path, rng):
    """Signed zeros, subnormals and extremes at the default block size, over
    more than two blocks: the writer's bytes, and bit-exact values on reading."""
    pool = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.1])
    samples = 2 * dataset._BLOCK_ROWS // 3 + 7
    ds = WindowedDataset(
        X=pool[rng.integers(0, len(pool), size=(samples, 3, 4))],
        y=pool[rng.integers(0, len(pool), size=samples)],
        feature_names=("", 'lab"el', "a,b", "c"),
    )
    save_windows_csv(ds, tmp_path / "new.csv")
    _save_windows_reference(ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = load_windows_csv(tmp_path / "new.csv")
    assert (back.X.tobytes(), back.y.tobytes()) == (ds.X.tobytes(), ds.y.tobytes())


def test_save_windows_csv_keeps_rows_equal_as_floats_but_not_in_bits_apart(tmp_path):
    """0.0 == -0.0, but window rows are cached by bit pattern, so each keeps its sign."""
    ds = WindowedDataset(
        X=np.array([[[0.0, 1.0], [-0.0, 1.0]], [[-0.0, 1.0], [0.0, 1.0]]]),
        y=np.array([-0.0, 0.0]),
        feature_names=("x", "y"),
    )
    save_windows_csv(ds, tmp_path / "zeros.csv")
    assert (tmp_path / "zeros.csv").read_bytes() == (
        b"sample,lag,x,y,target\r\n"
        b"0,0,0.0,1.0,-0.0\r\n0,1,-0.0,1.0,-0.0\r\n1,0,-0.0,1.0,0.0\r\n1,1,0.0,1.0,0.0\r\n"
    )


def test_save_windows_csv_peak_memory_below_the_windows(tmp_path, rng):
    """Paper shapes: the writer works in blocks, so it never holds the file's
    text or a copy of X (a whole-file join peaks at over 20 MB)."""
    ds = make_windows(rng.normal(size=(1603, 12)), lookback=20)
    assert ds.X.shape == (1583, 20, 12)
    tracemalloc.start()
    try:
        save_windows_csv(ds, tmp_path / "windows.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.X.nbytes


@pytest.mark.parametrize(
    "x_shape, y_shape, names, message",
    [
        ((4, 3), (4,), ("a",), "X must be 3-D"),
        ((4, 3, 1), (4, 1), ("a",), "y must be 1-D"),
        ((4, 3, 1), (5,), ("a",), "sample counts differ"),
        ((4, 3, 2), (4,), ("a",), "feature_names length"),
        ((4, 3, 1), (4,), ("a", "b"), "feature_names length"),
    ],
    ids=["x-not-3d", "y-not-1d", "sample-counts-differ", "names-short", "names-long"],
)
def test_windowed_dataset_refuses_mismatched_shapes(x_shape, y_shape, names, message):
    """Every writer and model relies on these: one target per sample, one name per feature."""
    with pytest.raises(ValueError, match=message):
        WindowedDataset(X=np.zeros(x_shape), y=np.zeros(y_shape), feature_names=names)


def test_windows_csv_reserved_names_rejected(tmp_path, rng):
    ds = make_windows(rng.normal(size=(10, 1)), lookback=2, feature_names=("target",))
    with pytest.raises(ValueError, match="reserved"):
        save_windows_csv(ds, tmp_path / "bad.csv")
