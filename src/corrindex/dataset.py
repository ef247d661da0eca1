"""Supervised dataset assembly: scaling, windowing, and chronological splits.

The one-feature variant uses the index return history alone; the factor
variant appends the index/ETF factor columns, so a six-index, five-ETF factor
set yields twelve features. Scaling is min-max to [0, 1], fit strictly on the
rows visible to the training samples; out-of-range test values are left
unclipped so error metrics stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, cycle, repeat
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .csvio import csv_text, read_csv
from .market_data import (
    PriceSeries,
    ReturnSeries,
    _readonly,
    _reduce_through_init,
    align_calendars,
    on_calendar,
)


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-feature min-max bounds, built by `fit_scaler`. Constant features transform to 0.5."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        object.__setattr__(self, "feature_min", _readonly(self.feature_min))
        object.__setattr__(self, "feature_max", _readonly(self.feature_max))

    def _bounds(self, feature: int | None):
        """(min, max - min) for every feature, or for one feature index."""
        low, high = self.feature_min, self.feature_max
        if feature is not None:
            low, high = low[feature], high[feature]
        return low, high - low

    def transform(self, values: np.ndarray, feature: int | None = None) -> np.ndarray:
        """Scale a samples-by-features matrix, or values of one feature if given."""
        low, span = self._bounds(feature)
        out = (np.asarray(values, dtype=float) - low) / np.where(span == 0, 1.0, span)
        return np.where(span == 0, 0.5, out)

    def inverse(self, values: np.ndarray, feature: int | None = None) -> np.ndarray:
        """Undo `transform` for a matrix, or for values of one feature if given."""
        low, span = self._bounds(feature)
        out = np.asarray(values, dtype=float) * span + low
        return np.where(span == 0, low, out)


def fit_scaler(train_matrix: np.ndarray) -> Scaler:
    """Fit per-feature min/max on the given rows only."""
    x = np.asarray(train_matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("fit matrix contains non-finite values")
    return Scaler(feature_min=x.min(axis=0), feature_max=x.max(axis=0))


@dataclass(frozen=True, eq=False)
class WindowedDataset:
    """Supervised samples: X is samples x lookback x features, y the next step of feature 0."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    scaler: Scaler | None = None
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        object.__setattr__(self, "X", _readonly(self.X))
        object.__setattr__(self, "y", _readonly(self.y))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.X.ndim != 3:
            raise ValueError(f"X must be 3-D, got shape {self.X.shape}")
        if self.y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {self.y.shape}")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y sample counts differ")
        if self.X.shape[2] != len(self.feature_names):
            raise ValueError("feature_names length does not match X")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite values")

    @property
    def sample_count(self) -> int:
        return self.X.shape[0]

    @property
    def lookback(self) -> int:
        return self.X.shape[1]

    @property
    def feature_count(self) -> int:
        return self.X.shape[2]


def make_windows(
    matrix: np.ndarray,
    lookback: int,
    feature_names: Sequence[str] | None = None,
) -> WindowedDataset:
    """Sliding windows: X[s] = rows s..s+lookback-1, y[s] = column 0 at row s+lookback."""
    m = np.ascontiguousarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if lookback < 1:
        raise ValueError("lookback must be positive")
    length = m.shape[0]
    if length <= lookback:
        raise ValueError(f"series length {length} must exceed lookback {lookback}")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(m.shape[1]))
    samples = length - lookback
    # `WindowedDataset` copies both into read-only arrays, C-ordered as `m` is.
    x = sliding_window_view(m, lookback, axis=0).transpose(0, 2, 1)[:samples]
    y = m[lookback:, 0]
    return WindowedDataset(X=x, y=y, feature_names=tuple(feature_names), scaler=None)


def train_size(sample_count: int, train_fraction: float) -> int:
    """floor(fraction * N): the samples `chronological_split` puts in training."""
    return math.floor(train_fraction * sample_count)


def chronological_split(
    ds: WindowedDataset, train_fraction: float
) -> tuple[WindowedDataset, WindowedDataset]:
    """First floor(fraction * N) samples train, remainder test, no shuffling.

    The scaler is fit on the rows the training samples expose (their X
    windows) and applied to both splits, so no test information leaks into
    the scaling. Scaled test values may fall outside [0, 1].
    """
    if ds.scaler is not None:
        raise ValueError("dataset is already scaled; split the unscaled dataset")
    n = ds.sample_count
    n_train = train_size(n, train_fraction)
    if n_train < 1 or n_train >= n:
        raise ValueError(
            f"train fraction {train_fraction} gives empty split ({n_train}/{n - n_train})"
        )
    scaler = fit_scaler(ds.X[:n_train].reshape(-1, ds.feature_count))

    def scaled(x_part: np.ndarray, y_part: np.ndarray) -> WindowedDataset:
        x_flat = scaler.transform(x_part.reshape(-1, ds.feature_count))
        return WindowedDataset(
            X=x_flat.reshape(x_part.shape),
            y=scaler.transform(y_part, 0),
            feature_names=ds.feature_names,
            scaler=scaler,
        )

    train = scaled(ds.X[:n_train], ds.y[:n_train])
    test = scaled(ds.X[n_train:], ds.y[n_train:])
    return train, test


def feature_matrix(
    index_returns: ReturnSeries,
    factors: Sequence[ReturnSeries | PriceSeries] = (),
    price_field: str = "adjusted_close",
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Stack the index series (column 0) with factor series on the index's calendar.

    Factors may be return series or price series; price series enter as
    levels of `price_field`. Each factor is forward-filled onto the index's
    dates, from the first date every series has observed, so column 0 is
    the index's own returns and a factor date the index lacks adds no row.
    """
    panel = align_calendars(
        [index_returns, *factors], policy="forward_fill", price_field=price_field
    )
    return panel.values[on_calendar(panel.dates, index_returns.dates)], panel.tickers


# Rows per block of `save_windows_csv`. A window file repeats each row of its
# feature matrix once per lag, along the windows' slide, so a block of this
# size formats about one row per sample; the block's text stays near 0.3 MB,
# where a whole-file join would hold it all.
_BLOCK_ROWS = 1000


def _slides(X: np.ndarray) -> np.ndarray:
    """samples x lookback: whether window row (s, l) equals row (s - 1, l + 1)
    bit for bit (so -0.0 and 0.0 stay apart). False at s = 0 and at the last lag."""
    bits = X.view(np.int64)
    slides = np.zeros(X.shape[:2], dtype=bool)
    slides[1:, :-1] = (bits[1:, :-1] == bits[:-1, 1:]).all(axis=2)
    return slides


def save_windows_csv(ds: WindowedDataset, path: str | Path) -> None:
    """Flatten samples to CSV rows (sample, lag, features..., target).

    Values are written with repr so the loader reproduces them bit-exactly,
    and the bytes are those `csv.writer` would write. Scaler state is not
    persisted; exports are of the samples themselves. Samples are written in
    blocks of about `_BLOCK_ROWS` rows. Window row (s, l) reuses the text of
    row (s - 1, l + 1) when the two are equal bit for bit, so windows that
    slide by one row format each row of their matrix once.
    """
    reserved = {"sample", "lag", "target"}
    if reserved & set(ds.feature_names):
        raise ValueError(f"feature names collide with reserved columns {sorted(reserved)}")
    samples, lookback, features = ds.X.shape
    slides = _slides(ds.X)
    # A lag label holds the commas on both sides of the lag; a row of no cells
    # (a file of no features) takes none after it.
    lags = [f",{lag}," if features else f",{lag}" for lag in range(lookback)]
    step = max(1, _BLOCK_ROWS // max(lookback, 1))
    # The row texts of the sample before the block, by lag.
    before = np.empty(lookback, dtype=object)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(csv_text(["sample", "lag", *ds.feature_names, "target"], ()))
        for start in range(0, samples, step):
            stop = min(start + step, samples)
            slid = slides[start:stop]
            texts = np.empty((stop - start + 1, lookback), dtype=object)
            texts[0] = before
            texts[1:][~slid] = [",".join(map(repr, row)) for row in ds.X[start:stop][~slid].tolist()]
            # From the last lag down, each lag takes the next lag's texts one
            # sample back where its rows slid, so a text travels as far as its row.
            for lag in reversed(range(lookback - 1)):
                np.copyto(texts[1:, lag], texts[:-1, lag + 1], where=slid[:, lag])
            before = texts[-1]
            labels = map(repeat, map(str, range(start, stop)), repeat(lookback))
            tails = map(repeat, map(",{!r}\r\n".format, ds.y[start:stop].tolist()), repeat(lookback))
            rows = zip(
                chain.from_iterable(labels),
                cycle(lags),
                texts[1:].ravel().tolist(),
                chain.from_iterable(tails),
            )
            handle.write("".join(chain.from_iterable(rows)))


def load_windows_csv(path: str | Path) -> WindowedDataset:
    """Read a file `save_windows_csv` wrote.

    Row i must be sample i // lookback, lag i % lookback, with as many fields
    as the header; a bad row raises with its 1-based line number.
    """
    rows = read_csv(path)
    header = rows[0][1] if rows else None
    if header is None or header[:2] != ["sample", "lag"] or header[-1] != "target":
        raise ValueError(f"{path}: malformed windowed-dataset header")
    feature_names = tuple(header[2:-1])
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no samples")
    last_line, last = body[-1]
    try:
        samples, lookback = int(last[0]) + 1, int(last[1]) + 1
    except (IndexError, ValueError) as err:
        raise ValueError(f"{path}: line {last_line}: {err}") from None
    if len(body) != samples * lookback:
        raise ValueError(f"{path}: expected {samples * lookback} rows, got {len(body)}")
    values = []
    for i, (line, row) in enumerate(body):
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            sample, lag = divmod(i, lookback)
            if (int(row[0]), int(row[1])) != (sample, lag):
                raise ValueError(f"expected sample {sample}, lag {lag}, got {row[0]}, {row[1]}")
            values.append([float(v) for v in row[2:]])
        except ValueError as err:
            raise ValueError(f"{path}: line {line}: {err}") from None
    table = np.array(values)
    return WindowedDataset(
        X=table[:, :-1].reshape(samples, lookback, len(feature_names)),
        y=table[lookback - 1 :: lookback, -1],
        feature_names=feature_names,
        scaler=None,
    )
