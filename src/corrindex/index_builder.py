"""Industry index construction: a fixed weighted sum of constituent returns."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .allocation import Weights
from .market_data import AlignedPanel, ReturnSeries, _readonly


@dataclass(frozen=True)
class IndexSeries:
    """Daily index returns plus the weight snapshot that produced them."""

    dates: tuple[date, ...]
    returns: np.ndarray
    weights_used: Weights

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "returns", _readonly(self.returns))
        if len(self.dates) != self.returns.shape[0]:
            raise ValueError("dates and returns lengths differ")
        if not np.all(np.isfinite(self.returns)):
            raise ValueError("index returns contain non-finite values")

    def __len__(self) -> int:
        return self.returns.shape[0]

    def as_return_series(self, ticker: str = "INDEX") -> ReturnSeries:
        return ReturnSeries(ticker=ticker, dates=self.dates, returns=self.returns)


def build_index(weights: Weights, panel: AlignedPanel) -> IndexSeries:
    """index_return[t] = sum_i w_i * r_i[t] over the aligned panel.

    Weights stay fixed over the whole sample; there is no rebalancing.
    """
    missing = [t for t in weights.tickers if t not in panel.tickers]
    if missing:
        raise ValueError(f"panel is missing weighted tickers {missing}")
    columns = [panel.tickers.index(t) for t in weights.tickers]
    values = panel.values[:, columns] @ weights.values
    return IndexSeries(dates=panel.dates, returns=values, weights_used=weights)


def index_to_csv(series: IndexSeries, path: str | Path) -> None:
    """Write the index as a two-column CSV (date, return)."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "return"])
        for day, value in zip(series.dates, series.returns):
            writer.writerow([day.isoformat(), repr(float(value))])


def index_from_csv(path: str | Path, ticker: str = "INDEX") -> ReturnSeries:
    """Read a (date, return) CSV back as a return series."""
    dates: list[date] = []
    values: list[float] = []
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["date", "return"]:
            raise ValueError(f"{path}: expected header 'date,return'")
        for row in reader:
            dates.append(date.fromisoformat(row[0]))
            values.append(float(row[1]))
    return ReturnSeries(ticker=ticker, dates=tuple(dates), returns=np.array(values))
