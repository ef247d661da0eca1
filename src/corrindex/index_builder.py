"""Industry index construction: a fixed weighted sum of constituent returns."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .market_data import AlignedPanel, ReturnSeries, read_dated_csv, write_dated_csv

if TYPE_CHECKING:
    from .allocation import Weights


def build_index(weights: Weights, panel: AlignedPanel) -> ReturnSeries:
    """index_return[t] = sum_i w_i * r_i[t] over the aligned panel.

    Weights stay fixed over the whole sample; there is no rebalancing.
    """
    missing = [t for t in weights.tickers if t not in panel.tickers]
    if missing:
        raise ValueError(f"panel is missing weighted tickers {missing}")
    columns = [panel.tickers.index(t) for t in weights.tickers]
    values = panel.values[:, columns] @ weights.values
    return ReturnSeries(ticker="INDEX", dates=panel.dates, returns=values)


def index_to_csv(series: ReturnSeries, path: str | Path) -> None:
    """Write the index as a two-column CSV (date, return)."""
    write_dated_csv(path, ["return"], series.dates, series.returns[:, None])


def index_from_csv(path: str | Path) -> ReturnSeries:
    """Read a (date, return) CSV back as the return series of ticker INDEX."""
    dates, values = read_dated_csv(path, ["return"])
    return ReturnSeries(ticker="INDEX", dates=dates, returns=values[:, 0])
