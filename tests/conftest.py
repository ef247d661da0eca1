from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from corrindex import market_data
from corrindex.market_data import AlignedPanel, PriceSeries
from corrindex.riskmodel import (
    CovarianceMatrix,
    correlation_distance,
    correlation_matrix,
    linkage,
)


def weekdays(n: int, start: date = date(2020, 1, 1)) -> tuple[date, ...]:
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += timedelta(days=1)
    return tuple(out)


def price_series(ticker: str, closes, dividends=None) -> PriceSeries:
    closes = list(closes)
    if dividends is None:
        dividends = [0.0] * len(closes)
    bars = [(d, c, c, v) for d, c, v in zip(weekdays(len(closes)), closes, dividends)]
    return PriceSeries(ticker=ticker, bars=tuple(bars))



def forbid_parsing(monkeypatch) -> None:
    """Make both price-file parsers raise, so a load that returns took its
    bars from the parse cache."""

    def parse(*args):
        raise AssertionError("parsed")

    monkeypatch.setattr(market_data, "_load_price_columns", parse)
    monkeypatch.setattr(market_data, "_load_price_rows", parse)

def tickers(n: int) -> tuple[str, ...]:
    return tuple(f"T{i:02d}" for i in range(n))


def random_covariance(n: int, rng: np.random.Generator, scale: float = 1.0) -> CovarianceMatrix:
    a = rng.normal(size=(n, n))
    cov = (a @ a.T) / n * scale
    return CovarianceMatrix(tickers=tickers(n), values=cov)


def risk_stack(cov: CovarianceMatrix, method: str = "single"):
    """covariance -> correlation -> distance -> linkage, the standard chain."""
    corr = correlation_matrix(cov)
    dist = correlation_distance(corr)
    link = linkage(dist, method=method)
    return corr, dist, link


def panel_from_matrix(values: np.ndarray, names=None) -> AlignedPanel:
    values = np.asarray(values, dtype=float)
    names = tuple(names) if names is not None else tickers(values.shape[1])
    return AlignedPanel(tickers=names, dates=weekdays(values.shape[0]), values=values)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def diverge_seeds(monkeypatch, seeds, model_spec=None, n_features=None) -> None:
    """Make `train` build the model of each seed in `seeds` (of `model_spec`
    on `n_features` features; any, where None) with a readout so large that
    its first batch loss overflows to inf: the run diverges at epoch 0, alone
    or in a stack, and forked workers inherit the patch."""
    from corrindex.forecast import training

    real_build = training.build_model
    fresh = [np.random.default_rng(seed).bit_generator.state for seed in seeds]

    def build_model(spec, features, cfg, rng):
        diverges = (
            rng.bit_generator.state in fresh
            and model_spec in (None, spec)
            and n_features in (None, features)
        )
        model = real_build(spec, features, cfg, rng)
        if diverges:
            model.lstm.w_out[...] = 1e200
        return model

    monkeypatch.setattr(training, "build_model", build_model)
