"""Constituent screening: a universe's metrics as one table, and the composite score."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .config import METRICS
from .market_data import AlignedPanel, read_csv

_BETA = METRICS.index("beta")


def beta(asset_returns: np.ndarray, market_returns: np.ndarray) -> float:
    """Cov(asset, market) / Var(market) with the sample (n-1) estimator throughout."""
    a = np.asarray(asset_returns, dtype=float)
    m = np.asarray(market_returns, dtype=float)
    if a.shape != m.shape or a.ndim != 1:
        raise ValueError(f"return series lengths differ: {a.shape} vs {m.shape}")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least 2 returns to estimate beta")
    a_c = a - a.mean()
    m_c = m - m.mean()
    var_m = float(m_c @ m_c) / (n - 1)
    if var_m == 0.0:
        raise ValueError("market return variance is zero")
    cov_am = float(a_c @ m_c) / (n - 1)
    return cov_am / var_m


def volatility(returns: np.ndarray) -> float:
    """Sample standard deviation (n-1 denominator) of a return series."""
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.shape[0] < 2:
        raise ValueError("need at least 2 returns to estimate volatility")
    if np.all(r == r[0]):
        return 0.0
    return float(np.std(r, ddof=1))


def industry_average_returns(panel: AlignedPanel) -> np.ndarray:
    """Equal-weighted mean return across the universe, the market proxy for beta."""
    return panel.values.mean(axis=1)


def normalize_metrics(table: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
    """Min-max rescale each column of a (companies, 6) metric table to [0, 1].

    Beta is transformed to |beta - 1| before rescaling, since the composite
    rewards distance from the industry-average cyclicality. A metric that is
    constant across the universe maps to 0.5 for every company.
    """
    raw = np.array(table, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != len(METRICS):
        raise ValueError(f"metric table must be (companies, {len(METRICS)}), got {raw.shape}")
    if raw.shape[0] < 2:
        raise ValueError("need at least 2 companies to normalize metrics")
    raw[:, _BETA] = np.abs(raw[:, _BETA] - 1.0)
    low = raw.min(axis=0)
    span = raw.max(axis=0) - low
    return np.divide(raw - low, span, out=np.full_like(raw, 0.5), where=span != 0.0)


def selection_score(table: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Weighted sum of the six normalized metrics, one score per row.

    Scores lie in [0, 1] for normalized input and weights summing to 1.
    The terms are added in column order, so each score is bit-identical to
    `w1 * m1 + w2 * m2 + ... + w6 * m6` in Python floats.
    """
    if len(weights) != table.shape[1]:
        raise ValueError(f"need {table.shape[1]} weights, one per column, got {len(weights)}")
    return sum(w * table[:, j] for j, w in enumerate(weights))


def rank_universe(scores: Sequence[tuple[str, float]], k: int) -> list[str]:
    """Top-k tickers by descending score; ties broken by ascending ticker."""
    if k > len(scores):
        raise ValueError(f"k={k} exceeds universe size {len(scores)}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    ordered = sorted(scores, key=lambda item: (-item[1], item[0]))
    return [ticker for ticker, _ in ordered[:k]]


def load_metrics_csv(path: str | Path) -> dict[str, dict[str, float]]:
    """Read the fundamentals file (ticker, market_cap, intl_sales, total_sales, capex, kpi).

    Returns per-ticker raw metric values; beta and volatility are computed
    from price data elsewhere. global_reach is intl_sales / total_sales.
    """
    path = Path(path)
    required = ("ticker", "market_cap", "intl_sales", "total_sales", "capex", "kpi")
    rows = read_csv(path)
    if not rows:
        raise ValueError(f"{path}: missing header row")
    (_, header), body = rows[0], rows[1:]
    missing = [c for c in required if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    out: dict[str, dict[str, float]] = {}
    for line, row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line}: expected {len(header)} fields")
        # a repeated header name maps to its last column, as csv.DictReader does
        fields = dict(zip(header, row))
        ticker = fields["ticker"].strip()
        if not ticker:
            raise ValueError(f"{path}: line {line}: empty ticker")
        if ticker in out:
            raise ValueError(f"{path}: line {line}: duplicate ticker {ticker!r}")
        try:
            values = [float(fields[c]) for c in required[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {line}: unparseable numeric field") from None
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: line {line}: non-finite numeric field")
        market_cap, intl, total, capex, kpi = values
        if total <= 0:
            raise ValueError(f"{path}: line {line}: total_sales must be positive")
        reach = intl / total
        if not 0.0 <= reach <= 1.0:
            raise ValueError(f"{path}: line {line}: intl_sales/total_sales = {reach} outside [0, 1]")
        out[ticker] = {
            "economic_impact": market_cap,
            "global_reach": reach,
            "capital_expenditure": capex,
            "kpi": kpi,
        }
    if not out:
        raise ValueError(f"{path}: no data rows")
    return out
