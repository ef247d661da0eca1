"""Workload definitions and seeded synthetic workspaces.

A workspace is what a user of the CLI would bring: one price CSV per
company, one per factor series, a fundamentals file and an INI config. The
generator also returns every value it wrote (`Workspace.prices`, `factors`,
`metrics`), so the checks can recompute each artifact from the inputs
without reading anything the program produced.
"""

from __future__ import annotations

import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CALENDAR_START = np.datetime64("2010-01-04")
COMMANDS = ("select", "allocate", "build-index", "make-dataset", "run-experiment", "report")
# The 2x2 grid's cells in the order runs.csv and report.txt list them.
CELLS = (("lstm", "dataset1"), ("cnn_lstm", "dataset1"), ("lstm", "dataset2"), ("cnn_lstm", "dataset2"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tickers: int  # screening universe size
    days: int  # business days on the longest price history
    stagger: int  # company histories start up to this many days late
    missing: int  # days dropped at random from each company's file
    dividends: bool  # a third of companies pay quarterly cash dividends
    factors: int
    k: int
    linkage: str
    strategy: str
    align: str
    lookback: int
    hidden: int
    kernels: int
    runs: int
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    split_fraction: float = 0.8


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-universe",
            why="CSV ingest, ragged-calendar alignment and screening of 100 tickers x 5 years; training is 1 run x 1 epoch",
            tickers=100,
            days=1260,
            stagger=126,
            missing=3,
            dividends=True,
            factors=11,
            k=30,
            linkage="ward",
            strategy="min_variance",
            align="forward_fill",
            lookback=10,
            hidden=4,
            kernels=2,
            runs=1,
            epochs=1,
        ),
        Workload(
            name="paper-grid",
            why="paper shapes (10 companies, k=8, 2,000 days, 12 features); LSTM/CNN-LSTM training is the largest command",
            tickers=10,
            days=2000,
            stagger=0,
            missing=0,
            dividends=False,
            factors=11,
            k=8,
            linkage="complete",
            strategy="hrp_bisection",
            align="intersect",
            lookback=20,
            hidden=32,
            kernels=16,
            runs=2,
            epochs=1,
        ),
        Workload(
            name="many-short-runs",
            why="test-suite scale, 30 runs per cell of a tiny model; start-up and per-run overhead dominate",
            tickers=10,
            days=260,
            stagger=0,
            missing=0,
            dividends=False,
            factors=11,
            k=8,
            linkage="single",
            strategy="hrp_walk",
            align="intersect",
            lookback=10,
            hidden=4,
            kernels=2,
            runs=30,
            epochs=2,
        ),
    )
}


@dataclass
class Bars:
    """One generated price file, exactly as written."""

    dates: np.ndarray  # datetime64[D], strictly increasing
    close: np.ndarray
    adj: np.ndarray
    div: np.ndarray


@dataclass
class Workspace:
    root: Path
    config: Path
    workload: Workload
    tickers: tuple[str, ...]
    factor_tickers: tuple[str, ...]
    prices: dict[str, Bars]
    factors: dict[str, Bars]
    metrics: dict[str, dict[str, float]]  # ticker -> market_cap, intl_sales, total_sales, capex, kpi

    @property
    def out(self) -> Path:
        return self.root / "out"

    @property
    def price_rows(self) -> int:
        """Price rows `select` reads: every company file, header excluded."""
        return sum(len(b.dates) for b in self.prices.values())


def _business_days(count: int) -> np.ndarray:
    days = np.arange(CALENDAR_START, CALENDAR_START + count * 2, dtype="datetime64[D]")
    return days[np.is_busday(days)][:count]


def _write_bars(path: Path, bars: Bars) -> None:
    stamps = np.datetime_as_string(bars.dates, unit="D").tolist()
    lines = ["Date,Close,Adj Close,Dividends"]
    lines += [
        f"{d},{c!r},{a!r},{v!r}"
        for d, c, a, v in zip(stamps, bars.close.tolist(), bars.adj.tolist(), bars.div.tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _company_bars(w: Workload, rng: np.random.Generator, calendar: np.ndarray) -> list[Bars]:
    """Sector-structured returns on ragged calendars, some with dividends."""
    n, days = w.tickers, len(calendar)
    sectors = rng.integers(0, max(2, n // 20), size=n)
    market = rng.normal(0.0003, 0.009, size=days)
    sector_moves = rng.normal(0.0, 0.006, size=(days, sectors.max() + 1))
    betas = rng.uniform(0.5, 1.6, size=n)
    idio = rng.uniform(0.008, 0.022, size=n)
    noise = rng.standard_normal((days, n)) * idio
    returns = market[:, None] * betas + sector_moves[:, sectors] + noise
    closes = rng.uniform(20.0, 200.0, size=n) * np.cumprod(1.0 + returns, axis=0)

    out = []
    for i in range(n):
        keep = np.ones(days, dtype=bool)
        keep[: int(rng.integers(0, w.stagger + 1))] = False
        if w.missing:
            candidates = np.nonzero(keep)[0][2:]
            keep[rng.choice(candidates, size=w.missing, replace=False)] = False
        close = closes[keep, i]
        div = np.zeros(close.shape[0])
        if w.dividends and i % 3 == 0:
            paydays = np.arange(int(rng.integers(1, 63)), close.shape[0], 63)
            div[paydays] = np.round(0.004 * close[paydays - 1], 4)
        # Yahoo-style adjustment: each dividend scales every earlier adjusted close.
        factor = np.ones_like(close)
        for t in np.nonzero(div)[0]:
            factor[:t] *= 1.0 - div[t] / close[t - 1]
        out.append(Bars(dates=calendar[keep], close=close, adj=close * factor, div=div))
    return out


def _factor_bars(w: Workload, rng: np.random.Generator, calendar: np.ndarray) -> list[Bars]:
    days = len(calendar)
    common = rng.normal(0.0, 0.006, size=days)
    returns = common[:, None] + rng.normal(0.0, 0.008, size=(days, w.factors))
    levels = rng.uniform(50.0, 5000.0, size=w.factors) * np.cumprod(1.0 + returns, axis=0)
    zero = np.zeros(days)
    return [Bars(dates=calendar, close=levels[:, j], adj=levels[:, j], div=zero) for j in range(w.factors)]


def _config_text(w: Workload, seed: int, tickers, factor_tickers) -> str:
    return f"""[data]
prices_dir = prices
metrics_csv = metrics.csv
tickers = {", ".join(tickers)}
factors_dir = factors
factor_tickers = {", ".join(factor_tickers)}

[selection]
k = {w.k}

[risk]
linkage = {w.linkage}
align = {w.align}

[allocation]
strategy = {w.strategy}

[dataset]
lookback = {w.lookback}
split_fraction = {w.split_fraction}

[train]
epochs = {w.epochs}
runs = {w.runs}
learning_rate = {w.learning_rate!r}
batch_size = {w.batch_size}
seed = {seed}
hidden_size = {w.hidden}
kernels = {w.kernels}

[output]
dir = out
"""


def generate(w: Workload, seed: int, root: Path) -> Workspace:
    """Write a fresh workspace for (workload, seed) under `root`; deterministic."""
    if root.exists():
        shutil.rmtree(root)
    (root / "prices").mkdir(parents=True)
    (root / "factors").mkdir()
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    calendar = _business_days(w.days)

    tickers = tuple(f"C{i:03d}" for i in range(w.tickers))
    factor_tickers = tuple(f"F{j:02d}" for j in range(w.factors))
    prices = dict(zip(tickers, _company_bars(w, rng, calendar)))
    factors = dict(zip(factor_tickers, _factor_bars(w, rng, calendar)))
    for ticker, bars in prices.items():
        _write_bars(root / "prices" / f"{ticker}.csv", bars)
    for ticker, bars in factors.items():
        _write_bars(root / "factors" / f"{ticker}.csv", bars)

    metrics = {}
    rows = ["ticker,market_cap,intl_sales,total_sales,capex,kpi"]
    for ticker in tickers:
        m = {
            "market_cap": float(round(rng.uniform(1e9, 9e10))),
            "intl_sales": float(np.round(rng.uniform(5.0, 95.0), 2)),
            "total_sales": 100.0,
            "capex": float(round(rng.uniform(1e8, 9e9))),
            "kpi": float(np.round(rng.uniform(0.0, 1.0), 6)),
        }
        metrics[ticker] = m
        rows.append(
            f"{ticker},{m['market_cap']!r},{m['intl_sales']!r},{m['total_sales']!r},"
            f"{m['capex']!r},{m['kpi']!r}"
        )
    (root / "metrics.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    config = root / "pipeline.ini"
    config.write_text(_config_text(w, seed, tickers, factor_tickers), encoding="utf-8")
    return Workspace(
        root=root,
        config=config,
        workload=w,
        tickers=tickers,
        factor_tickers=factor_tickers,
        prices=prices,
        factors=factors,
        metrics=metrics,
    )
