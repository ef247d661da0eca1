"""Drive the whole pipeline through the CLI against generated CSV fixtures.

Builds a disposable workspace (price files for a 10-company universe, 11
factor series, a fundamentals file, and a config), then runs all six
commands in order and lists the artifacts. Everything is seeded, so rerunning
reproduces identical files.
Run with: python demos/03_cli_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from corrindex.cli import main
from corrindex.market_data import generate_synthetic_panel

UNIVERSE = [f"C{i:02d}" for i in range(10)]
FACTORS = [f"F{i:02d}" for i in range(11)]


def write_prices(directory: Path, tickers, panel) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, ticker in enumerate(tickers):
        closes = 100.0 * np.cumprod(1.0 + panel.values[:, i])
        lines = ["Date,Close,Adj Close,Dividends"]
        for day, close in zip(np.datetime_as_string(panel.dates, unit="D"), closes):
            lines.append(f"{day},{float(close)!r},{float(close)!r},0")
        (directory / f"{ticker}.csv").write_text("\n".join(lines) + "\n")


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)

    # ----------------------------------------------------------------- data
    universe_panel = generate_synthetic_panel(
        10, 400, block_sizes=[5, 5], intra_corr=0.7, inter_corr=0.2,
        daily_vol=list(np.linspace(0.008, 0.02, 10)), seed=1,
    )
    write_prices(root / "prices", UNIVERSE, universe_panel)
    factor_panel = generate_synthetic_panel(11, 400, intra_corr=0.3, seed=2)
    write_prices(root / "factors", FACTORS, factor_panel)

    rng = np.random.default_rng(3)
    rows = ["ticker,market_cap,intl_sales,total_sales,capex,kpi"]
    for ticker in UNIVERSE:
        rows.append(
            f"{ticker},{rng.uniform(1e9, 9e9):.0f},{rng.uniform(10, 90):.2f},100,"
            f"{rng.uniform(1e8, 9e8):.0f},{rng.uniform(0, 1):.3f}"
        )
    (root / "metrics.csv").write_text("\n".join(rows) + "\n")

    # --------------------------------------------------------------- config
    (root / "pipeline.ini").write_text(f"""[data]
prices_dir = prices
metrics_csv = metrics.csv
tickers = {", ".join(UNIVERSE)}
factors_dir = factors
factor_tickers = {", ".join(FACTORS)}

[selection]
k = 8

[allocation]
strategy = hrp_walk

[dataset]
lookback = 15
split_fraction = 0.8

[train]
epochs = 8
runs = 3
hidden_size = 12
kernels = 6
seed = 0

[output]
dir = out
""")

    # ------------------------------------------------------------- commands
    config = str(root / "pipeline.ini")
    for command in ("select", "allocate", "build-index", "make-dataset", "run-experiment"):
        print(f"\n$ corrindex --config pipeline.ini {command}")
        code = main(["--config", config, command])
        assert code == 0, f"{command} exited {code}"

    print("\nartifacts:")
    for artifact in sorted(p for p in (root / "out").iterdir() if p.is_file()):
        print(f"  {artifact.name:<22} {artifact.stat().st_size:>8} bytes")

    print("\n$ corrindex --config pipeline.ini report")
    assert main(["--config", config, "report"]) == 0
