"""Pipeline commands, chained through file artifacts in the output directory.

    corrindex select         -> constituents.csv
    corrindex allocate       -> weights.csv (+ linkage.csv, covariance.csv,
                                correlation.csv)
    corrindex build-index    -> index_returns.csv
    corrindex make-dataset   -> dataset{1,2}_{train,test}.csv
    corrindex run-experiment -> runs.csv, report.txt
    corrindex report         -> report.txt rebuilt from runs.csv

Every command validates its full configuration and inputs before producing
any output, then returns its artifacts, and `main` writes them in one `commit`:
every temp file first, then every rename. Exit codes: 0 success, 1 validation
error, 2 runtime error. Each command imports only the stage modules it runs,
and calls them as `module.function`; numpy and `market_data` come in with the
helpers that read prices or weights, so `report` loads neither.

Each price or factor file is parsed once per content: `<output dir>/.cache/prices/`
holds one `.npy` entry per parse, named by the sha256 of the reader's identity
and the file's bytes; the directory is not an artifact (no `commit` writes it,
a failing command may leave entries there but never artifacts, and no entry is
ever pruned), so it may be deleted at any time.

`run` is the entry point of the CLI process (`python -m corrindex.cli` and the
`corrindex` script): it calls `main`, then `gc.freeze()`, so that interpreter
shutdown skips the collector's last walk over every object the command left.
`main` itself never freezes, because tests and the benchmark's traced replay
call it many times in one process, which must keep a working collector.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

from .config import DATASET_IDS, STRATEGIES, ConfigError, PipelineConfig, load_config
from .csvio import read_csv, read_utf8_text

if TYPE_CHECKING:
    import numpy as np

    from . import allocation
    from .market_data import PriceSeries, ReturnSeries

WEIGHT_LOAD_TOL = 1e-3
# weights.csv holds each weight to this many decimals, so a sum of n of them may
# be off by n half-units of the last place.
WEIGHT_DECIMALS = 4
# Price files are read on every CPU only once they total this many bytes. On a
# 2-vCPU VM, a fresh process and one forked worker read 131 KiB of them (10 files
# of 260 rows) in 1.42x the one-process time, 361 KiB in 1.17x, 421 KiB in 1.01x,
# 480-540 KiB in 0.89-0.92x and 1.1-6 MiB in 0.68-0.76x (medians of 21-31 pairs).
PARALLEL_READ_BYTES = 512 * 1024

# A command's artifacts in write order: name -> its text, or a `writer(path)`
# that streams it to `path`.
Outputs = dict[str, str | Callable[[Path], None]]


def commit(directory: Path, outputs: Outputs) -> None:
    """Write every output to its own temp file in `directory`, then rename them
    all into place and print one `wrote <path>` line per artifact.

    Temp names are unique (`.<name>.<random hex>.tmp`), so commands writing to
    one directory never share a temp file. If any output fails, every temp file
    is removed and no target changes. A crash or a failed rename between two
    renames can still leave some targets replaced and others not.
    """
    directory.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, output in outputs.items():
            tmp = directory / f".{name}.{os.urandom(8).hex()}.tmp"
            staged.append((tmp, directory / name))
            if isinstance(output, str):
                tmp.write_text(output, encoding="utf-8")
            else:
                output(tmp)
        for tmp, target in staged:
            os.replace(tmp, target)
            print(f"wrote {target}")
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _require_file(path: Path | None, what: str) -> Path:
    _require(path is not None, f"{what} is not configured")
    _require(path.is_file(), f"{what} not found: {path}")
    return path


def _price_path(cfg: PipelineConfig, ticker: str, factors: bool = False) -> Path:
    key = "factors_dir" if factors else "prices_dir"
    root = cfg.factors_dir if factors else cfg.prices_dir
    _require(root is not None, f"[data] {key} is not set")
    path = root / f"{ticker}.csv"
    _require(path.is_file(), f"[data] {key}: file for {ticker!r} not found: {path}")
    return path


def _load_prices(cfg: PipelineConfig, tickers: tuple[str, ...], factors: bool = False):
    """Check every price file exists before reading any, then read them: on
    every CPU once they total `PARALLEL_READ_BYTES`, else in this process.
    Each process reads, and caches the parses of, its own share of the files."""
    from . import market_data, parallel

    paths = [_price_path(cfg, ticker, factors) for ticker in tickers]
    small = sum(path.stat().st_size for path in paths) < PARALLEL_READ_BYTES
    cache_dir = cfg.output_dir / ".cache" / "prices"
    return parallel.fork_map(
        lambda pair: market_data.load_price_csv(pair[1], ticker=pair[0], cache_dir=cache_dir),
        list(zip(tickers, paths)),
        max_workers=1 if small else None,
    )


def _load_returns(cfg: PipelineConfig, tickers: tuple[str, ...], factors: bool = False):
    from . import market_data

    mode = "simple_price_only" if factors else cfg.dividend_mode
    return [
        market_data.compute_returns(series, mode=mode, price_field=cfg.price_field)
        for series in _load_prices(cfg, tickers, factors)
    ]


def _load_panel(cfg: PipelineConfig, tickers: tuple[str, ...], policy: str):
    from . import market_data

    return market_data.align_calendars(_load_returns(cfg, tickers), policy=policy)


# =============================================================================
# select
# =============================================================================


def cmd_select(cfg: PipelineConfig) -> Outputs:
    from . import selection

    _require(len(cfg.tickers) >= 2, "[data] tickers must list at least 2 companies")
    _require(
        cfg.k <= len(cfg.tickers),
        f"[selection] k = {cfg.k} exceeds the {len(cfg.tickers)}-company universe",
    )
    metrics_path = _require_file(cfg.metrics_csv, "[data] metrics_csv")
    # Always intersect, whatever [risk] align says: bench/checks.py::check_constituents pins it.
    panel = _load_panel(cfg, cfg.tickers, "intersect")

    fundamentals = selection.load_metrics_csv(metrics_path)
    missing = [t for t in cfg.tickers if t not in fundamentals]
    _require(not missing, f"metrics file has no rows for {missing}")

    market = selection.industry_average_returns(panel)

    rows = []
    for ticker in cfg.tickers:
        column = panel.column(ticker)
        metrics = dict(
            fundamentals[ticker],
            beta=selection.beta(column, market),
            volatility=selection.volatility(column),
        )
        rows.append([metrics[name] for name in selection.METRICS])
    scores = selection.selection_score(selection.normalize_metrics(rows), cfg.selection_weights)
    scored = list(zip(cfg.tickers, scores.tolist()))
    ranked = selection.rank_universe(scored, cfg.k)
    by_ticker = dict(scored)
    return {"constituents.csv": "".join(f"{ticker},{by_ticker[ticker]!r}\n" for ticker in ranked)}


def _read_pairs(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a headerless `ticker,value` file (constituents.csv, weights.csv)."""
    import numpy as np

    try:
        rows = read_csv(path)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    pairs: dict[str, float] = {}
    for number, row in rows:
        ticker = row[0].strip()
        try:
            value = float(row[1]) if len(row) == 2 else np.nan
        except ValueError:
            value = np.nan
        _require(
            bool(ticker) and np.isfinite(value),
            f"{path}: line {number}: expected 'ticker,value' with a finite value, "
            f"got {','.join(row)!r}",
        )
        _require(ticker not in pairs, f"{path}: line {number}: repeated ticker {ticker!r}")
        pairs[ticker] = value
    return tuple(pairs), np.array(list(pairs.values()))


def _read_constituents(cfg: PipelineConfig) -> tuple[str, ...]:
    path = _require_file(cfg.artifact("constituents.csv"), "constituents.csv (run select)")
    tickers, _ = _read_pairs(path)
    _require(len(tickers) >= 2, f"{path} lists fewer than 2 constituents")
    return tickers


# =============================================================================
# allocate
# =============================================================================


def _allocate_weights(cfg: PipelineConfig, cov, link) -> allocation.Weights:
    from . import allocation

    if cfg.strategy == "hrp_walk":
        return allocation.hrp_dendrogram_walk(cov, link)
    if cfg.strategy == "hrp_bisection":
        return allocation.hrp_recursive_bisection(cov, allocation.quasi_diagonal_order(link))
    if cfg.strategy == "equal_weight":
        return allocation.equal_weight(cov.n, cov.tickers)
    if cfg.strategy == "min_variance":
        return allocation.min_variance_long_only(cov)[0]
    raise ConfigError(f"unknown strategy {cfg.strategy!r}; valid: {', '.join(STRATEGIES)}")


def cmd_allocate(cfg: PipelineConfig) -> Outputs:
    from . import riskmodel

    panel = _load_panel(cfg, _read_constituents(cfg), cfg.align_policy)
    cov = riskmodel.covariance_matrix(panel)
    corr = riskmodel.correlation_matrix(cov)
    dist = riskmodel.correlation_distance(corr, convention=cfg.distance_convention)
    link = riskmodel.linkage(dist, method=cfg.linkage_method)
    weights = _allocate_weights(cfg, cov, link)

    print(f"strategy {cfg.strategy}")
    for ticker, weight in zip(weights.tickers, weights.values):
        print(f"  {ticker:<8} {weight:.{WEIGHT_DECIMALS}f}")
    return {
        "weights.csv": "".join(
            f"{t},{w:.{WEIGHT_DECIMALS}f}\n" for t, w in zip(weights.tickers, weights.values)
        ),
        "covariance.csv": lambda p: riskmodel.matrix_to_csv(cov.tickers, cov.values, p),
        "correlation.csv": lambda p: riskmodel.matrix_to_csv(corr.tickers, corr.values, p),
        "linkage.csv": lambda p: riskmodel.linkage_to_csv(link, p),
    }


def _load_weights_csv(path: Path) -> allocation.Weights:
    """Read a two-column weights file; renormalizes display rounding away."""
    from . import allocation

    tickers, vec = _read_pairs(path)
    total = vec.sum()
    tolerance = max(WEIGHT_LOAD_TOL, len(vec) * 0.5 / 10**WEIGHT_DECIMALS)
    _require(
        abs(total - 1.0) <= tolerance,
        f"{path}: weights sum to {total}, outside tolerance {tolerance}",
    )
    _require(vec.min() >= 0, f"{path}: negative weight")
    return allocation.Weights(tickers=tickers, values=vec / total)


# =============================================================================
# build-index
# =============================================================================


def cmd_build_index(cfg: PipelineConfig) -> Outputs:
    from . import index_builder

    weights_path = _require_file(cfg.artifact("weights.csv"), "weights.csv (run allocate)")
    weights = _load_weights_csv(weights_path)
    panel = _load_panel(cfg, weights.tickers, cfg.align_policy)
    index = index_builder.build_index(weights, panel)
    return {"index_returns.csv": lambda p: index_builder.index_to_csv(index, p)}


# =============================================================================
# make-dataset / run-experiment
# =============================================================================


def _load_index_series(cfg: PipelineConfig) -> ReturnSeries:
    from . import index_builder

    if cfg.index_csv is not None:
        return index_builder.index_from_csv(_require_file(cfg.index_csv, "[data] index_csv"))
    artifact = cfg.artifact("index_returns.csv")
    _require(
        artifact.is_file(),
        "no index series: set [data] index_csv or run build-index first",
    )
    return index_builder.index_from_csv(artifact)


def _load_factor_series(cfg: PipelineConfig) -> list[ReturnSeries | PriceSeries]:
    """Factor columns enter as daily returns (default) or as raw levels."""
    if cfg.feature_mode == "levels":
        return _load_prices(cfg, cfg.factor_tickers, factors=True)
    return _load_returns(cfg, cfg.factor_tickers, factors=True)


def _build_datasets(cfg: PipelineConfig, index: ReturnSeries, factors) -> dict[str, tuple]:
    """Each dataset's windows, split chronologically. A lookback or split
    fraction that leaves a dataset no window, or an empty split, is a config error."""
    from . import dataset

    def split(matrix: np.ndarray, names: tuple[str, ...]):
        rows = f"the {len(matrix)} index returns"
        if len(matrix) < len(index):
            rows += f" on dates every factor has (the index has {len(index)})"
        windows = len(matrix) - cfg.lookback
        _require(windows >= 1, f"[dataset] lookback = {cfg.lookback} must be less than {rows}")
        n_train = dataset.train_size(windows, cfg.split_fraction)
        _require(
            0 < n_train < windows,
            f"[dataset] lookback = {cfg.lookback} and split_fraction = {cfg.split_fraction} split "
            f"{rows} into {n_train} train and {windows - n_train} test windows; each needs at least 1",
        )
        ds = dataset.make_windows(matrix, cfg.lookback, feature_names=names)
        return dataset.chronological_split(ds, cfg.split_fraction)

    history_only, with_factors = DATASET_IDS
    out = {history_only: split(*dataset.feature_matrix(index))}
    if factors:
        out[with_factors] = split(*dataset.feature_matrix(index, factors, price_field=cfg.price_field))
    return out


def cmd_make_dataset(cfg: PipelineConfig) -> Outputs:
    from . import dataset

    index = _load_index_series(cfg)
    factors = _load_factor_series(cfg) if cfg.factor_tickers else []
    return {
        f"{name}_{split_name}.csv": lambda p, s=split: dataset.save_windows_csv(s, p)
        for name, splits in _build_datasets(cfg, index, factors).items()
        for split_name, split in zip(("train", "test"), splits)
    }


def cmd_run_experiment(cfg: PipelineConfig) -> Outputs:
    from . import evaluation

    _require(
        len(cfg.factor_tickers) > 0,
        "[data] factor_tickers must be set: the experiment compares the "
        "index-only dataset against the factor-augmented dataset",
    )
    shortest = cfg.train.kernel_width + cfg.train.pool_width - 1
    _require(
        cfg.lookback >= shortest,
        f"[dataset] lookback = {cfg.lookback} is too short for the CNN-LSTM, which needs "
        f"kernel_width + pool_width - 1 = {shortest} steps",
    )
    index = _load_index_series(cfg)
    factors = _load_factor_series(cfg)
    splits = _build_datasets(cfg, index, factors)

    cells = []
    for model_id, dataset_id in evaluation.CELL_ORDER:
        train_ds, test_ds = splits[dataset_id]
        stats = evaluation.multi_run(model_id, train_ds, test_ds, cfg.train, dataset_id=dataset_id)
        # scaling is affine, so the unscaled-unit error is an exact rescale
        span = float(test_ds.scaler.feature_max[0] - test_ds.scaler.feature_min[0])
        print(
            f"{model_id}/{dataset_id}: mean RMSE {stats.mean:.4f} scaled, "
            f"{stats.mean * span:.6f} in return units ({stats.run_count} runs)"
        )
        cells.append(stats)

    report = evaluation.comparison_report(cells, evaluation.config_fingerprint(cfg.train))
    return {"runs.csv": evaluation.runs_csv(report), "report.txt": evaluation.render_report(report)}


def cmd_report(cfg: PipelineConfig) -> Outputs:
    from . import evaluation

    runs_path = _require_file(cfg.artifact("runs.csv"), "runs.csv (run run-experiment)")
    runs_text = read_utf8_text(runs_path)
    try:
        report = evaluation.comparison_report(*evaluation.parse_runs_csv(runs_text))
    except ValueError as err:
        raise ValueError(f"{runs_path}: {err}") from None
    text = evaluation.render_report(report)
    print(text, end="")
    return {"report.txt": text}


# =============================================================================
# entry point
# =============================================================================


COMMANDS = {
    "select": cmd_select,
    "allocate": cmd_allocate,
    "build-index": cmd_build_index,
    "make-dataset": cmd_make_dataset,
    "run-experiment": cmd_run_experiment,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrindex",
        description="Correlated-stock industry index pipeline",
    )
    parser.add_argument("--config", "-c", required=True, help="pipeline config file")
    parser.add_argument("--seed", type=int, default=None, help="override the training seed")
    parser.add_argument("--output-dir", default=None, help="override the output directory")
    parser.add_argument("--verbose", "-v", action="store_true", help="print tracebacks on errors")
    parser.add_argument("command", choices=sorted(COMMANDS), help="pipeline stage to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, output_override=args.output_dir)
        commit(cfg.output_dir, COMMANDS[args.command](cfg))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure after validation
        if args.verbose:
            raise
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run `main` on the command line and end the process with its exit code."""
    code = main()
    gc.freeze()  # the process ends here: shutdown skips the collector's walk over every object
    sys.exit(code)


if __name__ == "__main__":
    run()
