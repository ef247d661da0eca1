from __future__ import annotations

import codecs
import configparser
import contextlib
import gc
import importlib.metadata
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from corrindex import cli, dataset, evaluation, market_data, riskmodel
from corrindex.cli import commit, main
from corrindex.config import SECTION_KEYS, ConfigError
from corrindex.market_data import generate_synthetic_panel

from conftest import diverge_seeds, forbid_parsing, weekdays

UNIVERSE = tuple(f"C{i:02d}" for i in range(10))
FACTORS = tuple(f"F{i:02d}" for i in range(11))


def write_price_csv(path, dates, closes, adj_closes=None):
    adj_closes = closes if adj_closes is None else adj_closes
    lines = ["Date,Close,Adj Close,Dividends"]
    for day, close, adj_close in zip(dates, closes, adj_closes):
        lines.append(f"{day},{float(close)!r},{float(adj_close)!r},0")
    path.write_text("\n".join(lines) + "\n")


def returns_to_closes(returns: np.ndarray, start: float = 100.0) -> np.ndarray:
    return start * np.cumprod(1.0 + returns)


def build_workspace(root, n_days=260, seed=42):
    """Synthetic price files for a 10-company universe plus 11 factor series."""
    prices = root / "prices"
    factors = root / "factors"
    prices.mkdir(parents=True)
    factors.mkdir(parents=True)

    panel = generate_synthetic_panel(
        len(UNIVERSE),
        n_days,
        block_sizes=[5, 5],
        intra_corr=0.7,
        inter_corr=0.2,
        daily_vol=list(np.linspace(0.008, 0.02, len(UNIVERSE))),
        seed=seed,
    )
    for i, ticker in enumerate(UNIVERSE):
        write_price_csv(prices / f"{ticker}.csv", panel.dates, returns_to_closes(panel.values[:, i]))

    factor_panel = generate_synthetic_panel(
        len(FACTORS), n_days, intra_corr=0.3, daily_vol=0.01, seed=seed + 1
    )
    for i, ticker in enumerate(FACTORS):
        write_price_csv(
            factors / f"{ticker}.csv", factor_panel.dates, returns_to_closes(factor_panel.values[:, i])
        )

    metrics = ["ticker,market_cap,intl_sales,total_sales,capex,kpi"]
    rng = np.random.default_rng(seed + 2)
    for ticker in UNIVERSE:
        metrics.append(
            f"{ticker},{rng.uniform(1e9, 9e9):.0f},{rng.uniform(10, 90):.2f},100,"
            f"{rng.uniform(1e8, 9e8):.0f},{rng.uniform(0, 1):.3f}"
        )
    (root / "metrics.csv").write_text("\n".join(metrics) + "\n")


def write_config(root, out_dir="out", strategy="hrp_walk", extra_train="", factor_list=None):
    factor_list = ", ".join(FACTORS if factor_list is None else factor_list)
    (root / "pipeline.ini").write_text(
        f"""[data]
prices_dir = prices
metrics_csv = metrics.csv
tickers = {", ".join(UNIVERSE)}
factors_dir = factors
factor_tickers = {factor_list}

[selection]
k = 8

[risk]
linkage = single
distance = correlation
align = intersect

[allocation]
strategy = {strategy}

[dataset]
lookback = 10
split_fraction = 0.8

[train]
epochs = 3
runs = 2
batch_size = 32
seed = 0
hidden_size = 8
kernels = 4
{extra_train}

[output]
dir = {out_dir}
"""
    )
    return root / "pipeline.ini"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    build_workspace(root)
    return root


def run(config_path, command, *extra) -> int:
    return main(["--config", str(config_path), command, *extra])


# =============================================================================
# select
# =============================================================================


def test_select_writes_ranked_constituents(workspace, capsys):
    config = write_config(workspace)
    assert run(config, "select") == 0
    lines = (workspace / "out" / "constituents.csv").read_text().strip().splitlines()
    assert len(lines) == 8
    scores = [float(line.split(",")[1]) for line in lines]
    assert scores == sorted(scores, reverse=True)


def test_select_k_too_large_fails_validation(tmp_path, capsys):
    build_workspace(tmp_path, n_days=80, seed=21)
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace("k = 8", "k = 99"))
    assert run(config, "select") == 1
    assert "exceeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no partial outputs


def test_select_rerun_is_byte_identical(workspace):
    config = write_config(workspace)
    run(config, "select")
    first = (workspace / "out" / "constituents.csv").read_bytes()
    run(config, "select")
    assert (workspace / "out" / "constituents.csv").read_bytes() == first


# =============================================================================
# allocate
# =============================================================================


def test_allocate_equal_weight_two_assets(tmp_path):
    build_workspace(tmp_path, n_days=120, seed=7)
    config = write_config(tmp_path, strategy="equal_weight")
    # constituents file drives allocation when present
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "constituents.csv").write_text("C00,1.0\nC01,0.9\n")
    assert run(config, "allocate") == 0
    lines = (out / "weights.csv").read_text().strip().splitlines()
    assert lines == ["C00,0.5000", "C01,0.5000"]


def test_allocate_requires_constituents(tmp_path, capsys):
    build_workspace(tmp_path, n_days=80, seed=9)
    config = write_config(tmp_path)
    assert run(config, "allocate") == 1
    assert "select" in capsys.readouterr().err
    assert not (tmp_path / "out" / "weights.csv").exists()


def test_allocate_writes_side_outputs(workspace):
    config = write_config(workspace)
    assert run(config, "select") == 0
    assert run(config, "allocate") == 0
    out = workspace / "out"
    for name in ("weights.csv", "linkage.csv", "covariance.csv", "correlation.csv"):
        assert (out / name).is_file()
    weights = [float(l.split(",")[1]) for l in (out / "weights.csv").read_text().splitlines() if l]
    assert len(weights) == 8
    assert all(w >= 0 for w in weights)
    assert abs(sum(weights) - 1.0) < 1e-3  # 4-decimal display rounding


def test_build_index_reads_the_rounded_weights_of_31_constituents(tmp_path, capsys):
    """31 equal weights of 0.0323 sum to 1.0013: weights.csv's 4-decimal
    rounding may miss 1 by 31 half-units of the last place, 0.00155, so
    build-index reads the file allocate wrote. A sum further off is refused."""
    tickers = [f"C{i:02d}" for i in range(31)]
    build_workspace(tmp_path, n_days=80, seed=5)
    panel = generate_synthetic_panel(len(tickers), 80, daily_vol=0.01, seed=5)
    metrics = ["ticker,market_cap,intl_sales,total_sales,capex,kpi"]
    for i, ticker in enumerate(tickers):
        closes = returns_to_closes(panel.values[:, i])
        write_price_csv(tmp_path / "prices" / f"{ticker}.csv", panel.dates, closes)
        metrics.append(f"{ticker},{1e9 + i * 1e7:.0f},{10 + i},100,{1e8 + i * 1e6:.0f},{i / 31:.3f}")
    (tmp_path / "metrics.csv").write_text("\n".join(metrics) + "\n")
    config = write_config(tmp_path, strategy="equal_weight")
    config.write_text(
        config.read_text()
        .replace(f"tickers = {', '.join(UNIVERSE)}", f"tickers = {', '.join(tickers)}")
        .replace("k = 8", "k = 31")
    )
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 0, capsys.readouterr().err
    weights = tmp_path / "out" / "weights.csv"
    assert set(weights.read_text().splitlines()) == {f"{t},0.0323" for t in tickers}

    weights.write_text(weights.read_text().replace("C00,0.0323", "C00,0.0326"))
    capsys.readouterr()
    assert run(config, "build-index") == 1
    err = capsys.readouterr().err
    assert f"{weights}: weights sum to 1.0016" in err and "outside tolerance 0.00155" in err


def test_allocate_hrp_bisection_prefers_low_vol_block(tmp_path):
    # two blocks with very different volatilities; the calmer block should
    # carry more total weight under recursive bisection
    build_workspace(tmp_path, n_days=400, seed=3)
    config = write_config(tmp_path, strategy="hrp_bisection")
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "constituents.csv").write_text(
        "\n".join(f"{t},1.0" for t in UNIVERSE) + "\n"
    )
    assert run(config, "allocate") == 0
    rows = [l.split(",") for l in (out / "weights.csv").read_text().splitlines() if l]
    weight = {t: float(w) for t, w in rows}
    low_vol_block = sum(weight[f"C{i:02d}"] for i in range(5))  # vols 0.008..0.013
    high_vol_block = sum(weight[f"C{i:02d}"] for i in range(5, 10))  # vols 0.014..0.02
    assert low_vol_block > high_vol_block


def test_allocate_strategy_typo_lists_valid_names(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        (workspace / "pipeline.ini").read_text().replace("strategy = hrp_walk", "strategy = hrp")
    )
    assert run(bad, "allocate") == 1
    err = capsys.readouterr().err
    for name in ("hrp_walk", "hrp_bisection", "equal_weight", "min_variance"):
        assert name in err


# =============================================================================
# build-index / make-dataset
# =============================================================================


def test_build_index_and_dataset_chain(workspace):
    config = write_config(workspace)
    assert run(config, "select") == 0
    assert run(config, "allocate") == 0
    assert run(config, "build-index") == 0
    out = workspace / "out"
    index_lines = (out / "index_returns.csv").read_text().strip().splitlines()
    assert index_lines[0] == "date,return"
    assert len(index_lines) > 200

    assert run(config, "make-dataset") == 0
    for name in ("dataset1_train.csv", "dataset1_test.csv", "dataset2_train.csv", "dataset2_test.csv"):
        assert (out / name).is_file()
    header1 = (out / "dataset1_train.csv").read_text().splitlines()[0]
    header2 = (out / "dataset2_train.csv").read_text().splitlines()[0]
    assert len(header1.split(",")) == 1 + 2 + 1  # one feature
    assert len(header2.split(",")) == 12 + 2 + 1  # index + 11 factors


def test_build_index_requires_weights(tmp_path, capsys):
    build_workspace(tmp_path, n_days=80, seed=9)
    config = write_config(tmp_path)
    assert run(config, "build-index") == 1
    assert "allocate" in capsys.readouterr().err


def test_make_dataset_rejects_out_of_order_index_csv(tmp_path, capsys):
    rows = [f"2020-01-{d:02d},0.001" for d in range(1, 29)]
    rows[5], rows[6] = rows[6], rows[5]  # lines 7 and 8 of the file
    (tmp_path / "index.csv").write_text("date,return\n" + "\n".join(rows) + "\n")
    config = write_config(tmp_path, factor_list=())
    config.write_text(config.read_text().replace("[data]\n", "[data]\nindex_csv = index.csv\n"))
    assert run(config, "make-dataset") == 2
    err = capsys.readouterr().err
    assert "index.csv: line 8: dates must be strictly increasing" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("price_field", ["adjusted_close", "close"])
def test_make_dataset_levels_mode_scales_forward_filled_factor_closes(tmp_path, price_field):
    """`feature_mode = levels`: dataset2 holds factor levels carried onto the index calendar."""
    rng = np.random.default_rng(17)
    days = weekdays(60)
    index_returns = rng.normal(0.0, 0.01, size=len(days))
    (tmp_path / "index.csv").write_text(
        "date,return\n" + "".join(f"{d},{float(r)!r}\n" for d, r in zip(days, index_returns))
    )
    # F00 starts three days late and skips every fifth day; F01 skips three days
    calendars = {
        "F00": [d for i, d in enumerate(days) if i >= 3 and i % 5 != 4],
        "F01": [d for i, d in enumerate(days) if not 20 <= i < 23],
    }
    closes = {t: returns_to_closes(rng.normal(0.0, 0.01, len(c))) for t, c in calendars.items()}
    # an adjusted path that is not an affine image of the closes, which scaling would hide
    adjusted = {t: returns_to_closes(rng.normal(0.0, 0.01, len(c))) for t, c in calendars.items()}
    (tmp_path / "factors").mkdir()
    for ticker, calendar in calendars.items():
        write_price_csv(
            tmp_path / "factors" / f"{ticker}.csv", calendar, closes[ticker], adjusted[ticker]
        )
    levels = closes if price_field == "close" else adjusted
    config = write_config(tmp_path, factor_list=tuple(calendars))
    config.write_text(
        config.read_text()
        .replace("[data]\n", f"[data]\nindex_csv = index.csv\nprice_field = {price_field}\n")
        .replace("[dataset]\n", "[dataset]\nfeature_mode = levels\n")
    )
    assert run(config, "make-dataset") == 0

    rows = days[3:]  # the union calendar, from the last first observation on
    columns = [index_returns[3:]]
    for ticker, calendar in calendars.items():
        latest = [max(i for i, d in enumerate(calendar) if d <= day) for day in rows]
        columns.append(levels[ticker][latest])
    matrix = np.column_stack(columns)
    lookback, n_train = 10, int(0.8 * (len(rows) - 10))
    seen = matrix[: n_train + lookback - 1]  # the rows the training windows expose
    scaled = (matrix - seen.min(axis=0)) / (seen.max(axis=0) - seen.min(axis=0))

    table = np.loadtxt(tmp_path / "out" / "dataset2_train.csv", delimiter=",", skiprows=1)
    sample, lag = table[:, 0].astype(int), table[:, 1].astype(int)
    assert sample.max() + 1 == n_train and lag.max() + 1 == lookback
    np.testing.assert_allclose(table[:, 2:5], scaled[sample + lag], rtol=0, atol=1e-12)
    np.testing.assert_allclose(table[:, 5], scaled[sample + lookback, 0], rtol=0, atol=1e-12)


# =============================================================================
# run-experiment / report
# =============================================================================


def test_run_experiment_smoke(workspace):
    config = write_config(workspace)
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 0
    assert run(config, "run-experiment") == 0
    out = workspace / "out"
    report = (out / "report.txt").read_text()
    assert "cell.lstm.dataset1.mean_rmse" in report
    assert "cell.cnn_lstm.dataset2.mean_rmse" in report
    assert "reduction.lstm.dataset1.to.cnn_lstm.dataset2" in report
    runs = (out / "runs.csv").read_text().strip().splitlines()
    assert len(runs) == 1 + 4 * 2  # header + 4 cells x 2 runs


def test_run_experiment_deterministic_and_report_rebuilds(workspace):
    config = write_config(workspace)
    out = workspace / "out"
    if not (out / "runs.csv").is_file():
        for command in ("select", "allocate", "build-index", "run-experiment"):
            assert run(config, command) == 0
    first_runs = (out / "runs.csv").read_bytes()
    first_report = (out / "report.txt").read_bytes()
    assert run(config, "run-experiment") == 0
    assert (out / "runs.csv").read_bytes() == first_runs
    assert (out / "report.txt").read_bytes() == first_report

    # report command rebuilds the same report from runs.csv
    (out / "report.txt").unlink()
    assert run(config, "report") == 0
    assert (out / "report.txt").read_bytes() == first_report


def test_run_experiment_trains_and_predicts_every_cell_in_the_calling_process(workspace, monkeypatch):
    """The benchmark's trace times `train` and `predict` as children of each
    cell's `multi_run` span in the process it replays the command in, so the
    calling process must train and predict at least one run of every cell
    even when the runs are spread over forked workers."""
    config = write_config(workspace, out_dir="out_parent_calls")
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cell, calls = [], []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            if name == "multi_run":
                cell[:] = [args[0], kwargs["dataset_id"]]
            calls.append((name, tuple(cell)))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("multi_run", "train", "predict"):
        monkeypatch.setattr(evaluation, name, counting(name, getattr(evaluation, name)))
    assert run(config, "run-experiment") == 0
    for pair in evaluation.CELL_ORDER:
        assert ("train", pair) in calls and ("predict", pair) in calls
    # 2 runs per cell on 2 workers: a forked worker trains run 1 of each cell
    assert calls.count(("train", evaluation.CELL_ORDER[0])) == 1


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "pooled"])
def test_run_experiment_keeps_diverged_run_at_its_index(workspace, monkeypatch, cpus):
    """Run 1 of lstm/dataset1 diverges (in a forked worker when pooled): its
    `nan` row is run 1, not listed after runs 0 and 2, and `report` rebuilds
    report.txt from runs.csv byte for byte."""
    out_dir = f"out_diverged_{len(cpus)}"
    config = write_config(workspace, out_dir=out_dir)
    config.write_text(config.read_text().replace("runs = 2", "runs = 3"))
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    # serial: run 1 leaves the stack of runs 0-2; pooled: it trains alone
    diverge_seeds(monkeypatch, [1], model_spec="lstm", n_features=1)
    assert run(config, "run-experiment") == 0
    out = workspace / out_dir
    fingerprint = evaluation.config_fingerprint(cli.load_config(str(config)).train)
    cell = [row for row in (out / "runs.csv").read_text().splitlines() if row.startswith("lstm,dataset1,")]
    assert [row.split(",")[2] for row in cell] == ["0", "1", "2"]
    assert cell[1] == f"lstm,dataset1,1,nan,{fingerprint}"
    assert "nan" not in cell[0] + cell[2]
    written = (out / "report.txt").read_bytes()
    assert b"cell.lstm.dataset1.diverged_count = 1" in written
    (out / "report.txt").unlink()
    assert run(config, "report") == 0
    assert (out / "report.txt").read_bytes() == written


def test_run_experiment_redirected_stdout_prints_each_line_once(workspace, tmp_path):
    """Lines still buffered when a worker forks must not be written again by it."""
    config = write_config(workspace, out_dir="out_redirected")
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 0
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from corrindex.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}  # block-buffered
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    log = tmp_path / "stdout.txt"
    with log.open("w") as handle:
        result = subprocess.run(
            [sys.executable, "-c", code, "--config", str(config), "run-experiment"],
            stdout=handle, stderr=subprocess.PIPE, text=True, timeout=300, env=env, cwd=workspace,
        )
    assert result.returncode == 0, result.stderr
    lines = log.read_text().splitlines()
    for model_id, dataset_id in evaluation.CELL_ORDER:
        assert sum(line.startswith(f"{model_id}/{dataset_id}: ") for line in lines) == 1
    assert len(lines) == 4 + 2  # one line per cell, then the two artifacts written


def test_run_experiment_missing_factor_fails_before_training(tmp_path, capsys):
    build_workspace(tmp_path, n_days=120, seed=5)
    (tmp_path / "factors" / "F03.csv").unlink()
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "index_returns.csv").write_text(
        "date,return\n" + "\n".join(f"2020-01-{d:02d},0.001" for d in range(1, 29)) + "\n"
    )
    assert run(config, "run-experiment") == 1
    assert "F03" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


def test_run_experiment_rejects_lookback_too_short_for_cnn_before_training(tmp_path, capsys):
    build_workspace(tmp_path, n_days=120, seed=5)
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace("lookback = 10", "lookback = 3"))
    out = tmp_path / "out"
    out.mkdir()
    (out / "index_returns.csv").write_text(
        "date,return\n" + "\n".join(f"2020-01-{d:02d},0.001" for d in range(1, 29)) + "\n"
    )
    assert run(config, "run-experiment") == 1
    captured = capsys.readouterr()
    assert "[dataset] lookback = 3" in captured.err
    assert "kernel_width + pool_width - 1 = 4" in captured.err
    assert "RMSE" not in captured.out
    assert sorted(p.name for p in out.iterdir()) == ["index_returns.csv"]


def test_report_requires_runs_csv(tmp_path, capsys):
    build_workspace(tmp_path, n_days=80, seed=11)
    config = write_config(tmp_path)
    assert run(config, "report") == 1
    assert "run-experiment" in capsys.readouterr().err


def test_report_names_line_of_bad_runs_row(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "runs.csv").write_text(
        "model,dataset,run,rmse,fingerprint\nlstm,dataset1,0,0.1,cfg=1\nlstm,dataset1,1\n"
    )
    assert run(config, "report") == 2
    assert "line 3: expected 5 fields, got 3" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]


def test_report_names_line_of_infinite_rmse(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "runs.csv").write_text(_runs_text().replace("lstm,dataset1,1,0.11,", "lstm,dataset1,1,inf,"))
    assert run(config, "report") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"runtime error: {out / 'runs.csv'}: line 3: rmse 'inf' is not nan or a finite positive number"
    ]
    assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]


def _runs_text() -> str:
    """A hand-written LF runs.csv: two runs for every cell."""
    rows = [
        f"{model_id},{dataset_id},{run},{0.1 + 0.01 * (2 * cell + run)!r},cfg=1"
        for cell, (model_id, dataset_id) in enumerate(evaluation.CELL_ORDER)
        for run in range(2)
    ]
    return "model,dataset,run,rmse,fingerprint\n" + "\n".join(rows) + "\n"


def test_report_reads_runs_csv_with_utf8_bom(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "runs.csv").write_text(_runs_text(), encoding="utf-8")
    assert run(config, "report") == 0
    clean = (out / "report.txt").read_bytes()
    (out / "runs.csv").write_text(_runs_text(), encoding="utf-8-sig")
    assert run(config, "report") == 0
    assert (out / "report.txt").read_bytes() == clean


# =============================================================================
# config validation
# =============================================================================


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.ini"), "select"]) == 1
    assert "not found" in capsys.readouterr().err


def test_bad_enum_value(tmp_path, capsys):
    build_workspace(tmp_path, n_days=80, seed=13)
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace("linkage = single", "linkage = average"))
    assert run(config, "select") == 1
    assert "valid values" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_selection_weight_rejected(tmp_path, capsys, value):
    build_workspace(tmp_path, n_days=80, seed=13)
    config = write_config(tmp_path)
    config.write_text(
        config.read_text().replace(
            "[selection]\n", f"[selection]\nweights = {value}, 0.2, 0.2, 0.2, 0.2, 0.2\n"
        )
    )
    assert run(config, "select") == 1
    assert "[selection] weights invalid: selection weights must be finite" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_rejected_before_training(tmp_path, capsys, value):
    build_workspace(tmp_path, n_days=80, seed=13)
    config = write_config(tmp_path, extra_train=f"learning_rate = {value}")
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 1
    assert run(config, "run-experiment") == 1
    captured = capsys.readouterr()
    assert f"error: [train] learning_rate must be positive and finite, got {value}\n" in captured.err
    assert "RMSE" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["config-key", "flag"])
def test_negative_seed_rejected_before_any_work(tmp_path, capsys, source):
    build_workspace(tmp_path, n_days=80, seed=13)
    config = write_config(tmp_path)
    flags = ("--seed", "-1") if source == "flag" else ()
    if source == "config-key":
        config.write_text(config.read_text().replace("seed = 0\n", "seed = -1\n"))
    for command in ("select", "run-experiment"):
        assert run(config, command, *flags) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: [train] seed must be non-negative, got -1\n" * 2
    assert "RMSE" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("hidden_size", "0"), ("kernels", "-2")])
def test_non_positive_model_size_names_its_key(tmp_path, capsys, key, value):
    build_workspace(tmp_path, n_days=80, seed=13)
    config = write_config(tmp_path)
    config.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", config.read_text(), flags=re.M))
    assert run(config, "select") == 1
    assert capsys.readouterr().err == f"error: [train] {key} must be at least 1, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, fault",
    [
        pytest.param(key, fault, id=key if fault == "repeated" else f"{key}-{fault}")
        for fault in ("repeated", "quote", "line-break")
        for key in ("tickers", "factor_tickers")
    ],
)
def test_repeated_ticker_rejected(tmp_path, capsys, key, fault):
    """A ticker listed twice, or one that `csv.writer` would quote (and a later
    command then misread), is refused before any work."""
    build_workspace(tmp_path, n_days=80, seed=13)
    config = write_config(tmp_path)
    listed = UNIVERSE if key == "tickers" else FACTORS
    bad, message = {
        "repeated": (listed[9], f"lists {listed[9]!r} more than once"),
        "quote": ('"Q', """lists '"Q', which holds a double quote or a line break"""),
        "line-break": ("Q\n  R", "lists 'Q\\nR', which holds a double quote or a line break"),
    }[fault]
    config.write_text(
        config.read_text().replace(
            f"{key} = {', '.join(listed)}", f"{key} = {bad}, {', '.join(listed)}"
        )
    )
    assert run(config, "select") == 1
    assert f"[data] {key} {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, text, command, message",
    [
        ("weights.csv", "C00,0.5\nC01\n", "build-index", "line 2: expected 'ticker,value'"),
        ("weights.csv", "C00,0.5\n\nC00,0.5\n", "build-index", "line 3: repeated ticker 'C00'"),
        ("constituents.csv", "C00,1\nC01,0.9\nC00,0.8\n", "allocate", "line 3: repeated ticker 'C00'"),
        ("constituents.csv", "C00,1.0\n,0.9\n", "allocate", "line 2: expected 'ticker,value'"),
    ],
    ids=["weights-no-comma", "weights-repeated", "constituents-repeated", "constituents-no-ticker"],
)
def test_ticker_value_files_name_path_and_line_of_bad_row(
    tmp_path, capsys, name, text, command, message
):
    build_workspace(tmp_path, n_days=80, seed=9)
    config = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text(text)
    assert run(config, command) == 1
    assert f"{out / name}: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [name]


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[allocation]\nstratgy = min_variance\n",
            "[allocation] unknown key 'stratgy'; valid keys: strategy",
        ),
        ("[train]\nepoch = 3\n", "[train] unknown key 'epoch'; valid keys: seed, runs, epochs"),
        ("[DEFAULT]\nlookbak = 5\n", "[DEFAULT] unknown key 'lookbak'; valid keys: "),
        ("[data]\nk = 5\n", "[data] unknown key 'k'; valid keys: prices_dir"),
        ("[DEFAULT]\nk = 5\n[train]\nk = 3\n", "[train] unknown key 'k'; valid keys: seed"),
    ],
    ids=[
        "misspelt-strategy",
        "misspelt-epochs",
        "default-section",
        "key-of-another-section",
        "default-overridden-where-unread",
    ],
)
def test_unknown_config_key_rejected(tmp_path, text, message):
    from corrindex.config import ConfigError, load_config

    (tmp_path / "bad.ini").write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "bad.ini")
    assert str(err.value).startswith(message)


# Fault values for every key of config.SECTION_KEYS, by the kind its default
# shows, so that a new key is covered as soon as it is declared. Large values go
# only to the keys checked against the data.
_NUMBER_FAULTS = ("nan", "inf", "-1", "0", "", "x", "1.5")
_DATA_CHECKED = {"k": ("1", "1000"), "lookback": ("1000",)}
_WEIGHT_FAULTS = ("0.5, 0.5", "-0.5, 0.5, 0.25, 0.25, 0.25, 0.25", "0.2, 0.2, 0.2, 0.2, 0.2, 0.2", "x")


def _fault_values(key: str, default) -> tuple[str, ...]:
    if default is None:  # a path: a file or directory that does not exist
        return ("missing",)
    if isinstance(default, Path):  # the output directory: a file, or a path under one
        return ("metrics.csv", "metrics.csv/out")
    if isinstance(default, str):  # one of a fixed set of names
        return ("bogus",)
    if default == ():  # a ticker list
        return ("A, B, A",)
    if isinstance(default, tuple):  # the selection weights
        return _WEIGHT_FAULTS
    assert isinstance(default, (int, float)), f"no fault values for {key} = {default!r}"
    return _NUMBER_FAULTS + _DATA_CHECKED.get(key, ())


def _unreadable(read, text: str) -> bool:
    """Whether `read` cannot parse `text`, as against parsing and refusing it."""
    try:
        read(text)
    except ConfigError:
        return False
    except ValueError:
        return True
    return False


def _config_faults(unreadable: bool) -> list:
    return [
        pytest.param(section, key, value, id=f"{section}.{key}={value}")
        for section, keys in SECTION_KEYS.items()
        for key, (_, read, default) in keys.items()
        for value in _fault_values(key, default)
        if _unreadable(read, value) == unreadable
    ]


# The command that reads each key, by key, else by section
_READER = {
    "factors_dir": "make-dataset",
    "factor_tickers": "make-dataset",
    "index_csv": "make-dataset",
    "data": "select",
    "selection": "select",
    "risk": "allocate",
    "allocation": "allocate",
    "dataset": "make-dataset",
    "train": "run-experiment",
    "output": "select",
}


def _run_with_key(clean_inputs, tmp_path, capsys, section, key, value):
    """Run the command that reads `[section] key = value` on a copy of the
    clean workspace; returns (exit code, stderr lines, artifacts before, after)."""
    root = tmp_path / "ws"
    shutil.copytree(clean_inputs, root)
    config = root / "pipeline.ini"
    text = re.sub(rf"^{key} = .*\n", "", config.read_text(), flags=re.MULTILINE)
    config.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    before = _files(root / "out")
    capsys.readouterr()
    code = run(config, _READER.get(key, _READER[section]))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.err.splitlines(), before, _files(root / "out")


@pytest.mark.parametrize("section, key, value", _config_faults(unreadable=True))
def test_unreadable_number_names_section_and_key(clean_inputs, tmp_path, capsys, section, key, value):
    code, err, before, after = _run_with_key(clean_inputs, tmp_path, capsys, section, key, value)
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith(f"error: [{section}] {key}: ")
    assert after == before


def _finite(artifact: bytes) -> bool:
    numbers = []
    for token in re.split(r"[,\s]+", artifact.decode()):
        with contextlib.suppress(ValueError):
            numbers.append(float(token))
    return bool(np.isfinite(numbers).all())


@pytest.mark.parametrize("section, key, value", _config_faults(unreadable=False))
def test_config_fault_names_section_and_key(clean_inputs, tmp_path, capsys, section, key, value):
    """Exit 1 with one line naming `[section] key` and every artifact
    unchanged; or exit 0 with finite artifacts."""
    code, err, before, after = _run_with_key(clean_inputs, tmp_path, capsys, section, key, value)
    if code == 0:
        assert all(_finite(artifact) for artifact in after.values())
        return
    assert code == 1
    assert len(err) == 1
    assert re.match(rf"error: \[{section}\] {key}\b", err[0]), err[0]
    assert after == before


@pytest.mark.parametrize("value", ["metrics.csv", "metrics.csv/out"], ids=["file", "under-file"])
@pytest.mark.parametrize("source", ["[output] dir", "--output-dir"])
def test_output_dir_that_is_or_lies_under_a_file_exits_1_before_any_work(
    clean_inputs, tmp_path, capsys, source, value
):
    """Refused while loading the config, naming where the value came from: no
    model trains, no cell line is printed and no artifact changes."""
    root = tmp_path / "ws"
    shutil.copytree(clean_inputs, root)
    config = root / "pipeline.ini"
    flags = ()
    if source == "[output] dir":
        config.write_text(re.sub(r"^dir = .*$", f"dir = {value}", config.read_text(), flags=re.M))
    else:
        flags = ("--output-dir", str(root / value))
    before = _files(root / "out")
    capsys.readouterr()
    assert run(config, "run-experiment", *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {source} {root / value} is not a directory: {root / 'metrics.csv'} is a file"
    ]
    assert _files(root / "out") == before
    assert (root / "metrics.csv").read_bytes() == (clean_inputs / "metrics.csv").read_bytes()


# A value each [train] key refuses
_TRAIN_FAULTS = {
    "seed": -1,
    "runs": 0,
    "epochs": 0,
    "learning_rate": float("nan"),
    "batch_size": 0,
    "hidden_size": 0,
    "kernels": -2,
}


def test_train_config_fields_are_the_train_keys():
    from dataclasses import fields

    from corrindex.config import TRAIN_KEYS, TrainConfig

    assert [f.name for f in fields(TrainConfig)] == list(TRAIN_KEYS) == list(_TRAIN_FAULTS)
    assert list(SECTION_KEYS["train"]) == list(TRAIN_KEYS)
    assert (TrainConfig().kernel_width, TrainConfig().pool_width) == (3, 2)
    with pytest.raises(TypeError):
        TrainConfig(kernel_width=5)


@pytest.mark.parametrize("key", _TRAIN_FAULTS)
def test_train_config_names_key_requirement_and_value(key):
    from corrindex.config import TRAIN_KEYS, TrainConfig

    bad = _TRAIN_FAULTS[key]
    with pytest.raises(ValueError) as err:
        TrainConfig(**{key: bad})
    assert str(err.value) == f"{key} must be {TRAIN_KEYS[key][2]}, got {bad}"


# The clean workspace's index has 79 returns. `lookback = 78` leaves one window,
# which a 0.8 split puts all in test; 79 and more leave none. The short-factor
# case drops F03's first 39 days, so dataset2 has 40 rows and lookback 39 leaves
# it one window while dataset1 keeps 40.
_LOOKBACK_FAULTS = [
    (
        "78",
        None,
        "lookback = 78 and split_fraction = 0.8 split the 79 index returns "
        "into 0 train and 1 test windows; each needs at least 1",
    ),
    ("79", None, "lookback = 79 must be less than the 79 index returns"),
    ("1000", None, "lookback = 1000 must be less than the 79 index returns"),
    (
        "39",
        "F03",
        "lookback = 39 and split_fraction = 0.8 split the 40 index returns on dates every "
        "factor has (the index has 79) into 0 train and 1 test windows; each needs at least 1",
    ),
]


@pytest.mark.parametrize("command", ["make-dataset", "run-experiment"])
@pytest.mark.parametrize(
    "lookback, late_factor, message", _LOOKBACK_FAULTS, ids=["empty-split", "equal", "longer", "short-factor"]
)
def test_lookback_the_index_cannot_fill_exits_1_naming_the_key(
    clean_inputs, tmp_path, capsys, command, lookback, late_factor, message
):
    root = tmp_path / "ws"
    shutil.copytree(clean_inputs, root)
    config = root / "pipeline.ini"
    config.write_text(config.read_text().replace("lookback = 10", f"lookback = {lookback}"))
    if late_factor is not None:
        path = root / "factors" / f"{late_factor}.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join(lines[40:]))
    before = _files(root / "out")
    capsys.readouterr()
    assert run(config, command) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: [dataset] {message}"]
    assert "RMSE" not in captured.out
    assert _files(root / "out") == before


def test_config_with_utf8_bom_loads(tmp_path):
    from corrindex.config import load_config

    config = write_config(tmp_path)
    bom = tmp_path / "bom.ini"
    bom.write_bytes(codecs.BOM_UTF8 + config.read_bytes())
    assert load_config(bom) == load_config(config)


def test_config_with_crlf_loads(tmp_path):
    from corrindex.config import load_config

    config = write_config(tmp_path)
    crlf = tmp_path / "crlf.ini"
    crlf.write_bytes(config.read_bytes().replace(b"\n", b"\r\n"))
    assert load_config(crlf) == load_config(config)


def test_config_not_utf8_names_file_and_line(tmp_path, capsys):
    config = write_config(tmp_path)
    config.write_bytes(b"; caf\xe9\n" + config.read_bytes())
    assert run(config, "select") == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {config}: line 1: not UTF-8 ")


def test_default_section_key_applies_to_sections_that_read_it(tmp_path):
    from corrindex.config import load_config

    (tmp_path / "ok.ini").write_text("[DEFAULT]\nk = 5\n\n[selection]\n[data]\n", encoding="utf-8")
    assert load_config(tmp_path / "ok.ini").k == 5


def test_readme_config_loads_with_documented_defaults(tmp_path):
    from corrindex.config import TrainConfig, load_config

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    (tmp_path / "readme.ini").write_text(block, encoding="utf-8")
    (tmp_path / "empty.ini").write_text("", encoding="utf-8")
    cfg = load_config(tmp_path / "readme.ini")
    defaults = load_config(tmp_path / "empty.ini")
    # "All keys below show their defaults", apart from the example data paths
    data = ("prices_dir", "metrics_csv", "tickers", "factors_dir", "factor_tickers")
    assert replace(cfg, **{key: getattr(defaults, key) for key in data}) == defaults
    assert defaults.train == TrainConfig()
    # the block lists every section and key, in the order of SECTION_KEYS
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    documented = [(section, list(parser[section])) for section in parser.sections()]
    assert documented == [(section, list(keys)) for section, keys in SECTION_KEYS.items()]


def test_empty_output_dir_is_the_config_directory(tmp_path):
    from corrindex.config import load_config

    (tmp_path / "here.ini").write_text("[output]\ndir =\n", encoding="utf-8")
    assert load_config(tmp_path / "here.ini").output_dir == tmp_path


def test_seed_overrides_flag_beats_env_beats_file(tmp_path):
    """The flag beats the file; the environment sets no seed (the test below)."""
    from corrindex.config import load_config

    build_workspace(tmp_path, n_days=80, seed=15)
    config = write_config(tmp_path)
    assert load_config(config).train.seed == 0
    assert load_config(config, seed_override=9).train.seed == 9


def test_output_dir_override(tmp_path):
    from corrindex.config import load_config

    build_workspace(tmp_path, n_days=80, seed=19)
    config = write_config(tmp_path)
    assert load_config(config).output_dir == tmp_path / "out"
    assert (
        load_config(config, output_override=tmp_path / "flag_out").output_dir
        == tmp_path / "flag_out"
    )


def test_environment_sets_neither_seed_nor_output_dir(tmp_path, monkeypatch):
    """Only the file and the flags set the seed and the output directory."""
    from corrindex.config import load_config

    config = write_config(tmp_path)
    monkeypatch.setenv("CORRINDEX_SEED", "5")
    monkeypatch.setenv("CORRINDEX_OUTPUT_DIR", str(tmp_path / "env_out"))
    cfg = load_config(config)
    assert (cfg.train.seed, cfg.output_dir) == (0, tmp_path / "out")


@pytest.mark.parametrize("flags", [("--seed", "3")], ids=["flag"])
def test_key_an_override_replaces_is_still_read(tmp_path, capsys, flags):
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace("seed = 0\n", "seed = x\n"))
    assert run(config, "select", *flags) == 1
    assert capsys.readouterr().err == "error: [train] seed: invalid literal for int() with base 10: 'x'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt], ids=["OSError", "KeyboardInterrupt"])
def test_commit_failure_keeps_old_targets(tmp_path, capsys, error):
    targets = [tmp_path / "weights.csv", tmp_path / "linkage.csv"]
    for target in targets:
        target.write_text(f"old {target.name}\n")
    old = _files(tmp_path)
    temp_paths = []

    def writer(path, fail):
        temp_paths.append(path)
        path.write_text("new\n")
        if fail:
            raise error("disk full")

    with pytest.raises(error, match="disk full"):
        commit(tmp_path, {"weights.csv": lambda p: writer(p, fail=True)})
    assert _files(tmp_path) == old  # the old target survives, and no .tmp file is left
    # the second output fails after the first is written: neither target changes
    with pytest.raises(error, match="disk full"):
        commit(tmp_path, {"weights.csv": "new\n", "linkage.csv": lambda p: writer(p, fail=True)})
    assert _files(tmp_path) == old
    assert capsys.readouterr().out == ""

    commit(tmp_path, {"weights.csv": lambda p: writer(p, fail=False), "linkage.csv": "new\n"})
    assert _files(tmp_path) == {target.name: b"new\n" for target in targets}
    assert capsys.readouterr().out == "".join(f"wrote {target}\n" for target in targets)
    # each write gets its own temp file beside the target
    assert len(set(temp_paths)) == len(temp_paths) == 3
    assert {p.parent for p in temp_paths} == {tmp_path}


def test_wrote_lines_name_exactly_the_files_each_command_replaced(workspace, capsys):
    config = write_config(workspace, out_dir="out_wrote")
    out = workspace / "out_wrote"

    def identities() -> dict[Path, tuple[int, int]]:
        return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.glob("*") if p.is_file()}

    for command in ("select", "allocate", "build-index", "make-dataset", "run-experiment", "report"):
        before = identities()
        capsys.readouterr()
        assert run(config, command) == 0
        lines = capsys.readouterr().out.splitlines()
        wrote = [Path(line.removeprefix("wrote ")) for line in lines if line.startswith("wrote ")]
        replaced = [path for path, identity in identities().items() if before.get(path) != identity]
        assert sorted(wrote) == sorted(replaced), command


# =============================================================================
# input-file faults
# =============================================================================


_DATASETS = tuple(f"dataset{i}_{split}.csv" for i in (1, 2) for split in ("train", "test"))
# input file, the command that reads it, the artifacts that command writes
_INPUTS = {
    "price": ("prices/C03.csv", "select", ("constituents.csv",)),
    "factor": ("factors/F03.csv", "make-dataset", _DATASETS),
    "metrics": ("metrics.csv", "select", ("constituents.csv",)),
    "index_csv": ("index.csv", "make-dataset", _DATASETS),
    "constituents": (
        "out/constituents.csv",
        "allocate",
        ("weights.csv", "covariance.csv", "correlation.csv", "linkage.csv"),
    ),
    "weights": ("out/weights.csv", "build-index", ("index_returns.csv",)),
    "runs": ("out/runs.csv", "report", ("report.txt",)),
}
_FAULT_LINE = 3  # the 1-based line the malformed variants break


def _break_row(text: str, last_field: str | None) -> str:
    """Drop the last field of line `_FAULT_LINE`, or replace it with `last_field`."""
    lines = text.split("\n")
    head = lines[_FAULT_LINE - 1].rpartition(",")[0]
    lines[_FAULT_LINE - 1] = head if last_field is None else f"{head},{last_field}"
    return "\n".join(lines)


def _not_utf8(text: str) -> str:
    """Put a Latin-1 'é' on line `_FAULT_LINE`: the lone surrogate is written
    as the byte 0xe9 under `surrogateescape`, and that byte is not UTF-8."""
    lines = text.split("\n")
    lines[_FAULT_LINE - 1] += "\udce9"
    return "\n".join(lines)


def _extra_field(text: str) -> str:
    """Append one more cell to line `_FAULT_LINE`."""
    lines = text.split("\n")
    lines[_FAULT_LINE - 1] += ",0"
    return "\n".join(lines)


def _repeat_row(text: str) -> str:
    """Insert a copy of line `_FAULT_LINE` after it."""
    lines = text.split("\n")
    return "\n".join([*lines[:_FAULT_LINE], *lines[_FAULT_LINE - 1 :]])


def _without_last_cell(text: str) -> str:
    """runs.csv cut short at a row boundary: the last cell's rows are gone."""
    model_id, dataset_id = evaluation.CELL_ORDER[-1]
    rows = text.splitlines(keepends=True)
    return "".join(row for row in rows if not row.startswith(f"{model_id},{dataset_id},"))


def _respelt_date(spell):
    """A variant that respells the `YYYY-MM-DD` date opening line `_FAULT_LINE`
    as `spell(date)`: a spelling `date.fromisoformat` reads from Python 3.11 on."""

    def fault(text: str) -> str:
        lines = text.split("\n")
        day, _, rest = lines[_FAULT_LINE - 1].partition(",")
        lines[_FAULT_LINE - 1] = f"{spell(date.fromisoformat(day))},{rest}"
        return "\n".join(lines)

    return fault


def _blank_line_after(text: str, line: int) -> str:
    lines = text.split("\n")
    return "\n".join([*lines[:line], "", *lines[line:]])


_BENIGN = {
    "bom": lambda text: "\ufeff" + text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing-blank-line": lambda text: text + "\n",
    "leading-blank-line": lambda text: "\n" + text,
    "blank-line-mid-file": lambda text: _blank_line_after(text, 2),
}
_MALFORMED = {
    "truncated-row": lambda text: _break_row(text, None),
    "non-numeric-field": lambda text: _break_row(text, "abc"),
    "non-finite-value": lambda text: _break_row(text, "nan"),
    "latin-1-byte": _not_utf8,
    "header-only": lambda text: text.split("\n")[0] + "\n",
    "extra-field": _extra_field,
    "repeated-row": _repeat_row,
    "missing-cell": _without_last_cell,
    "compact-date": _respelt_date(lambda day: day.strftime("%Y%m%d")),
    "week-date": _respelt_date(lambda day: "{}-W{:02d}-{}".format(*day.isocalendar())),
}
# A price or factor row may hold cells past the header's columns; the reader
# ignores them, so these inputs rebuild the clean artifacts.
_EXTRA_CELLS_IGNORED = ("price", "factor")
# These variants apply to the dated-series inputs only. runs.csv's last field is
# the fingerprint, which must agree across the file rather than parse as a
# number, and only the dated series open each row with a date.
_SERIES_ONLY = ("non-finite-value", "header-only", "compact-date", "week-date")
_FAULTS = [
    (name, variant)
    for name in _INPUTS
    for variant in (*_BENIGN, *_MALFORMED)
    if (name, variant) != ("runs", "non-numeric-field")
    and (variant not in _SERIES_ONLY or name in ("price", "factor", "index_csv"))
    and (variant != "missing-cell" or name == "runs")
]


@pytest.fixture(scope="module")
def clean_inputs(tmp_path_factory):
    """A workspace whose inputs are all LF, BOM-less UTF-8, with every artifact
    the commands write from them; make-dataset reads `[data] index_csv`."""
    root = tmp_path_factory.mktemp("clean_inputs")
    build_workspace(root, n_days=80, seed=29)
    config = write_config(root)
    config.write_text(config.read_text().replace("[data]\n", "[data]\nindex_csv = index.csv\n"))
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 0
    # universal newlines turn the artifact's CRLF rows into LF
    (root / "index.csv").write_text((root / "out" / "index_returns.csv").read_text())
    (root / "out" / "runs.csv").write_text(_runs_text())
    for command in ("make-dataset", "report"):
        assert run(config, command) == 0
    return root


def _files(directory: Path) -> dict[str, bytes]:
    """The top-level files of `directory` by name; like the benchmark's rerun
    check, it leaves out the parse cache under `.cache/`."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


# A rerun with a different config, whose output number `call` of `module.function` fails
_FAILED_OUTPUTS = {
    "allocate": (
        riskmodel, "linkage_to_csv", 1,
        {"strategy = hrp_walk": "strategy = equal_weight", "linkage = single": "linkage = ward"},
    ),
    "make-dataset": (dataset, "save_windows_csv", 3, {"lookback = 10": "lookback = 12"}),
}


@pytest.mark.parametrize("command", _FAILED_OUTPUTS)
def test_failed_output_leaves_every_artifact_unchanged(clean_inputs, tmp_path, capsys, monkeypatch, command):
    """The config edits make every output written before the failing one
    differ from its artifact in out/, yet none of them replaces it."""
    module, function, call, edits = _FAILED_OUTPUTS[command]
    root = tmp_path / "ws"
    shutil.copytree(clean_inputs, root)
    config = root / "pipeline.ini"
    text = config.read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    config.write_text(text)
    before = _files(root / "out")
    calls = []
    write = getattr(module, function)

    def failing(*args):
        calls.append(args)
        if len(calls) == call:
            raise OSError("disk full")
        return write(*args)

    monkeypatch.setattr(module, function, failing)
    capsys.readouterr()
    assert run(config, command) == 2
    assert capsys.readouterr().err.splitlines() == ["runtime error: disk full"]
    assert len(calls) == call
    assert _files(root / "out") == before


def _check_fault(clean_inputs: Path, root: Path, capsys, name: str, variant: str) -> tuple[int, str]:
    """Copy the clean workspace to `root`, apply `variant` to input `name` and
    run the command that reads it. Benign variants must rebuild the clean
    artifacts byte for byte; malformed ones must exit 1 (`constituents.csv`
    and `weights.csv`) or 2 (every other input) with one stderr line naming
    the path (and the bad line, if there is one), writing nothing.
    Returns the exit code and stderr, with `root` written as `<ws>`."""
    shutil.copytree(clean_inputs, root)
    relative, command, artifacts = _INPUTS[name]
    path = root / relative
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text and not text.startswith("\ufeff")
    fault = {**_BENIGN, **_MALFORMED}[variant]
    path.write_bytes(fault(text).encode("utf-8", "surrogateescape"))
    out = root / "out"
    capsys.readouterr()

    if variant in _BENIGN or (variant == "extra-field" and name in _EXTRA_CELLS_IGNORED):
        for artifact in artifacts:
            (out / artifact).unlink()
        code = run(root / "pipeline.ini", command)
        err = capsys.readouterr().err
        assert code == 0, err
        expected = _files(clean_inputs / "out")
        expected.pop(path.name, None)
        got = _files(out)
        got.pop(path.name, None)
        assert got == expected
    else:
        before = _files(out)
        code = run(root / "pipeline.ini", command)
        assert code == (1 if name in ("constituents", "weights") else 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        # a repeated row is reported at its second copy
        line = _FAULT_LINE + 1 if variant == "repeated-row" else _FAULT_LINE
        whole_file = variant in ("header-only", "missing-cell")
        assert (f"{path}: " if whole_file else f"{path}: line {line}: ") in err
        assert _files(out) == before
    return code, err.replace(str(root), "<ws>")


# numpy's tokenizer reads price and factor files too, so on their rows any
# warning raised while reading is an error.
_FAULT_PARAMS = [
    pytest.param(
        name,
        variant,
        id=f"{name}-{variant}",
        marks=[pytest.mark.filterwarnings("error")] if name in ("price", "factor") else [],
    )
    for name, variant in _FAULTS
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, variant", _FAULT_PARAMS)
def test_input_file_fault(clean_inputs, tmp_path, capsys, name, variant):
    _check_fault(clean_inputs, tmp_path / "ws", capsys, name, variant)


_FORKED_FAULTS = [(name, variant) for name, variant in _FAULTS if name in ("price", "factor")]


@pytest.fixture
def two_cpus(monkeypatch):
    """This process sees CPUs {0, 1}; the CPUs it may really use are restored
    afterwards, since the fork map pins it and restores what it saw."""
    real = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield
    if real is not None:
        os.sched_setaffinity(0, real)


@pytest.mark.filterwarnings("error")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, variant", _FORKED_FAULTS, ids=[f"{n}-{v}" for n, v in _FORKED_FAULTS])
def test_input_file_fault_read_by_forked_worker(clean_inputs, tmp_path, capsys, monkeypatch, two_cpus, name, variant):
    """With two CPUs and no size floor, the price and factor files are read
    by `fork_map`, and the faulted file (index 3 of 10 or 11) by the forked
    worker: exit code, stderr and artifacts are those of the serial read."""
    serial = _check_fault(clean_inputs, tmp_path / "serial", capsys, name, variant)  # under the floor
    monkeypatch.setattr(cli, "PARALLEL_READ_BYTES", 0)
    read_here = []
    load = market_data.load_price_csv
    monkeypatch.setattr(
        market_data, "load_price_csv", lambda path, **kw: read_here.append(path.name) or load(path, **kw)
    )
    assert _check_fault(clean_inputs, tmp_path / "forked", capsys, name, variant) == serial
    faulted = Path(_INPUTS[name][0]).name
    assert read_here and faulted not in read_here


def test_inputs_under_the_size_floor_are_read_without_forking(tmp_path, monkeypatch, two_cpus):
    """The test fixture's price and factor files total less than
    `PARALLEL_READ_BYTES`, so even with two CPUs every command reads them in
    its own process."""
    build_workspace(tmp_path)
    config = write_config(tmp_path)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for command in ("select", "allocate", "build-index", "make-dataset"):
        assert run(config, command) == 0


_MALFORMED_SERIES = [
    (name, variant)
    for name, variant in _FORKED_FAULTS
    if variant in _MALFORMED and variant != "extra-field"
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, variant", _MALFORMED_SERIES, ids=[f"{n}-{v}" for n, v in _MALFORMED_SERIES])
def test_faulted_input_file_gets_no_cache_entry(clean_inputs, tmp_path, capsys, name, variant):
    root = tmp_path / "ws"
    _check_fault(clean_inputs, root, capsys, name, variant)
    key = market_data._cache_key((root / _INPUTS[name][0]).read_bytes())
    assert not (root / "out" / ".cache" / "prices" / f"{key}.npy").exists()


def test_commands_reuse_the_parses_of_earlier_commands(tmp_path, monkeypatch):
    """`allocate` and `build-index` parse none of the price files `select`
    parsed, nor `run-experiment` the factor files `make-dataset` parsed, and
    a rerun of all six commands parses nothing and writes the same bytes."""
    build_workspace(tmp_path)
    config = write_config(tmp_path)
    cache = tmp_path / "out" / ".cache" / "prices"
    for parsing, commands in (
        (True, ("select",)),
        (False, ("allocate", "build-index")),
        (True, ("make-dataset",)),
        (False, ("run-experiment", "report")),
    ):
        monkeypatch.undo()
        if not parsing:
            forbid_parsing(monkeypatch)
        for command in commands:
            assert run(config, command) == 0, command
    cold = _files(tmp_path / "out")
    entries = sorted(cache.iterdir())
    assert len(entries) == len(UNIVERSE) + len(FACTORS)
    for command in ("select", "allocate", "build-index", "make-dataset", "run-experiment", "report"):
        assert run(config, command) == 0, command
    assert _files(tmp_path / "out") == cold
    assert sorted(cache.iterdir()) == entries


def test_forked_workers_cache_the_files_they_read(tmp_path, monkeypatch, two_cpus):
    """With two CPUs and no size floor, this process writes the entries of
    its own stripe (files 0, 2, 4, ...) and the forked worker the others."""
    build_workspace(tmp_path)
    config = write_config(tmp_path)
    monkeypatch.setattr(cli, "PARALLEL_READ_BYTES", 0)
    written_here = []
    save = market_data._save_entry
    monkeypatch.setattr(
        market_data, "_save_entry", lambda entry, bars: written_here.append(entry.name) or save(entry, bars)
    )
    assert run(config, "select") == 0
    names = [
        f"{market_data._cache_key((tmp_path / 'prices' / f'{ticker}.csv').read_bytes())}.npy"
        for ticker in UNIVERSE
    ]
    assert sorted(p.name for p in (tmp_path / "out" / ".cache" / "prices").iterdir()) == sorted(names)
    assert written_here == names[::2]


def _process_group(pgid: int) -> list[int]:
    """The live or unreaped processes of group `pgid`, read from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()  # state, ppid, pgrp, ...
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process groups from /proc")
def test_ctrl_c_during_run_experiment_leaves_no_process(tmp_path):
    """SIGINT to the command's process group while a forked worker trains:
    the command exits within 10 s and leaves no process of its group behind."""
    build_workspace(tmp_path)
    config = write_config(tmp_path)
    for command in ("select", "allocate", "build-index"):
        assert run(config, command) == 0
    config.write_text(config.read_text().replace("epochs = 3", "epochs = 100000"))
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from corrindex.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "--config", str(config), "run-experiment"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, cwd=tmp_path, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while len(_process_group(proc.pid)) < 2:
            assert proc.poll() is None, "run-experiment ended before it forked"
            assert time.monotonic() < deadline, "run-experiment did not fork"
            time.sleep(0.005)
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=10)
        assert _process_group(proc.pid) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


# =============================================================================
# process entry
# =============================================================================


def test_process_entry_matches_main(tmp_path, capsys):
    """`python -m corrindex.cli` gives the exit code, stdout and stderr that
    `main` gives in this process: `report` prints report.txt, a config fault
    its `error:` line with exit 1, a runtime fault its `runtime error:` line
    with exit 2."""
    config = write_config(tmp_path)
    bad_runs = _runs_text().replace("lstm,dataset1,1,0.11,", "lstm,dataset1,1,inf,")
    for name, runs in (("out", _runs_text()), ("bad", bad_runs)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "runs.csv").write_text(runs)
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    results = {}
    for out in ("out", "missing", "bad"):
        argv = ["--config", str(config), "--output-dir", str(tmp_path / out), "report"]
        process = subprocess.run(
            [sys.executable, "-m", "corrindex.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        results[out] = (main(argv), *capsys.readouterr())
        assert (process.returncode, process.stdout, process.stderr) == results[out]
    report = tmp_path / "out" / "report.txt"
    assert results["out"] == (0, report.read_text() + f"wrote {report}\n", "")
    assert results["missing"] == (
        1, "", f"error: runs.csv (run run-experiment) not found: {tmp_path / 'missing' / 'runs.csv'}\n"
    )
    assert results["bad"] == (
        2,
        "",
        f"runtime error: {tmp_path / 'bad' / 'runs.csv'}: line 3: rmse 'inf' is not nan or a finite positive number\n",
    )


def test_main_leaves_the_collector_working(tmp_path):
    """Only `run`, the process entry, freezes the collector. `main` must not:
    tests and the benchmark's traced replay call it many times in one process."""
    config = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "runs.csv").write_text(_runs_text())
    assert run(config, "report") == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_console_script_runs_the_process_entry():
    """The `corrindex` script runs `cli.run`: as installed, or, without an
    install, as `pyproject.toml` declares it."""
    try:
        importlib.metadata.distribution("corrindex")
    except importlib.metadata.PackageNotFoundError:
        reason = "the corrindex distribution is not installed, and Python 3.10 has no tomllib"
        tomllib = pytest.importorskip("tomllib", reason=reason)
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts["corrindex"] == "corrindex.cli:run"
        return
    scripts = importlib.metadata.entry_points(group="console_scripts")
    assert [script.value for script in scripts if script.name == "corrindex"] == ["corrindex.cli:run"]


# =============================================================================
# import graph
# =============================================================================


# The stage modules each command must not load, in a fresh interpreter
_NOT_LOADED = {
    "select": {"riskmodel", "allocation", "index_builder", "dataset", "evaluation", "forecast"},
    "allocate": {"selection", "index_builder", "dataset", "evaluation", "forecast"},
    "build-index": {"riskmodel", "selection", "dataset", "evaluation", "forecast"},
    "make-dataset": {"riskmodel", "allocation", "selection", "evaluation", "forecast"},
    "run-experiment": {"riskmodel", "allocation", "selection"},
    "report": {
        "riskmodel", "allocation", "selection", "index_builder", "dataset",
        "market_data", "parallel", "forecast", "numpy",
    },
}


def test_each_command_loads_only_the_stages_it_runs(tmp_path):
    """Each command in its own interpreter, with bytecode caching off as the
    benchmark runs it: the `corrindex` modules it loaded miss every stage it
    does not run, and the command still succeeds. `report` loads not even
    numpy: it reads and writes text only."""
    build_workspace(tmp_path, n_days=80, seed=31)
    config = write_config(tmp_path)
    code = (
        "import sys\n"
        "from corrindex.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.startswith('corrindex.') or m == 'numpy'))\n"
        "sys.exit(code)\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for command, absent in _NOT_LOADED.items():
        result = subprocess.run(
            [sys.executable, "-c", code, "--config", str(config), command],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        loaded = {name.removeprefix("corrindex.").split(".")[0] for name in result.stdout.splitlines()[-1].split()}
        assert loaded & absent == set(), command
        if command == "report":
            assert {"cli", "config", "csvio", "evaluation"} <= loaded
        else:
            assert {"cli", "config", "market_data", "numpy"} <= loaded, command


def test_forward_fill_pipeline_never_imports_numpy_ma(tmp_path):
    """`allocate` and `build-index` under `[risk] align = forward_fill`, then
    `make-dataset` and `run-experiment`, each in its own interpreter, never
    import `numpy.ma`, which `np.unique` (under `np.union1d` and `np.isin`)
    imports on first use at 10-17 ms a process."""
    build_workspace(tmp_path, n_days=80, seed=31)
    config = write_config(tmp_path)
    config.write_text(config.read_text().replace("align = intersect", "align = forward_fill"))
    code = (
        "import sys\n"
        "from corrindex.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('numpy.ma' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    for command in ("select", "allocate", "build-index", "make-dataset", "run-experiment"):
        result = subprocess.run(
            [sys.executable, "-c", code, "--config", str(config), command],
            capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False", command


def test_package_imports_stage_modules_on_first_use():
    code = (
        "import sys\n"
        "import corrindex\n"
        "assert [m for m in sys.modules if m.startswith('corrindex.')] == []\n"
        "assert corrindex.riskmodel.__name__ == 'corrindex.riskmodel'\n"
        "assert corrindex.forecast.__name__ == 'corrindex.forecast'\n"
        "assert 'corrindex.selection' not in sys.modules\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr


def test_star_import_binds_every_public_name():
    import corrindex

    namespace: dict = {}
    exec("from corrindex import *", namespace)
    assert set(corrindex.__all__) <= set(namespace)
    assert namespace["forecast"] is sys.modules["corrindex.forecast"]
    assert namespace["__version__"] == corrindex.__version__


def test_unknown_package_attribute_raises_attribute_error():
    import corrindex

    with pytest.raises(AttributeError, match="no attribute 'pipeline'"):
        corrindex.pipeline


def test_names_moved_to_config_are_the_same_objects():
    from corrindex import config, forecast, riskmodel, selection
    from corrindex.forecast import training

    assert forecast.TrainConfig is training.TrainConfig is config.TrainConfig
    assert riskmodel.LINKAGE_METHODS is config.LINKAGE_METHODS
    assert riskmodel.DISTANCE_CONVENTIONS is config.DISTANCE_CONVENTIONS
    assert selection.METRICS is config.METRICS
