"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line so `pytest tests/test_acceptance.py -v -s` reads
as a checklist. Absolute error magnitudes on real market data are not
asserted anywhere (no canonical data snapshot, seeds, or hyperparameters
exist to pin them); the suite instead checks arithmetic identities, oracle
equivalences, simplex and round-trip invariants, and training behavior on
synthetic data.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from corrindex.allocation import (
    equal_weight,
    hrp_dendrogram_walk,
    hrp_recursive_bisection,
    min_variance_long_only,
    quasi_diagonal_order,
)
from corrindex.dataset import chronological_split, fit_scaler, make_windows
from corrindex.evaluation import (
    CELL_ORDER,
    RunStats,
    comparison_report,
    multi_run,
    parse_runs_csv,
    reduction_pct,
    rmse,
    runs_csv,
)
from corrindex.forecast import (
    ConvParams,
    LstmParams,
    Model,
    TrainConfig,
    load_model,
    predict,
    save_model,
    train,
)
from corrindex.parallel import fork_chunks
from corrindex.riskmodel import (
    DistanceMatrix,
    cluster_aggregates,
    correlation_distance,
    correlation_matrix,
    linkage,
)
from conftest import random_covariance, tickers
from test_allocation import grid_search_minimum, oracle_dendrogram_walk, oracle_recursive_bisection
from test_cli import build_workspace, run, write_config
from test_forecast import finite_difference_check
from test_riskmodel import oracle_single_linkage


def ok(message: str) -> None:
    print(f"ACCEPTANCE PASS: {message}")


def test_reduction_arithmetic():
    """Feeding the four published mean RMSEs through reduction_pct."""
    got_full = reduction_pct(0.179, 0.028)
    got_cnn = reduction_pct(0.088, 0.028)
    got_lstm = reduction_pct(0.179, 0.034)
    assert abs(got_full - 84.35) < 0.05, got_full
    assert abs(got_cnn - 68.19) < 0.05, got_cnn
    # these means give 81.01, not the sometimes-quoted 82.12;
    # the report prints recomputed figures only
    assert abs(got_lstm - 81.01) < 0.05, got_lstm
    assert abs(got_lstm - 82.12) > 1.0
    ok(
        "reduction arithmetic: 84.36% and 68.18% within 0.05pp; "
        "the 82.12% figure recomputes to 81.01% and is footnoted"
    )


@pytest.mark.filterwarnings("ignore:node merging:RuntimeWarning")
def test_hrp_oracle_equivalence():
    """100 random PSD matrices, both HRP variants against independent oracles."""
    rng = np.random.default_rng(2024)
    start = time.time()
    for trial in range(100):
        n = int(rng.integers(2, 7))
        cov = random_covariance(n, rng)
        corr = correlation_matrix(cov)
        link = linkage(correlation_distance(corr))

        order = quasi_diagonal_order(link)
        got_rb = hrp_recursive_bisection(cov, order).values
        want_rb = oracle_recursive_bisection(cov.values, order)
        np.testing.assert_allclose(got_rb, want_rb, atol=1e-10)

        got_walk = hrp_dendrogram_walk(cov, link).values
        want_walk = oracle_dendrogram_walk(cov.values, link)
        np.testing.assert_allclose(got_walk, want_walk, atol=1e-12)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    ok(
        "HRP oracle equivalence: 100 matrices, recursive bisection within "
        "1e-10 and dendrogram walk within 1e-12 of straight-line oracles "
        f"({elapsed:.1f}s)"
    )


def test_markowitz_correctness():
    """Closed form on two assets; grid-search domination on three."""
    from corrindex.riskmodel import CovarianceMatrix

    start = time.time()
    cov2 = CovarianceMatrix(tickers=tickers(2), values=np.diag([0.01, 0.04]))
    weights, variance = min_variance_long_only(cov2)
    np.testing.assert_allclose(weights.values, [0.8, 0.2], atol=1e-10)

    rng = np.random.default_rng(7)
    for _ in range(3):
        cov3 = random_covariance(3, rng)
        _, var3 = min_variance_long_only(cov3)
        assert var3 <= grid_search_minimum(cov3.values, step=0.01) + 1e-6
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    ok(
        "Markowitz: 2-asset weights (0.8, 0.2) exact to 1e-10; 3 random "
        f"instances beat the 0.01 grid within 1e-6 ({elapsed:.1f}s)"
    )


@pytest.mark.filterwarnings("ignore:node merging:RuntimeWarning")
def test_simplex_invariants_thousand_instances():
    """All four strategies stay on the simplex for 1,000 random instances."""
    rng = np.random.default_rng(99)
    start = time.time()
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        cov = random_covariance(n, rng)
        link = linkage(correlation_distance(correlation_matrix(cov)))
        results = (
            hrp_dendrogram_walk(cov, link).values,
            hrp_recursive_bisection(cov, quasi_diagonal_order(link)).values,
            equal_weight(n, cov.tickers).values,
            min_variance_long_only(cov)[0].values,
        )
        for weights in results:
            assert weights.min() >= 0.0
            assert abs(weights.sum() - 1.0) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    ok(
        "simplex invariants: 4 strategies x 1,000 random instances, "
        f"nonnegative and summing to 1 within 1e-12 ({elapsed:.1f}s)"
    )


def test_linkage_matches_exhaustive_oracle():
    """Single-linkage merge sequences equal the nearest-pair oracle, 100 trials."""
    rng = np.random.default_rng(314)
    start = time.time()
    for trial in range(100):
        raw = rng.uniform(0.01, 1.0, size=(6, 6))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 0.0)
        dist = DistanceMatrix(tickers=tickers(6), values=values)
        got = [(m.left, m.right, m.size) for m in linkage(dist, method="single").merges]
        want = [(a, b, size) for a, b, _, size in oracle_single_linkage(values)]
        assert got == want
    elapsed = time.time() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    ok(f"linkage: 100 exact merge-sequence matches against the exhaustive oracle ({elapsed:.1f}s)")


def test_cluster_aggregate_identities():
    """m = n reproduces (C, corr); m = 1 reproduces the grand sum."""
    rng = np.random.default_rng(55)
    for n in (3, 5, 8):
        cov = random_covariance(n, rng)
        corr = correlation_matrix(cov)
        link = linkage(correlation_distance(corr))
        identity = cluster_aggregates(cov, corr, link, n)
        np.testing.assert_allclose(identity.cluster_cov, cov.values, atol=1e-12)
        np.testing.assert_allclose(identity.cluster_corr, corr.values, atol=1e-12)
        collapsed = cluster_aggregates(cov, corr, link, 1)
        assert collapsed.cluster_cov[0, 0] == pytest.approx(cov.values.sum(), abs=1e-12)
    ok("cluster aggregates: m = n reproduces inputs exactly; m = 1 gives the grand sum to 1e-12")


def test_gradient_checks_both_architectures():
    """BPTT vs central differences, 50 parameters x 5 draws per architecture."""
    start = time.time()
    worst = 0.0
    for draw in range(5):
        rng = np.random.default_rng(1000 + draw)
        model = Model(LstmParams.init(3, 8, rng))
        x = rng.normal(size=(4, 7, 3))
        y = rng.normal(size=4)
        worst = max(worst, finite_difference_check(model, x, y, rng, n_samples=50))
    for draw in range(5):
        rng = np.random.default_rng(2000 + draw)
        model = Model(conv=ConvParams.init(3, 5, rng=rng), lstm=LstmParams.init(5, 8, rng))
        x = rng.normal(size=(4, 12, 3))
        y = rng.normal(size=4)
        worst = max(worst, finite_difference_check(model, x, y, rng, n_samples=50))
    elapsed = time.time() - start
    assert worst < 1e-4, worst
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    ok(
        f"gradient checks: max relative error {worst:.2e} < 1e-4 over "
        f"50 parameters x 5 draws x 2 architectures ({elapsed:.1f}s)"
    )


def _sine_noise_series(days: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(days)
    signal = np.sin(2 * np.pi * t / 40.0) + 0.3 * np.sin(2 * np.pi * t / 7.0)
    return signal + rng.normal(0, 0.05, size=days)


def test_training_sanity_on_sine_plus_noise():
    """CNN-LSTM reaches test RMSE < 0.08 scaled; LSTM stays finite throughout."""
    start = time.time()
    series = _sine_noise_series(2000, seed=8)
    ds = make_windows(series, lookback=20)
    train_ds, test_ds = chronological_split(ds, 0.8)
    cfg = TrainConfig(epochs=100, runs=1, seed=0)

    def fit(model_spec: str):
        model, losses = train(model_spec, train_ds, cfg)
        return losses, rmse(predict(model, test_ds), test_ds.y)

    # the two trainings are independent; fork_chunks gives the serial loop's bits
    (losses, test_rmse), (lstm_losses, _) = fork_chunks(
        lambda chunk: [fit(chunk[0])], ["cnn_lstm", "lstm"], 1
    )
    assert all(np.isfinite(losses))
    assert test_rmse < 0.08, test_rmse
    assert all(np.isfinite(lstm_losses))
    elapsed = time.time() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    ok(
        f"training sanity: CNN-LSTM test RMSE {test_rmse:.4f} < 0.08 after "
        f"100 epochs on 2,000-day sine+noise; LSTM losses finite ({elapsed:.0f}s)"
    )


def _factor_coupled_data(days: int, n_factors: int, seed: int):
    """Observed factors drive the next-day target; history alone says little."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(0, 1.0, size=(days, n_factors))
    beta = rng.uniform(0.5, 1.0, size=n_factors) * np.where(
        rng.uniform(size=n_factors) < 0.5, -1, 1
    )
    target = np.empty(days)
    target[0] = 0.0
    target[1:] = factors[:-1] @ beta + rng.normal(0, 0.1, size=days - 1)
    return target, factors


def test_factor_inputs_beat_history_only_inputs():
    """Mean RMSE over 10 runs: factor-augmented inputs strictly lower."""
    target, factors = _factor_coupled_data(700, n_factors=4, seed=5)
    lookback = 10
    cfg = TrainConfig(epochs=25, runs=10, seed=0, hidden_size=16, batch_size=32)

    ds1 = make_windows(target, lookback=lookback)
    train1, test1 = chronological_split(ds1, 0.8)
    stats1 = multi_run("lstm", train1, test1, cfg, dataset_id="dataset1")

    matrix = np.column_stack([target, factors])
    ds2 = make_windows(matrix, lookback=lookback)
    train2, test2 = chronological_split(ds2, 0.8)
    stats2 = multi_run("lstm", train2, test2, cfg, dataset_id="dataset2")

    assert stats2.mean < stats1.mean, (stats1.mean, stats2.mean)
    ok(
        "factor-coupled direction: mean RMSE over 10 runs is "
        f"{stats2.mean:.4f} with factors vs {stats1.mean:.4f} without"
    )


def test_pipeline_commands_byte_identical(tmp_path):
    """Every command rerun with the same config and seed rewrites identical bytes."""
    build_workspace(tmp_path, n_days=200, seed=77)
    config = write_config(tmp_path)
    artifacts = {
        "select": ["constituents.csv"],
        "allocate": ["weights.csv", "linkage.csv", "covariance.csv", "correlation.csv"],
        "build-index": ["index_returns.csv"],
        "make-dataset": [
            "dataset1_train.csv",
            "dataset1_test.csv",
            "dataset2_train.csv",
            "dataset2_test.csv",
        ],
        "run-experiment": ["runs.csv", "report.txt"],
        "report": ["report.txt"],
    }
    first: dict[str, bytes] = {}
    for command, names in artifacts.items():
        assert run(config, command) == 0
        for name in names:
            first[name] = (tmp_path / "out" / name).read_bytes()
    for command, names in artifacts.items():
        assert run(config, command) == 0
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == first[name], (command, name)
    ok("determinism: all six commands rerun byte-identically")


def test_round_trips():
    """Scaler inverse, model serialization, report rebuilt from runs.csv."""
    rng = np.random.default_rng(123)

    scaler = fit_scaler(rng.normal(size=(50, 4)))
    x = rng.normal(size=(20, 4))
    np.testing.assert_allclose(scaler.inverse(scaler.transform(x)), x, atol=1e-12)

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for model in (
            Model(LstmParams.init(2, 6, rng)),
            Model(conv=ConvParams.init(2, 4, rng=rng), lstm=LstmParams.init(4, 6, rng)),
        ):
            path = Path(tmp) / "model.bin"
            save_model(model, path)
            back = load_model(path)
            for a, b in zip(model.arrays(), back.arrays()):
                assert np.array_equal(a, b)

    cells = [
        RunStats(model, ds, list(rng.uniform(0.01, 0.2, size=5)))
        for model, ds in CELL_ORDER
    ]
    report = comparison_report(cells, "seed=0;runs=5")
    assert comparison_report(*parse_runs_csv(runs_csv(report))) == report
    ok(
        "round trips: scaler inverse within 1e-12, model serialization "
        "bit-exact, report rebuilt from runs.csv field-exact"
    )
