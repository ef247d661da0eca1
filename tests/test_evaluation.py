from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrindex.dataset import chronological_split, make_windows
from corrindex.forecast import TrainConfig
from corrindex.evaluation import (
    CELL_ORDER,
    RunStats,
    comparison_report,
    config_fingerprint,
    multi_run,
    parse_runs_csv,
    reduction_pct,
    render_report,
    rmse,
    runs_csv,
)


# =============================================================================
# rmse
# =============================================================================


def test_rmse_zero_for_identical(rng):
    x = rng.normal(size=20)
    assert rmse(x, x) == 0.0


def test_rmse_constant_offset():
    x = np.linspace(0, 1, 10)
    assert rmse(x + 0.1, x) == pytest.approx(0.1, abs=1e-12)


def test_rmse_hand_case():
    assert rmse(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 5.0])) == pytest.approx(
        np.sqrt(5.0 / 3.0), abs=1e-12
    )
    assert rmse(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 5.0])) == pytest.approx(
        1.29099, abs=1e-5
    )


def test_rmse_errors():
    with pytest.raises(ValueError, match="mismatch"):
        rmse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="empty"):
        rmse(np.zeros(0), np.zeros(0))


def test_rmse_symmetric_and_nonnegative(rng):
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    assert rmse(x, y) == rmse(y, x)
    assert rmse(x, y) > 0.0


@given(shift=st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_rmse_translation_invariant(shift):
    rng = np.random.default_rng(17)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    assert rmse(x + shift, y + shift) == pytest.approx(rmse(x, y), rel=1e-9, abs=1e-12)


# =============================================================================
# reduction_pct
# =============================================================================


def test_reduction_pct_reference_values():
    # headline means 0.179 / 0.088 / 0.034 / 0.028
    assert reduction_pct(0.179, 0.028) == pytest.approx(84.36, abs=0.005)
    assert reduction_pct(0.088, 0.028) == pytest.approx(68.18, abs=0.005)
    # the arithmetic on these means gives 81.01, not 82.12
    assert reduction_pct(0.179, 0.034) == pytest.approx(81.01, abs=0.005)
    assert reduction_pct(0.179, 0.034) != pytest.approx(82.12, abs=0.5)


def test_reduction_pct_identity_is_zero():
    assert reduction_pct(0.5, 0.5) == 0.0


def test_reduction_pct_exact_inverse():
    for p in (10.0, 33.0, 84.35):
        assert reduction_pct(1.0, 1.0 - p / 100.0) == pytest.approx(p, abs=1e-12)


def test_reduction_pct_rejects_bad_baseline():
    with pytest.raises(ValueError, match="positive"):
        reduction_pct(0.0, 0.1)


# =============================================================================
# RunStats and multi_run
# =============================================================================


def test_run_stats_invariants():
    stats = RunStats("lstm", "dataset1", [0.2, 0.4])
    assert stats.mean == pytest.approx(0.3, abs=1e-15)
    assert stats.run_count == 2
    with pytest.raises(ValueError, match="at least one completed run"):
        RunStats("lstm", "dataset1", [], diverged_count=3)


def test_run_stats_divergence_flag():
    ok = RunStats("lstm", "dataset1", [0.1] * 29, diverged_count=1)
    assert not ok.divergence_flagged
    flagged = RunStats("lstm", "dataset1", [0.1] * 25, diverged_count=5)
    assert flagged.divergence_flagged


def _splits(rng, length=60, lookback=6):
    ds = make_windows(rng.normal(size=(length, 1)), lookback=lookback)
    return chronological_split(ds, 0.8)


def test_multi_run_single_run_mean(rng):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=1, batch_size=16, seed=5, hidden_size=4)
    stats = multi_run("lstm", train_ds, test_ds, cfg)
    assert stats.run_count == 1
    assert stats.mean == stats.rmses[0]


def test_multi_run_deterministic(rng):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=2, batch_size=16, seed=5, hidden_size=4)
    a = multi_run("lstm", train_ds, test_ds, cfg)
    b = multi_run("lstm", train_ds, test_ds, cfg)
    assert a.rmses == b.rmses


def test_multi_run_mean_matches_manual_average(rng):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=5, batch_size=16, seed=5, hidden_size=4)
    stats = multi_run("lstm", train_ds, test_ds, cfg)
    assert stats.run_count == 5
    assert stats.mean == pytest.approx(sum(stats.rmses) / 5, abs=1e-15)


def test_multi_run_mean_permutation_invariant():
    values = [0.3, 0.1, 0.2, 0.5]
    a = RunStats("lstm", "dataset1", values)
    b = RunStats("lstm", "dataset1", list(reversed(values)))
    assert a.mean == pytest.approx(b.mean, abs=1e-15)


def test_multi_run_threaded_matches_sequential(rng):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=3, batch_size=16, seed=5, hidden_size=4)
    seq = multi_run("lstm", train_ds, test_ds, cfg, max_workers=1)
    par = multi_run("lstm", train_ds, test_ds, cfg, max_workers=3)
    assert seq.rmses == par.rmses


# =============================================================================
# comparison report
# =============================================================================


def _cells(means=(0.179, 0.088, 0.034, 0.028)) -> list[RunStats]:
    return [
        RunStats(model, dataset, [mean - 0.001, mean + 0.001])
        for (model, dataset), mean in zip(CELL_ORDER, means)
    ]


def test_report_reduction_table():
    report = comparison_report(_cells(), "cfg=1")
    reductions = {(a, b): pct for a, b, pct in report.reductions()}
    assert len(reductions) == 6
    assert reductions[("lstm.dataset1", "cnn_lstm.dataset2")] == pytest.approx(84.36, abs=0.005)
    assert reductions[("cnn_lstm.dataset1", "cnn_lstm.dataset2")] == pytest.approx(68.18, abs=0.005)
    assert reductions[("lstm.dataset1", "lstm.dataset2")] == pytest.approx(81.01, abs=0.005)


def test_report_equal_means_zero_reductions():
    report = comparison_report(_cells((0.1, 0.1, 0.1, 0.1)), "cfg=1")
    for _, _, pct in report.reductions():
        assert pct == pytest.approx(0.0, abs=1e-12)


def test_report_missing_cell_rejected():
    with pytest.raises(ValueError, match="missing"):
        comparison_report(_cells()[:3], "cfg=1")


def test_report_round_trip_field_exact():
    report = comparison_report(_cells(), config_fingerprint(TrainConfig()))
    assert comparison_report(*parse_runs_csv(runs_csv(report))) == report


def test_report_renders_reductions_and_table():
    report = comparison_report(_cells(), "cfg=1")
    text = render_report(report)
    assert "reduction.lstm.dataset1.to.cnn_lstm.dataset2" in text
    assert "# model" in text
    # displayed table numbers come from the same stored means
    assert f"{report.cells[0].mean:.4f}" in text


def test_report_flags_divergence():
    cells = _cells()
    cells[0] = RunStats("lstm", "dataset1", [0.1] * 4, diverged_count=2)
    text = render_report(comparison_report(cells, "cfg=1"))
    assert "warning" in text
    assert "diverged" in text


def test_runs_csv_round_trip():
    report = comparison_report(_cells(), "cfg=1")
    cells, fingerprint = parse_runs_csv(runs_csv(report))
    assert fingerprint == "cfg=1"
    rebuilt = comparison_report(cells, fingerprint)
    for a, b in zip(rebuilt.cells, report.cells):
        assert a.rmses == b.rmses
        assert a.mean == b.mean


def test_runs_csv_keeps_diverged_runs_so_report_rebuilds_byte_for_byte():
    cells = _cells()
    cells[0] = RunStats("lstm", "dataset1", [0.1, 0.12, 0.11], diverged_count=2)
    cells[3] = RunStats("cnn_lstm", "dataset2", [0.03] * 19 + [0.031], diverged_count=1)
    report = comparison_report(cells, "cfg=1")
    text = runs_csv(report)
    rows = text.splitlines()
    assert rows[4:6] == ["lstm,dataset1,3,nan,cfg=1", "lstm,dataset1,4,nan,cfg=1"]
    assert rows[-1] == "cnn_lstm,dataset2,20,nan,cfg=1"
    parsed, fingerprint = parse_runs_csv(text)
    assert [c.diverged_count for c in parsed] == [2, 0, 0, 1]
    assert render_report(comparison_report(parsed, fingerprint)) == render_report(report)


@pytest.mark.parametrize(
    "row, message",
    [
        ("lstm,dataset1,5", "line 3: expected 5 fields, got 3"),
        ("lstm,dataset1,5,abc,cfg=1", "line 3: rmse 'abc' is not a number"),
        ("gru,dataset1,0,0.1,cfg=1", "line 3: unknown cell ('gru', 'dataset1')"),
    ],
    ids=["short-row", "non-numeric-rmse", "unknown-cell"],
)
def test_parse_runs_csv_names_line_of_bad_row(row, message):
    lines = runs_csv(comparison_report(_cells(), "cfg=1")).splitlines()
    lines.insert(2, row)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_runs_csv("\n".join(lines) + "\n")


def test_fingerprint_contains_hyperparameters():
    text = config_fingerprint(TrainConfig(seed=7, runs=30, epochs=100))
    assert "seed=7" in text and "runs=30" in text and "epochs=100" in text
    assert "learning_rate=" in text and "hidden_size=" in text
