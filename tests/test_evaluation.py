from __future__ import annotations

import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diverge_seeds
from corrindex import evaluation
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
        RunStats("lstm", "dataset1", [None] * 3)


def test_run_stats_divergence_flag():
    ok = RunStats("lstm", "dataset1", [0.1] * 29 + [None])
    assert not ok.divergence_flagged
    flagged = RunStats("lstm", "dataset1", [0.1] * 25 + [None] * 5)
    assert flagged.divergence_flagged


# Finite floats that steer a sum's rounding: both zeros, the smallest
# subnormal, the smallest normal, and magnitudes whose squares overflow.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300)


@given(
    values=st.integers(1, 300).flatmap(
        lambda n: st.lists(
            st.one_of(
                st.sampled_from(_EDGE_FLOATS),
                st.floats(-1e300, 1e300),
                st.floats(0.0, 1.0),
            ),
            min_size=n,
            max_size=n,
        )
    ),
    diverged=st.lists(st.integers(0, 300), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_run_stats_mean_and_std_equal_numpys_bit_for_bit(values, diverged):
    """1-300 completed runs cover every branch of numpy's pairwise sum (below
    8 values, 8 to 128, and halves above 128); diverged runs (None) anywhere
    in the list are left out of both."""
    runs = list(values)
    for position in diverged:
        runs.insert(position % (len(runs) + 1), None)
    stats = RunStats("lstm", "dataset1", runs)
    with np.errstate(over="ignore"):  # squares of 1e300 are inf to both
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    assert stats.mean.hex() == float(np.mean(values)).hex()
    assert stats.std.hex() == std.hex()


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


def test_multi_run_process_pool_matches_sequential(rng):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=3, batch_size=16, seed=5, hidden_size=4)
    seq = multi_run("lstm", train_ds, test_ds, cfg, max_workers=1)
    par = multi_run("lstm", train_ds, test_ds, cfg, max_workers=3)
    assert seq.rmses == par.rmses


@pytest.mark.parametrize("runs", [1, 2, 5])
def test_multi_run_process_pool_repr_identical_to_serial(runs):
    train_ds, test_ds = _splits(np.random.default_rng(3))
    cfg = TrainConfig(epochs=2, runs=runs, batch_size=16, seed=5, hidden_size=4)
    serial = [repr(v) for v in multi_run("lstm", train_ds, test_ds, cfg, max_workers=1).rmses]
    for workers in (2, 3):
        pooled = multi_run("lstm", train_ds, test_ds, cfg, max_workers=workers)
        assert [repr(v) for v in pooled.rmses] == serial


def _fail_run(monkeypatch, run: int, fail) -> list[int]:
    """Make `evaluation.train` call `fail()` when it trains run `run` (seed
    5 + run), alone or in a stack.

    Returns the seeds this process trains; a forked worker's calls land in its
    own copy of the list, so they never show here.
    """
    real_train, trained = evaluation.train, []

    def train(model_spec, train_ds, cfg, seeds=None):
        stack = [cfg.seed] if seeds is None else list(seeds)
        trained.extend(stack)
        if 5 + run in stack:
            fail()
        return real_train(model_spec, train_ds, cfg, seeds)

    monkeypatch.setattr(evaluation, "train", train)
    return trained


def test_multi_run_worker_divergence_counts_as_serial(rng, monkeypatch):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=4, batch_size=16, seed=5, hidden_size=4)
    seeds = _fail_run(monkeypatch, 1, lambda: None)
    diverge_seeds(monkeypatch, [6])
    serial = multi_run("lstm", train_ds, test_ds, cfg, max_workers=1)
    assert seeds == [5, 6, 7, 8]  # one stack, which run 1 left
    seeds.clear()
    pooled = multi_run("lstm", train_ds, test_ds, cfg, max_workers=2)
    assert seeds == [5, 7]  # this process trained runs 0 and 2; a worker diverged on run 1
    assert pooled == serial
    assert (pooled.run_count, pooled.diverged_count) == (3, 1)
    assert pooled.runs[1] is None and None not in pooled.runs[::2]


def test_multi_run_with_every_run_diverged_names_cell_and_run_count(rng, monkeypatch):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=3, batch_size=16, seed=5, hidden_size=4)
    diverge_seeds(monkeypatch, [5, 6, 7])
    message = "lstm/dataset2 needs at least one completed run, got 0 of 3"
    for workers in (2, 1):  # stacks of runs 0 and 2 and of run 1 alone; one stack of all 3
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            multi_run("lstm", train_ds, test_ds, cfg, dataset_id="dataset2", max_workers=workers)


def test_multi_run_worker_exception_reaches_caller(rng, monkeypatch):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=2, batch_size=16, seed=5, hidden_size=4)

    def fail():
        raise ValueError("bad window in run 1")

    seeds = _fail_run(monkeypatch, 1, fail)
    with pytest.raises(ValueError, match="^bad window in run 1$"):
        multi_run("lstm", train_ds, test_ds, cfg, max_workers=2)
    assert seeds == [5]


def test_multi_run_dead_worker_fails_instead_of_hanging(rng, monkeypatch):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=2, runs=2, batch_size=16, seed=5, hidden_size=4)
    parent = os.getpid()
    _fail_run(monkeypatch, 1, lambda: os.getpid() != parent and os._exit(3))
    with pytest.raises(BrokenProcessPool):
        multi_run("lstm", train_ds, test_ds, cfg, max_workers=2)


def test_multi_run_one_worker_or_one_run_never_forks(rng, monkeypatch):
    train_ds, test_ds = _splits(rng)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = TrainConfig(epochs=2, runs=3, batch_size=16, seed=5, hidden_size=4)
    assert multi_run("lstm", train_ds, test_ds, cfg, max_workers=1).run_count == 3
    one = replace(cfg, runs=1)
    assert multi_run("lstm", train_ds, test_ds, one, max_workers=3).run_count == 1
    assert multi_run("lstm", train_ds, test_ds, one).run_count == 1


def test_runs_csv_is_the_same_for_any_worker_count_and_stack_size(monkeypatch):
    """Every run alone in this process, as `multi_run` once trained them, gives
    the same runs.csv text as 2 or 3 processes and as stacks of every run."""
    rng = np.random.default_rng(8)
    splits = {
        "dataset1": _splits(rng),
        "dataset2": chronological_split(make_windows(rng.normal(size=(60, 3)), lookback=6), 0.8),
    }
    cfg = TrainConfig(epochs=2, runs=5, batch_size=8, seed=5, hidden_size=4, kernels=2)
    diverge_seeds(monkeypatch, [7], model_spec="cnn_lstm")  # run 2 of both cnn_lstm cells

    def text(workers):
        cells = [
            multi_run(model_id, *splits[dataset_id], cfg, dataset_id=dataset_id, max_workers=workers)
            for model_id, dataset_id in CELL_ORDER
        ]
        return runs_csv(comparison_report(cells, config_fingerprint(cfg)))

    monkeypatch.setattr(evaluation, "STACK_ELEMENTS", 1)
    alone = text(1)
    assert alone.count(",nan,") == 2
    for elements in (1, 10**9):
        monkeypatch.setattr(evaluation, "STACK_ELEMENTS", elements)
        for workers in (1, 2, 3):
            assert text(workers) == alone, (elements, workers)


def test_multi_run_trains_each_stack_with_one_train_and_one_predict_call(rng, monkeypatch):
    train_ds, test_ds = _splits(rng)
    cfg = TrainConfig(epochs=1, runs=7, batch_size=16, seed=5, hidden_size=4)
    monkeypatch.setattr(evaluation, "STACK_ELEMENTS", 3 * 16 * 4)  # stacks of 3 runs
    real_train, real_predict, calls = evaluation.train, evaluation.predict, []

    def train(model_spec, train_ds, cfg, seeds=None):
        calls.append([cfg.seed] if seeds is None else seeds)
        return real_train(model_spec, train_ds, cfg, seeds)

    def predict(model, ds):
        calls.append("predict")
        return real_predict(model, ds)

    monkeypatch.setattr(evaluation, "train", train)
    monkeypatch.setattr(evaluation, "predict", predict)
    assert multi_run("lstm", train_ds, test_ds, cfg, max_workers=1).run_count == 7
    assert calls == [[5, 6, 7], "predict", [8, 9, 10], "predict", [11], "predict"]


def test_serial_multi_run_imports_no_process_machinery():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from corrindex import cli, dataset, evaluation\n"
        "from corrindex.forecast import TrainConfig\n"
        "ds = dataset.make_windows(np.random.default_rng(0).normal(size=(40, 1)), 5)\n"
        "train_ds, test_ds = dataset.chronological_split(ds, 0.8)\n"
        "evaluation.multi_run('lstm', train_ds, test_ds, TrainConfig(epochs=1, runs=1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_multi_run_loads_every_module_before_the_fork():
    """In a fresh interpreter, training loads no module once `multi_run` has
    handed the runs to `fork_chunks`, for either model, one run or a stack.
    numpy.random's Cython modules swallow a KeyboardInterrupt raised while
    they load, so a worker that loaded them after the fork could miss a
    Ctrl-C and train on."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from corrindex import dataset, evaluation, parallel\n"
        "from corrindex.config import MODEL_KINDS, TrainConfig\n"
        "loaded = []\n"
        "def spy(fn, items, size, max_workers=None):\n"
        "    before = set(sys.modules)\n"
        "    results = parallel.fork_chunks(fn, items, size, 1)\n"
        "    loaded.extend(sorted(set(sys.modules) - before))\n"
        "    return results\n"
        "evaluation.fork_chunks = spy\n"
        "ds = dataset.make_windows(np.sin(np.arange(40.0))[:, None], 5)\n"
        "train_ds, test_ds = dataset.chronological_split(ds, 0.8)\n"
        "for model in MODEL_KINDS:\n"
        "    for runs in (1, 2):\n"
        "        cfg = TrainConfig(epochs=1, runs=runs, hidden_size=4, kernels=2)\n"
        "        evaluation.multi_run(model, train_ds, test_ds, cfg)\n"
        "print(loaded)\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_ctrl_c_while_multi_run_loads_numpy_random_stops_it_before_training():
    """In a fresh interpreter, a SIGINT sent while numpy.random's Cython
    modules register types with `collections.abc` (under a bare `except:
    pass`) raises KeyboardInterrupt out of `multi_run` before any run trains."""
    code = (
        "import abc, os, signal\n"
        "import numpy as np\n"
        "from corrindex import dataset, evaluation\n"
        "from corrindex.forecast import TrainConfig\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "register, sent, trained = abc.ABCMeta.register, [], []\n"
        "def interrupting_register(cls, subclass):\n"
        "    if subclass.__name__ == '_memoryviewslice' and not sent:\n"
        "        sent.append(subclass)\n"
        "        os.kill(os.getpid(), signal.SIGINT)\n"
        "    return register(cls, subclass)\n"
        "abc.ABCMeta.register = interrupting_register\n"
        "real_train = evaluation.train\n"
        "def train(*args, **kwargs):\n"
        "    trained.append(1)\n"
        "    return real_train(*args, **kwargs)\n"
        "evaluation.train = train\n"
        "ds = dataset.make_windows(np.sin(np.arange(40.0))[:, None], 5)\n"
        "train_ds, test_ds = dataset.chronological_split(ds, 0.8)\n"
        "try:\n"
        "    evaluation.multi_run('lstm', train_ds, test_ds, TrainConfig(epochs=1, runs=2), max_workers=1)\n"
        "    print('returned', len(sent), len(trained))\n"
        "except KeyboardInterrupt:\n"
        "    print('interrupted', len(sent), len(trained))\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "interrupted 1 0\n"


def test_evaluation_loads_the_models_when_train_is_first_read():
    """In a fresh interpreter, `import corrindex.evaluation` loads neither the
    models, the process pool nor numpy; the first read of `evaluation.train`
    loads the models, and `train`, `predict` and `TrainingDiverged` are
    `forecast`'s own."""
    code = (
        "import sys\n"
        "from corrindex import evaluation\n"
        "print(sorted(m for m in ('corrindex.forecast', 'corrindex.parallel', 'numpy') if m in sys.modules))\n"
        "train = evaluation.train\n"
        "from corrindex import forecast\n"
        "print('corrindex.forecast' in sys.modules, train is forecast.train,\n"
        "      evaluation.predict is forecast.predict,\n"
        "      evaluation.TrainingDiverged is forecast.TrainingDiverged,\n"
        "      hasattr(evaluation, 'no_such_name'))\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\nTrue True True True False\n"


def test_train_and_predict_set_on_evaluation_before_first_use_are_what_multi_run_calls():
    """In a fresh interpreter, wrappers set on `evaluation` before it ever
    read `train` or `predict` itself (as the benchmark's tracer and the tests'
    monkeypatches set theirs) are the functions `multi_run` calls, with
    stacks of one run and with a stack of several."""
    code = (
        "import numpy as np\n"
        "from corrindex import dataset, evaluation, forecast\n"
        "from corrindex.config import TrainConfig\n"
        "calls = []\n"
        "def train(model_spec, train_ds, cfg, seeds=None):\n"
        "    calls.append([cfg.seed] if seeds is None else seeds)\n"
        "    return forecast.train(model_spec, train_ds, cfg, seeds)\n"
        "def predict(model, ds):\n"
        "    calls.append('predict')\n"
        "    return forecast.predict(model, ds)\n"
        "evaluation.train, evaluation.predict = train, predict\n"
        "ds = dataset.make_windows(np.sin(np.arange(40.0))[:, None], 5)\n"
        "train_ds, test_ds = dataset.chronological_split(ds, 0.8)\n"
        "cfg = TrainConfig(epochs=1, runs=2, batch_size=16, hidden_size=4, seed=3)\n"
        "for elements in (1, 2 * 16 * 4):\n"
        "    evaluation.STACK_ELEMENTS = elements\n"
        "    evaluation.multi_run('lstm', train_ds, test_ds, cfg, max_workers=1)\n"
        "    print(calls)\n"
        "    calls.clear()\n"
    )
    src = Path(evaluation.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[[3], 'predict', [4], 'predict']\n[[3, 4], 'predict']\n"


# =============================================================================
# comparison report
# =============================================================================


def _cells(means=(0.179, 0.088, 0.034, 0.028)) -> list[RunStats]:
    return [
        RunStats(model, dataset, [mean - 0.001, mean + 0.001])
        for (model, dataset), mean in zip(CELL_ORDER, means)
    ]


def test_cell_order_is_dataset_by_dataset():
    assert CELL_ORDER == (
        ("lstm", "dataset1"),
        ("cnn_lstm", "dataset1"),
        ("lstm", "dataset2"),
        ("cnn_lstm", "dataset2"),
    )


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


def test_report_table_has_a_row_per_model_and_a_column_per_dataset():
    text = render_report(comparison_report(_cells(), "cfg=1"))
    assert text.endswith(
        "# model      dataset1   dataset2\n"
        "# lstm       0.1790     0.0340    \n"
        "# cnn_lstm   0.0880     0.0280    \n"
        "# reductions recomputed from the cell means above\n"
    )


def test_report_flags_divergence():
    cells = _cells()
    cells[0] = RunStats("lstm", "dataset1", [0.1] * 4 + [None] * 2)
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
    cells[0] = RunStats("lstm", "dataset1", [0.1, None, 0.12, None, 0.11])
    cells[3] = RunStats("cnn_lstm", "dataset2", [0.03] * 10 + [None] + [0.03] * 9 + [0.031])
    report = comparison_report(cells, "cfg=1")
    text = runs_csv(report)
    rows = text.splitlines()
    assert rows[2] == "lstm,dataset1,1,nan,cfg=1"
    assert rows[4] == "lstm,dataset1,3,nan,cfg=1"
    assert rows[-11] == "cnn_lstm,dataset2,10,nan,cfg=1"
    parsed, fingerprint = parse_runs_csv(text)
    assert [c.diverged_count for c in parsed] == [2, 0, 0, 1]
    assert [c.runs for c in parsed] == [c.runs for c in cells]
    assert render_report(comparison_report(parsed, fingerprint)) == render_report(report)


def test_runs_csv_with_diverged_rows_last_rebuilds_the_same_report():
    """A runs.csv that lists a cell's `nan` rows after its completed runs, as
    older versions wrote it, still gives the same report.txt."""
    cells = _cells()
    cells[0] = RunStats("lstm", "dataset1", [0.1, None, 0.12, None, 0.11])
    report = comparison_report(cells, "cfg=1")
    rows = runs_csv(report).splitlines()
    values = ["0.1", "0.12", "0.11", "nan", "nan"]
    rows[1:6] = [f"lstm,dataset1,{run},{value},cfg=1" for run, value in enumerate(values)]
    parsed, fingerprint = parse_runs_csv("\n".join(rows) + "\n")
    assert render_report(comparison_report(parsed, fingerprint)) == render_report(report)


def test_runs_csv_with_dataset2_cells_first_rebuilds_the_same_report():
    """`comparison_report` puts the cells in `CELL_ORDER`, whatever order
    runs.csv lists them in."""
    report = comparison_report(_cells(), "cfg=1")
    header, *rows = runs_csv(report).splitlines()
    dataset2 = [row for row in rows if ",dataset2," in row]
    dataset1 = [row for row in rows if ",dataset1," in row]
    parsed, fingerprint = parse_runs_csv("\r\n".join([header, *dataset2, *dataset1]) + "\r\n")
    assert [c.dataset_id for c in parsed] == ["dataset2", "dataset2", "dataset1", "dataset1"]
    assert render_report(comparison_report(parsed, fingerprint)) == render_report(report)


@pytest.mark.parametrize(
    "row, message",
    [
        ("lstm,dataset1,5", "line 3: expected 5 fields, got 3"),
        ("lstm,dataset1,5,abc,cfg=1", "line 3: rmse 'abc' is not a number"),
        ("gru,dataset1,0,0.1,cfg=1", "line 3: unknown cell ('gru', 'dataset1')"),
        ("lstm,dataset1,1,inf,cfg=1", "line 3: rmse 'inf' is not nan or a finite positive number"),
        ("lstm,dataset1,1,-0.1,cfg=1", "line 3: rmse '-0.1' is not nan or a finite positive number"),
        ("lstm,dataset1,1,0,cfg=1", "line 3: rmse '0' is not nan or a finite positive number"),
    ],
    ids=["short-row", "non-numeric-rmse", "unknown-cell", "infinite-rmse", "negative-rmse", "zero-rmse"],
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
