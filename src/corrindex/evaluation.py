"""RMSE evaluation, multi-run aggregation, and the two-model, two-dataset report.

The comparison grid has four cells (model x dataset variant). Reductions are
always quoted baseline-first in canonical cell order, as
(1 - improved / baseline) * 100, and every number in the rendered report is
recomputable from the stored per-run values.

Only `rmse` and `multi_run` need numpy, the models and the process pool, and
they import them when called, so `report`, which rebuilds the report from
`runs.csv`, loads none of them. `RunStats` therefore sums in pure Python, in
the order numpy's float64 sum adds (`_numpy_sum`), so a cell's mean and std
are bit for bit those of `np.mean` and `np.std(ddof=1)` of its RMSEs.
"""

from __future__ import annotations

import importlib
import math
import signal
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Sequence

from .config import DATASET_IDS, MODEL_KINDS, TRAIN_KEYS
from .csvio import csv_rows, csv_text

if TYPE_CHECKING:
    import numpy as np

    from .config import TrainConfig
    from .dataset import WindowedDataset

CELL_ORDER = tuple((model_id, dataset_id) for dataset_id in DATASET_IDS for model_id in MODEL_KINDS)
RUNS_CSV_HEADER = ("model", "dataset", "run", "rmse", "fingerprint")
DIVERGENCE_FLAG_RATIO = 0.10
REPORT_VERSION = 1
# A worker trains its runs of a cell in stacks of up to
# max(1, STACK_ELEMENTS // (batch_size * hidden_size)) runs. Stacking pays
# while each numpy call is small enough that its cost is Python overhead: at
# hidden size 4 a stack runs about twice as fast per run, while at the
# paper's 32 x 32 a stack of one, the plain single-model path, is fastest.
STACK_ELEMENTS = 1024

# The names `multi_run` calls, each imported from its module on first access
# (PEP 562). They stay attributes of this module: a function set here in
# place of one (the benchmark tracer's wrapper, a test's monkeypatch) is the
# one `multi_run` calls.
_ON_FIRST_USE = {
    "train": "forecast",
    "predict": "forecast",
    "TrainingDiverged": "forecast",
    "fork_chunks": "parallel",
}


def __getattr__(name: str):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ON_FIRST_USE[name]}", __package__), name)
    globals()[name] = value
    return value


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared error between two equal-length vectors."""
    import numpy as np

    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.shape[0] == 0:
        raise ValueError("cannot compute RMSE of empty vectors")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def _numpy_sum(values: Sequence[float]) -> float:
    """`float(np.sum(values))` of float64 values, bit for bit: numpy's
    pairwise order. Below 8 values it adds them in turn; up to 128 it keeps 8
    running sums of every 8th value, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the rest; above 128 it sums
    two halves, split at a multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum(values[:half]) + _numpy_sum(values[half:])
    if n < 8:
        return reduce(add, values, 0.0)
    whole = n - n % 8
    r = [reduce(add, values[lane:whole:8]) for lane in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, values[whole:], total)


@dataclass(frozen=True)
class RunStats:
    """Test RMSEs of one (model, dataset) cell, one entry per run, plus their aggregates.

    `runs[r]` is the test RMSE of run r (seed `cfg.seed + r`), or None where
    run r diverged. `rmses` (the completed values, in run order),
    `diverged_count`, `mean`, `std` (ddof=1, 0.0 for a single completed run)
    and `run_count` (completed runs) are computed once from `runs`.
    """

    model_id: str
    dataset_id: str
    runs: tuple[float | None, ...]
    rmses: tuple[float, ...] = field(init=False)
    diverged_count: int = field(init=False)
    mean: float = field(init=False)
    std: float = field(init=False)
    run_count: int = field(init=False)

    def __post_init__(self):
        runs = tuple(None if v is None else float(v) for v in self.runs)
        values = tuple(v for v in runs if v is not None)
        if not values:
            raise ValueError(
                f"{self.model_id}/{self.dataset_id} needs at least one completed run, "
                f"got 0 of {len(runs)}"
            )
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "rmses", values)
        object.__setattr__(self, "diverged_count", len(runs) - len(values))
        n = len(values)
        mean = _numpy_sum(values) / n
        squares = [(v - mean) * (v - mean) for v in values]
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", math.sqrt(_numpy_sum(squares) / (n - 1)) if n > 1 else 0.0)
        object.__setattr__(self, "run_count", n)

    @property
    def divergence_flagged(self) -> bool:
        return self.diverged_count > DIVERGENCE_FLAG_RATIO * len(self.runs)


def multi_run(
    model_spec: str,
    train_ds: WindowedDataset,
    test_ds: WindowedDataset,
    cfg: TrainConfig,
    dataset_id: str = DATASET_IDS[0],
    max_workers: int | None = None,
) -> RunStats:
    """Train `cfg.runs` fresh models (run r uses seed cfg.seed + r) and keep
    each one's test RMSE, or None if it diverged, at its run index.

    Diverged runs are excluded from the mean; the cell is flagged when more
    than 10% diverge. The runs are independent and go through
    `parallel.fork_chunks`: for W = min(max_workers or the CPUs this process
    may use, runs), this process trains runs 0, W, 2W, ... and W - 1 forked
    workers, which inherit the datasets, train the rest. Each process trains
    its runs in stacks of up to `STACK_ELEMENTS // (batch_size * hidden_size)`
    (at least one), one `train` and one `predict` call per stack; a stack of
    one trains as a single model, without a run axis, which would only cost
    there. The RMSEs are bit-identical to those of training each run alone.
    """
    # Read through this module, so that what is set on it is what runs; and
    # before the fork, so no worker imports the models.
    module = sys.modules[__name__]
    train, predict, diverged = module.train, module.predict, module.TrainingDiverged

    def train_stack(runs: list[int]) -> list[float | None]:
        seeds = [cfg.seed + run for run in runs]
        if len(seeds) > 1:
            model, outcomes = train(model_spec, train_ds, cfg, seeds=seeds)
            rmses = iter([rmse(pred, test_ds.y) for pred in predict(model, test_ds)])
            return [None if isinstance(o, diverged) else next(rmses) for o in outcomes]
        try:
            model, _ = train(model_spec, train_ds, replace(cfg, seed=seeds[0]))
        except diverged:
            return [None]
        return [rmse(predict(model, test_ds), test_ds.y)]

    # Load numpy.random here, before the fork (not on import: `report` loads
    # this module and never trains). numpy would load it on first use, in every
    # worker, and its Cython modules register types with `collections.abc`
    # under a bare `except: pass` while they load, so a Ctrl-C that lands then
    # is lost, and a process that loses one trains on to the end. SIGINT is
    # held while they load, and raises here once it is let through.
    blocks_sigint = hasattr(signal, "pthread_sigmask")
    if blocks_sigint:
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        import numpy.random  # noqa: F401
    finally:
        if blocks_sigint:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    stack = max(1, STACK_ELEMENTS // (cfg.batch_size * cfg.hidden_size))
    runs = module.fork_chunks(train_stack, range(cfg.runs), stack, max_workers)
    return RunStats(model_spec, dataset_id, runs)


def reduction_pct(baseline: float, improved: float) -> float:
    """(1 - improved / baseline) * 100; positive means improvement."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return (1.0 - improved / baseline) * 100.0


def config_fingerprint(cfg: TrainConfig) -> str:
    """Stable one-line summary: every [train] key, then the CNN-LSTM's fixed widths."""
    keys = (*TRAIN_KEYS, "kernel_width", "pool_width")
    return ";".join(f"{key}={getattr(cfg, key)!r}" for key in keys)


@dataclass(frozen=True)
class ComparisonReport:
    """The four cells in `CELL_ORDER` plus the config fingerprint; built by `comparison_report`."""

    cells: tuple[RunStats, RunStats, RunStats, RunStats]
    fingerprint: str

    def reductions(self) -> list[tuple[str, str, float]]:
        """All six baseline-to-improved pairs in canonical order."""
        out = []
        for i in range(len(self.cells)):
            for j in range(i + 1, len(self.cells)):
                base, imp = self.cells[i], self.cells[j]
                out.append(
                    (
                        f"{base.model_id}.{base.dataset_id}",
                        f"{imp.model_id}.{imp.dataset_id}",
                        reduction_pct(base.mean, imp.mean),
                    )
                )
        return out


def comparison_report(cells: Sequence[RunStats], fingerprint: str) -> ComparisonReport:
    """Assemble the 2x2 report with its cells in `CELL_ORDER`; every (model,
    dataset) cell must be present."""
    lookup = {(c.model_id, c.dataset_id): c for c in cells}
    missing = [pair for pair in CELL_ORDER if pair not in lookup]
    if missing:
        raise ValueError(f"missing report cells {missing}")
    ordered = tuple(lookup[pair] for pair in CELL_ORDER)
    return ComparisonReport(cells=ordered, fingerprint=fingerprint)


def render_report(report: ComparisonReport) -> str:
    """Key-value report text; exact values, with a readable table in comments.

    Comment lines (leading '#') are display only; every displayed number is
    formatted from the same stored values the key-value lines carry.
    """
    lines = [
        f"report_version = {REPORT_VERSION}",
        f"fingerprint = {report.fingerprint}",
    ]
    for stats in report.cells:
        prefix = f"cell.{stats.model_id}.{stats.dataset_id}"
        lines.append(f"{prefix}.run_count = {stats.run_count}")
        lines.append(f"{prefix}.diverged_count = {stats.diverged_count}")
        lines.append(f"{prefix}.mean_rmse = {stats.mean!r}")
        lines.append(f"{prefix}.std_rmse = {stats.std!r}")
        lines.append(f"{prefix}.rmses = {','.join(repr(v) for v in stats.rmses)}")
        if stats.divergence_flagged:
            lines.append(f"{prefix}.warning = {stats.diverged_count} of {len(stats.runs)} runs diverged")
    for base, improved, pct in report.reductions():
        lines.append(f"reduction.{base}.to.{improved} = {pct!r}")
    lines.append("")
    lines.append("# mean test RMSE (scaled units)")
    lines.append(f"# {'model':<10} " + " ".join(f"{d:<10}" for d in DATASET_IDS).rstrip())
    means = {(c.model_id, c.dataset_id): c.mean for c in report.cells}
    for model_id in MODEL_KINDS:
        row = " ".join(f"{means[model_id, d]:<10.4f}" for d in DATASET_IDS)
        lines.append(f"# {model_id:<10} {row}")
    lines.append("# reductions recomputed from the cell means above")
    return "\n".join(lines) + "\n"


def runs_csv(report: ComparisonReport) -> str:
    """Per-run RMSE table; every row carries the config fingerprint.

    Row r of a cell is run r (seed `cfg.seed + r`): its RMSE, or `nan` where
    it diverged.
    """
    rows = (
        [c.model_id, c.dataset_id, run, "nan" if value is None else repr(value), report.fingerprint]
        for c in report.cells
        for run, value in enumerate(c.runs)
    )
    return csv_text(RUNS_CSV_HEADER, rows)


def parse_runs_csv(text: str) -> tuple[list[RunStats], str]:
    """Rebuild cell statistics from the per-run CSV; `nan` rows are diverged runs.

    Blank lines are skipped. Each cell's runs must be numbered 0, 1, 2, ...
    in file order, as `runs_csv` writes them, so a repeated row is rejected.
    An RMSE must be `nan` or a finite positive number. A malformed row raises
    ValueError naming its 1-based line.
    """
    rows = csv_rows(text)
    if not rows or tuple(rows[0][1]) != RUNS_CSV_HEADER:
        raise ValueError("malformed per-run CSV header")
    grouped: dict[tuple[str, str], list[float | None]] = {}
    fingerprints = set()
    for line, row in rows[1:]:
        if len(row) != 5:
            raise ValueError(f"line {line}: expected 5 fields, got {len(row)}")
        model_id, dataset_id, run, value, fingerprint = row
        if (model_id, dataset_id) not in CELL_ORDER:
            raise ValueError(f"line {line}: unknown cell ({model_id!r}, {dataset_id!r})")
        try:
            rmse_value = float(value)
        except ValueError:
            raise ValueError(f"line {line}: rmse {value!r} is not a number") from None
        if not (math.isnan(rmse_value) or 0 < rmse_value < math.inf):
            raise ValueError(f"line {line}: rmse {value!r} is not nan or a finite positive number")
        values = grouped.setdefault((model_id, dataset_id), [])
        if run != str(len(values)):
            raise ValueError(
                f"line {line}: expected run {len(values)} of {model_id}/{dataset_id}, got {run!r}"
            )
        values.append(None if math.isnan(rmse_value) else rmse_value)
        fingerprints.add(fingerprint)
    if not grouped:
        raise ValueError("per-run CSV has no rows")
    if len(fingerprints) != 1:
        raise ValueError(f"per-run CSV mixes fingerprints: {sorted(fingerprints)}")
    cells = [RunStats(*cell, values) for cell, values in grouped.items()]
    return cells, fingerprints.pop()
