"""RMSE evaluation, multi-run aggregation, and the two-model, two-dataset report.

The comparison grid has four cells (model x dataset variant). Reductions are
always quoted baseline-first in canonical cell order, as
(1 - improved / baseline) * 100, and every number in the rendered report is
recomputable from the stored per-run values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dataset import WindowedDataset
from .forecast import MODEL_KINDS, TrainConfig, TrainingDiverged, predict, train
from .parallel import fork_map

DATASET_IDS = ("dataset1", "dataset2")
CELL_ORDER = (
    ("lstm", "dataset1"),
    ("cnn_lstm", "dataset1"),
    ("lstm", "dataset2"),
    ("cnn_lstm", "dataset2"),
)
DIVERGENCE_FLAG_RATIO = 0.10
REPORT_VERSION = 1


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared error between two equal-length vectors."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.shape[0] == 0:
        raise ValueError("cannot compute RMSE of empty vectors")
    return float(np.sqrt(np.mean((p - t) ** 2)))


@dataclass(frozen=True)
class RunStats:
    """Per-run test RMSEs for one (model, dataset) cell plus their aggregates.

    `mean`, `std` (ddof=1, 0.0 for a single run) and `run_count` are computed
    once from `rmses`.
    """

    model_id: str
    dataset_id: str
    rmses: tuple[float, ...]
    diverged_count: int = 0
    mean: float = field(init=False)
    std: float = field(init=False)
    run_count: int = field(init=False)

    def __post_init__(self):
        values = tuple(float(v) for v in self.rmses)
        if not values:
            raise ValueError("a cell needs at least one completed run")
        object.__setattr__(self, "rmses", values)
        object.__setattr__(self, "mean", float(np.mean(values)))
        object.__setattr__(self, "std", float(np.std(values, ddof=1)) if len(values) > 1 else 0.0)
        object.__setattr__(self, "run_count", len(values))

    @property
    def divergence_flagged(self) -> bool:
        total = self.run_count + self.diverged_count
        return self.diverged_count > DIVERGENCE_FLAG_RATIO * total


def multi_run(
    model_spec: str,
    train_ds: WindowedDataset,
    test_ds: WindowedDataset,
    cfg: TrainConfig,
    dataset_id: str = "dataset1",
    max_workers: int | None = None,
) -> RunStats:
    """Train `cfg.runs` fresh models (run r uses seed cfg.seed + r) and
    aggregate their test RMSEs.

    Diverged runs are recorded and excluded from the mean; the cell is
    flagged when more than 10% diverge. The runs are independent and go
    through `parallel.fork_map`: for W = min(max_workers or the CPUs this
    process may use, runs), this process trains runs 0, W, 2W, ... and W - 1
    forked workers, which inherit the datasets, train the rest. The RMSEs are
    bit-identical to those of the serial loop.
    """

    def one_run(run: int) -> float | None:
        run_cfg = replace(cfg, seed=cfg.seed + run)
        try:
            model, _ = train(model_spec, train_ds, run_cfg)
        except TrainingDiverged:
            return None
        return rmse(predict(model, test_ds), test_ds.y)

    results = fork_map(one_run, range(cfg.runs), max_workers)
    completed = [r for r in results if r is not None]
    diverged = len(results) - len(completed)
    if not completed:
        raise RuntimeError(f"all {cfg.runs} runs diverged for {model_spec}/{dataset_id}")
    return RunStats(model_spec, dataset_id, completed, diverged_count=diverged)


def reduction_pct(baseline: float, improved: float) -> float:
    """(1 - improved / baseline) * 100; positive means improvement."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return (1.0 - improved / baseline) * 100.0


def config_fingerprint(cfg: TrainConfig) -> str:
    """Stable one-line summary of seeds and hyperparameters."""
    parts = [
        f"seed={cfg.seed}",
        f"runs={cfg.runs}",
        f"epochs={cfg.epochs}",
        f"learning_rate={cfg.learning_rate!r}",
        f"batch_size={cfg.batch_size}",
        f"hidden_size={cfg.hidden_size}",
        f"kernels={cfg.kernels}",
        f"kernel_width={cfg.kernel_width}",
        f"pool_width={cfg.pool_width}",
    ]
    return ";".join(parts)


@dataclass(frozen=True)
class ComparisonReport:
    """Four cells in canonical order plus the config fingerprint."""

    cells: tuple[RunStats, RunStats, RunStats, RunStats]
    fingerprint: str

    def __post_init__(self):
        ids = tuple((c.model_id, c.dataset_id) for c in self.cells)
        if ids != CELL_ORDER:
            raise ValueError(f"cells must be in canonical order {CELL_ORDER}, got {ids}")

    def cell(self, model_id: str, dataset_id: str) -> RunStats:
        for stats in self.cells:
            if stats.model_id == model_id and stats.dataset_id == dataset_id:
                return stats
        raise KeyError((model_id, dataset_id))

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
    """Assemble the 2x2 report; every (model, dataset) cell must be present."""
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
            lines.append(
                f"{prefix}.warning = {stats.diverged_count} of "
                f"{stats.run_count + stats.diverged_count} runs diverged"
            )
    for base, improved, pct in report.reductions():
        lines.append(f"reduction.{base}.to.{improved} = {pct!r}")
    lines.append("")
    lines.append("# mean test RMSE (scaled units)")
    lines.append("# model      dataset1   dataset2")
    for model_id in MODEL_KINDS:
        d1 = report.cell(model_id, "dataset1").mean
        d2 = report.cell(model_id, "dataset2").mean
        lines.append(f"# {model_id:<10} {d1:<10.4f} {d2:<10.4f}")
    lines.append("# reductions recomputed from the cell means above")
    return "\n".join(lines) + "\n"


def runs_csv(report: ComparisonReport) -> str:
    """Per-run RMSE table; every row carries the config fingerprint.

    Each cell lists its completed runs, then one row per diverged run with
    rmse `nan`, numbered after the completed ones.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["model", "dataset", "run", "rmse", "fingerprint"])
    for stats in report.cells:
        values = [repr(v) for v in stats.rmses] + ["nan"] * stats.diverged_count
        for run, value in enumerate(values):
            writer.writerow([stats.model_id, stats.dataset_id, run, value, report.fingerprint])
    return buffer.getvalue()


def parse_runs_csv(text: str) -> tuple[list[RunStats], str]:
    """Rebuild cell statistics from the per-run CSV; `nan` rows are diverged runs.

    Blank lines are skipped. Each cell's runs must be numbered 0, 1, 2, ...
    in file order, as `runs_csv` writes them, so a repeated row is rejected.
    A malformed row raises ValueError naming its 1-based line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != ["model", "dataset", "run", "rmse", "fingerprint"]:
        raise ValueError("malformed per-run CSV header")
    grouped: dict[tuple[str, str], list[float]] = {}
    fingerprints = set()
    for row in reader:
        line = reader.line_num
        if len(row) <= 1 and not "".join(row).strip():
            continue
        if len(row) != 5:
            raise ValueError(f"line {line}: expected 5 fields, got {len(row)}")
        model_id, dataset_id, run, value, fingerprint = row
        if (model_id, dataset_id) not in CELL_ORDER:
            raise ValueError(f"line {line}: unknown cell ({model_id!r}, {dataset_id!r})")
        try:
            rmse_value = float(value)
        except ValueError:
            raise ValueError(f"line {line}: rmse {value!r} is not a number") from None
        values = grouped.setdefault((model_id, dataset_id), [])
        if run != str(len(values)):
            raise ValueError(
                f"line {line}: expected run {len(values)} of {model_id}/{dataset_id}, got {run!r}"
            )
        values.append(rmse_value)
        fingerprints.add(fingerprint)
    if not grouped:
        raise ValueError("per-run CSV has no rows")
    if len(fingerprints) != 1:
        raise ValueError(f"per-run CSV mixes fingerprints: {sorted(fingerprints)}")
    cells = [
        RunStats(
            model_id,
            dataset_id,
            [v for v in values if not math.isnan(v)],
            diverged_count=sum(map(math.isnan, values)),
        )
        for (model_id, dataset_id), values in grouped.items()
    ]
    return cells, fingerprints.pop()
