"""RMSE evaluation, multi-run aggregation, and the two-model, two-dataset report.

The comparison grid has four cells (model x dataset variant). Reductions are
always quoted baseline-first in canonical cell order, as
(1 - improved / baseline) * 100, and every number in the rendered report is
recomputable from the stored per-run values.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import WindowedDataset
from .forecast import TrainConfig, TrainingDiverged, predict, train

MODEL_IDS = ("lstm", "cnn_lstm")
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
    """Per-run test RMSEs for one (model, dataset) cell plus their aggregates."""

    model_id: str
    dataset_id: str
    rmses: tuple[float, ...]
    mean: float
    std: float
    run_count: int
    diverged_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rmses", tuple(float(v) for v in self.rmses))
        if self.run_count != len(self.rmses):
            raise ValueError("run_count must equal the number of recorded RMSEs")
        if self.run_count == 0:
            raise ValueError("a cell needs at least one completed run")
        if abs(self.mean - float(np.mean(self.rmses))) > 1e-12:
            raise ValueError("mean is not the arithmetic mean of the run list")

    @classmethod
    def from_runs(
        cls,
        model_id: str,
        dataset_id: str,
        rmses: Sequence[float],
        diverged_count: int = 0,
    ) -> "RunStats":
        values = tuple(float(v) for v in rmses)
        std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        return cls(
            model_id=model_id,
            dataset_id=dataset_id,
            rmses=values,
            mean=float(np.mean(values)),
            std=std,
            run_count=len(values),
            diverged_count=diverged_count,
        )

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
    max_workers: int = 1,
) -> RunStats:
    """Train `cfg.runs` fresh models (run r uses seed cfg.seed + r) and
    aggregate their test RMSEs.

    Diverged runs are recorded and excluded from the mean; the cell is
    flagged when more than 10% diverge. Runs are independent, so they may
    execute on a thread pool; aggregation happens in seed order either way.
    """

    def one_run(run: int) -> float | None:
        run_cfg = replace(cfg, seed=cfg.seed + run)
        try:
            model, _ = train(model_spec, train_ds, run_cfg)
        except TrainingDiverged:
            return None
        return rmse(predict(model, test_ds), test_ds.y)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(one_run, range(cfg.runs)))
    else:
        results = [one_run(r) for r in range(cfg.runs)]

    completed = [r for r in results if r is not None]
    diverged = len(results) - len(completed)
    if not completed:
        raise RuntimeError(f"all {cfg.runs} runs diverged for {model_spec}/{dataset_id}")
    return RunStats.from_runs(model_spec, dataset_id, completed, diverged_count=diverged)


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
    for model_id in MODEL_IDS:
        d1 = report.cell(model_id, "dataset1").mean
        d2 = report.cell(model_id, "dataset2").mean
        lines.append(f"# {model_id:<10} {d1:<10.4f} {d2:<10.4f}")
    lines.append("# reductions recomputed from the cell means above")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> ComparisonReport:
    """Rebuild a ComparisonReport from rendered text; validates consistency."""
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        values[key] = value
    if values.get("report_version") != str(REPORT_VERSION):
        raise ValueError(f"unsupported report version {values.get('report_version')!r}")
    cells = []
    for model_id, dataset_id in CELL_ORDER:
        prefix = f"cell.{model_id}.{dataset_id}"
        rmses = tuple(float(v) for v in values[f"{prefix}.rmses"].split(","))
        stats = RunStats.from_runs(
            model_id,
            dataset_id,
            rmses,
            diverged_count=int(values[f"{prefix}.diverged_count"]),
        )
        if abs(stats.mean - float(values[f"{prefix}.mean_rmse"])) > 1e-12:
            raise ValueError(f"{prefix}: stored mean disagrees with per-run values")
        if int(values[f"{prefix}.run_count"]) != stats.run_count:
            raise ValueError(f"{prefix}: stored run count disagrees with per-run values")
        cells.append(stats)
    return comparison_report(cells, values["fingerprint"])


def runs_csv(report: ComparisonReport) -> str:
    """Per-run RMSE table; every row carries the config fingerprint."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["model", "dataset", "run", "rmse", "fingerprint"])
    for stats in report.cells:
        for run, value in enumerate(stats.rmses):
            writer.writerow(
                [stats.model_id, stats.dataset_id, run, repr(value), report.fingerprint]
            )
    return buffer.getvalue()


def parse_runs_csv(text: str) -> tuple[list[RunStats], str]:
    """Rebuild cell statistics from the per-run CSV (diverged runs are not listed)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["model", "dataset", "run", "rmse", "fingerprint"]:
        raise ValueError("malformed per-run CSV header")
    rows = list(reader)
    if not rows:
        raise ValueError("per-run CSV has no rows")
    fingerprints = {row[4] for row in rows}
    if len(fingerprints) != 1:
        raise ValueError(f"per-run CSV mixes fingerprints: {sorted(fingerprints)}")
    grouped: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        grouped.setdefault((row[0], row[1]), []).append(float(row[3]))
    cells = [
        RunStats.from_runs(model_id, dataset_id, values)
        for (model_id, dataset_id), values in grouped.items()
    ]
    return cells, fingerprints.pop()
