"""Compare the two models on the two dataset variants, at desk scale.

The synthetic target is driven by observed factor columns plus noise, so the
factor-augmented dataset carries real signal the history-only dataset lacks.
Expect the dataset2 cells to come out clearly ahead. Runs in about a minute;
scale `runs` and `epochs` up for smoother numbers.
Run with: python demos/02_forecast_comparison.py
"""

import numpy as np

from corrindex.dataset import chronological_split, make_windows
from corrindex.evaluation import (
    CELL_ORDER,
    comparison_report,
    config_fingerprint,
    multi_run,
    render_report,
)
from corrindex.forecast import TrainConfig

# ---------------------------------------------------------------------------
# Factor-coupled synthetic data: next-day target = mix of today's factors
# plus noise. 800 days, 5 observed factors.
# ---------------------------------------------------------------------------

rng = np.random.default_rng(7)
days, n_factors = 800, 5
factors = rng.normal(0, 1.0, size=(days, n_factors))
mix = rng.uniform(0.4, 1.0, size=n_factors) * np.where(rng.uniform(size=n_factors) < 0.5, -1, 1)
target = np.empty(days)
target[0] = 0.0
target[1:] = factors[:-1] @ mix + rng.normal(0, 0.15, size=days - 1)

lookback = 10
ds1 = make_windows(target, lookback=lookback)
splits = {"dataset1": chronological_split(ds1, 0.8)}

matrix = np.column_stack([target, factors])
ds2 = make_windows(matrix, lookback=lookback)
splits["dataset2"] = chronological_split(ds2, 0.8)

for name, (train_ds, test_ds) in splits.items():
    print(f"{name}: {train_ds.sample_count} train / {test_ds.sample_count} test samples, "
          f"{train_ds.feature_count} features")

# ---------------------------------------------------------------------------
# The 2 x 2 grid: each cell trains fresh models on consecutive seeds and
# aggregates test RMSE in scaled units.
# ---------------------------------------------------------------------------

cfg = TrainConfig(epochs=25, runs=5, seed=0, hidden_size=16, kernels=8)
cells = []
for model_id, dataset_id in CELL_ORDER:
    train_ds, test_ds = splits[dataset_id]
    stats = multi_run(model_id, train_ds, test_ds, cfg, dataset_id=dataset_id)
    print(f"{model_id}/{dataset_id}: mean RMSE {stats.mean:.4f} over {stats.run_count} runs")
    cells.append(stats)

report = comparison_report(cells, config_fingerprint(cfg))
print()
print(render_report(report))
