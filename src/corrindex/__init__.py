"""corrindex: correlated-stock industry index construction and forecasting.

Pipeline stages, each usable on its own:

* `market_data`: CSV ingestion, calendar alignment, returns, synthetic panels
* `selection`: screening metrics and the composite constituent score
* `riskmodel`: covariance / correlation / distance matrices and clustering
* `allocation`: index weighting strategies (hierarchical and optimizing)
* `index_builder`: the fixed weighted-sum index return series
* `dataset`: scaling, windowing, chronological splits
* `forecast`: from-scratch LSTM and CNN-LSTM with exact BPTT
* `evaluation`: RMSE, multi-run statistics, the 2x2 comparison report
* `parallel`: `fork_map`, independent work spread over forked processes
* `cli`: file-driven pipeline commands
"""

from . import (
    allocation,
    dataset,
    evaluation,
    forecast,
    index_builder,
    market_data,
    parallel,
    riskmodel,
    selection,
)

__version__ = "0.1.0"

__all__ = [
    "allocation",
    "dataset",
    "evaluation",
    "forecast",
    "index_builder",
    "market_data",
    "parallel",
    "riskmodel",
    "selection",
    "__version__",
]
