"""corrindex: correlated-stock industry index construction and forecasting.

Pipeline stages, each usable on its own:

* `market_data`: CSV ingestion, calendar alignment, returns, synthetic panels
* `selection`: screening metrics and the composite constituent score
* `riskmodel`: covariance / correlation / distance matrices and clustering
* `allocation`: index weighting strategies (hierarchical and optimizing)
* `index_builder`: the fixed weighted-sum index return series
* `dataset`: scaling, windowing, chronological splits
* `forecast`: from-scratch LSTM and CNN-LSTM with exact BPTT, one model or a stack of runs
* `evaluation`: RMSE, multi-run statistics, the 2x2 comparison report
* `parallel`: `fork_map` / `fork_chunks`, independent work spread over forked processes
* `cli`: file-driven pipeline commands

Importing the package loads none of them: each is imported on first use.
"""

import importlib

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


def __getattr__(name: str):
    """Import a stage module the first time it is used (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
