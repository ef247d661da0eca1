"""Reproduce the ROADMAP baseline table from public calls.

    python3 bench/baseline.py

Each row times a public function under the ROADMAP's setup (one BLAS
thread, min of repeats) and prints the measured figure beside the ROADMAP
value, flagged when they differ by more than the ROADMAP's +-15%. Run from
the repository root; takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import run  # sets the thread variables before numpy loads

import numpy as np

import tracing

TOLERANCE = 0.15


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "corrindex" / "cli.py").is_file():
        print(f"error: {src / 'corrindex'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from dataclasses import replace

    from corrindex import dataset, evaluation, market_data, riskmodel
    from corrindex.forecast import AdamState, TrainConfig, build_model, train

    rng = np.random.default_rng(0)
    t = np.arange(1599 + 20 + 400)
    series = np.sin(2 * np.pi * t / 40.0) + 0.3 * np.sin(2 * np.pi * t / 7.0) + rng.normal(0, 0.05, t.size)
    windows = dataset.make_windows(series, lookback=20)
    train_ds, test_ds = dataset.chronological_split(windows, 1599 / windows.sample_count)
    cfg = TrainConfig(epochs=10, runs=1, hidden_size=32, batch_size=32, seed=0)
    rows = []

    for kind, roadmap in (("lstm", 2.4), ("cnn_lstm", 1.6)):
        seconds = best_of(lambda: train(kind, train_ds, cfg), 3)
        rows.append((f"train {kind}, 10 epochs, {train_ds.sample_count} samples", roadmap, seconds, "s"))

    # Three epochs of train()'s loop with backward_and_step's three calls timed apart.
    model = build_model("lstm", 1, cfg, np.random.default_rng(0))
    adam = AdamState(model.arrays())
    order_rng = np.random.default_rng(1)
    fwd_bwd = step = 0.0
    start = perf_counter()
    for _ in range(3):
        fwd, bwd, adam_s, _ = tracing.timed_epoch(model, adam, train_ds, cfg.batch_size, cfg.learning_rate,
                                                  order_rng.permutation(train_ds.sample_count))
        fwd_bwd, step = fwd_bwd + fwd + bwd, step + adam_s
    loop = perf_counter() - start
    rows.append(("lstm share of train time in fwd+bwd", 0.92, fwd_bwd / loop, "share"))
    rows.append(("lstm share of train time in Adam", 0.05, step / loop, "share"))

    runs_cfg = replace(cfg, epochs=2, runs=4)
    serial = best_of(lambda: evaluation.multi_run("lstm", train_ds, test_ds, runs_cfg, max_workers=1), 2)
    threads = best_of(lambda: evaluation.multi_run("lstm", train_ds, test_ds, runs_cfg, max_workers=2), 2)
    rows.append(("multi_run speed-up, 2 threads vs 1 (4 runs)", 0.5, serial / threads, "x"))

    work = root / ".bench_work" / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "prices.csv"
    days = np.arange(np.datetime64("2000-01-03"), np.datetime64("2000-01-03") + 5000)
    closes = 100.0 * np.cumprod(1.0 + rng.normal(0, 0.01, days.size))
    stamps = np.datetime_as_string(days, unit="D")
    path.write_text("Date,Close,Adj Close,Dividends\n"
                    + "".join(f"{d},{c!r},{c!r},0\n" for d, c in zip(stamps, closes.tolist())))
    rows.append(("load_price_csv, 5,000 rows", 0.068, best_of(lambda: market_data.load_price_csv(path), 5), "s"))

    a = rng.normal(size=(200, 200))
    cov = riskmodel.CovarianceMatrix(tickers=tuple(f"T{i:03d}" for i in range(200)), values=a @ a.T / 200)
    dist = riskmodel.correlation_distance(riskmodel.correlation_matrix(cov))
    for method, roadmap in (("single", 0.28), ("ward", 0.31)):
        rows.append((f"linkage {method}, n=200", roadmap, best_of(lambda: riskmodel.linkage(dist, method), 2), "s"))

    print(f"{'what':<46} {'ROADMAP':>9} {'measured':>9}  unit   ratio")
    for what, roadmap, measured, unit in rows:
        ratio = measured / roadmap
        flag = "  FLAG (outside +-15%)" if abs(ratio - 1.0) > TOLERANCE else ""
        print(f"{what:<46} {roadmap:>9.3g} {measured:>9.3g}  {unit:<6} {ratio:5.2f}{flag}")
    print(f"{'process pool, 2 workers vs serial':<46} {1.5:>9.3g} {'-':>9}  x      not reproduced: "
          "the program has no process pool")
    return 0


if __name__ == "__main__":
    sys.exit(main())
