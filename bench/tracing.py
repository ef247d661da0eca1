"""The traced run: the six commands replayed in one process, inside spans.

The benchmark owns every span. It wraps the public functions that `cli.py`
calls (module attributes, restored afterwards) and runs `cli.main` for each
command, so the replay executes exactly the CLI's code path. Nothing under
`src/` changes. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from workspace import CELLS, COMMANDS, Workspace



@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.last: dict[str, object] = {}  # span name -> latest return value
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = Span(name, self._open[-1] if self._open else None, perf_counter(), attrs=attrs)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrap(self, fn, name_of):
        def traced(*args, **kwargs):
            name, attrs = name_of(args, kwargs)
            with self.span(name, **attrs) as record:
                result = fn(*args, **kwargs)
            if name == "market_data.load_price_csv":
                record.attrs["rows"] = len(result.bars)
            self.last[name] = result
            return result

        return traced

    @contextlib.contextmanager
    def instrumented(self):
        """Wrap every layer function the CLI calls; restore them on exit."""
        from corrindex import allocation, dataset, evaluation, index_builder, market_data, riskmodel, selection

        def fixed(name):
            return lambda args, kwargs: (name, {})

        def linkage_name(args, kwargs):
            method = kwargs.get("method", args[1] if len(args) > 1 else "single")
            return f"riskmodel.linkage_{method}", {}

        def multi_run_name(args, kwargs):
            return "evaluation.multi_run", {"model": args[0], "dataset": kwargs["dataset_id"]}

        plan = [(market_data, f, fixed(f"market_data.{f}")) for f in ("load_price_csv", "compute_returns", "align_calendars")]
        plan.append((selection, "load_metrics_csv", fixed("selection.load_metrics_csv")))
        plan += [
            (selection, f, fixed("selection.score"))
            for f in ("industry_average_returns", "beta", "volatility", "normalize_metrics", "selection_score", "rank_universe")
        ]
        plan += [
            (riskmodel, f, fixed(f"riskmodel.{f}"))
            for f in ("covariance_matrix", "correlation_matrix", "correlation_distance", "matrix_to_csv", "linkage_to_csv")
        ]
        plan.append((riskmodel, "linkage", linkage_name))
        plan += [
            (allocation, f, fixed(f"allocation.{f}"))
            for f in ("hrp_dendrogram_walk", "hrp_recursive_bisection", "quasi_diagonal_order", "equal_weight", "min_variance_long_only")
        ]
        plan += [(index_builder, f, fixed(f"index_builder.{f}")) for f in ("build_index", "index_to_csv", "index_from_csv")]
        plan += [
            (dataset, f, fixed(f"dataset.{f}"))
            for f in ("feature_matrix", "make_windows", "chronological_split", "save_windows_csv")
        ]
        plan.append((evaluation, "multi_run", multi_run_name))
        plan += [
            (evaluation, f, fixed(f"evaluation.{f}"))
            for f in ("comparison_report", "config_fingerprint", "runs_csv", "render_report", "parse_runs_csv")
        ]
        # evaluation imported these by name; wrapping its references gives per-run spans
        plan += [(evaluation, "train", fixed("forecast.train")), (evaluation, "predict", fixed("forecast.predict"))]

        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in plan]
        try:
            for module, attr, name_of in plan:
                setattr(module, attr, self.wrap(getattr(module, attr), name_of))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    # ------------------------------------------------------------- queries

    def children(self, index: int | None) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == index]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            layer = s.name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + s.seconds - covered
        return out

    def dump(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        spans = [
            {"name": s.name, "parent": s.parent, "start": s.start - origin, "end": s.end - origin, "attrs": s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": spans, "self_time_s": self.self_times()}, indent=1, default=str))


def replay(ws: Workspace, out_dir: Path, tracer: Tracer | None) -> tuple[float, bool]:
    """Run the six commands through `cli.main` in this process.

    Returns (wall seconds, every command exited 0).
    """
    from corrindex import cli

    ok = True
    start = perf_counter()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if tracer is not None:
            stack.enter_context(tracer.instrumented())
        for command in COMMANDS:
            argv = ["--config", str(ws.config), "--output-dir", str(out_dir), command]
            if tracer is None:
                ok &= cli.main(argv) == 0
            else:
                with tracer.span(f"cli.{command}"):
                    ok &= cli.main(argv) == 0
    return perf_counter() - start, ok


def _median_time(fn, min_seconds: float = 0.05, max_reps: int = 25) -> float:
    times: list[float] = []
    while len(times) < max_reps and (sum(times) < min_seconds or len(times) < 3):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def matmul_flops(kind: str, batch: int, steps: int, features: int, hidden: int, kernels: int, width: int, pool: int) -> int:
    """Multiply-add flops of one forward plus backward pass, from array shapes.

    Backward does two matmuls per forward matmul (weight and input
    gradients), so a training step is three times the forward count.
    """
    forward = 0
    if kind == "cnn_lstm":
        conv_len = steps - width + 1
        forward += width * 2 * batch * conv_len * features * kernels
        steps, features = conv_len // pool, kernels
    forward += steps * 4 * (2 * batch * features * hidden + 2 * batch * hidden * hidden) + 2 * batch * hidden
    return 3 * forward


def layer_metrics(tracer: Tracer, runs: int, epochs: int) -> dict[str, float]:
    """Per-layer metrics of one traced replay."""
    m: dict[str, float] = {}
    rows = sum(s.attrs.get("rows", 0) for s in tracer.spans if s.name == "market_data.load_price_csv")
    load = tracer.total("market_data.load_price_csv")
    m["market_data.load_price_csv_s"] = load
    m["market_data.load_price_csv_us_per_row"] = load / rows * 1e6
    m["market_data.rows"] = rows
    for name in ("market_data.compute_returns", "market_data.align_calendars", "selection.load_metrics_csv",
                 "selection.score", "riskmodel.covariance_matrix", "riskmodel.correlation_distance",
                 "riskmodel.matrix_to_csv", "index_builder.build_index", "index_builder.index_to_csv",
                 "index_builder.index_from_csv", "dataset.feature_matrix", "dataset.make_windows",
                 "dataset.chronological_split", "dataset.save_windows_csv"):
        m[f"{name}_s"] = tracer.total(name)

    run_seconds = []
    for i, s in enumerate(tracer.spans):
        if s.name != "evaluation.multi_run":
            continue
        cell = f"{s.attrs['model']}.{s.attrs['dataset']}"
        m[f"evaluation.multi_run_s.{cell}"] = s.seconds
        kids = [tracer.spans[j] for j in tracer.children(i)]
        trains = [k.seconds for k in kids if k.name == "forecast.train"]
        predicts = [k.seconds for k in kids if k.name == "forecast.predict"]
        m[f"forecast.{cell}.epoch_s"] = statistics.median(trains) / epochs
        m[f"forecast.{cell}.predict_ms"] = statistics.median(predicts) * 1e3
        run_seconds.append(s.seconds)
    m["evaluation.run_ms"] = sum(run_seconds) / (len(run_seconds) * runs) * 1e3
    m["evaluation.render_report_ms"] = tracer.total("evaluation.render_report") * 1e3
    m["evaluation.parse_runs_csv_ms"] = tracer.total("evaluation.parse_runs_csv") * 1e3

    stages = [i for i, s in enumerate(tracer.spans) if s.parent is None]
    wall = tracer.spans[stages[-1]].end - tracer.spans[stages[0]].start
    covered = sum(tracer.spans[j].seconds for i in stages for j in tracer.children(i))
    m["trace.coverage"] = covered / wall
    return m


def layer_seconds(spans_json: Path) -> float:
    """Time a traced command process spent inside top-level layer spans."""
    spans = json.loads(spans_json.read_text())["spans"]
    return sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)


def timed_epoch(model, adam, ds, batch_size: int, learning_rate: float, order) -> tuple[float, float, float, int]:
    """One epoch of `train`'s loop over `ds` in `order`, with the three calls of
    `backward_and_step` timed apart: (forward s, backward s, Adam s, batches)."""
    fwd = bwd = step = 0.0
    batches = 0
    for first in range(0, ds.sample_count, batch_size):
        idx = order[first : first + batch_size]
        x, y = ds.X[idx], ds.y[idx]
        t0 = perf_counter()
        pred, cache = model.forward_batch(x)
        t1 = perf_counter()
        grads = model.backward_batch(cache, 2.0 * (pred - y) / y.shape[0])
        t2 = perf_counter()
        adam.step(model.arrays(), grads, learning_rate)
        t3 = perf_counter()
        fwd, bwd, step = fwd + t1 - t0, bwd + t2 - t1, step + t3 - t2
        batches += 1
    return fwd, bwd, step, batches


def step_metrics(ws: Workspace, out_dir: Path, work: Path) -> tuple[dict[str, float], bool]:
    """Forward, backward and Adam per batch, replaying `backward_and_step`;
    model save/load; dataset CSV reload. Returns (metrics, round-trips exact)."""
    from corrindex import dataset
    from corrindex.config import load_config
    from corrindex.forecast import AdamState, build_model, load_model, save_model

    cfg = load_config(ws.config).train
    w = ws.workload
    m: dict[str, float] = {}
    start = perf_counter()
    splits = {d: dataset.load_windows_csv(out_dir / f"{d}_train.csv") for d in ("dataset1", "dataset2")}
    for d in ("dataset1", "dataset2"):
        dataset.load_windows_csv(out_dir / f"{d}_test.csv")
    m["dataset.load_windows_csv_s"] = perf_counter() - start

    saves, loads, exact = [], [], True
    for kind, d in CELLS:
        ds = splits[d]
        rng = np.random.default_rng(cfg.seed)
        model = build_model(kind, ds.feature_count, cfg, rng)
        adam = AdamState(model.arrays())
        fwd, bwd, step, batches = timed_epoch(model, adam, ds, cfg.batch_size, cfg.learning_rate,
                                              rng.permutation(ds.sample_count))
        flops = matmul_flops(kind, ds.sample_count, w.lookback, ds.feature_count, cfg.hidden_size,
                             cfg.kernels, cfg.kernel_width, cfg.pool_width)
        cell = f"forecast.{kind}.{d}"
        m[f"{cell}.forward_ms"] = fwd / batches * 1e3
        m[f"{cell}.backward_ms"] = bwd / batches * 1e3
        m[f"{cell}.adam_ms"] = step / batches * 1e3
        m[f"{cell}.batches"] = batches
        m[f"{cell}.gflop_per_s"] = flops / (fwd + bwd) / 1e9

        path = work / f"{kind}_{d}.idxf"
        saves.append(_median_time(lambda: save_model(model, path)))
        loads.append(_median_time(lambda: load_model(path)))
        loaded = load_model(path)
        exact &= all(np.array_equal(a, b) for a, b in zip(model.arrays(), loaded.arrays()))
    m["forecast.save_model_ms"] = statistics.median(saves) * 1e3
    m["forecast.load_model_ms"] = statistics.median(loads) * 1e3
    return m, exact


def layer_microbench(tracer: Tracer, linkage_method: str) -> dict[str, float]:
    """All three linkages and all four allocators on the workload's own matrices."""
    from corrindex import allocation, riskmodel

    cov = tracer.last["riskmodel.covariance_matrix"]
    dist = tracer.last["riskmodel.correlation_distance"]
    link = tracer.last[f"riskmodel.linkage_{linkage_method}"]
    m = {f"riskmodel.linkage_{method}_s": _median_time(lambda: riskmodel.linkage(dist, method=method))
         for method in ("single", "complete", "ward")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dendrogram-walk floor warnings are expected on some inputs
        m["allocation.hrp_dendrogram_walk_s"] = _median_time(lambda: allocation.hrp_dendrogram_walk(cov, link))
    m["allocation.hrp_recursive_bisection_s"] = _median_time(
        lambda: allocation.hrp_recursive_bisection(cov, allocation.quasi_diagonal_order(link)))
    m["allocation.equal_weight_s"] = _median_time(lambda: allocation.equal_weight(cov.n, cov.tickers))
    m["allocation.min_variance_long_only_s"] = _median_time(lambda: allocation.min_variance_long_only(cov))
    return m


def import_seconds(env: dict[str, str], repeats: int = 3) -> float:
    """Time for a fresh interpreter to import corrindex.cli (median)."""
    code = "import time; t = time.perf_counter(); import corrindex.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)
