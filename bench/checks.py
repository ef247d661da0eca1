"""Independent checks of every pipeline artifact.

Each check recomputes its artifact from the generated inputs that
`workspace.Workspace` keeps in memory, with plain numpy (and scipy where it
serves as an oracle), or tests a property the method must have. None of them
imports `corrindex` except the gradient check, which needs the models it
differentiates. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from functools import reduce
from pathlib import Path

import numpy as np

from workspace import CELLS, Bars, Workspace

WEIGHT_DECIMALS = 4  # weights.csv prints 4 decimal places
GRADIENT_TOL = 1e-4  # the acceptance suite's relative tolerance


class CheckFailed(AssertionError):
    pass


class CheckSkipped(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(got: np.ndarray, want: np.ndarray, what: str, rtol: float, atol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _expect(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    worst = int(np.argmax(err)) if err.size else 0
    _expect(
        err.size == 0 or err.flat[worst] <= 0,
        f"{what}: entry {np.unravel_index(worst, got.shape)} is {got.flat[worst]!r}, "
        f"expected {want.flat[worst]!r}",
    )


# ----------------------------------------------------------------- inputs


def simple_returns(bars: Bars, with_dividends: bool) -> tuple[np.ndarray, np.ndarray]:
    """(end - begin + dividend) / begin on adjusted closes, labelled by end date."""
    p = bars.adj
    r = (p[1:] - p[:-1]) / p[:-1]
    if with_dividends:
        r = r + bars.div[1:] / p[:-1]
    return bars.dates[1:], r


def align(series: list[tuple[np.ndarray, np.ndarray]], policy: str):
    """Dates x series matrix: calendar intersection, or union with forward fill
    from the latest first date."""
    if policy == "intersect":
        dates = reduce(np.intersect1d, [d for d, _ in series])
        cols = [v[np.searchsorted(d, dates)] for d, v in series]
    else:
        union = reduce(np.union1d, [d for d, _ in series])
        dates = union[union >= max(d[0] for d, _ in series)]
        cols = [v[np.searchsorted(d, dates, side="right") - 1] for d, v in series]
    return dates, np.column_stack(cols)


def company_returns(ws: Workspace, tickers, policy: str):
    return align([simple_returns(ws.prices[t], True) for t in tickers], policy)


# --------------------------------------------------------------- artifacts


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def read_pairs(path: Path) -> tuple[list[str], np.ndarray]:
    rows = _rows(path)
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows])


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    rows = _rows(path)
    names = rows[0][1:]
    _expect([r[0] for r in rows[1:]] == names, f"{path.name}: row labels differ from header")
    return names, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def read_report(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            values[key.strip()] = value.strip()
    return values


def constituents(ws: Workspace) -> list[str]:
    return read_pairs(ws.out / "constituents.csv")[0]


# ------------------------------------------------------------------ checks


def check_constituents(ws: Workspace) -> None:
    """Top-k of scores recomputed from the documented formulas."""
    w = ws.workload
    _, r = company_returns(ws, ws.tickers, "intersect")  # select always intersects
    market = r.mean(axis=1)
    rc, mc = r - r.mean(axis=0), market - market.mean()
    beta = (rc * mc[:, None]).sum(axis=0) / (mc @ mc)
    vol = r.std(axis=0, ddof=1)
    m = ws.metrics
    raw = np.column_stack(
        [
            [m[t]["market_cap"] for t in ws.tickers],
            [m[t]["intl_sales"] / m[t]["total_sales"] for t in ws.tickers],
            [m[t]["capex"] for t in ws.tickers],
            np.abs(beta - 1.0),
            [m[t]["kpi"] for t in ws.tickers],
            vol,
        ]
    )
    span = raw.max(axis=0) - raw.min(axis=0)
    norm = np.where(span == 0, 0.5, (raw - raw.min(axis=0)) / np.where(span == 0, 1, span))
    score = dict(zip(ws.tickers, norm.mean(axis=1)))  # equal weights 1/6

    picked, printed = read_pairs(ws.out / "constituents.csv")
    _expect(len(picked) == w.k, f"constituents.csv lists {len(picked)} names, expected {w.k}")
    want = np.array([score[t] for t in picked])
    _close(printed, want, "constituents.csv scores", rtol=1e-12, atol=1e-12)
    _expect(np.all(np.diff(want) <= 1e-12), "constituents.csv is not in descending score order")
    rest = [score[t] for t in ws.tickers if t not in set(picked)]
    _expect(
        not rest or want.min() >= max(rest) - 1e-12,
        f"an unselected company outscores the k-th pick ({max(rest)!r} > {want.min()!r})",
    )


def check_covariance(ws: Workspace) -> None:
    """covariance.csv equals numpy.cov of the aligned constituent returns."""
    names, values = read_matrix(ws.out / "covariance.csv")
    _expect(names == constituents(ws), "covariance.csv tickers differ from constituents.csv")
    _, r = company_returns(ws, names, ws.workload.align)
    want = np.cov(r, rowvar=False)
    _close(values, want, "covariance.csv", rtol=1e-9, atol=1e-12 * np.abs(want).max())


def check_correlation(ws: Workspace) -> None:
    """correlation.csv equals the covariance scaled by its diagonal."""
    names, cov = read_matrix(ws.out / "covariance.csv")
    corr_names, corr = read_matrix(ws.out / "correlation.csv")
    _expect(corr_names == names, "correlation.csv tickers differ from covariance.csv")
    scale = np.sqrt(np.diag(cov))
    _close(corr, cov / np.outer(scale, scale), "correlation.csv", rtol=0, atol=1e-12)
    _expect(np.all(np.diag(corr) == 1.0), "correlation.csv diagonal is not exactly 1")


def _leaf_sets(merges: list[tuple[int, int]], n: int) -> list[frozenset]:
    members = [frozenset([i]) for i in range(n)]
    out = []
    for a, b in merges:
        out.append(frozenset([members[a], members[b]]))
        members.append(members[a] | members[b])
    return out


def check_linkage(ws: Workspace) -> None:
    """linkage.csv heights and merged leaf sets match scipy on the same distances."""
    try:
        from scipy.cluster.hierarchy import linkage as scipy_linkage
        from scipy.spatial.distance import squareform
    except ImportError:
        raise CheckSkipped("scipy is not installed") from None
    names = constituents(ws)
    _, r = company_returns(ws, names, ws.workload.align)
    dist = np.sqrt(np.clip((1.0 - np.corrcoef(r, rowvar=False)) / 2.0, 0.0, None))
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    want = scipy_linkage(squareform(dist, checks=False), method=ws.workload.linkage)

    rows = _rows(ws.out / "linkage.csv")
    _expect(rows[0] == ["left", "right", "distance", "size"], "linkage.csv header")
    rows = rows[1:]
    n = len(names)
    _expect(len(rows) == n - 1, f"linkage.csv has {len(rows)} merges, expected {n - 1}")
    heights = np.array([float(row[2]) for row in rows])
    _close(heights, want[:, 2], "linkage.csv merge heights", rtol=1e-9, atol=1e-12)
    got_sets = _leaf_sets([(int(a), int(b)) for a, b, _, _ in rows], n)
    want_sets = _leaf_sets([(int(a), int(b)) for a, b in want[:, :2]], n)
    for step, (g, e) in enumerate(zip(got_sets, want_sets)):
        _expect(g == e, f"linkage.csv merge {step} joins different leaf sets than scipy")


def check_weights(ws: Workspace) -> None:
    """weights.csv is nonnegative and sums to 1 within its display rounding."""
    names, w = read_pairs(ws.out / "weights.csv")
    _expect(names == constituents(ws), "weights.csv tickers differ from constituents.csv")
    _expect(np.all(w >= 0), f"weights.csv has a negative weight ({w.min()!r})")
    slack = len(w) * 0.5 * 10.0**-WEIGHT_DECIMALS
    _expect(abs(w.sum() - 1.0) <= slack + 1e-12, f"weights.csv sums to {w.sum()!r}")


def check_min_variance(ws: Workspace) -> None:
    """min_variance weights agree with an independent long-only SLSQP solve."""
    try:
        from scipy.optimize import minimize
    except ImportError:
        raise CheckSkipped("scipy is not installed") from None
    names, w = read_pairs(ws.out / "weights.csv")
    _, r = company_returns(ws, names, ws.workload.align)
    cov = np.cov(r, rowvar=False)
    cov = cov / np.mean(np.diag(cov))  # same minimizer, better-scaled objective
    n = len(names)
    result = minimize(
        lambda x: x @ cov @ x,
        np.full(n, 1.0 / n),
        jac=lambda x: 2.0 * cov @ x,
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0, "jac": lambda x: np.ones(n)}],
        method="SLSQP",
        options={"ftol": 1e-16, "maxiter": 2000},
    )
    _expect(result.success, f"reference solver failed: {result.message}")
    half_unit = 0.5 * 10.0**-WEIGHT_DECIMALS
    _close(w, result.x, "weights.csv vs long-only solve", rtol=0, atol=half_unit + 1e-6)


def check_index(ws: Workspace) -> None:
    """index_returns.csv equals aligned returns times the renormalized weights."""
    names, w = read_pairs(ws.out / "weights.csv")
    dates, r = company_returns(ws, names, ws.workload.align)
    rows = _rows(ws.out / "index_returns.csv")
    _expect(rows[0] == ["date", "return"], "index_returns.csv header")
    got_dates = np.array([row[0] for row in rows[1:]], dtype="datetime64[D]")
    _expect(np.array_equal(got_dates, dates), "index_returns.csv dates differ from the aligned calendar")
    got = np.array([float(row[1]) for row in rows[1:]])
    _close(got, r @ (w / w.sum()), "index_returns.csv", rtol=1e-12, atol=1e-15)


def expected_datasets(ws: Workspace) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Train-only min-max scaled lookback windows, split chronologically."""
    w = ws.workload
    names, weights = read_pairs(ws.out / "weights.csv")
    dates, r = company_returns(ws, names, w.align)
    index = (dates, r @ (weights / weights.sum()))
    factors = [simple_returns(ws.factors[t], False) for t in ws.factor_tickers]
    out = {}
    for name, matrix in (
        ("dataset1", index[1][:, None]),
        ("dataset2", align([index, *factors], "forward_fill")[1]),
    ):
        samples = matrix.shape[0] - w.lookback
        x = np.stack([matrix[s : s + w.lookback] for s in range(samples)])
        y = matrix[w.lookback :, 0]
        n_train = math.floor(w.split_fraction * samples)
        seen = x[:n_train].reshape(-1, matrix.shape[1])
        low, span = seen.min(axis=0), seen.max(axis=0) - seen.min(axis=0)
        safe = np.where(span == 0, 1.0, span)
        xs = np.where(span == 0, 0.5, (x - low) / safe)
        ys = np.where(span[0] == 0, 0.5, (y - low[0]) / safe[0])
        out[name] = (xs[:n_train], ys[:n_train], xs[n_train:], ys[n_train:])
    return out


def read_windows(path: Path, lookback: int) -> tuple[np.ndarray, np.ndarray]:
    rows = _rows(path)
    header, body = rows[0], np.array(rows[1:], dtype=float)
    _expect(header[:2] == ["sample", "lag"] and header[-1] == "target", f"{path.name} header")
    features = len(header) - 3
    samples = body.shape[0] // lookback
    _expect(body.shape[0] == samples * lookback, f"{path.name}: ragged windows")
    order = (body[:, 0] * lookback + body[:, 1]).astype(int)
    _expect(np.array_equal(order, np.arange(body.shape[0])), f"{path.name}: rows out of order")
    x = body[:, 2 : 2 + features].reshape(samples, lookback, features)
    return x, body[::lookback, -1]


def check_dataset(ws: Workspace, name: str, split: str) -> None:
    """One dataset CSV equals the windows rebuilt from the inputs."""
    x_train, y_train, x_test, y_test = expected_datasets(ws)[name]
    want_x, want_y = (x_train, y_train) if split == "train" else (x_test, y_test)
    x, y = read_windows(ws.out / f"{name}_{split}.csv", ws.workload.lookback)
    _close(x, want_x, f"{name}_{split}.csv windows", rtol=0, atol=1e-9)
    _close(y, want_y, f"{name}_{split}.csv targets", rtol=0, atol=1e-9)


def check_report(ws: Workspace) -> None:
    """runs.csv holds cells x runs finite positive RMSEs; report.txt is recomputable."""
    w = ws.workload
    rows = _rows(ws.out / "runs.csv")
    _expect(rows[0] == ["model", "dataset", "run", "rmse", "fingerprint"], "runs.csv header")
    rmses: dict[tuple[str, str], list[float]] = {}
    for model, data, run, value, _ in rows[1:]:
        rmses.setdefault((model, data), []).append(float(value))
    _expect(tuple(rmses) == CELLS, f"runs.csv cells {tuple(rmses)}")
    for cell, values in rmses.items():
        _expect(len(values) == w.runs, f"runs.csv {cell}: {len(values)} runs, expected {w.runs}")
        v = np.array(values)
        _expect(bool(np.all(np.isfinite(v) & (v > 0))), f"runs.csv {cell}: RMSE not finite and positive")

    report = read_report(ws.out / "report.txt")
    means = {}
    for model, data in CELLS:
        prefix = f"cell.{model}.{data}"
        v = np.array(rmses[(model, data)])
        listed = [float(s) for s in report[f"{prefix}.rmses"].split(",")]
        _expect(listed == list(v), f"report.txt {prefix}.rmses differ from runs.csv")
        _expect(int(report[f"{prefix}.run_count"]) == len(v), f"report.txt {prefix}.run_count")
        means[(model, data)] = v.mean()
        std = v.std(ddof=1) if len(v) > 1 else 0.0
        _close(float(report[f"{prefix}.mean_rmse"]), v.mean(), f"{prefix}.mean_rmse", 1e-12, 0)
        _close(float(report[f"{prefix}.std_rmse"]), std, f"{prefix}.std_rmse", 1e-9, 1e-15)
    pairs = [(a, b) for i, a in enumerate(CELLS) for b in CELLS[i + 1 :]]
    for base, improved in pairs:
        key = f"reduction.{base[0]}.{base[1]}.to.{improved[0]}.{improved[1]}"
        want = (1.0 - means[improved] / means[base]) * 100.0
        _close(float(report[key]), want, key, 1e-9, 1e-9)


def check_gradients(ws: Workspace, model_spec: str) -> None:
    """BPTT gradients match central differences at the workload's shapes.

    Model, inputs and sampled coordinates come from fixed seeds, so the
    outcome does not depend on the workload seed.
    """
    from corrindex.forecast import TrainConfig, batch_loss, build_model

    w = ws.workload
    cfg = TrainConfig(hidden_size=w.hidden, kernels=w.kernels)
    worst = 0.0
    for features in (1, 1 + w.factors):
        rng = np.random.default_rng(7 + features)
        model = build_model(model_spec, features, cfg, rng)
        x = rng.normal(size=(4, w.lookback, features))
        y = rng.normal(size=4)
        pred, cache = model.forward_batch(x)
        grads = model.backward_batch(cache, 2.0 * (pred - y) / y.shape[0])
        arrays = model.arrays()
        sizes = np.cumsum([a.size for a in arrays])
        for flat in rng.choice(sizes[-1], size=min(40, int(sizes[-1])), replace=False):
            k = int(np.searchsorted(sizes, flat, side="right"))
            offset = int(flat - (sizes[k - 1] if k else 0))
            array, original = arrays[k], arrays[k].flat[offset]
            array.flat[offset] = original + 1e-5
            plus = batch_loss(model, x, y)
            array.flat[offset] = original - 1e-5
            minus = batch_loss(model, x, y)
            array.flat[offset] = original
            numeric, analytic = (plus - minus) / 2e-5, grads[k].flat[offset]
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    _expect(worst < GRADIENT_TOL, f"{model_spec}: gradient relative error {worst:.2e}")


def artifact_checks(ws: Workspace) -> list[tuple[str, object]]:
    """(name, zero-argument check) for every artifact of a finished pipeline."""
    checks = [
        ("constituents", lambda: check_constituents(ws)),
        ("covariance", lambda: check_covariance(ws)),
        ("correlation", lambda: check_correlation(ws)),
        ("linkage", lambda: check_linkage(ws)),
        ("weights", lambda: check_weights(ws)),
    ]
    if ws.workload.strategy == "min_variance":
        checks.append(("min_variance", lambda: check_min_variance(ws)))
    checks.append(("index_returns", lambda: check_index(ws)))
    for name in ("dataset1", "dataset2"):
        for split in ("train", "test"):
            checks.append((f"{name}_{split}", lambda n=name, s=split: check_dataset(ws, n, s)))
    checks.append(("runs_and_report", lambda: check_report(ws)))
    return checks


def gradient_checks(ws: Workspace) -> list[tuple[str, object]]:
    return [(f"gradients_{m}", lambda m=m: check_gradients(ws, m)) for m in ("lstm", "cnn_lstm")]


def run_checks(checks) -> list[tuple[str, str, str]]:
    """Run each check; returns (name, "pass" | "fail" | "skip", detail)."""
    results = []
    for name, check in checks:
        try:
            check()
        except CheckSkipped as exc:
            results.append((name, "skip", str(exc)))
        except (CheckFailed, KeyError, ValueError, IndexError, OSError) as exc:
            results.append((name, "fail", f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, "pass", ""))
    return results
