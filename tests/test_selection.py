from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrindex.config import load_config
from corrindex.selection import (
    METRICS,
    beta,
    industry_average_returns,
    load_metrics_csv,
    normalize_metrics,
    rank_universe,
    selection_score,
    volatility,
)
from conftest import panel_from_matrix


EQUAL = (1.0 / 6.0,) * 6


def make_metrics(econ, reach, capex, b, kpi, vol) -> np.ndarray:
    """A one-company metric table, columns in `METRICS` order."""
    return np.array([[econ, reach, capex, b, kpi, vol]], dtype=float)


def score(metrics: np.ndarray, weights) -> float:
    """The score of a one-company table."""
    (value,) = selection_score(metrics, weights).tolist()
    return value


# =============================================================================
# beta
# =============================================================================


def test_beta_of_market_is_one(rng):
    r = rng.normal(0, 0.01, size=50)
    assert beta(r, r) == pytest.approx(1.0, abs=1e-12)


def test_beta_scales_linearly(rng):
    m = rng.normal(0, 0.01, size=50)
    assert beta(2.0 * m, m) == pytest.approx(2.0, abs=1e-12)


def test_beta_matches_two_pass_oracle(rng):
    a = rng.normal(0, 0.02, size=100)
    m = rng.normal(0, 0.015, size=100)

    # independent two-pass estimate
    a_bar, m_bar = sum(a) / 100, sum(m) / 100
    cov = sum((x - a_bar) * (y - m_bar) for x, y in zip(a, m)) / 99
    var = sum((y - m_bar) ** 2 for y in m) / 99

    assert beta(a, m) == pytest.approx(cov / var, abs=1e-12)


def test_beta_zero_market_variance_rejected():
    with pytest.raises(ValueError, match="variance"):
        beta(np.array([0.1, 0.2]), np.array([0.05, 0.05]))


def test_beta_length_mismatch_rejected():
    with pytest.raises(ValueError, match="lengths differ"):
        beta(np.zeros(3), np.zeros(4))


# =============================================================================
# volatility
# =============================================================================


def test_volatility_of_constant_is_zero():
    assert volatility(np.full(10, 0.01)) == 0.0


def test_volatility_two_point_closed_form():
    r = 0.03
    assert volatility(np.array([-r, r])) == pytest.approx(r * np.sqrt(2), abs=1e-15)


def test_volatility_matches_oracle(rng):
    x = rng.normal(0, 0.02, size=64)
    mean = sum(x) / 64
    oracle = (sum((v - mean) ** 2 for v in x) / 63) ** 0.5
    assert volatility(x) == pytest.approx(oracle, abs=1e-12)


def test_volatility_single_value_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        volatility(np.array([0.01]))


# =============================================================================
# normalize_metrics
# =============================================================================


def _uniform_universe(columns: dict[str, list[float]]) -> np.ndarray:
    n = len(next(iter(columns.values())))
    defaults = {
        "economic_impact": 1.0,
        "global_reach": 0.5,
        "capital_expenditure": 1.0,
        "beta": 1.0,
        "kpi": 1.0,
        "volatility": 0.1,
    }
    table = np.tile([defaults[name] for name in METRICS], (n, 1))
    for key, values in columns.items():
        table[:, METRICS.index(key)] = values
    return table


def column(table: np.ndarray, name: str) -> list[float]:
    return table[:, METRICS.index(name)].tolist()


def test_normalize_minmax_endpoints():
    universe = _uniform_universe({"economic_impact": [1e9, 3e9]})
    normalized = normalize_metrics(universe)
    assert column(normalized, "economic_impact") == [0.0, 1.0]


def test_normalize_beta_distance_from_one():
    universe = _uniform_universe({"beta": [1.0, 1.5, 0.5], "kpi": [1.0, 2.0, 3.0]})
    normalized = normalize_metrics(universe)
    # |beta - 1| = {0, .5, .5} -> min-max {0, 1, 1}
    assert column(normalized, "beta") == [0.0, 1.0, 1.0]


def test_normalize_constant_metric_maps_to_half():
    universe = _uniform_universe({"economic_impact": [1.0, 2.0, 3.0]})
    normalized = normalize_metrics(universe)
    assert all(m == 0.5 for m in column(normalized, "kpi"))


def test_normalize_needs_two_companies():
    with pytest.raises(ValueError, match="at least 2"):
        normalize_metrics(_uniform_universe({"kpi": [1.0]}))


# =============================================================================
# selection_score and rank_universe
# =============================================================================


def test_score_all_ones_equal_weights():
    m = make_metrics(1, 1, 1, 1, 1, 1)
    assert score(m, EQUAL) == pytest.approx(1.0, abs=1e-12)


def test_score_all_zeros():
    m = make_metrics(0, 0, 0, 0, 0, 0)
    assert score(m, EQUAL) == 0.0


def test_score_equal_weights_is_mean():
    m = make_metrics(0.2, 0.4, 0.6, 0.8, 0.1, 0.3)
    assert score(m, EQUAL) == pytest.approx(0.4, abs=1e-12)


def test_rank_descending():
    assert rank_universe([("A", 0.9), ("B", 0.5), ("C", 0.7)], 2) == ["A", "C"]


def test_rank_tie_breaks_by_ticker():
    assert rank_universe([("B", 0.5), ("A", 0.5)], 1) == ["A"]


def test_rank_matches_oracle_sort(rng):
    scores = [(f"C{i}", float(rng.uniform())) for i in range(8)]
    oracle = [t for t, _ in sorted(scores, key=lambda p: (-p[1], p[0]))]
    assert rank_universe(scores, 8) == oracle


def test_rank_k_too_large_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        rank_universe([("A", 1.0)], 2)


# =============================================================================
# properties
# =============================================================================


def test_score_monotone_in_each_metric(rng):
    weights = (0.3, 0.1, 0.2, 0.15, 0.15, 0.1)
    base = make_metrics(*rng.uniform(0.2, 0.8, size=6))
    s0 = score(base, weights)
    for j in range(len(METRICS)):
        bumped = base.copy()
        bumped[0, j] += 0.1
        assert score(bumped, weights) > s0


@given(
    scale=st.floats(min_value=0.1, max_value=100.0),
    shift=st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=25, deadline=None)
def test_rank_invariant_to_affine_rescale_of_capex(scale, shift):
    # min-max normalization absorbs positive affine maps of pass-through
    # metrics (beta is pre-transformed, so it is excluded by design)
    rng = np.random.default_rng(99)
    raw = np.vstack([make_metrics(*rng.uniform(0.1, 0.9, size=6)) for _ in range(4)])
    weights = EQUAL

    def ranking(universe):
        scores = selection_score(normalize_metrics(universe), weights).tolist()
        scored = [(f"C{i}", s) for i, s in enumerate(scores)]
        return rank_universe(scored, len(scored))

    rescaled = raw.copy()
    capex = METRICS.index("capital_expenditure")
    rescaled[:, capex] = scale * raw[:, capex] + shift
    assert ranking(raw) == ranking(rescaled)


def reference_scores(rows: list[list[float]], weights) -> list[float]:
    """Screening as it was computed one company at a time, kept as the reference.

    Each metric column is rebuilt from the companies and min-max rescaled on
    its own (beta as |beta - 1|, a constant column at 0.5), every company's six
    values go back to Python floats, and its score is `sum(wi * mi)`.
    """
    columns = []
    for j, name in enumerate(METRICS):
        raw = np.array([row[j] for row in rows])
        if name == "beta":
            raw = np.abs(raw - 1.0)
        span = raw.max() - raw.min()
        columns.append(np.full(len(rows), 0.5) if span == 0.0 else (raw - raw.min()) / span)
    companies = [[float(c[i]) for c in columns] for i in range(len(rows))]
    return [float(sum(wi * mi for wi, mi in zip(weights, m))) for m in companies]


@st.composite
def metric_rows(draw) -> list[list[float]]:
    """2-60 companies; each column is rounded or constant, so ties occur."""
    n = draw(st.integers(min_value=2, max_value=60))
    columns = []
    for _ in METRICS:
        scale = draw(st.sampled_from([1.0, 1e-3, 1e9]))
        digits = draw(st.sampled_from([0, 1, 3]))
        values = st.floats(min_value=-3.0, max_value=3.0).map(lambda v: scale * round(v, digits))
        if draw(st.booleans()):
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
        else:
            columns.append([draw(values)] * n)
    return [list(row) for row in zip(*columns)]


simplex_weights = st.lists(
    st.integers(min_value=0, max_value=20), min_size=6, max_size=6
).filter(sum).map(lambda raw: tuple(v / sum(raw) for v in raw))


@given(rows=metric_rows(), weights=st.one_of(st.just(EQUAL), simplex_weights))
@settings(max_examples=100, deadline=None)
def test_table_screening_matches_per_company_reference_bytes(rows, weights):
    scores = selection_score(normalize_metrics(rows), weights).tolist()
    expected = reference_scores(rows, weights)
    assert np.array(scores).tobytes() == np.array(expected).tobytes()
    tickers = [f"C{i:02d}" for i in range(len(rows))]
    assert rank_universe(list(zip(tickers, scores)), len(rows)) == rank_universe(
        list(zip(tickers, expected)), len(rows)
    )


def test_equal_weight_score_of_equal_metrics_is_that_value():
    m = make_metrics(0.37, 0.37, 0.37, 0.37, 0.37, 0.37)
    assert score(m, EQUAL) == pytest.approx(0.37, abs=1e-12)


# =============================================================================
# supporting pieces
# =============================================================================


def _weights_config(tmp_path, weights: str):
    path = tmp_path / "weights.ini"
    path.write_text(f"[selection]\nweights = {weights}\n", encoding="utf-8")
    return path


def test_weights_must_sum_to_one(tmp_path):
    with pytest.raises(ValueError, match="sum to 1"):
        load_config(_weights_config(tmp_path, "0.5, 0.5, 0.5, 0, 0, 0"))
    with pytest.raises(ValueError, match="nonnegative"):
        load_config(_weights_config(tmp_path, "1.5, -0.5, 0, 0, 0, 0"))


def test_industry_average_is_row_mean(rng):
    values = rng.normal(0, 0.01, size=(30, 4))
    panel = panel_from_matrix(values)
    np.testing.assert_allclose(
        industry_average_returns(panel), values.mean(axis=1), atol=1e-15
    )


def test_load_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(
        "ticker,market_cap,intl_sales,total_sales,capex,kpi\n"
        "AAA,1e9,30,100,2e8,0.7\n"
        "BBB,3e9,60,100,5e8,0.4\n"
    )
    metrics = load_metrics_csv(path)
    assert set(metrics) == {"AAA", "BBB"}
    assert metrics["AAA"]["global_reach"] == pytest.approx(0.3)
    assert metrics["BBB"]["economic_impact"] == 3e9


def test_load_metrics_csv_rejects_bad_reach(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(
        "ticker,market_cap,intl_sales,total_sales,capex,kpi\nAAA,1e9,150,100,2e8,0.7\n"
    )
    with pytest.raises(ValueError, match="outside"):
        load_metrics_csv(path)


@pytest.mark.parametrize("row", ["B,1,1", "B,3e9,60,100,5e8,0.4,9"], ids=["short", "long"])
def test_load_metrics_csv_rejects_row_of_wrong_length(tmp_path, row):
    path = tmp_path / "metrics.csv"
    path.write_text(
        "ticker,market_cap,intl_sales,total_sales,capex,kpi\n"
        "AAA,1e9,30,100,2e8,0.7\n"
        f"{row}\n"
    )
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: expected 6 fields$"):
        load_metrics_csv(path)


def test_load_metrics_csv_rejects_non_finite_field(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(
        "ticker,market_cap,intl_sales,total_sales,capex,kpi\n"
        "AAA,1e9,30,100,2e8,0.7\n"
        "BBB,3e9,60,100,5e8,nan\n"
    )
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: non-finite"):
        load_metrics_csv(path)
