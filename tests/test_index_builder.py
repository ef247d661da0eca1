from __future__ import annotations

import numpy as np
import pytest

from corrindex.allocation import Weights
from corrindex.index_builder import build_index, index_from_csv, index_to_csv
from conftest import panel_from_matrix


REFERENCE_WEIGHTS = {
    "CAT": 0.0777,
    "DE": 0.0651,
    "CNHI": 0.1162,
    "AGCO": 0.012,
    "TEX": 0.0978,
    "ASTE": 0.2071,
    "MTW": 0.1036,
    "KMTUY": 0.3206,
}


def normalized_weights(mapping: dict[str, float]) -> Weights:
    names = tuple(mapping)
    values = np.array([mapping[t] for t in names])
    return Weights(tickers=names, values=values / values.sum())


def test_constant_day_returns_that_constant():
    panel = panel_from_matrix(np.full((4, 3), 0.01))
    weights = Weights(tickers=panel.tickers, values=np.array([0.2, 0.3, 0.5]))
    index = build_index(weights, panel)
    np.testing.assert_allclose(index.returns, np.full(4, 0.01), atol=1e-15)


def test_published_weights_on_unit_returns():
    # the published eight weights sum to 1.0001 (display rounding), so they
    # are normalized before use; a unit return vector then maps to 1.0
    weights = normalized_weights(REFERENCE_WEIGHTS)
    panel = panel_from_matrix(np.ones((3, 8)), names=weights.tickers)
    index = build_index(weights, panel)
    np.testing.assert_allclose(index.returns, np.ones(3), atol=1e-12)


def test_matches_dot_product_oracle(rng):
    values = rng.normal(0, 0.01, size=(5, 3))
    panel = panel_from_matrix(values)
    weights = Weights(tickers=panel.tickers, values=np.array([0.2, 0.3, 0.5]))
    index = build_index(weights, panel)
    for t in range(5):
        expected = sum(weights.values[i] * values[t, i] for i in range(3))
        assert index.returns[t] == pytest.approx(expected, abs=1e-15)


def test_missing_ticker_named():
    panel = panel_from_matrix(np.zeros((3, 2)) + 0.01, names=("AAA", "BBB"))
    weights = Weights(tickers=("AAA", "ZZZ"), values=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="ZZZ"):
        build_index(weights, panel)


def test_linear_in_the_panel(rng):
    a = rng.normal(0, 0.01, size=(6, 3))
    b = rng.normal(0, 0.01, size=(6, 3))
    weights = Weights(tickers=("T00", "T01", "T02"), values=np.array([0.1, 0.4, 0.5]))
    idx_a = build_index(weights, panel_from_matrix(a)).returns
    idx_b = build_index(weights, panel_from_matrix(b)).returns
    idx_sum = build_index(weights, panel_from_matrix(a + b)).returns
    np.testing.assert_allclose(idx_sum, idx_a + idx_b, atol=1e-15)


def test_permutation_consistent(rng):
    values = rng.normal(0, 0.01, size=(5, 4))
    panel = panel_from_matrix(values)
    raw = np.array([0.1, 0.2, 0.3, 0.4])
    weights = Weights(tickers=panel.tickers, values=raw)

    perm = rng.permutation(4)
    weights_p = Weights(
        tickers=tuple(panel.tickers[i] for i in perm), values=raw[perm]
    )
    base = build_index(weights, panel).returns
    permuted = build_index(weights_p, panel).returns
    np.testing.assert_allclose(permuted, base, atol=1e-15)


def test_weight_subset_of_panel_allowed(rng):
    values = rng.normal(0, 0.01, size=(4, 3))
    panel = panel_from_matrix(values)
    weights = Weights(tickers=panel.tickers[:2], values=np.array([0.5, 0.5]))
    index = build_index(weights, panel)
    np.testing.assert_allclose(index.returns, values[:, :2].mean(axis=1), atol=1e-15)


def test_index_csv_round_trip(tmp_path, rng):
    values = rng.normal(0, 0.01, size=(7, 2))
    panel = panel_from_matrix(values)
    weights = Weights(tickers=panel.tickers, values=np.array([0.6, 0.4]))
    index = build_index(weights, panel)
    path = tmp_path / "index.csv"
    index_to_csv(index, path)
    back = index_from_csv(path)
    assert back.dates.tolist() == index.dates.tolist()
    assert np.array_equal(back.returns, index.returns)
