from __future__ import annotations

import numpy as np
import pytest

from corrindex.allocation import (
    Weights,
    equal_weight,
    hrp_dendrogram_walk,
    hrp_recursive_bisection,
    min_variance_long_only,
    node_mean_cross_covariances,
    portfolio_moments,
    quasi_diagonal_order,
)
from corrindex.riskmodel import CovarianceMatrix, correlation_matrix
from conftest import random_covariance, risk_stack, tickers


def cov_of(values) -> CovarianceMatrix:
    values = np.asarray(values, dtype=float)
    return CovarianceMatrix(tickers=tickers(values.shape[0]), values=values)


def linked(cov: CovarianceMatrix):
    _, _, link = risk_stack(cov)
    return link


# =============================================================================
# hrp_dendrogram_walk and its straight-line oracle
# =============================================================================


def oracle_dendrogram_walk(cov_values: np.ndarray, link) -> np.ndarray:
    """Literal re-implementation of the node-walk rule, dict based."""
    n = cov_values.shape[0]
    members = {i: [i] for i in range(n)}
    weights = {}
    for step, rec in enumerate(link.merges):
        left = members[rec.left]
        right = members[rec.right]
        total = 0.0
        for p in left:
            for q in right:
                total += cov_values[p, q]
        value = total / (len(left) * len(right))
        if value <= 0:
            value = 1e-12
        for p in left:
            if p not in weights:
                weights[p] = value * len(left)
        for q in right:
            if q not in weights:
                weights[q] = value * len(right)
        members[n + step] = left + right
    vec = np.array([weights[i] for i in range(n)])
    return vec / vec.sum()


def test_hrp_dendrogram_walk_two_assets_is_half_half():
    for c in (0.5, 0.123, 2.0):
        cov = cov_of([[1.0, c], [c, 4.0]])
        link = linked(cov)
        weights = hrp_dendrogram_walk(cov, link)
        np.testing.assert_allclose(weights.values, [0.5, 0.5], atol=1e-15)


def test_hrp_dendrogram_walk_node_values_two_assets():
    cov = cov_of([[1.0, 0.3], [0.3, 4.0]])
    link = linked(cov)
    values = node_mean_cross_covariances(cov, link)
    assert values.shape == (1,)
    assert values[0] == pytest.approx(0.3, abs=1e-15)


def test_hrp_dendrogram_walk_identity_cov_degenerates_to_equal(recwarn):
    cov = cov_of(np.eye(3))
    link = linked(cov)
    with pytest.warns(RuntimeWarning, match="non-positive"):
        weights = hrp_dendrogram_walk(cov, link)
    np.testing.assert_allclose(weights.values, np.full(3, 1 / 3), atol=1e-12)


@pytest.mark.filterwarnings("ignore:node merging:RuntimeWarning")
def test_hrp_dendrogram_walk_matches_pseudocode_oracle(rng):
    for n in (3, 4, 5, 6):
        for _ in range(10):
            cov = random_covariance(n, rng)
            link = linked(cov)
            got = hrp_dendrogram_walk(cov, link).values
            expected = oracle_dendrogram_walk(cov.values, link)
            np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.filterwarnings("ignore:node merging:RuntimeWarning")
def test_hrp_dendrogram_walk_permutation_equivariant(rng):
    cov = random_covariance(5, rng)
    link = linked(cov)
    base = hrp_dendrogram_walk(cov, link).values

    perm = rng.permutation(5)
    cov_p = CovarianceMatrix(
        tickers=tuple(cov.tickers[i] for i in perm),
        values=cov.values[np.ix_(perm, perm)],
    )
    link_p = linked(cov_p)
    permuted = hrp_dendrogram_walk(cov_p, link_p).values
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


@pytest.mark.filterwarnings("ignore:node merging:RuntimeWarning")
def test_hrp_dendrogram_walk_scale_invariant(rng):
    cov = random_covariance(4, rng)
    link = linked(cov)
    base = hrp_dendrogram_walk(cov, link).values
    scaled_cov = CovarianceMatrix(tickers=cov.tickers, values=cov.values * 7.5)
    np.testing.assert_allclose(hrp_dendrogram_walk(scaled_cov, linked(scaled_cov)).values, base, atol=1e-12)


# =============================================================================
# quasi-diagonal order and recursive bisection
# =============================================================================


def test_quasi_diagonal_order_is_permutation(rng):
    for n in (2, 4, 7):
        cov = random_covariance(n, rng)
        order = quasi_diagonal_order(linked(cov))
        assert sorted(order) == list(range(n))


def test_bisection_two_asset_closed_form():
    cov = cov_of(np.diag([0.04, 0.01]))
    weights = hrp_recursive_bisection(cov, [0, 1])
    # inverse-variance split: (sigma2^2, sigma1^2) / sum
    np.testing.assert_allclose(weights.values, [0.2, 0.8], atol=1e-15)


def test_bisection_symmetric_assets():
    cov = cov_of(np.diag([0.04, 0.04]))
    weights = hrp_recursive_bisection(cov, [0, 1])
    np.testing.assert_allclose(weights.values, [0.5, 0.5], atol=1e-15)


def oracle_recursive_bisection(cov_values: np.ndarray, order: list[int]) -> np.ndarray:
    """Independent recursive formulation (the implementation is iterative)."""

    def ivp_variance(items: list[int]) -> float:
        sub = cov_values[np.ix_(items, items)]
        w = 1.0 / np.diag(sub)
        w = w / w.sum()
        return float(w @ sub @ w)

    def recurse(items: list[int], scale: float, out: dict[int, float]) -> None:
        if len(items) == 1:
            out[items[0]] = scale
            return
        half = len(items) // 2
        left, right = items[:half], items[half:]
        var_left = ivp_variance(left)
        var_right = ivp_variance(right)
        alpha = 1.0 - var_left / (var_left + var_right)
        recurse(left, scale * alpha, out)
        recurse(right, scale * (1.0 - alpha), out)

    out: dict[int, float] = {}
    recurse(list(order), 1.0, out)
    return np.array([out[i] for i in range(cov_values.shape[0])])


def test_bisection_matches_recursive_oracle(rng):
    for n in (2, 3, 4, 5, 6):
        for _ in range(10):
            cov = random_covariance(n, rng)
            order = quasi_diagonal_order(linked(cov))
            got = hrp_recursive_bisection(cov, order).values
            expected = oracle_recursive_bisection(cov.values, order)
            np.testing.assert_allclose(got, expected, atol=1e-10)


def test_bisection_rejects_non_permutation():
    cov = cov_of(np.eye(3))
    with pytest.raises(ValueError, match="permutation"):
        hrp_recursive_bisection(cov, [0, 1, 1])


def test_bisection_permutation_equivariant(rng):
    cov = random_covariance(6, rng)
    order = quasi_diagonal_order(linked(cov))
    base = hrp_recursive_bisection(cov, order).values

    perm = rng.permutation(6)
    inverse = np.argsort(perm)
    cov_p = CovarianceMatrix(
        tickers=tuple(cov.tickers[i] for i in perm),
        values=cov.values[np.ix_(perm, perm)],
    )
    # same tree, relabelled leaves
    order_p = [int(inverse[i]) for i in order]
    permuted = hrp_recursive_bisection(cov_p, order_p).values
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def test_bisection_scale_invariant(rng):
    cov = random_covariance(5, rng)
    order = quasi_diagonal_order(linked(cov))
    base = hrp_recursive_bisection(cov, order).values
    scaled = CovarianceMatrix(tickers=cov.tickers, values=cov.values * 0.01)
    np.testing.assert_allclose(
        hrp_recursive_bisection(scaled, order).values, base, atol=1e-12
    )


# =============================================================================
# equal weight
# =============================================================================


def test_equal_weight_eighths():
    weights = equal_weight(8, tickers(8))
    np.testing.assert_array_equal(weights.values, np.full(8, 0.125))


def test_equal_weight_single():
    assert equal_weight(1, tickers(1)).values[0] == 1.0


def test_equal_weight_zero_rejected():
    with pytest.raises(ValueError):
        equal_weight(0, ())


def test_equal_weight_sums_to_one():
    for n in (3, 7, 11, 100):
        assert abs(equal_weight(n, tickers(n)).values.sum() - 1.0) <= 1e-12


# =============================================================================
# min_variance_long_only
# =============================================================================


def test_min_variance_two_asset_closed_form():
    cov = cov_of(np.diag([0.01, 0.04]))
    weights, variance = min_variance_long_only(cov)
    np.testing.assert_allclose(weights.values, [0.8, 0.2], atol=1e-10)
    assert variance == pytest.approx(0.8**2 * 0.01 + 0.2**2 * 0.04, abs=1e-12)


def test_min_variance_identical_assets_symmetric():
    cov = cov_of(0.02 * np.ones((2, 2)) + 1e-4 * np.eye(2))
    weights, _ = min_variance_long_only(cov)
    np.testing.assert_allclose(weights.values, [0.5, 0.5], atol=1e-10)


def grid_search_minimum(cov_values: np.ndarray, step: float = 0.01) -> float:
    best = np.inf
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for w1 in ticks:
        for w2 in ticks:
            w3 = 1.0 - w1 - w2
            if w3 < -1e-12:
                continue
            w = np.array([w1, w2, max(w3, 0.0)])
            best = min(best, float(w @ cov_values @ w))
    return best


def test_min_variance_beats_grid_search(rng):
    for _ in range(3):
        cov = random_covariance(3, rng)
        _, variance = min_variance_long_only(cov)
        assert variance <= grid_search_minimum(cov.values) + 1e-6


def test_min_variance_activates_nonnegativity(rng):
    # strong positive correlation pushes one weight to the boundary
    cov = cov_of([[0.04, 0.039, 0.0], [0.039, 0.04, 0.0], [0.0, 0.0, 0.5]])
    weights, variance = min_variance_long_only(cov)
    assert weights.values.min() >= 0.0
    assert variance <= grid_search_minimum(cov.values) + 1e-6


def test_min_variance_never_worse_than_equal_weight(rng):
    for n in (2, 4, 6):
        cov = random_covariance(n, rng)
        _, variance = min_variance_long_only(cov)
        ew = equal_weight(n, cov.tickers)
        assert variance <= float(ew.values @ cov.values @ ew.values) + 1e-12


def test_min_variance_scale_invariant(rng):
    cov = random_covariance(4, rng)
    base, _ = min_variance_long_only(cov)
    scaled = CovarianceMatrix(tickers=cov.tickers, values=cov.values * 13.0)
    rescaled, _ = min_variance_long_only(scaled)
    np.testing.assert_allclose(rescaled.values, base.values, atol=1e-9)


def covariance_with_condition(n: int, condition: float, rng) -> CovarianceMatrix:
    """Random rotation of eigenvalues spaced geometrically from 1 down to 1 / condition."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    values = (q * np.geomspace(1.0, 1.0 / condition, n)) @ q.T
    return cov_of((values + values.T) / 2.0)


def slsqp_minimum_variance(cov_values: np.ndarray) -> float:
    """Long-only minimum variance from scipy's SLSQP, an independent QP solver."""
    optimize = pytest.importorskip("scipy.optimize")
    n = cov_values.shape[0]
    result = optimize.minimize(
        lambda w: w @ cov_values @ w,
        np.full(n, 1.0 / n),
        jac=lambda w: 2.0 * cov_values @ w,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0, "jac": lambda w: np.ones(n)}],
        options={"ftol": 1e-16, "maxiter": 1000},
    )
    assert result.success, result.message
    return float(result.x @ cov_values @ result.x)


@pytest.mark.parametrize("condition", [1e2, 1e4, 1e6])
def test_min_variance_matches_slsqp_oracle(condition):
    # objective values, not weights: the minimizer is not unique on a flat face
    rng = np.random.default_rng(int(condition))
    for _ in range(40):
        cov = covariance_with_condition(int(rng.integers(2, 26)), condition, rng)
        _, variance = min_variance_long_only(cov)
        assert variance == pytest.approx(slsqp_minimum_variance(cov.values), rel=1e-10)


def test_min_variance_matches_slsqp_oracle_ill_conditioned():
    cov = covariance_with_condition(6, 1e6, np.random.default_rng(17))
    _, variance = min_variance_long_only(cov)
    assert variance == pytest.approx(slsqp_minimum_variance(cov.values), rel=1e-10)


def duplicated_assets() -> np.ndarray:
    """Eight random assets, then exact copies of the first two as assets 8 and 9."""
    a = np.random.default_rng(7).normal(size=(8, 8))
    columns = list(range(8)) + [0, 1]
    return (a @ a.T / 8)[np.ix_(columns, columns)]


def low_rank(n: int, rank: int) -> np.ndarray:
    """Rank-deficient factor covariance; a common positive factor keeps its minimum above 0."""
    b = np.random.default_rng(2).normal(size=(n, rank))
    b[:, 0] = 1.0 + np.abs(b[:, 0])
    return b @ b.T * 1e-4


@pytest.mark.parametrize(
    "values, expected",
    [
        pytest.param(duplicated_assets(), None, id="duplicate-columns"),
        pytest.param([[1.0, -1.0], [-1.0, 1.0]], [0.5, 0.5], id="perfect-hedge"),
        pytest.param(
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.2], [0.0, 0.2, 2.0]],
            [1.0, 0.0, 0.0],
            id="zero-variance-asset",
        ),
        pytest.param(low_rank(12, 5), None, id="rank-5"),
        pytest.param(np.zeros((4, 4)), [0.25] * 4, id="all-zero"),
    ],
)
def test_min_variance_degenerate_covariances(values, expected):
    # expected None: no closed form, so the objective is compared with SLSQP
    cov = cov_of(values)
    weights, variance = min_variance_long_only(cov)
    for i in range(cov.n):
        for j in range(i + 1, cov.n):
            if np.array_equal(cov.values[:, i], cov.values[:, j]):
                assert weights.values[i] == pytest.approx(weights.values[j], abs=1e-12)
    if expected is None:
        assert variance == pytest.approx(slsqp_minimum_variance(cov.values), rel=1e-10)
    else:
        np.testing.assert_allclose(weights.values, expected, atol=1e-12)
        expected = np.asarray(expected)
        assert variance == pytest.approx(float(expected @ cov.values @ expected), abs=1e-15)


# =============================================================================
# portfolio moments
# =============================================================================


def test_moments_single_asset():
    cov = cov_of([[0.0004]])
    weights = Weights(tickers=cov.tickers, values=np.array([1.0]))
    moments = portfolio_moments(weights, np.array([0.001]), cov)
    assert moments.expected_return == pytest.approx(0.001)
    assert moments.variance == pytest.approx(0.0004)


def test_moments_equal_weight_identity_cov():
    n = 5
    cov = cov_of(np.eye(n))
    weights = equal_weight(n, cov.tickers)
    moments = portfolio_moments(weights, np.zeros(n), cov)
    assert moments.variance == pytest.approx(1.0 / n, abs=1e-15)


def test_moments_match_correlation_form_oracle(rng):
    n = 4
    cov = random_covariance(n, rng)
    corr = correlation_matrix(cov)
    weights = equal_weight(n, cov.tickers)
    mu = rng.normal(0, 0.001, size=n)
    moments = portfolio_moments(weights, mu, cov)

    sigma = np.sqrt(np.diag(cov.values))
    oracle = 0.0
    for i in range(n):
        for j in range(n):
            oracle += (
                weights.values[i]
                * weights.values[j]
                * sigma[i]
                * sigma[j]
                * corr.values[i, j]
            )
    assert moments.variance == pytest.approx(oracle, abs=1e-12)
    assert moments.expected_return == pytest.approx(float(weights.values @ mu), abs=1e-15)


def test_moments_dimension_mismatch():
    cov = cov_of(np.eye(2))
    weights = equal_weight(2, cov.tickers)
    with pytest.raises(ValueError, match="mismatch"):
        portfolio_moments(weights, np.zeros(3), cov)


# =============================================================================
# cross-strategy simplex invariants
# =============================================================================


@pytest.mark.filterwarnings("ignore:node merging:RuntimeWarning")
def test_all_strategies_stay_on_simplex(rng):
    for _ in range(25):
        n = int(rng.integers(2, 8))
        cov = random_covariance(n, rng)
        link = linked(cov)
        candidates = [
            hrp_dendrogram_walk(cov, link),
            hrp_recursive_bisection(cov, quasi_diagonal_order(link)),
            equal_weight(n, cov.tickers),
            min_variance_long_only(cov)[0],
        ]
        for weights in candidates:
            assert weights.values.min() >= 0.0
            assert abs(weights.values.sum() - 1.0) <= 1e-12
