"""Index weight allocation strategies and portfolio moments.

Four strategies share the `Weights` contract (nonnegative, summing to 1):

* `hrp_dendrogram_walk` walks the dendrogram bottom-up and gives each leaf a weight
  proportional to the (floored) mean cross-cluster covariance of the merge
  that names it as a child.
* `hrp_recursive_bisection` is the standard hierarchical risk parity step:
  split the quasi-diagonally ordered assets in half and allocate inversely
  to each half's inverse-variance-portfolio variance.
* `equal_weight` is naive risk parity, 1/n each.
* `min_variance_long_only` minimizes w' C w over the simplex by projected
  gradient descent with a KKT-verified active-set polish.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .market_data import _readonly
from .riskmodel import CovarianceMatrix, Linkage

WEIGHT_SUM_TOL = 1e-12
NODE_VALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class Weights:
    """Allocation vector on the simplex: each entry >= 0, total 1 within 1e-12."""

    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1 or self.values.shape[0] != len(self.tickers):
            raise ValueError("weights and tickers lengths differ")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("weights contain non-finite values")
        if self.values.min() < 0:
            raise ValueError(f"weights must be nonnegative, min is {self.values.min()}")
        total = float(self.values.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    @property
    def n(self) -> int:
        return len(self.tickers)


@dataclass(frozen=True, slots=True)
class PortfolioMoments:
    expected_return: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"variance must be nonnegative, got {self.variance}")


class ConvergenceError(RuntimeError):
    """Optimizer hit the iteration budget; carries the last iterate."""

    def __init__(self, weights: np.ndarray, objective: float, iterations: int):
        super().__init__(
            f"minimum-variance solver did not converge in {iterations} iterations "
            f"(objective {objective!r})"
        )
        self.weights = weights
        self.objective = objective
        self.iterations = iterations


def _default_tickers(n: int) -> tuple[str, ...]:
    return tuple(f"A{i:03d}" for i in range(n))


def node_mean_cross_covariances(cov: CovarianceMatrix, link: Linkage) -> np.ndarray:
    """Per-merge node value: mean covariance between the two merged clusters.

    For the node merging clusters k and j this is
    sum_{p in k} sum_{q in j} cov[p, q] / (|k| * |j|). It can be zero or
    negative for uncorrelated or hedging clusters; the allocator floors such
    values.
    """
    if cov.tickers != link.tickers:
        raise ValueError("covariance and linkage tickers differ")
    values = np.empty(len(link.merges))
    for idx, rec in enumerate(link.merges):
        left = link.leaves_under(rec.left)
        right = link.leaves_under(rec.right)
        block = cov.values[np.ix_(left, right)]
        values[idx] = block.sum() / (len(left) * len(right))
    return values


def hrp_dendrogram_walk(cov: CovarianceMatrix, link: Linkage) -> Weights:
    """Dendrogram walk allocation: one node value per leaf, normalized at the end.

    Merges are visited bottom-up in merge order. A leaf joins the tree at the
    one merge that names it as a child and takes that merge's node value.
    Node values <= 0 are floored at 1e-12 (with a warning) to keep the
    weights nonnegative.
    """
    n = cov.n
    node_values = node_mean_cross_covariances(cov, link)
    weights = np.zeros(n)
    for rec, value in zip(link.merges, node_values):
        if value <= 0:
            warnings.warn(
                f"node merging {rec.left} and {rec.right} has non-positive mean "
                f"covariance {value!r}; flooring at {NODE_VALUE_FLOOR}",
                RuntimeWarning,
                stacklevel=2,
            )
            value = NODE_VALUE_FLOOR
        for child in (rec.left, rec.right):
            if child < n:
                weights[child] = value
    total = weights.sum()
    if total <= 0:
        raise ValueError("total weight is non-positive; covariance matrix is indefinite")
    return Weights(tickers=cov.tickers, values=weights / total)


def quasi_diagonal_order(link: Linkage) -> list[int]:
    """Leaf permutation from a pre-order walk of the dendrogram.

    Places correlated assets adjacently, the input order for recursive
    bisection.
    """
    return list(link.members[-1])


def _inverse_variance_weights(cov_sub: np.ndarray) -> np.ndarray:
    diag = np.diag(cov_sub)
    if np.any(diag <= 0):
        raise ValueError("zero-variance asset in covariance sub-matrix")
    ivp = 1.0 / diag
    return ivp / ivp.sum()


def _cluster_variance(cov: np.ndarray, items: Sequence[int]) -> float:
    sub = cov[np.ix_(items, items)]
    w = _inverse_variance_weights(sub)
    return float(w @ sub @ w)


def hrp_recursive_bisection(cov: CovarianceMatrix, order: Sequence[int]) -> Weights:
    """Standard recursive-bisection hierarchical risk parity.

    Starting from unit weights over the quasi-diagonal ordering, each cluster
    is split in half and the halves are scaled by 1 - V_left / (V_left +
    V_right) and its complement, where V is the inverse-variance-portfolio
    variance of the half. Recurses to singletons; the result sums to 1 by
    construction.
    """
    n = cov.n
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    weights = np.ones(n)
    clusters: list[list[int]] = [order]
    while clusters:
        clusters = [
            half
            for cluster in clusters
            for half in (cluster[: len(cluster) // 2], cluster[len(cluster) // 2 :])
            if len(cluster) > 1
        ]
        for left, right in zip(clusters[::2], clusters[1::2]):
            var_left = _cluster_variance(cov.values, left)
            var_right = _cluster_variance(cov.values, right)
            alpha = 1.0 - var_left / (var_left + var_right)
            weights[left] *= alpha
            weights[right] *= 1.0 - alpha
    return Weights(tickers=cov.tickers, values=weights / weights.sum())


def equal_weight(n: int, tickers: Sequence[str] | None = None) -> Weights:
    """Naive risk parity: 1/n to every asset."""
    if n < 1:
        raise ValueError("need at least one asset")
    if tickers is None:
        tickers = _default_tickers(n)
    elif len(tickers) != n:
        raise ValueError(f"{len(tickers)} tickers for n={n}")
    return Weights(tickers=tuple(tickers), values=np.full(n, 1.0 / n))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.shape[0] + 1)
    valid = np.nonzero(u - css / ranks > 0)[0]
    rho = valid[-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _polish_active_set(cov: np.ndarray, w: np.ndarray, support_tol: float = 1e-9):
    """Solve the equality-constrained problem on the active support and verify KKT.

    Returns the exact long-only solution if the candidate support checks out,
    else None.
    """
    support = np.nonzero(w > support_tol)[0]
    if support.size == 0:
        return None
    sub = cov[np.ix_(support, support)]
    try:
        x = np.linalg.solve(sub, np.ones(support.size))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    residual = np.abs(sub @ x - 1.0).max()
    if residual > 1e-8:
        return None
    denom = x.sum()
    if denom <= 0:
        return None
    w_sub = x / denom
    if w_sub.min() < -1e-12:
        return None
    candidate = np.zeros_like(w)
    candidate[support] = np.maximum(w_sub, 0.0)
    candidate /= candidate.sum()
    grad = 2.0 * cov @ candidate
    lam = float(candidate @ grad)
    tol = 1e-9 * max(1.0, abs(lam))
    if np.abs(grad[support] - lam).max() > tol:
        return None
    off = np.setdiff1d(np.arange(w.shape[0]), support)
    if off.size and grad[off].min() < lam - tol:
        return None
    return candidate


def min_variance_long_only(
    cov: CovarianceMatrix,
    objective_tol: float = 1e-12,
    step_tol: float = 1e-13,
    max_iterations: int = 100_000,
) -> tuple[Weights, float]:
    """Long-only minimum-variance weights and the achieved variance.

    Projected gradient descent with fixed step 1 / lambda_max(2C); declared
    converged when both the successive objective change and the weight motion
    fall below tolerance. Every 25 iterations (and at convergence) an
    active-set solve is attempted and accepted only if its KKT conditions
    hold, which pins the solution to solver precision rather than gradient
    precision. Raises ConvergenceError with the last iterate on a budget
    overrun.
    """
    c = cov.values
    n = cov.n
    if n == 1:
        return Weights(tickers=cov.tickers, values=np.array([1.0])), float(c[0, 0])

    lipschitz = float(np.linalg.eigvalsh(2.0 * c).max())
    if lipschitz <= 0:
        w = np.full(n, 1.0 / n)
        return Weights(tickers=cov.tickers, values=w), float(w @ c @ w)
    step = 1.0 / lipschitz

    w = np.full(n, 1.0 / n)
    objective = float(w @ c @ w)
    for iteration in range(max_iterations):
        if iteration % 25 == 0:
            polished = _polish_active_set(c, w)
            if polished is not None:
                return (
                    Weights(tickers=cov.tickers, values=polished),
                    float(polished @ c @ polished),
                )
        w_next = project_to_simplex(w - step * 2.0 * (c @ w))
        objective_next = float(w_next @ c @ w_next)
        moved = float(np.abs(w_next - w).max())
        converged = abs(objective - objective_next) < objective_tol and moved < step_tol
        w, objective = w_next, objective_next
        if converged:
            polished = _polish_active_set(c, w)
            if polished is not None:
                w = polished
                objective = float(w @ c @ w)
            return Weights(tickers=cov.tickers, values=w / w.sum()), objective
    raise ConvergenceError(w, objective, max_iterations)


def portfolio_moments(
    weights: Weights, mean_returns: np.ndarray, cov: CovarianceMatrix
) -> PortfolioMoments:
    """Portfolio mean w'mu and variance w'Cw."""
    mu = np.asarray(mean_returns, dtype=float)
    if mu.shape != (weights.n,) or cov.n != weights.n:
        raise ValueError(
            f"dimension mismatch: {weights.n} weights, {mu.shape} means, {cov.n} assets"
        )
    w = weights.values
    mean = float(w @ mu)
    variance = float(w @ cov.values @ w)
    return PortfolioMoments(expected_return=mean, variance=max(variance, 0.0))
