"""Index weight allocation strategies and portfolio moments.

Four strategies share the `Weights` contract (nonnegative, summing to 1):

* `hrp_dendrogram_walk` walks the dendrogram bottom-up and gives each leaf a weight
  proportional to the (floored) mean cross-cluster covariance of the merge
  that names it as a child.
* `hrp_recursive_bisection` is the standard hierarchical risk parity step:
  split the quasi-diagonally ordered assets in half and allocate inversely
  to each half's inverse-variance-portfolio variance.
* `equal_weight` is naive risk parity, 1/n each.
* `min_variance_long_only` minimizes w' C w over the simplex exactly, by a
  primal active-set method that ends in a finite number of steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import WEIGHT_SUM_TOL
from .market_data import _readonly, _reduce_through_init

if TYPE_CHECKING:
    from .riskmodel import CovarianceMatrix, Linkage

NODE_VALUE_FLOOR = 1e-12
KKT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Weights:
    """Allocation vector on the simplex: each entry >= 0, total 1 within 1e-12."""

    tickers: tuple[str, ...]
    values: np.ndarray
    __reduce__ = _reduce_through_init

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


def equal_weight(n: int, tickers: Sequence[str]) -> Weights:
    """Naive risk parity: 1/n to every asset."""
    if n < 1:
        raise ValueError("need at least one asset")
    if len(tickers) != n:
        raise ValueError(f"{len(tickers)} tickers for n={n}")
    return Weights(tickers=tuple(tickers), values=np.full(n, 1.0 / n))


def min_variance_long_only(cov: CovarianceMatrix) -> tuple[Weights, float]:
    """Long-only minimum-variance weights and the achieved variance.

    Exact primal active-set method for min w'Cw subject to sum(w) = 1 and
    w >= 0 (Nocedal & Wright, Numerical Optimization, 2006, Alg. 16.3).
    Every asset starts free at 1/n. Each step solves the bordered KKT system
    [[C_F, 1], [1', 0]] on the free set F by least squares, whose least-norm
    solution also covers singular covariances and splits exact duplicates
    evenly. A target with a negative weight is approached until the first
    free weight reaches zero, and that asset is fixed at zero. Otherwise the
    target is accepted, and the fixed asset whose gradient falls furthest
    below the multiplier w'Cw is freed; the loop stops when none does. C is
    divided by its mean diagonal first, so one KKT tolerance fits any scale.
    """
    c = cov.values
    n = cov.n
    scale = float(np.trace(c)) / n
    w = np.full(n, 1.0 / n)
    if n == 1 or scale <= 0:
        return Weights(tickers=cov.tickers, values=w), float(w @ c @ w)

    a = c / scale
    free = np.ones(n, dtype=bool)
    # Guards against cycling on degenerate steps. Each step fixes or frees one
    # asset; random instances of up to 120 assets took at most n + 14 steps.
    max_steps = n * (n + 1)
    for _ in range(max_steps):
        idx = np.flatnonzero(free)
        m = idx.size
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = a[np.ix_(idx, idx)]
        kkt[m, m] = 0.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        target = np.linalg.lstsq(kkt, rhs)[0][:m]
        negative = target < 0
        if negative.any():
            current = np.maximum(w[idx], 0.0)  # rounding can leave a hair below zero
            ratios = current[negative] / (current[negative] - target[negative])
            k = int(np.argmin(ratios))
            w[idx] = current + ratios[k] * (target - current)
            blocking = idx[negative][k]
            w[blocking] = 0.0
            free[blocking] = False
            continue
        w[idx] = target
        grad = a @ w
        slack = np.where(free, np.inf, grad - w @ grad)
        j = int(np.argmin(slack))
        if slack[j] >= -KKT_TOL:
            break
        free[j] = True
    else:
        raise RuntimeError(f"active-set loop did not terminate in {max_steps} steps")
    w /= w.sum()
    return Weights(tickers=cov.tickers, values=w), float(w @ c @ w)


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
