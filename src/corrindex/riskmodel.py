"""Covariance, correlation, and distance matrices plus agglomerative clustering.

The clustering is written from scratch so the merge order is fully
deterministic: among equally distant pairs, the one with the smaller
(left, right) id pair merges first. Leaves are numbered 0..n-1, internal
nodes n..2n-2 in merge order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import DISTANCE_CONVENTIONS, LINKAGE_METHODS
from .csvio import write_csv
from .market_data import AlignedPanel, _readonly

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10


@dataclass(frozen=True)
class _TickerMatrix:
    """A square matrix labelled by `tickers` on both axes.

    Construction copies `values` into a read-only array and checks that its
    shape matches the tickers, that it is finite and that it is symmetric
    within `SYMMETRY_TOL`; `_check` then tests the subclass's own invariants.
    Error texts name the matrix as `_what`.
    """

    tickers: tuple[str, ...]
    values: np.ndarray

    _what = "matrix"

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "values", _readonly(self.values))
        n, values, what = len(self.tickers), self.values, self._what
        if values.shape != (n, n):
            raise ValueError(f"{what} shape {values.shape} does not match {n} tickers")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{what} contains non-finite values")
        if np.abs(values - values.T).max() > SYMMETRY_TOL:
            raise ValueError(f"{what} is not symmetric within {SYMMETRY_TOL}")
        self._check()

    def _check(self) -> None:
        """Raise `ValueError` unless the subclass's own invariants hold."""

    @property
    def n(self) -> int:
        return len(self.tickers)


class CovarianceMatrix(_TickerMatrix):
    """Symmetric positive-semidefinite covariance of daily returns.

    Eigenvalues down to -1e-10 are tolerated as rounding noise; anything
    more negative is rejected as an indefinite input.
    """

    _what = "covariance matrix"

    def _check(self) -> None:
        if np.any(np.diag(self.values) < 0):
            raise ValueError("covariance diagonal must be nonnegative")
        min_eig = float(np.linalg.eigvalsh(self.values).min())
        if min_eig < PSD_TOL:
            raise ValueError(f"covariance matrix is not PSD (min eigenvalue {min_eig})")


class CorrelationMatrix(_TickerMatrix):
    _what = "correlation matrix"

    def _check(self) -> None:
        if np.any(np.diag(self.values) != 1.0):
            raise ValueError("correlation diagonal must be exactly 1")
        if self.values.min() < -1.0 or self.values.max() > 1.0:
            raise ValueError("correlation entries must lie in [-1, 1]")


class DistanceMatrix(_TickerMatrix):
    _what = "distance matrix"

    def _check(self) -> None:
        if np.any(np.diag(self.values) != 0.0):
            raise ValueError("distance diagonal must be zero")
        if self.values.min() < 0:
            raise ValueError("distances must be nonnegative")


@dataclass(frozen=True, slots=True)
class MergeRecord:
    """One agglomerative merge: child node ids, merge distance, and leaf count."""

    left: int
    right: int
    distance: float
    size: int


@dataclass(frozen=True)
class Linkage:
    """Merge schedule of the dendrogram over `tickers`.

    `members[node]` holds the leaves under each node (leaves 0..n-1, then
    one per merge), left subtree first, so `members[-1]` is the dendrogram's
    pre-order. Construction rejects any schedule that is not a tree: every
    merge must join two distinct earlier nodes that no earlier merge has
    joined, and its `size` must count the leaves under it.
    """

    tickers: tuple[str, ...]
    merges: tuple[MergeRecord, ...]
    method: str
    members: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "merges", tuple(self.merges))
        n = len(self.tickers)
        if len(self.merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges for {n} leaves, got {len(self.merges)}")
        members = [(leaf,) for leaf in range(n)]
        merged: set[int] = set()
        for node, rec in enumerate(self.merges, start=n):
            if rec.left == rec.right:
                raise ValueError(f"node {node} merges node {rec.left} with itself")
            for child in (rec.left, rec.right):
                if not 0 <= child < node:
                    raise ValueError(f"node {node} merges node {child}, which is not an earlier node")
                if child in merged:
                    raise ValueError(f"node {node} merges node {child}, which is already merged")
                merged.add(child)
            members.append(members[rec.left] + members[rec.right])
            if rec.size != len(members[node]):
                raise ValueError(f"node {node} has size {rec.size} but {len(members[node])} leaves")
        object.__setattr__(self, "members", tuple(members))
        if self.method in ("single", "complete"):
            dists = [rec.distance for rec in self.merges]
            if any(b < a - SYMMETRY_TOL for a, b in zip(dists, dists[1:])):
                raise ValueError(f"{self.method} linkage distances must be nondecreasing")

    @property
    def n_leaves(self) -> int:
        return len(self.tickers)

    def leaves_under(self, node: int) -> tuple[int, ...]:
        """All leaf ids below `node` in increasing order (a leaf id returns itself)."""
        return tuple(sorted(self.members[node]))


@dataclass(frozen=True)
class ClusterRisk:
    """Cluster-level risk aggregates from cutting the dendrogram at m clusters.

    `cluster_cov[i, j]` is the plain double sum of asset covariances across
    clusters i and j (unscaled, so it grows with cluster size).
    `avg_corr_within[i]` is the mean off-diagonal asset correlation inside
    cluster i (1.0 for singletons); `avg_corr_cross[i, j]` is the mean asset
    correlation across clusters i != j, with a zero diagonal.
    """

    assignments: tuple[int, ...]
    cluster_cov: np.ndarray
    cluster_corr: np.ndarray
    avg_corr_within: np.ndarray
    avg_corr_cross: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        object.__setattr__(self, "cluster_cov", _readonly(self.cluster_cov))
        object.__setattr__(self, "cluster_corr", _readonly(self.cluster_corr))
        object.__setattr__(self, "avg_corr_within", _readonly(self.avg_corr_within))
        object.__setattr__(self, "avg_corr_cross", _readonly(self.avg_corr_cross))


def covariance_matrix(panel: AlignedPanel) -> CovarianceMatrix:
    """Sample covariance (n-1 denominator) of a returns panel."""
    if panel.n_days < 2:
        raise ValueError("need at least 2 rows to estimate covariance")
    centered = panel.values - panel.values.mean(axis=0)
    cov = centered.T @ centered / (panel.n_days - 1)
    cov = (cov + cov.T) / 2.0
    return CovarianceMatrix(tickers=panel.tickers, values=cov)


def correlation_matrix(cov: CovarianceMatrix) -> CorrelationMatrix:
    """corr[i, j] = cov[i, j] / sqrt(cov[i, i] * cov[j, j]) with an exact unit diagonal."""
    diag = np.diag(cov.values)
    bad = np.nonzero(diag <= 0)[0]
    if bad.size:
        raise ValueError(f"zero-variance asset {cov.tickers[bad[0]]!r}")
    scale = np.sqrt(diag)
    corr = cov.values / np.outer(scale, scale)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(tickers=cov.tickers, values=corr)


def correlation_distance(
    corr: CorrelationMatrix, convention: str = "correlation"
) -> DistanceMatrix:
    """Distance between assets derived from their correlations.

    `correlation` (default) is sqrt((1 - corr) / 2), which maps corr 1 -> 0,
    corr 0 -> sqrt(0.5), corr -1 -> 1. `euclidean` is the Euclidean distance
    between correlation-matrix columns.
    """
    if convention not in DISTANCE_CONVENTIONS:
        raise ValueError(
            f"unknown distance convention {convention!r}, expected one of {DISTANCE_CONVENTIONS}"
        )
    if convention == "correlation":
        dist = np.sqrt(np.clip((1.0 - corr.values) / 2.0, 0.0, None))
    else:
        diff = corr.values[:, :, None] - corr.values[:, None, :]
        dist = np.sqrt((diff**2).sum(axis=0))
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return DistanceMatrix(tickers=corr.tickers, values=dist)


def linkage(dist: DistanceMatrix, method: str = "single") -> Linkage:
    """Agglomerative clustering of the distance matrix.

    At every step the pair of active clusters with minimal inter-cluster
    distance merges; `single` uses the minimum pairwise leaf distance,
    `complete` the maximum, and `ward` the Lance-Williams variance-increase
    update on squared distances. Ties go to the smaller (left, right) ids.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}, expected one of {LINKAGE_METHODS}")
    n = dist.n
    if n < 2:
        raise ValueError("need at least 2 assets to build a linkage")

    # Distances between active clusters in one symmetric matrix indexed by
    # node id; the diagonal and merged or not-yet-formed nodes hold inf. The
    # row-major argmin is then the tied pair with the smallest (low, high).
    # Ward tracks squared distances; the merge record stores the square root.
    squared = method == "ward"
    nodes = 2 * n - 1
    d = np.full((nodes, nodes), np.inf)
    upper = np.triu_indices(n, 1)
    d[upper] = dist.values[upper] ** 2 if squared else dist.values[upper]
    d[upper[::-1]] = d[upper]

    sizes = np.zeros(nodes, dtype=np.int64)
    sizes[:n] = 1
    active = np.zeros(nodes, dtype=bool)
    active[:n] = True
    merges: list[MergeRecord] = []
    for new_id in range(n, nodes):
        a, b = divmod(int(np.argmin(d)), nodes)
        best = float(d[a, b])
        active[[a, b]] = False
        others = np.flatnonzero(active)
        d_ac, d_bc = d[a, others], d[b, others]
        # np.where keeps d_ac on ties, as min()/max() do; np.minimum would
        # return d_bc and so flip the sign of a 0.0 / -0.0 tie.
        if method == "single":
            merged = np.where(d_bc < d_ac, d_bc, d_ac)
        elif method == "complete":
            merged = np.where(d_bc > d_ac, d_bc, d_ac)
        else:
            na, nb, nc = sizes[a], sizes[b], sizes[others]
            merged = ((na + nc) * d_ac + (nb + nc) * d_bc - nc * best) / (na + nb + nc)
        d[[a, b], :] = np.inf
        d[:, [a, b]] = np.inf
        d[new_id, others] = merged
        d[others, new_id] = merged
        active[new_id] = True
        sizes[new_id] = sizes[a] + sizes[b]
        merges.append(
            MergeRecord(
                left=a,
                right=b,
                distance=float(np.sqrt(best)) if squared else best,
                size=int(sizes[new_id]),
            )
        )
    return Linkage(tickers=dist.tickers, merges=tuple(merges), method=method)


def cut_clusters(link: Linkage, m: int) -> tuple[int, ...]:
    """Leaf -> cluster id from undoing the last m-1 merges.

    Cluster ids are ordered by each cluster's smallest leaf, so m = n gives
    the identity assignment.
    """
    n = link.n_leaves
    if not 1 <= m <= n:
        raise ValueError(f"cluster count {m} outside [1, {n}]")
    kept = link.merges[: n - m]
    consumed = {child for rec in kept for child in (rec.left, rec.right)}
    roots = [node for node in range(n + len(kept)) if node not in consumed]
    assignment = [0] * n
    for cid, leaves in enumerate(sorted((link.members[r] for r in roots), key=min)):
        for leaf in leaves:
            assignment[leaf] = cid
    return tuple(assignment)


def cluster_aggregates(
    cov: CovarianceMatrix,
    corr: CorrelationMatrix,
    link: Linkage,
    m: int,
) -> ClusterRisk:
    """Cluster covariance / correlation and within / cross mean correlations.

    The cluster covariance is the unscaled double sum of member covariances,
    `M.T @ cov @ M` for the leaf-by-cluster membership matrix `M`; the cluster
    correlation normalizes it by the cluster self-sums.
    """
    if cov.tickers != corr.tickers or cov.tickers != link.tickers:
        raise ValueError("covariance, correlation, and linkage tickers differ")
    assignment = cut_clusters(link, m)
    members = np.eye(m)[np.array(assignment)]  # leaf x cluster membership
    cluster_cov = members.T @ cov.values @ members

    self_sums = np.diag(cluster_cov)
    if np.any(self_sums <= 0):
        bad = int(np.nonzero(self_sums <= 0)[0][0])
        raise ValueError(f"cluster {bad} has non-positive covariance self-sum")
    scale = np.sqrt(self_sums)
    cluster_corr = cluster_cov / np.outer(scale, scale)
    np.fill_diagonal(cluster_corr, 1.0)

    # Mean correlation over the distinct asset pairs of each cluster pair: the
    # block sums less the unit diagonal, over k_i * k_j pairs (k_i * (k_i - 1)
    # within cluster i). A singleton has no pair and reads 1.0.
    sizes = members.sum(axis=0)
    pair_sums = members.T @ corr.values @ members - np.diag(sizes)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    mean_corr = np.divide(pair_sums, pairs, out=np.ones((m, m)), where=pairs > 0)
    within = np.diag(mean_corr).copy()
    np.fill_diagonal(mean_corr, 0.0)

    return ClusterRisk(
        assignments=assignment,
        cluster_cov=cluster_cov,
        cluster_corr=cluster_corr,
        avg_corr_within=within,
        avg_corr_cross=mean_corr,
    )


def matrix_to_csv(tickers: Sequence[str], values: np.ndarray, path: str | Path) -> None:
    """Write a square ticker-labelled matrix as CSV with a header row and column."""
    rows = np.asarray(values, dtype=float).tolist()
    write_csv(path, ["", *tickers], ([t, *row] for t, row in zip(tickers, rows, strict=True)))


def linkage_to_csv(link: Linkage, path: str | Path) -> None:
    """Write merge records as a 4-column CSV (left, right, distance, size)."""
    rows = ([rec.left, rec.right, rec.distance, rec.size] for rec in link.merges)
    write_csv(path, ["left", "right", "distance", "size"], rows)
