from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrindex.allocation import quasi_diagonal_order
from corrindex.riskmodel import (
    LINKAGE_METHODS,
    SYMMETRY_TOL,
    ClusterRisk,
    CorrelationMatrix,
    CovarianceMatrix,
    DistanceMatrix,
    Linkage,
    MergeRecord,
    cluster_aggregates,
    correlation_distance,
    correlation_matrix,
    covariance_matrix,
    cut_clusters,
    linkage,
    linkage_to_csv,
    matrix_to_csv,
)
from conftest import panel_from_matrix, random_covariance, tickers


# =============================================================================
# covariance_matrix
# =============================================================================


def test_covariance_single_asset_hand_case():
    panel = panel_from_matrix(np.array([[0.01], [-0.01]]))
    cov = covariance_matrix(panel)
    # mean 0, var = (1e-4 + 1e-4) / (2 - 1)
    assert cov.values[0, 0] == pytest.approx(2e-4, abs=1e-18)


def test_covariance_identical_columns(rng):
    col = rng.normal(0, 0.01, size=100)
    cov = covariance_matrix(panel_from_matrix(np.column_stack([col, col])))
    assert cov.values[0, 0] == cov.values[0, 1] == cov.values[1, 0] == cov.values[1, 1]


def test_covariance_matches_two_pass_oracle(rng):
    values = rng.normal(0, 0.02, size=(200, 5))
    cov = covariance_matrix(panel_from_matrix(values))

    means = values.sum(axis=0) / 200
    oracle = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            oracle[i, j] = sum(
                (values[t, i] - means[i]) * (values[t, j] - means[j]) for t in range(200)
            ) / 199
    np.testing.assert_allclose(cov.values, oracle, atol=1e-12)


def test_covariance_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2"):
        covariance_matrix(panel_from_matrix(np.array([[0.01, 0.02]])))


# =============================================================================
# correlation_matrix
# =============================================================================


def test_correlation_of_diagonal_cov_is_identity():
    cov = CovarianceMatrix(tickers=tickers(3), values=np.diag([1.0, 4.0, 9.0]))
    corr = correlation_matrix(cov)
    np.testing.assert_array_equal(corr.values, np.eye(3))


def test_correlation_hand_case_perfect_dependence():
    cov = CovarianceMatrix(tickers=tickers(2), values=np.array([[4.0, 2.0], [2.0, 1.0]]))
    corr = correlation_matrix(cov)
    np.testing.assert_allclose(corr.values, np.ones((2, 2)), atol=1e-15)


def test_correlation_matches_oracle_and_bounds(rng):
    cov = random_covariance(6, rng)
    corr = correlation_matrix(cov)
    assert corr.values.min() >= -1.0 and corr.values.max() <= 1.0
    for i in range(6):
        for j in range(6):
            expected = cov.values[i, j] / np.sqrt(cov.values[i, i] * cov.values[j, j])
            assert corr.values[i, j] == pytest.approx(expected, abs=1e-12)


def test_correlation_zero_variance_names_ticker():
    values = np.zeros((2, 2))
    values[0, 0] = 1.0
    cov = CovarianceMatrix(tickers=("GOOD", "FLAT"), values=values)
    with pytest.raises(ValueError, match="FLAT"):
        correlation_matrix(cov)


def test_correlation_scale_free(rng):
    values = rng.normal(0, 0.02, size=(150, 4))
    corr_a = correlation_matrix(covariance_matrix(panel_from_matrix(values)))
    rescaled = values * np.array([1.0, 3.0, 0.25, 10.0])
    corr_b = correlation_matrix(covariance_matrix(panel_from_matrix(rescaled)))
    np.testing.assert_allclose(corr_a.values, corr_b.values, atol=1e-12)


# =============================================================================
# correlation_distance
# =============================================================================


def test_distance_closed_forms():
    values = np.array([[1.0, 1.0], [1.0, 1.0]])
    corr = CorrelationMatrix(tickers=tickers(2), values=values)
    assert correlation_distance(corr).values[0, 1] == 0.0

    values = np.array([[1.0, -1.0], [-1.0, 1.0]])
    corr = CorrelationMatrix(tickers=tickers(2), values=values)
    assert correlation_distance(corr).values[0, 1] == pytest.approx(1.0, abs=1e-15)

    values = np.array([[1.0, 0.0], [0.0, 1.0]])
    corr = CorrelationMatrix(tickers=tickers(2), values=values)
    assert correlation_distance(corr).values[0, 1] == pytest.approx(
        0.70710678, abs=1e-8
    )


def test_distance_monotone_decreasing_in_correlation():
    rhos = np.linspace(-1, 1, 21)
    dists = np.sqrt((1 - rhos) / 2)
    assert np.all(np.diff(dists) < 0)


def test_distance_euclidean_convention(rng):
    corr = correlation_matrix(random_covariance(4, rng))
    dist = correlation_distance(corr, convention="euclidean")
    for i in range(4):
        for j in range(4):
            expected = np.linalg.norm(corr.values[:, i] - corr.values[:, j])
            assert dist.values[i, j] == pytest.approx(expected, abs=1e-12)


# =============================================================================
# linkage
# =============================================================================


def dist_matrix(values: np.ndarray) -> DistanceMatrix:
    return DistanceMatrix(tickers=tickers(values.shape[0]), values=values)


def three_point(d01: float, d02: float, d12: float) -> DistanceMatrix:
    return dist_matrix(np.array([[0, d01, d02], [d01, 0, d12], [d02, d12, 0]], dtype=float))


def test_linkage_two_points():
    dist = dist_matrix(np.array([[0.0, 0.3], [0.3, 0.0]]))
    for method in ("single", "complete", "ward"):
        link = linkage(dist, method=method)
        assert len(link.merges) == 1
        rec = link.merges[0]
        assert (rec.left, rec.right, rec.size) == (0, 1, 2)
        assert rec.distance == pytest.approx(0.3, abs=1e-15)


def test_linkage_single_hand_trace():
    link = linkage(three_point(0.1, 0.9, 0.9), method="single")
    first, second = link.merges
    assert (first.left, first.right) == (0, 1)
    assert first.distance == pytest.approx(0.1)
    assert (second.left, second.right) == (2, 3)
    assert second.distance == pytest.approx(0.9)


def test_linkage_complete_hand_trace():
    link = linkage(three_point(0.1, 0.4, 0.9), method="complete")
    first, second = link.merges
    assert (first.left, first.right) == (0, 1)
    assert second.distance == pytest.approx(max(0.4, 0.9), abs=1e-15)


def test_linkage_ward_hand_trace():
    # Lance-Williams on squared distances:
    # d2(01, 2) = (2*d02^2 + 2*d12^2 - d01^2) / 3
    link = linkage(three_point(0.1, 0.4, 0.9), method="ward")
    first, second = link.merges
    assert (first.left, first.right) == (0, 1)
    expected = np.sqrt((2 * 0.4**2 + 2 * 0.9**2 - 0.1**2) / 3)
    assert second.distance == pytest.approx(expected, abs=1e-12)


def oracle_single_linkage(values: np.ndarray) -> list[tuple[int, int, float, int]]:
    """Exhaustive nearest-pair search, recomputing cluster distances from leaves."""
    n = values.shape[0]
    clusters: dict[int, set[int]] = {i: {i} for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                d = min(values[p, q] for p in clusters[a] for q in clusters[b])
                key = (d, a, b)
                if best is None or key < best:
                    best = key
        d, a, b = best
        clusters[next_id] = clusters.pop(a) | clusters.pop(b)
        merges.append((a, b, d, len(clusters[next_id])))
        next_id += 1
    return merges


def test_linkage_single_matches_exhaustive_oracle(rng):
    for _ in range(20):
        raw = rng.uniform(0.05, 1.0, size=(6, 6))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 0.0)
        link = linkage(dist_matrix(values), method="single")
        got = [(m.left, m.right, m.distance, m.size) for m in link.merges]
        expected = oracle_single_linkage(values)
        for g, e in zip(got, expected):
            assert g[:2] == e[:2]
            assert g[2] == pytest.approx(e[2], abs=1e-12)
            assert g[3] == e[3]


def test_linkage_tie_break_prefers_lower_ids():
    values = np.full((4, 4), 0.5)
    np.fill_diagonal(values, 0.0)
    link = linkage(dist_matrix(values), method="single")
    assert (link.merges[0].left, link.merges[0].right) == (0, 1)
    assert (link.merges[1].left, link.merges[1].right) == (2, 3)
    assert (link.merges[2].left, link.merges[2].right) == (4, 5)


def _leaf_sets(link: Linkage) -> list[tuple[frozenset[int], float]]:
    return [
        (frozenset(link.leaves_under(link.n_leaves + i)), rec.distance)
        for i, rec in enumerate(link.merges)
    ]


def test_linkage_permutation_equivariant(rng):
    for n in (4, 5, 6):
        raw = rng.uniform(0.05, 1.0, size=(n, n))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 0.0)
        perm = rng.permutation(n)
        permuted = values[np.ix_(perm, perm)]

        base = _leaf_sets(linkage(dist_matrix(values), method="single"))
        mapped = _leaf_sets(linkage(dist_matrix(permuted), method="single"))

        # leaf p in the permuted matrix corresponds to leaf perm[p] originally
        remapped = [(frozenset(int(perm[p]) for p in s), d) for s, d in mapped]
        assert len(base) == len(remapped)
        for (set_a, d_a), (set_b, d_b) in zip(
            sorted(base, key=lambda t: (t[1], sorted(t[0]))),
            sorted(remapped, key=lambda t: (t[1], sorted(t[0]))),
        ):
            assert set_a == set_b
            assert d_a == pytest.approx(d_b, abs=1e-12)


def test_linkage_single_complete_distances_nondecreasing(rng):
    raw = rng.uniform(0.05, 1.0, size=(8, 8))
    values = (raw + raw.T) / 2
    np.fill_diagonal(values, 0.0)
    for method in ("single", "complete"):
        dists = [m.distance for m in linkage(dist_matrix(values), method=method).merges]
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


# =============================================================================
# Linkage tree validation
# =============================================================================


@pytest.mark.parametrize(
    "merges, message",
    [
        ((MergeRecord(0, 4, 0.1, 2), MergeRecord(3, 1, 0.2, 3)), "not an earlier node"),
        ((MergeRecord(-1, 0, 0.1, 2), MergeRecord(3, 1, 0.2, 3)), "not an earlier node"),
        ((MergeRecord(0, 0, 0.1, 2), MergeRecord(3, 1, 0.2, 3)), "with itself"),
        ((MergeRecord(0, 1, 0.1, 2), MergeRecord(3, 1, 0.2, 3)), "already merged"),
        ((MergeRecord(0, 1, 0.1, 2), MergeRecord(3, 2, 0.2, 2)), "size 2 but 3 leaves"),
    ],
    ids=["forward-reference", "negative-id", "self-merge", "merged-twice", "size-mismatch"],
)
def test_linkage_rejects_malformed_tree(merges, message):
    with pytest.raises(ValueError, match=message):
        Linkage(tickers=tickers(3), merges=merges, method="single")


def test_linkage_members_are_preorder_leaf_lists():
    link = Linkage(
        tickers=tickers(4),
        merges=(MergeRecord(2, 0, 0.1, 2), MergeRecord(3, 1, 0.2, 2), MergeRecord(5, 4, 0.3, 4)),
        method="single",
    )
    assert link.members == ((0,), (1,), (2,), (3,), (2, 0), (3, 1), (3, 1, 2, 0))
    assert link.leaves_under(6) == (0, 1, 2, 3)
    assert quasi_diagonal_order(link) == [3, 1, 2, 0]


# =============================================================================
# linkage against scipy (Muellner's reference implementations)
# =============================================================================


@pytest.mark.parametrize("method", ["single", "complete", "ward"])
def test_linkage_matches_scipy(method):
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    rng = np.random.default_rng(11)
    for n in (2, 3, 7, 30, 90, 200):
        dist = correlation_distance(correlation_matrix(random_covariance(n, rng)))
        link = linkage(dist, method=method)
        want = hierarchy.linkage(squareform(dist.values, checks=False), method=method)
        np.testing.assert_allclose(
            [rec.distance for rec in link.merges], want[:, 2], rtol=1e-9, atol=1e-12
        )
        scipy_members = [frozenset([i]) for i in range(n)]
        for step, (a, b) in enumerate(want[:, :2].astype(int)):
            scipy_members.append(scipy_members[a] | scipy_members[b])
            assert frozenset(link.members[n + step]) == scipy_members[n + step], (n, step)


# =============================================================================
# byte-level references: the pair-dict linkage, union-find cut and stack walk
# =============================================================================


def _reference_linkage(values: np.ndarray, method: str) -> list[tuple[int, int, float, int]]:
    """Dict of (low, high) pair distances scanned with min() at every merge."""
    n = values.shape[0]
    squared = method == "ward"
    pair: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            d = float(values[i, j])
            pair[(i, j)] = d * d if squared else d

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    sizes = {i: 1 for i in range(n)}
    active = set(range(n))
    merges = []
    for step in range(n - 1):
        (a, b), best = min(pair.items(), key=lambda kv: (kv[1], kv[0]))
        new_id = n + step
        for c in active:
            if c in (a, b):
                continue
            d_ac = pair.pop(key(a, c))
            d_bc = pair.pop(key(b, c))
            if method == "single":
                merged = min(d_ac, d_bc)
            elif method == "complete":
                merged = max(d_ac, d_bc)
            else:
                na, nb, nc = sizes[a], sizes[b], sizes[c]
                merged = ((na + nc) * d_ac + (nb + nc) * d_bc - nc * best) / (na + nb + nc)
            pair[(c, new_id)] = merged
        del pair[(a, b)]
        active -= {a, b}
        active.add(new_id)
        sizes[new_id] = sizes[a] + sizes[b]
        merges.append((a, b, float(np.sqrt(best)) if squared else best, sizes[new_id]))
    return merges


def _reference_cut_clusters(link: Linkage, m: int) -> tuple[int, ...]:
    """Union-find over the first n - m merges."""
    n = link.n_leaves
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(n - m):
        rec = link.merges[step]
        parent[find(rec.left)] = n + step
        parent[find(rec.right)] = n + step

    roots: dict[int, list[int]] = {}
    for leaf in range(n):
        roots.setdefault(find(leaf), []).append(leaf)
    assignment = [0] * n
    for cid, leaves in enumerate(sorted(roots.values(), key=min)):
        for leaf in leaves:
            assignment[leaf] = cid
    return tuple(assignment)


def _reference_quasi_diagonal_order(link: Linkage) -> list[int]:
    """Stack-based pre-order walk from the root."""
    n = link.n_leaves
    order: list[int] = []
    stack = [2 * n - 2]
    while stack:
        node = stack.pop()
        if node < n:
            order.append(node)
        else:
            rec = link.merges[node - n]
            stack.append(rec.right)
            stack.append(rec.left)
    return order


@given(
    n=st.integers(min_value=2, max_value=40),
    method=st.sampled_from(LINKAGE_METHODS),
    source=st.sampled_from(["uniform", "correlation", "euclidean"]),
    decimals=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_linkage_tree_walks_match_references(n, method, source, decimals, seed):
    rng = np.random.default_rng(seed)
    if source == "uniform":
        raw = rng.uniform(0.0, 1.0, size=(n, n))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 0.0)
    else:
        corr = correlation_matrix(random_covariance(n, rng))
        values = correlation_distance(corr, convention=source).values
    # coarse rounding makes many pairs tie, which exercises the tie-break
    dist = dist_matrix(np.round(values, decimals))

    link = linkage(dist, method=method)
    got = [(rec.left, rec.right, rec.distance, rec.size) for rec in link.merges]
    assert got == _reference_linkage(dist.values, method)
    for m in range(1, n + 1):
        assert cut_clusters(link, m) == _reference_cut_clusters(link, m)
    assert quasi_diagonal_order(link) == _reference_quasi_diagonal_order(link)


# =============================================================================
# cut_clusters and cluster_aggregates
# =============================================================================


def chain_linkage(n: int = 3) -> Linkage:
    """Deterministic chain over a distance matrix that merges 0..k in order."""
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                values[i, j] = 0.1 * max(i, j)
    return linkage(dist_matrix(values), method="single")


def test_cut_identity_and_root():
    link = chain_linkage(4)
    assert cut_clusters(link, 4) == (0, 1, 2, 3)
    assert cut_clusters(link, 1) == (0, 0, 0, 0)
    assert cut_clusters(link, 2) == (0, 0, 0, 1)
    with pytest.raises(ValueError, match="outside"):
        cut_clusters(link, 5)


def test_aggregates_identity_cut_reproduces_inputs(rng):
    cov = random_covariance(5, rng)
    corr, dist, link = _stack(cov)
    risk = cluster_aggregates(cov, corr, link, 5)
    np.testing.assert_allclose(risk.cluster_cov, cov.values, atol=1e-15)
    np.testing.assert_allclose(risk.cluster_corr, corr.values, atol=1e-12)
    np.testing.assert_array_equal(risk.avg_corr_within, np.ones(5))


def _stack(cov: CovarianceMatrix):
    corr = correlation_matrix(cov)
    dist = correlation_distance(corr)
    return corr, dist, linkage(dist)


def test_aggregates_two_cluster_hand_case():
    # all-ones covariance, clusters {0,1} and {2}:
    # sums are [[4, 2], [2, 1]]
    cov_values = np.ones((3, 3))
    cov = CovarianceMatrix(tickers=tickers(3), values=cov_values)
    corr = CorrelationMatrix(tickers=tickers(3), values=np.ones((3, 3)))
    link = chain_linkage(3)
    assert cut_clusters(link, 2) == (0, 0, 1)
    risk = cluster_aggregates(cov, corr, link, 2)
    np.testing.assert_allclose(risk.cluster_cov, [[4.0, 2.0], [2.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(risk.cluster_corr, np.ones((2, 2)), atol=1e-15)
    assert risk.avg_corr_within[0] == pytest.approx(1.0)
    assert risk.avg_corr_within[1] == 1.0  # singleton rule
    assert risk.avg_corr_cross[0, 1] == pytest.approx(1.0)
    assert risk.avg_corr_cross[0, 0] == 0.0


def test_aggregates_identity_cov_uncorrelated():
    cov = CovarianceMatrix(tickers=tickers(4), values=np.eye(4))
    corr = CorrelationMatrix(tickers=tickers(4), values=np.eye(4))
    link = chain_linkage(4)
    risk = cluster_aggregates(cov, corr, link, 2)
    np.testing.assert_array_equal(np.diag(risk.cluster_corr), np.ones(2))
    assert risk.avg_corr_cross[0, 1] == 0.0
    assert risk.avg_corr_cross[1, 0] == 0.0


def test_aggregates_single_cluster_is_grand_sum(rng):
    cov = random_covariance(6, rng)
    corr, _, link = _stack(cov)
    risk = cluster_aggregates(cov, corr, link, 1)
    assert risk.cluster_cov.shape == (1, 1)
    assert risk.cluster_cov[0, 0] == pytest.approx(cov.values.sum(), abs=1e-12)


def _reference_cluster_aggregates(
    cov: CovarianceMatrix, corr: CorrelationMatrix, link: Linkage, m: int
) -> ClusterRisk:
    """The aggregates summed block by block, one `np.ix_` block per cluster pair."""
    assignment = cut_clusters(link, m)
    members = [np.nonzero(np.array(assignment) == cid)[0] for cid in range(m)]

    cluster_cov = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            cluster_cov[i, j] = cov.values[np.ix_(members[i], members[j])].sum()
    scale = np.sqrt(np.diag(cluster_cov))
    cluster_corr = cluster_cov / np.outer(scale, scale)
    np.fill_diagonal(cluster_corr, 1.0)

    within = np.empty(m)
    for i in range(m):
        idx = members[i]
        if idx.size == 1:
            within[i] = 1.0
        else:
            block = corr.values[np.ix_(idx, idx)]
            within[i] = (block.sum() - np.trace(block)) / (idx.size * (idx.size - 1))

    cross = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                cross[i, j] = corr.values[np.ix_(members[i], members[j])].mean()

    return ClusterRisk(
        assignments=assignment,
        cluster_cov=cluster_cov,
        cluster_corr=cluster_corr,
        avg_corr_within=within,
        avg_corr_cross=cross,
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_aggregates_match_block_reference(n):
    for seed in range(4):
        cov = random_covariance(n, np.random.default_rng(seed))
        corr = correlation_matrix(cov)
        link = linkage(correlation_distance(corr), method=LINKAGE_METHODS[seed % 3])
        for m in range(1, n + 1):
            got = cluster_aggregates(cov, corr, link, m)
            want = _reference_cluster_aggregates(cov, corr, link, m)
            assert got.assignments == want.assignments
            for name in ("cluster_cov", "cluster_corr", "avg_corr_within", "avg_corr_cross"):
                np.testing.assert_allclose(
                    getattr(got, name), getattr(want, name), rtol=1e-12, err_msg=name
                )
            sizes = np.bincount(got.assignments, minlength=m)
            assert np.all(got.avg_corr_within[sizes == 1] == 1.0)
            assert np.all(np.diag(got.avg_corr_cross) == 0.0)


# =============================================================================
# type invariants and exports
# =============================================================================


def test_covariance_rejects_indefinite():
    with pytest.raises(ValueError, match="PSD"):
        CovarianceMatrix(tickers=tickers(2), values=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_covariance_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceMatrix(tickers=tickers(2), values=np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_correlation_rejects_bad_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        CorrelationMatrix(tickers=tickers(2), values=np.array([[0.9, 0.1], [0.1, 1.0]]))


# Each matrix type, the name its error texts use, and a diagonal it accepts.
_MATRIX_TYPES = (
    (CovarianceMatrix, "covariance matrix", 1.0),
    (CorrelationMatrix, "correlation matrix", 1.0),
    (DistanceMatrix, "distance matrix", 0.0),
)


def _shared_invariant_cases():
    for cls, what, d in _MATRIX_TYPES:
        yield cls, np.eye(3) * d, f"{what} shape (3, 3) does not match 2 tickers"
        yield cls, [[d, np.nan], [np.nan, d]], f"{what} contains non-finite values"
        yield cls, [[d, np.inf], [np.inf, d]], f"{what} contains non-finite values"
        off = 0.5 + 2 * SYMMETRY_TOL
        yield cls, [[d, 0.5], [off, d]], f"{what} is not symmetric within {SYMMETRY_TOL}"


@pytest.mark.parametrize(
    "cls, values, message",
    [
        *_shared_invariant_cases(),
        (CovarianceMatrix, [[-1.0, 0.0], [0.0, 1.0]], "covariance diagonal must be nonnegative"),
        (
            CovarianceMatrix,
            [[1.0, 2.0], [2.0, 1.0]],
            "covariance matrix is not PSD (min eigenvalue -1.0)",
        ),
        (CorrelationMatrix, [[0.9, 0.1], [0.1, 1.0]], "correlation diagonal must be exactly 1"),
        (CorrelationMatrix, [[1.0, 1.5], [1.5, 1.0]], "correlation entries must lie in [-1, 1]"),
        (CorrelationMatrix, [[1.0, -1.5], [-1.5, 1.0]], "correlation entries must lie in [-1, 1]"),
        (DistanceMatrix, [[0.1, 0.5], [0.5, 0.0]], "distance diagonal must be zero"),
        (DistanceMatrix, [[0.0, -0.5], [-0.5, 0.0]], "distances must be nonnegative"),
    ],
)
def test_matrix_invariant_error_texts(cls, values, message):
    with pytest.raises(ValueError) as excinfo:
        cls(tickers=tickers(2), values=np.array(values, dtype=float))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("cls, d", [(cls, d) for cls, _, d in _MATRIX_TYPES])
def test_matrix_types_hold_tuple_tickers_and_readonly_copy(cls, d):
    values = np.where(np.eye(3, dtype=bool), d, 0.5)
    mat = cls(tickers=list(tickers(3)), values=values)
    assert mat.n == 3
    assert mat.tickers == tickers(3) and isinstance(mat.tickers, tuple)
    assert not mat.values.flags.writeable
    assert not np.shares_memory(mat.values, values)
    np.testing.assert_array_equal(mat.values, values)
    with pytest.raises(ValueError, match="read-only"):
        mat.values[0, 0] = 2.0


def test_exports_write_csv(tmp_path, rng):
    cov = random_covariance(3, rng)
    _, _, link = _stack(cov)
    matrix_to_csv(cov.tickers, cov.values, tmp_path / "cov.csv")
    linkage_to_csv(link, tmp_path / "link.csv")
    cov_lines = (tmp_path / "cov.csv").read_text().strip().splitlines()
    assert cov_lines[0] == ",T00,T01,T02"
    link_lines = (tmp_path / "link.csv").read_text().strip().splitlines()
    assert link_lines[0] == "left,right,distance,size"
    assert len(link_lines) == 3
