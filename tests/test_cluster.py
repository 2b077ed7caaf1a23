"""Ward agglomeration and k-means, checked against from-scratch references.

The Ward reference recomputes every candidate merge cost from cluster member
lists (cost = 2 * increase in within-cluster sum of squares), so it shares no
arithmetic with the incremental implementation under test.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kst.cluster
from kst.cluster import (
    Dendrogram,
    KMeansModel,
    Merge,
    Partition,
    agglomerative_ward,
    cut_dendrogram,
    kmeans_fit,
)
from kst.cluster import _kmeanspp_init, _lloyd, _pairwise_sq, _scatter, _sq_dist
from kst.cluster import _assign_at_each_k, _canonical_ids, _kmeans_fits, _ward_merge_steps
from kst.cluster import _assign_step, _reach, _repair_empty
from kst.errors import KstError
from kst.rng import _Streams, _subseeds, substream

from conftest import make_table, two_blob_array


# ------------------------------------------------------------ Ward reference

def _ess(pts: np.ndarray) -> float:
    c = pts.mean(axis=0)
    return float(((pts - c) ** 2).sum())


def reference_ward(x: np.ndarray):
    """Greedy Ward from first principles.

    Merge cost between clusters A and B is 2 * (ESS(A|B) - ESS(A) - ESS(B)),
    evaluated from scratch on member lists. Ties break on the smallest
    (min node id, max node id) pair, node ids numbered as in Dendrogram.
    """
    n = len(x)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    steps = []
    for t in range(n - 1):
        best = None
        ids = sorted(clusters)
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                ida, idb = ids[ai], ids[bi]
                a, b = clusters[ida], clusters[idb]
                d2 = 2.0 * (_ess(x[a + b]) - _ess(x[a]) - _ess(x[b]))
                key = (d2, ida, idb)
                if best is None or key < best:
                    best = key
        d2, ida, idb = best
        a, b = clusters.pop(ida), clusters.pop(idb)
        ca, cb = x[a].mean(axis=0), x[b].mean(axis=0)
        steps.append(
            (ida, idb, math.sqrt(max(d2, 0.0)), len(a) + len(b),
             float(np.sqrt(((ca - cb) ** 2).sum())))
        )
        clusters[n + t] = a + b
    return steps


def test_ward_matches_reference_on_random_instances():
    rng = np.random.default_rng(20)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 5))
        x = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 20))
        dend = agglomerative_ward(make_table(x))
        ref = reference_ward(x)
        for got, want in zip(dend.merges, ref):
            assert (got.left, got.right) == (want[0], want[1]), f"instance {trial}"
            assert got.height == pytest.approx(want[2], abs=1e-9)
            assert got.size == want[3]
            assert got.centroid_distance == pytest.approx(want[4], abs=1e-9)


def test_ward_hand_values_three_points():
    """{0, 1, 10}: first merge {0,1} at height 1, then at sqrt(361/3)."""
    dend = agglomerative_ward(make_table([[0.0], [1.0], [10.0]]))
    m0, m1 = dend.merges
    assert (m0.left, m0.right) == (0, 1)
    assert m0.height == pytest.approx(1.0, abs=1e-12)
    assert m0.centroid_distance == pytest.approx(1.0, abs=1e-12)
    assert (m1.left, m1.right) == (2, 3)
    assert m1.height == pytest.approx(math.sqrt(361.0 / 3.0), abs=1e-12)
    assert m1.centroid_distance == pytest.approx(9.5, abs=1e-12)
    assert m1.size == 3


def test_ward_tie_break_prefers_lowest_ids():
    # two exactly tied unit-distance pairs; (0,1) must merge before (2,3)
    dend = agglomerative_ward(make_table([[0.0], [1.0], [100.0], [101.0]]))
    assert (dend.merges[0].left, dend.merges[0].right) == (0, 1)
    assert (dend.merges[1].left, dend.merges[1].right) == (2, 3)
    assert dend.merges[0].height == dend.merges[1].height == 1.0


def test_ward_heights_non_decreasing():
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.normal(size=(int(rng.integers(2, 12)), 3))
        dend = agglomerative_ward(make_table(x))
        hs = [m.height for m in dend.merges]
        assert all(b >= a - 1e-9 for a, b in zip(hs, hs[1:]))


def test_ward_needs_two_rows():
    with pytest.raises(KstError):
        agglomerative_ward(make_table([[1.0]]))


# The full-matrix Ward search that the cached-nearest-neighbour version
# replaced, kept as a bit-exact reference: same Lance-Williams arithmetic and
# tie rule, O(n^3) time. Squared coordinates are added left to right, as
# _sq_dist adds them on any layout and at any width.

def _sum_left_to_right(sq: np.ndarray) -> np.ndarray:
    return np.cumsum(sq, axis=-1)[..., -1]


def _broadcast_pairwise_sq(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return _sum_left_to_right(diff * diff)


def full_matrix_ward(x: np.ndarray) -> list[tuple[int, int, float, int, float]]:
    n = x.shape[0]
    active = list(range(n))            # positions into the arrays below
    node_id = list(range(n))
    size = np.ones(n, dtype=float)
    centroid = np.array(x, dtype=float)
    d2 = _broadcast_pairwise_sq(x)     # squared Ward distances between active clusters
    np.fill_diagonal(d2, np.inf)

    steps = []
    for t in range(n - 1):
        sub = d2[np.ix_(active, active)]
        dmin = float(sub.min())
        best = None
        for ai, bi in np.argwhere(sub == dmin):
            if ai >= bi:
                continue
            ida, idb = node_id[active[ai]], node_id[active[bi]]
            tie = (min(ida, idb), max(ida, idb))
            if best is None or tie < best[0]:
                best = (tie, active[ai], active[bi])
        _, pi, pj = best
        ni, nj = size[pi], size[pj]
        cdist = float(np.sqrt(_sum_left_to_right((centroid[pi] - centroid[pj]) ** 2)))
        left, right = sorted((node_id[pi], node_id[pj]))
        steps.append((left, right, float(np.sqrt(dmin)), int(ni + nj), cdist))

        # Lance-Williams update against every other active cluster
        others = [p for p in active if p != pi and p != pj]
        if others:
            nk = size[others]
            new = ((ni + nk) * d2[pi, others] + (nj + nk) * d2[pj, others] - nk * dmin) / (
                ni + nj + nk
            )
            d2[pi, others] = new
            d2[others, pi] = new
        centroid[pi] = (ni * centroid[pi] + nj * centroid[pj]) / (ni + nj)
        size[pi] = ni + nj
        node_id[pi] = n + t
        active.remove(pj)
    return steps


def _assert_same_merges(x: np.ndarray) -> None:
    got = [
        (m.left, m.right, m.height, m.size, m.centroid_distance)
        for m in agglomerative_ward(make_table(x)).merges
    ]
    assert got == full_matrix_ward(x)  # exact equality, heights included


WARD_INPUTS = ("normal", "grid012", "rounded", "repeated", "equidistant")


def _ward_input(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "equidistant":
        # the rows of s * I, each pair at one distance
        return np.eye(n) * float(rng.uniform(0.5, 20))
    if kind == "normal":
        return rng.normal(size=(n, d)) * float(rng.uniform(0.5, 20))
    if kind == "grid012":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == "rounded":
        return np.round(rng.normal(size=(n, d)), 1)
    base = rng.normal(size=(int(rng.integers(1, 6)), d))
    return base[rng.integers(0, len(base), size=n)]


@given(
    st.sampled_from(WARD_INPUTS),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_ward_equals_full_matrix_search(kind, n, d, seed):
    _assert_same_merges(_ward_input(kind, n, d, seed))


def test_ward_equals_full_matrix_search_on_identical_rows():
    _assert_same_merges(np.full((40, 3), 1.5))


def test_ward_merges_equal_full_matrix_search_on_equidistant_rows():
    # Rounding in the Lance-Williams update brings some merged clusters closer
    # to a row than its cached nearest neighbour, so these inputs reach the
    # cache's closer-update; on about one in eight, skipping it changes the
    # merges.
    for seed in range(300):
        scale = float(np.random.default_rng(seed).uniform(0.5, 20))
        _assert_same_merges(np.eye(3 + seed % 10) * scale)


def _repeated_rows(n: int, d: int, distinct: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, d))
    return base[rng.integers(0, distinct, size=n)]


# At 400 rows the working matrix is compacted seven times, each time with
# many tied distances in play: a grid's equal coordinate steps, and rows that
# repeat about five times each.
@pytest.mark.parametrize("x", [
    _ward_input("grid012", 400, 4, 7),
    _repeated_rows(400, 3, 80, 8),
], ids=["grid012", "repeated"])
def test_ward_equals_full_matrix_search_at_400_rows(x):
    _assert_same_merges(x)


def test_ward_rejects_overflowing_distances():
    # the overflow check runs with numpy's overflow warning off, so the
    # KstError comes with no RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KstError, match="^Ward distances overflow"):
            agglomerative_ward(make_table([[0.0], [1e200], [2e200]]))


def test_kmeanspp_rejects_overflowing_distances():
    # the inverse-CDF draw makes none of rng.choice's checks on the weights,
    # so the seeder rejects an overflowed total itself, with numpy's
    # overflow warning off, as for Ward
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KstError, match=r"^k-means\+\+ distances overflow"):
            kmeans_fit(make_table([[0.0], [1e200], [2e200]]), 2)


def test_kmeans_k_one_rejects_overflowing_distances():
    # k = 1 draws no k-means++ seeds, so the seeder's check never runs: the
    # inertia overflows instead, with numpy's warning off, and is rejected
    t = make_table(np.random.default_rng(5).uniform(-1, 1, size=(12, 3)) * 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KstError, match=r"^k-means distances overflow float64; rescale the data$"):
            kmeans_fit(t, 1)


def test_ward_matches_scipy_linkage():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    x = np.random.default_rng(23).normal(size=(200, 4))
    merges = agglomerative_ward(make_table(x)).merges
    link = hierarchy.linkage(x, method="ward")
    np.testing.assert_allclose([m.height for m in merges], link[:, 2], rtol=1e-12)

    def leaf_sets(pairs):
        members = {i: frozenset([i]) for i in range(len(x))}
        out = []
        for t, (a, b) in enumerate(pairs):
            out.append({members[a], members[b]})
            members[len(x) + t] = members[a] | members[b]
        return out

    ours = leaf_sets([(m.left, m.right) for m in merges])
    assert ours == leaf_sets([(int(a), int(b)) for a, b in link[:, :2]])


@pytest.mark.parametrize("n, d, block", [
    (0, 3, 100), (1, 3, 100), (12, 1, 100), (33, 4, 100), (50, 9, 100), (64, 12, 100),
    (600, 8, None),  # the default block: 600 x 600 x 8 entries span several
])
def test_pairwise_sq_blocks_equal_full_broadcast(monkeypatch, n, d, block):
    if block is not None:
        monkeypatch.setattr(kst.cluster, "_BLOCK_ELEMENTS", block)  # 1 to 8 rows each
    x = np.random.default_rng(24).normal(size=(n, d)) * 3.0
    dist = _pairwise_sq(x)
    assert np.array_equal(dist, _broadcast_pairwise_sq(x))
    assert np.array_equal(dist, dist.T)
    assert np.array_equal(_pairwise_sq(np.asfortranarray(x)), dist)


@pytest.mark.parametrize("d", [*range(1, 41), 127, 128, 129, 130, 257])
def test_sq_dist_equals_numpy_sum(d):
    rng = np.random.default_rng(d)
    # column-major: the last axis is outermost and numpy adds it in order
    a = np.asfortranarray(rng.normal(size=(6, 1, d)) * 5.0)
    b = np.asfortranarray(rng.normal(size=(1, 4, d)))
    want = ((a - b) ** 2).sum(axis=-1)
    assert np.array_equal(_sq_dist(a, b), want)
    assert np.array_equal(_sq_dist(np.ascontiguousarray(a), np.ascontiguousarray(b)), want)
    x = np.asfortranarray(a[:, 0])
    want = ((x - b[0, 0]) ** 2).sum(axis=1)
    assert np.array_equal(_sq_dist(x, b[0, 0]), want)
    assert np.array_equal(_sq_dist(np.ascontiguousarray(x), b[0, 0]), want)


def test_dendrogram_validation():
    leaves = ("a", "b", "c")
    good = (Merge(0, 1, 1.0, 2, 1.0), Merge(2, 3, 2.0, 3, 1.5))
    Dendrogram(leaves, good)
    with pytest.raises(KstError):
        Dendrogram(leaves, good[:1])  # wrong merge count
    with pytest.raises(KstError):
        # decreasing heights
        Dendrogram(leaves, (Merge(0, 1, 2.0, 2, 2.0), Merge(2, 3, 1.0, 3, 1.0)))
    with pytest.raises(KstError):
        # node 0 consumed twice
        Dendrogram(leaves, (Merge(0, 1, 1.0, 2, 1.0), Merge(0, 3, 2.0, 3, 1.5)))


# ------------------------------------------------------------------- cutting

def test_cut_extremes():
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    dend = agglomerative_ward(make_table(x))
    p1 = cut_dendrogram(dend, 1)
    assert p1.sizes() == [4]
    pn = cut_dendrogram(dend, 4)
    assert pn.sizes() == [1, 1, 1, 1]
    with pytest.raises(KstError):
        cut_dendrogram(dend, 0)
    with pytest.raises(KstError):
        cut_dendrogram(dend, 5)


def test_cut_two_clusters_canonical_ids():
    t = make_table([[0.0], [1.0], [10.0], [11.0], [12.0]])
    p = cut_dendrogram(agglomerative_ward(t), 2)
    # larger cluster takes id 0
    assert p.labels["k02"] == p.labels["k03"] == p.labels["k04"] == 0
    assert p.labels["k00"] == p.labels["k01"] == 1


def test_cut_equal_sizes_ordered_by_smallest_label():
    t = make_table([[0.0], [1.0], [10.0], [11.0]])
    p = cut_dendrogram(agglomerative_ward(t), 2)
    assert p.labels["k00"] == 0  # contains lexicographically smallest label
    assert p.labels["k02"] == 1


def test_cuts_nest():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(12, 3))
    dend = agglomerative_ward(make_table(x))
    for k in range(1, 12):
        coarse = cut_dendrogram(dend, k)
        fine = cut_dendrogram(dend, k + 1)
        coarse_sets = [set(coarse.members(c)) for c in range(k)]
        # every finer cluster sits inside exactly one coarser cluster
        for c in range(k + 1):
            cluster = set(fine.members(c))
            assert sum(cluster <= cs for cs in coarse_sets) == 1


def _assign_at_k(steps, n: int, k: int) -> np.ndarray:
    """The per-k cut that the one-pass cut replaced: undo the last k-1
    merges from scratch."""
    members = {i: [i] for i in range(n)}
    for t in range(n - k):
        left, right = steps[t][0], steps[t][1]
        members[n + t] = members.pop(left) + members.pop(right)
    assign = np.empty(n, dtype=int)
    for cid, comp in enumerate(members.values()):
        assign[comp] = cid
    return assign


@pytest.mark.parametrize("kind", WARD_INPUTS)
def test_one_pass_cut_equals_per_k_cut_at_every_k(kind):
    n = 70
    steps = _ward_merge_steps(_ward_input(kind, n, 3, 9))
    cuts = _assign_at_each_k(steps, n, range(1, n + 1))
    assert sorted(cuts) == list(range(1, n + 1))
    for k in range(1, n + 1):
        assert np.array_equal(cuts[k], _assign_at_k(steps, n, k)), k
    # any order, repeats allowed: each k is cut once
    some = _assign_at_each_k(steps, n, [5, 1, 5, 69])
    assert sorted(some) == [1, 5, 69]
    for k in some:
        assert np.array_equal(some[k], cuts[k])


def test_partition_validation():
    Partition({"a": 0, "b": 1}, 2)
    with pytest.raises(KstError):
        Partition({"a": 0, "b": 0}, 2)  # id 1 empty
    with pytest.raises(KstError):
        Partition({"a": 0, "b": 2}, 2)  # id out of range


# ------------------------------------------------------------------- k-means

def exhaustive_best_bipartition(x: np.ndarray) -> float:
    """Minimum inertia over all 2-cluster partitions (point 0 fixed to side A)."""
    n = len(x)
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        a = [0] + [i for i in range(1, n) if not (mask >> (i - 1)) & 1]
        b = [i for i in range(1, n) if (mask >> (i - 1)) & 1]
        if not b:
            continue
        best = min(best, _ess(x[a]) + _ess(x[b]))
    return best


def test_kmeans_hand_values():
    t = make_table([[0.0], [1.0], [9.0], [10.0]])
    model = kmeans_fit(t, 2, seed=0, n_init=5)
    assert model.inertia == pytest.approx(1.0, abs=1e-12)
    assert model.assignments == {"k00": 0, "k01": 0, "k02": 1, "k03": 1}
    assert sorted(model.centroids[:, 0]) == pytest.approx([0.5, 9.5])


def test_kmeans_reaches_exhaustive_optimum_on_blobs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        half = n // 2
        x = rng.normal(size=(n, d))
        x[half:] += 6.0  # well separated: the optimum is easy to hit
        t = make_table(x)
        model = kmeans_fit(t, 2, seed=int(rng.integers(1000)), n_init=20)
        assert model.inertia == pytest.approx(exhaustive_best_bipartition(x), rel=1e-9)


def test_lloyd_inertia_history_non_increasing():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(6, 30))
        x = rng.normal(size=(n, 3))
        k = int(rng.integers(2, 5))
        model = kmeans_fit(make_table(x), k, seed=int(rng.integers(1000)), n_init=3)
        h = model.inertia_history
        assert len(h) == model.iterations
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))
        assert model.inertia == h[-1]


def test_kmeans_k_equals_n_is_exact():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(6, 2))
    model = kmeans_fit(make_table(x), 6, seed=1)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(model.assignments.values()) == list(range(6))


def test_kmeans_k_one():
    x = np.array([[0.0], [2.0], [4.0]])
    model = kmeans_fit(make_table(x), 1, seed=1)
    assert model.centroids[0, 0] == pytest.approx(2.0)
    assert model.inertia == pytest.approx(8.0)


def test_kmeans_identical_points_terminate():
    # degenerate input must neither loop nor emit empty clusters
    x = np.zeros((5, 2))
    model = kmeans_fit(make_table(x), 3, seed=0, n_init=2, max_iter=50)
    assert model.inertia == 0.0
    assert set(model.assignments.values()) == {0, 1, 2}


def test_lloyd_empty_cluster_repair():
    # both centers start on the same point: one cluster goes empty and must
    # be repaired with the farthest point of a multi-member cluster
    x = np.array([[0.0], [1.0], [10.0]])
    centers = np.array([[0.0], [0.0]])
    assign, _, inertia, _ = _lloyd([x], [(0, centers)], max_iter=50)[0]
    assert set(assign.tolist()) == {0, 1}
    assert inertia == pytest.approx(0.5)  # {0,1} + {10} is the optimum here


# The per-replicate k-means that the batched Lloyd loop replaced, kept
# verbatim as a bit-exact reference: one replicate at a time, distances from
# the (n, k, d) broadcast, each centroid a per-cluster mean.

def _reference_kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=float)
    idx = int(rng.integers(n))
    centers[0] = x[idx]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all remaining mass zero: uniform fallback
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _reference_lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int):
    n, k = x.shape[0], centers.shape[0]
    centers = np.array(centers, dtype=float)
    prev = None
    history: list[float] = []
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        assign = d2.argmin(axis=1)  # ties go to the lowest cluster id
        repaired = False
        counts = np.bincount(assign, minlength=k)
        for cid in range(k):
            if counts[cid]:
                continue
            # Empty cluster: the point farthest from its assigned centroid
            # becomes this cluster's new singleton centroid. Only points in
            # clusters with >= 2 members are candidates, so a repair never
            # empties another cluster (such a point always exists: n >= k).
            repaired = True
            dist_own = d2[np.arange(n), assign]
            dist_own[counts[assign] < 2] = -np.inf
            far = int(dist_own.argmax())
            counts[assign[far]] -= 1
            counts[cid] += 1
            assign[far] = cid
            centers[cid] = x[far]
            d2[far] = ((x[far] - centers) ** 2).sum(axis=-1)
        if prev is not None and not repaired and np.array_equal(assign, prev):
            break
        for cid in range(k):
            centers[cid] = x[assign == cid].mean(axis=0)
        inertia = float(((x - centers[assign]) ** 2).sum())
        history.append(inertia)
        prev = assign
    return prev, centers, history[-1], history


def reference_kmeans(x: np.ndarray, k: int, seed: int, n_init: int, max_iter: int):
    best = None
    for r in range(n_init):
        rng = substream(seed, r)
        init = _reference_kmeanspp_init(x, k, rng)
        assign, centers, inertia, history = _reference_lloyd(x, init, max_iter)
        if best is None or inertia < best[2]:
            best = (assign, centers, inertia, history)
    return best


@given(
    st.sampled_from(WARD_INPUTS),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=2, max_value=12),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_batched_kmeans_equals_reference(kind, n, d, data):
    k = data.draw(st.integers(min_value=1, max_value=min(n, 8)), label="k")
    n_init = data.draw(st.integers(min_value=1, max_value=10), label="n_init")
    max_iter = data.draw(st.sampled_from([1, 2, 5, 300]), label="max_iter")
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1), label="seed")
    x = _ward_input(kind, n, d, seed)
    if data.draw(st.booleans(), label="column_major"):  # the layout the CLI builds
        x = np.asfortranarray(x)
    pool = data.draw(st.sampled_from([None, 1, 200]), label="pool")  # 1: one replicate per pass
    track = data.draw(st.booleans(), label="history")
    with mock.patch.object(kst.cluster, "_POOL_ELEMENTS", pool or kst.cluster._POOL_ELEMENTS):
        assign, centers, inertia, history = _kmeans_fits([x], {0: seed}, k, n_init, max_iter,
                                                         history=track)[0]
    # numpy adds a column-major table's columns left to right, as _sq_dist
    # does on both layouts
    want = reference_kmeans(np.asfortranarray(x), k, seed, n_init, max_iter)
    assert np.array_equal(assign, want[0])
    assert np.array_equal(centers, want[1])
    assert inertia == want[2]
    assert history == (want[3] if track else [])


@pytest.mark.parametrize("track", [True, False])
def test_batched_kmeans_split_across_batches_equals_reference(track):
    # 120 entries per pool at n = 10, d = 3 (4 rows of data with the ones): a
    # pool of 3 for 7 replicates, topped up as they finish, so it stays full
    # until the queue runs out
    x = _ward_input("normal", 10, 3, 5)
    pool_sizes = []
    assign_step = kst.cluster._assign_step

    def spy(block, reach, centers):
        pool_sizes.append(len(centers))
        return assign_step(block, reach, centers)

    with mock.patch.object(kst.cluster, "_POOL_ELEMENTS", 120):
        with mock.patch.object(kst.cluster, "_assign_step", spy):
            got = _kmeans_fits([x], {0: 9}, 2, 7, 300, history=track)[0]
    # every replicate's passes: its center updates, then the pass that repeats
    passes = sum(len(_reference_lloyd(np.asfortranarray(x), init, 300)[3]) + 1
                 for init in (_reference_kmeanspp_init(x, 2, substream(9, r)) for r in range(7)))
    assert pool_sizes[0] == 3 and pool_sizes == sorted(pool_sizes, reverse=True)
    assert sum(pool_sizes) == passes
    want = reference_kmeans(np.asfortranarray(x), 2, 9, 7, 300)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[3] == (want[3] if track else [])


POOL_INPUTS = ("normal", "duplicates", "ties", "corners")


def _pool_input(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "duplicates":  # at most three distinct rows
        base = rng.normal(size=(int(rng.integers(1, 4)), d))
        return base[rng.integers(0, len(base), size=n)]
    if kind == "ties":  # a three-level grid, as tests/golden/ties.csv
        return rng.choice([0.1, 0.2, 0.3], size=(n, d))
    if kind == "corners":  # exact arithmetic: mirrored partitions tie on inertia
        return rng.integers(0, 2, size=(n, d)).astype(float)
    return rng.normal(size=(n, d)) * float(rng.uniform(0.5, 20))


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_pooled_kmeans_fits_equal_fits_alone(n, d, data):
    # A process fits its stride of gap references at each k in one pool of
    # replicates, topped up as they finish. Each reference's fit must be
    # bit-identical to its fit alone, whatever the pool size and however the
    # references are split over 1, 2 or 3 processes; and kmeans_fit, the
    # same loop on one data set, must equal the one-replicate reference.
    # k near n forces empty-cluster repairs; max_iter 1-3 stops replicates
    # at the cap.
    k = data.draw(st.one_of(st.integers(1, min(n, 8)), st.sampled_from([n - 1, n])), label="k")
    kinds = data.draw(st.lists(st.sampled_from(POOL_INPUTS), min_size=1, max_size=5),
                      label="references")
    n_init = data.draw(st.integers(min_value=1, max_value=3), label="n_init")
    max_iter = data.draw(st.sampled_from([1, 2, 3, 300]), label="max_iter")
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1), label="seed")
    pool = data.draw(st.sampled_from([1, k * n, 3 * k * n, None]), label="pool")
    refs = [_pool_input(kind, n, d, seed + i) for i, kind in enumerate(kinds)]
    seeds = {i: _subseeds(seed, [(2, i, k)])[0] for i in range(len(refs))}
    alone = {i: _kmeans_fits([x], {0: seeds[i]}, k, n_init, max_iter)[0]
             for i, x in enumerate(refs)}
    with mock.patch.object(kst.cluster, "_POOL_ELEMENTS", pool or kst.cluster._POOL_ELEMENTS):
        for processes in (1, 2, 3):
            for start in range(processes):
                stride = {i: seeds[i] for i in range(start, len(refs), processes)}
                pooled = _kmeans_fits(refs, stride, k, n_init, max_iter)
                assert list(pooled) == list(stride)
                for i, (assign, centers, inertia, history) in pooled.items():
                    assert np.array_equal(assign, alone[i][0])
                    assert np.array_equal(centers, alone[i][1])
                    assert (inertia, history) == (alone[i][2], [])
        if d == 1:  # the reference's per-cluster mean adds pairwise there
            return
        for i, x in enumerate(refs):
            t = make_table(x)
            model = kmeans_fit(t, k, seed=seeds[i], n_init=n_init, max_iter=max_iter)
            want = reference_kmeans(np.asfortranarray(x), k, seeds[i], n_init, max_iter)
            assignments, order = _canonical_ids(t.rows, want[0].tolist(), k)
            assert model.assignments == assignments
            assert np.array_equal(model.centroids, want[1][order])
            assert model.inertia == want[2]
            assert model.inertia_history == tuple(want[3])


def test_kmeans_inertia_ties_keep_the_earliest_replicate():
    # the corners of a square split two ways at one inertia, so replicates
    # tie with different partitions; the earliest of them is kept, whether
    # the replicates finish in queue order (a pool of one) or not
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    for seed in range(5):
        want = reference_kmeans(np.asfortranarray(x), 2, seed, 10, 300)
        for pool in (1, 24, None):
            with mock.patch.object(kst.cluster, "_POOL_ELEMENTS",
                                   pool or kst.cluster._POOL_ELEMENTS):
                fits = _kmeans_fits([x, x], {0: seed, 1: seed}, 2, 10, 300, history=True)
            for assign, centers, inertia, history in fits.values():
                assert np.array_equal(assign, want[0]) and np.array_equal(centers, want[1])
                assert (inertia, history) == (want[2], want[3])


def _seeding_inputs() -> dict[str, np.ndarray]:
    # 40 x 12 tables of four kinds. `few` has three distinct rows, so k = 6
    # exhausts the weights and every replicate ends on uniform draws. In
    # `tiny`, t^2 underflows to 0 but (2t)^2 does not: a replicate that
    # starts on a row of t falls back at once, the others still draw by
    # weight, in the same chunk. `huge` overflows at its first weighted draw.
    rng = np.random.default_rng(27)
    tiny = np.zeros((40, 12))
    tiny[:, 0] = rng.choice([0.0, 1.2e-162, 2.4e-162], size=40)
    return {"normal": rng.normal(size=(40, 12)) * 3.0,
            "few": rng.normal(size=(3, 12))[rng.integers(3, size=40)],
            "tiny": tiny,
            "huge": rng.uniform(-1, 1, size=(40, 12)) * 1e300}


def test_kmeanspp_chunk_equals_reference():
    # the chunked seeder against the one-replicate reference, replicate by
    # replicate on numpy's generators of the same sub-streams, five data sets
    # in one call: the same centers, each stream left in the state numpy's
    # generator is left in, on either layout of the stack. The streams are
    # rows of a larger derivation, not in its order. The overflowing data
    # set is flagged, with no warning, and the others in its chunk are
    # unaffected.
    inputs = _seeding_inputs()
    names = ["normal", "huge", "few", "tiny", "normal"]
    sets = [inputs[name] for name in names]
    starts_on_t = set()
    for k in (*range(1, 7), 11):  # 11 centres: more than 10 draws on a stream
        columns = np.ascontiguousarray(np.stack(sets).transpose(2, 0, 1)).transpose(1, 2, 0)
        for stack in (columns, np.stack(sets)):
            streams = _Streams([11 + i for i in range(len(sets))][::-1] + [99],
                               [(r,) for r in range(7)])
            rows = np.arange(len(sets) * 7).reshape(len(sets), 7)[::-1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, overflow = _kmeanspp_init(stack, k, streams, rows)
            assert got.shape == (5, 7, k, 12)
            assert overflow.tolist() == [name == "huge" and k > 1 for name in names]
            for i, x in enumerate(sets):
                xf = np.asfortranarray(x)  # numpy adds the columns of this layout left to right
                for r in range(7):
                    want_rng = substream(11 + i, r)
                    with np.errstate(over="ignore", invalid="ignore"):  # `huge`'s reference
                        if overflow[i]:
                            with pytest.raises(ValueError, match="contain NaN"):
                                _reference_kmeanspp_init(xf, k, want_rng)
                            continue
                        want = _reference_kmeanspp_init(xf, k, want_rng)
                    assert np.array_equal(got[i, r], want)
                    assert streams.state(rows[i, r]) == want_rng.bit_generator.state
            starts_on_t.update((got[3, :, 0, 0] == 1.2e-162).tolist())
    assert starts_on_t == {True, False}  # `tiny` reaches both kinds of draw


def test_kmeanspp_chunks_split_at_any_boundary():
    # _kmeans_fits seeds at most _SEED_ELEMENTS (data set, replicate, row)
    # entries per call: 280 per data set here (40 rows, 7 replicates). Every
    # split gives the fits of each data set alone, and the overflowing one
    # maps to its own error.
    inputs = _seeding_inputs()
    names = ["normal", "few", "huge", "tiny", "normal", "few"]
    refs = [inputs[name] for name in names]
    seeds = {i: _subseeds(5, [(i,)])[0] for i in range(len(names))}
    alone = {i: _kmeans_fits([x], {0: seeds[i]}, 3, 7, 30)[0] for i, x in enumerate(refs)}
    assert str(alone[2]) == "k-means++ distances overflow float64; rescale the data"
    seed_centers = kst.cluster._kmeanspp_init
    for cap, want_chunks in ((1, [1] * 6), (560, [2, 2, 2]), (839, [2, 2, 2]), (840, [3, 3]),
                             (None, [6])):
        chunks = []

        def spy(x, k, streams, rows):
            chunks.append(len(rows))
            return seed_centers(x, k, streams, rows)

        with mock.patch.object(kst.cluster, "_SEED_ELEMENTS", cap or kst.cluster._SEED_ELEMENTS), \
                mock.patch.object(kst.cluster, "_kmeanspp_init", spy), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kmeans_fits(refs, seeds, 3, 7, 30)
        assert chunks == want_chunks
        assert list(got) == list(seeds)
        for i, fit in got.items():
            if isinstance(alone[i], Exception):
                assert type(fit) is KstError and str(fit) == str(alone[i])
                continue
            assert np.array_equal(fit[0], alone[i][0]) and np.array_equal(fit[1], alone[i][1])
            assert fit[2:] == alone[i][2:]


def test_kmeans_k_one_draws_nothing_and_checks_the_seed():
    # at k = 1 every start gives the same fit: no stream is derived and one
    # replicate enters per data set, yet the fit is the reference's, and
    # kmeans_fit checks the seed before any of it
    x = _pool_input("normal", 30, 3, 8)
    with mock.patch.object(kst.cluster, "_Streams", side_effect=AssertionError), \
            mock.patch.object(kst.cluster, "_kmeanspp_init", side_effect=AssertionError):
        fits = _kmeans_fits([x, x], {0: 4, 1: 5}, 1, 10, 300, history=True)
        with pytest.raises(KstError, match="^seed must be a non-negative integer"):
            kmeans_fit(make_table(x), 1, seed=-1)
    want = reference_kmeans(np.asfortranarray(x), 1, 4, 10, 300)
    for fit in fits.values():
        assert np.array_equal(fit[0], want[0]) and np.array_equal(fit[1], want[1])
        assert (fit[2], fit[3]) == (want[2], want[3])


@pytest.mark.parametrize("weights", [
    np.array([0.0, 3.0, 0.0, 1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 5.0, 0.0]),
    np.random.default_rng(1).random(50) * 1e-300,
    np.random.default_rng(2).random(50) * 1e300,
    np.random.default_rng(3).random(300) ** 8,
    np.array([2.0]),
], ids=["zeros", "one-nonzero", "1e-300", "1e300", "skewed", "n=1"])
def test_inverse_cdf_draw_equals_choice(weights):
    # the k-means++ draw replaces rng.choice(n, p=w) with the lookup choice
    # runs itself: same index, same generator state afterwards
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in range(5):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            want = int(numpys.choice(len(p), p=p))
            assert int(cdf.searchsorted(ours.random(), side="right")) == want
            assert ours.bit_generator.state == numpys.bit_generator.state


def test_scatter_equals_lloyds_inertia_expression():
    # Lloyd's inertia before the scatter helper replaced it: a flat
    # row-major sum of the squared differences, one per replicate
    rng = np.random.default_rng(31)
    a, n, k, d = 4, 50, 3, 9
    centers = rng.normal(size=(a, k, d))
    assign = rng.integers(0, k, size=(a, n))
    x = rng.normal(size=(n, d)) * 3.0
    for x in (x, np.asfortranarray(x)):
        diff = x - centers[np.arange(a)[:, None], assign]
        diff *= diff
        want = diff.reshape(a, n * d).sum(axis=1)
        assert np.array_equal(_scatter(x, centers, assign), want)
        for r in range(a):  # a batch of one, as WGSS and the gap statistic take it
            assert _scatter(x, centers[r:r + 1], assign[r:r + 1])[0] == want[r]


def test_lloyd_distance_order_ignores_layout():
    # seven squares of 2^-54 vanish when added one by one after 1, the order
    # of _sq_dist, but not when paired first, numpy's order on a row-major
    # array: numpy breaks the origin's tie between centers 0 and 1 by layout,
    # _lloyd the same way on both
    x = np.zeros((2, 8))
    x[1, 0] = 5.0
    centers = np.zeros((2, 8))
    centers[:, 0] = 1.0
    centers[0, 1:] = 2.0 ** -27
    want = _reference_lloyd(np.asfortranarray(x), centers, max_iter=10)
    assert want[0].tolist() == [0, 1]
    assert _reference_lloyd(np.ascontiguousarray(x), centers, max_iter=10)[0].tolist() == [1, 0]
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assign, c, inertia, history = _lloyd([layout(x)], [(0, centers)], max_iter=10,
                                             history=True)[0]
        assert np.array_equal(assign, want[0]) and np.array_equal(c, want[1])
        assert (inertia, history) == (want[2], want[3])


# Lloyd's assignment step before the certified product, kept verbatim as the
# exact reference: every distance through _sq_dist, each row's lowest id at
# its smallest distance found by counting the leading centres farther away.

def _exact_assign_step(rows: np.ndarray, centers: np.ndarray):
    a, k = centers.shape[:2]
    d2 = _sq_dist(rows[None], centers.transpose(1, 0, 2)[:, :, None, :])
    nearest = d2.min(axis=0)
    farther = d2[0] > nearest  # per row: every centre so far is farther
    assign = farther.astype(np.intp)
    for c in range(1, k - 1):
        farther &= d2[c] > nearest
        assign += farther
    counts = np.bincount((assign + k * np.arange(a)[:, None]).ravel(),
                         minlength=a * k).reshape(a, k)
    repaired = np.zeros(a, dtype=bool)
    for i in np.flatnonzero((counts == 0).any(axis=1)):
        repaired[i] = _repair_empty(rows[i], d2[:, i].T, assign[i], counts[i], centers[i])
    return assign, counts, repaired


def _assert_step_is_exact(rows: np.ndarray, centers: np.ndarray) -> None:
    # rows (a, n, d) enter as _lloyd holds them: a (d + 1, a, n) block with a
    # row of ones last, and the _reach of each replicate's data
    a, n, d = rows.shape
    block = np.ones((d + 1, a, n))
    block[:d] = rows.transpose(2, 0, 1)
    got_centers, want_centers = centers.copy(), centers.copy()  # repairs move them
    assign, bins, counts, repaired = _assign_step(block, np.array([_reach(r) for r in rows]),
                                                  got_centers)
    want = _exact_assign_step(rows, want_centers)
    assert np.array_equal(assign, want[0])
    assert np.array_equal(bins, want[0] + centers.shape[1] * np.arange(a)[:, None])
    assert np.array_equal(counts, want[1]) and np.array_equal(repaired, want[2])
    assert np.array_equal(got_centers, want_centers)


STEP_INPUTS = ("ties", "duplicates", "corners", "midpoints", "normal", "far")


def _step_input(kind: str, a: int, n: int, d: int, k: int, seed: int):
    # rows (a, n, d) and centres (a, k, d) at unit scale. Centres are rows
    # (as k-means++ draws them), means of rows (as Lloyd moves them) or, for
    # "midpoints", non-dyadic points with rows halfway between two of them;
    # "far" centres may lie beyond every row, where the product decides none
    rng = np.random.default_rng(seed)
    if kind == "ties":  # a three-level grid: many rows equidistant from two centres
        rows = rng.choice([0.1, 0.2, 0.3], size=(a, n, d))
    elif kind == "duplicates":  # at most three distinct rows
        rows = rng.normal(size=(a, 3, d))[:, rng.integers(0, 3, size=n)]
    elif kind == "corners":
        rows = rng.integers(0, 2, size=(a, n, d)).astype(float)
    else:
        rows = rng.normal(size=(a, n, d))
    picks = rng.integers(0, n, size=(a, k, 2))
    centers = rows[np.arange(a)[:, None], picks[..., 0]]
    means = rng.random((a, k)) < 0.5
    centers[means] = (centers[means] + rows[np.arange(a)[:, None], picks[..., 1]][means]) / 2
    if kind == "midpoints":
        centers = rng.integers(-9, 10, size=(a, k, d)) / 3.0
        pairs = rng.integers(0, k, size=(a, n, 2))
        halfway = (centers[np.arange(a)[:, None], pairs[..., 0]]
                   + centers[np.arange(a)[:, None], pairs[..., 1]]) / 2
        rows = np.where(rng.random((a, n, 1)) < 0.8, halfway, rows)
        rows[:, :k] = centers  # so that no centre is beyond the rows' reach
    if kind == "far":
        centers = rng.normal(size=(a, k, d)) * 3.0
    return rows, centers


@given(st.sampled_from(STEP_INPUTS), st.integers(1, 3), st.integers(1, 12), st.integers(1, 5),
       st.integers(-300, 150), st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_certified_assign_step_equals_exact_step(kind, a, n, d, exponent, data):
    # The product decides a row only when its lowest centre leads by more
    # than the rounding of both the product and _sq_dist can carry; every
    # other row, and every repair, goes through the exact distances. So the
    # step must equal the exact one bit for bit on ties, duplicates, rows
    # halfway between non-dyadic centres, at any scale from 1e-300 (where
    # squares underflow) to 1e150, and at any k from 1 to n, with no warning.
    k = data.draw(st.integers(1, n), label="k")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rows, centers = _step_input(kind, a, n, d, k, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_step_is_exact(rows * 10.0 ** exponent, centers * 10.0 ** exponent)


def test_certified_assign_step_sends_ties_to_the_exact_rule():
    # rows of a tie grid sit at equal distances from two centres, where the
    # product cannot decide: they reach _sq_dist from _assign_step (the
    # reference calls this module's own name, which the spy leaves alone)
    exact_rows = []
    sq_dist = kst.cluster._sq_dist

    def spy(a, b):
        exact_rows.append(len(a))
        return sq_dist(a, b)

    rows, centers = _step_input("ties", 2, 40, 3, 4, 7)
    with mock.patch.object(kst.cluster, "_sq_dist", spy):
        _assert_step_is_exact(rows, centers)
    assert sum(exact_rows) > 0


def test_certified_assign_step_at_k_one_puts_every_row_in_cluster_zero():
    # one centre rules no row out, so every row is certain, NaN rows too
    rows = np.array([[[0.5, 1.0], [np.nan, 2.0], [3.0, -1.0]]])
    block = np.ones((3, 1, 3))
    block[:2] = rows.transpose(2, 0, 1)
    centers = np.array([[[1.0, 0.5]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assign, bins, counts, repaired = _assign_step(block, np.array([5.0]), centers)
    assert assign.tolist() == bins.tolist() == [[0, 0, 0]]
    assert counts.tolist() == [[3]] and repaired.tolist() == [False]


def test_certified_assign_step_decides_nothing_beyond_the_rows_reach():
    # Centres at +-1e8 and a row 6e-9 off their midplane: _sq_dist rounds the
    # offset away and ties the two (the lower id wins), while the product
    # ranks centre 1 first by 4, far above a margin scaled to rows of norm
    # about 1. Centres that far beyond every row void the margin, so the
    # step must take the exact distances.
    rows = np.array([[[6e-9, 0.3], [0.0, 0.3], [0.0, -0.3], [1.0, 0.0]]])
    centers = np.array([[[-1e8, 0.0], [1e8, 0.0]]])
    assert _exact_assign_step(rows, centers.copy())[0].tolist() == [[0, 0, 0, 1]]
    _assert_step_is_exact(rows, centers)


@pytest.mark.parametrize("kind", POOL_INPUTS)
def test_kmeans_fits_equal_with_every_row_exact(kind):
    # an infinite margin certifies no row, so every distance is _sq_dist's:
    # the fits must not change
    refs = [_pool_input(kind, 20, 3, seed) for seed in range(4)]
    for k in (1, 2, 5, 20):
        seeds = {i: _subseeds(3, [(i, k)])[0] for i in range(len(refs))}
        want = _kmeans_fits(refs, seeds, k, 3, 30, history=True)
        with mock.patch.object(kst.cluster, "_TAU", np.inf):
            got = _kmeans_fits(refs, seeds, k, 3, 30, history=True)
        for i in seeds:
            assert np.array_equal(got[i][0], want[i][0])
            assert np.array_equal(got[i][1], want[i][1])
            assert got[i][2:] == want[i][2:]


def test_batched_kmeans_one_column_drifts_only_in_last_bits():
    # at d = 1 numpy's per-cluster mean adds pairwise, the batched centroid
    # sums in row order: same clusters, centroids within a few ULP
    rng = np.random.default_rng(26)
    for trial in range(20):
        x = rng.normal(size=(int(rng.integers(20, 300)), 1)) * float(rng.uniform(0.5, 20))
        k, seed = int(rng.integers(1, 8)), int(rng.integers(1000))
        assign, centers, inertia, history = _kmeans_fits([x], {0: seed}, k, 10, 300,
                                                         history=True)[0]
        want = reference_kmeans(x, k, seed, 10, 300)
        assert np.array_equal(assign, want[0]), f"trial {trial}"
        np.testing.assert_allclose(centers, want[1], rtol=1e-12)
        assert inertia == pytest.approx(want[2], rel=1e-12)
        assert history == pytest.approx(want[3], rel=1e-12)


def test_kmeans_determinism_and_seed_sensitivity():
    data, _ = two_blob_array(n=30, d=4, gap=3.0, seed=9)
    t = make_table(data)
    a = kmeans_fit(t, 3, seed=5, n_init=4)
    b = kmeans_fit(t, 3, seed=5, n_init=4)
    assert a.assignments == b.assignments
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia_history == b.inertia_history
    # more replicates never hurt the final inertia
    c = kmeans_fit(t, 3, seed=5, n_init=12)
    assert c.inertia <= a.inertia + 1e-12


def test_kmeans_canonical_ids_match_cut_convention():
    t = make_table([[0.0], [1.0], [10.0], [11.0], [12.0]])
    model = kmeans_fit(t, 2, seed=0, n_init=5)
    # descending size, so the 3-member cluster is id 0
    assert model.assignments["k02"] == 0
    assert model.assignments["k00"] == 1
    p = cut_dendrogram(agglomerative_ward(t), 2)
    assert model.assignments == p.labels


def test_kmeans_parameter_validation():
    t = make_table([[0.0], [1.0]])
    with pytest.raises(KstError):
        kmeans_fit(t, 0)
    with pytest.raises(KstError):
        kmeans_fit(t, 3)
    with pytest.raises(KstError):
        kmeans_fit(t, 1, n_init=0)
    with pytest.raises(KstError):
        kmeans_fit(t, 1, max_iter=0)
    with pytest.raises(KstError):
        kmeans_fit(t, 1, seed=-1)


def test_kmeans_model_validation():
    with pytest.raises(KstError):
        KMeansModel(k=2, assignments={"a": 0, "b": 0}, centroids=np.zeros((2, 1)),
                    inertia=0.0, seed=0, iterations=1)


def test_two_blob_recovery_both_methods(two_blob_table):
    t, truth = two_blob_table
    ward = cut_dendrogram(agglomerative_ward(t), 2)
    km = kmeans_fit(t, 2, seed=3, n_init=10)
    got_w = np.array([ward.labels[lab] for lab in t.rows])
    got_k = np.array([km.assignments[lab] for lab in t.rows])
    for got in (got_w, got_k):
        # same partition as the generating labels, up to id swap
        agree = (got == truth).mean()
        assert agree in (0.0, 1.0)
    assert ward.labels == km.assignments
