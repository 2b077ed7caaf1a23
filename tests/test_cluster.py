"""Ward agglomeration and k-means, checked against from-scratch references.

The Ward reference recomputes every candidate merge cost from cluster member
lists (cost = 2 * increase in within-cluster sum of squares), so it shares no
arithmetic with the incremental implementation under test.
"""

import math
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
from kst.cluster import _kmeans_arrays, _kmeanspp_init, _lloyd, _pairwise_sq, _scatter, _sq_dist
from kst.errors import KstError
from kst.rng import substream

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
# replaced, kept verbatim as a bit-exact reference: same Lance-Williams
# arithmetic and tie rule, O(n^3) time.

def _broadcast_pairwise_sq(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return (diff * diff).sum(axis=-1)


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
        cdist = float(np.sqrt(((centroid[pi] - centroid[pj]) ** 2).sum()))
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


WARD_INPUTS = ("normal", "grid012", "rounded", "repeated")


def _ward_input(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
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
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_ward_equals_full_matrix_search(kind, n, d, seed):
    _assert_same_merges(_ward_input(kind, n, d, seed))


def test_ward_equals_full_matrix_search_on_identical_rows():
    _assert_same_merges(np.full((40, 3), 1.5))


def test_ward_rejects_overflowing_distances():
    with np.errstate(over="ignore"), pytest.raises(KstError, match="overflow"):
        agglomerative_ward(make_table([[0.0], [1e200], [2e200]]))


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
    xf = np.asfortranarray(x)  # numpy adds the columns of this layout left to right
    assert np.array_equal(_pairwise_sq(xf), _broadcast_pairwise_sq(xf))
    assert np.array_equal(_pairwise_sq(x), _pairwise_sq(xf))


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
    [(assign, _, inertia, _)] = _lloyd(x, centers[None], max_iter=50)
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
    block = data.draw(st.sampled_from([None, 1, 200]), label="block")  # 1: one replicate per batch
    with mock.patch.object(kst.cluster, "_BLOCK_ELEMENTS", block or kst.cluster._BLOCK_ELEMENTS):
        assign, centers, inertia, history = _kmeans_arrays(x, k, seed, n_init, max_iter)
    # numpy adds a column-major table's columns left to right, as _sq_dist
    # does on both layouts
    want = reference_kmeans(np.asfortranarray(x), k, seed, n_init, max_iter)
    assert np.array_equal(assign, want[0])
    assert np.array_equal(centers, want[1])
    assert inertia == want[2]
    assert history == want[3]


class _RecordingRng:
    """Stands in for a Generator: records the k-means++ weights it is given."""

    def __init__(self):
        self.weights = []

    def integers(self, n):
        return 0

    def choice(self, n, p):
        self.weights.append(p)
        return int(p.argmax())


def test_kmeanspp_weights_equal_reference():
    x = np.random.default_rng(27).normal(size=(40, 12)) * 3.0
    xf = np.asfortranarray(x)  # numpy adds the columns of this layout left to right
    want = _RecordingRng()
    centers = _reference_kmeanspp_init(xf, 6, want)
    assert len(want.weights) == 5
    for x in (x, xf):  # the same weights on both layouts
        got = _RecordingRng()
        assert np.array_equal(_kmeanspp_init(x, 6, got), centers)
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights, strict=True))

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
        [(assign, c, inertia, history)] = _lloyd(layout(x), centers[None], max_iter=10)
        assert np.array_equal(assign, want[0]) and np.array_equal(c, want[1])
        assert (inertia, history) == (want[2], want[3])

def test_batched_kmeans_one_column_drifts_only_in_last_bits():
    # at d = 1 numpy's per-cluster mean adds pairwise, the batched centroid
    # sums in row order: same clusters, centroids within a few ULP
    rng = np.random.default_rng(26)
    for trial in range(20):
        x = rng.normal(size=(int(rng.integers(20, 300)), 1)) * float(rng.uniform(0.5, 20))
        k, seed = int(rng.integers(1, 8)), int(rng.integers(1000))
        assign, centers, inertia, history = _kmeans_arrays(x, k, seed, 10, 300)
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
