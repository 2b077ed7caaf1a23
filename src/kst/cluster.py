"""Agglomerative Ward clustering and k-means, tuned for reproducibility.

Both algorithms operate on standardized metric tables and break every tie
deterministically, so a given table and seed always produce the same model.

Ward merges are computed with the Lance-Williams distance update; merge
heights are on the distance scale (the square root of twice the increase in
within-cluster sum of squares), so heights between singletons equal their
Euclidean distance. Each merge also records the plain distance between the
merged clusters' centroids, for dendrograms drawn on that scale instead.

Ward is the generic nearest-neighbour-cache algorithm of Müllner (2011,
"Modern hierarchical, agglomerative clustering algorithms", arXiv:1109.2378):
every row caches its smallest Ward distance and where it occurs, so a merge
step reads the global minimum from n cached values instead of the whole
matrix. It merges in exactly the greedy order, ties included (NN-chain would
reorder them). Memory is O(n^2); time is O(n^2) on typical data and grows
towards O(n^3) only when many distances tie at a shared nearest neighbour.

k-means runs the ``n_init`` replicates of a fit batched through one Lloyd
loop on (replicates, n, k) arrays; each replicate draws its k-means++ seeds
from its own random sub-stream and stops on its own.

Every squared distance between rows, between rows and centers and between
centers goes through :func:`_sq_dist`, which adds the columns left to right.
The order does not depend on how a table lies in memory, so tables with equal
values give equal Ward heights, k-means fits and distance-based scores. The
within-cluster scatter (k-means inertia, the WGSS of the quality criteria and
the gap statistic's W_k) is one function too, :func:`_scatter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import MetricTable
from .errors import KstError
from .rng import DEFAULT_SEED, substream


_BLOCK_ELEMENTS = 1 << 18  # float64 entries per block of distance work: 2 MiB


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between ``a`` and ``b`` along their last
    axis, the other axes broadcast against each other.

    The columns are added left to right whatever the memory layout, so equal
    values give equal bits; no (..., d) difference array is built. This is
    numpy's own ``((a - b) ** 2).sum(axis=-1)`` order on column-major
    arrays (row-major ones numpy sums pairwise instead).
    """
    if not a.shape[-1]:
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    res = a[..., 0] - b[..., 0]
    res *= res
    for j in range(1, a.shape[-1]):
        t = a[..., j] - b[..., j]
        t *= t
        res += t
    return res


def _scatter(x: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Within-cluster scatter of a batch of partitions of ``x`` (n, d): for
    each partition r, the sum of squared distances from every row to its own
    center, ``centers[r, assign[r]]``, with ``centers`` (b, k, d) and
    ``assign`` (b, n). The squared differences of a partition are added as
    one flat sum in row-major order, whatever the memory layout."""
    diff = x - centers[np.arange(len(assign))[:, None], assign]
    diff *= diff
    return diff.reshape(len(assign), -1).sum(axis=1)


def _pairwise_sq(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x``, as an n x n array.

    Built a block of rows at a time, each block spanning about
    ``_BLOCK_ELEMENTS`` coordinate differences, so temporaries stay small.
    """
    n, d = x.shape
    out = np.empty((n, n))
    rows = max(1, _BLOCK_ELEMENTS // max(1, n * d))
    for lo in range(0, n, rows):
        out[lo:lo + rows] = _sq_dist(x[lo:lo + rows, None, :], x[None, :, :])
    return out


@dataclass(frozen=True)
class Merge:
    """One merge step: child node ids, height, merged leaf count."""

    left: int
    right: int
    height: float
    size: int
    centroid_distance: float

    def to_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "height": self.height,
            "size": self.size,
            "centroid_distance": self.centroid_distance,
        }


@dataclass(frozen=True)
class Dendrogram:
    """Full merge history. Leaves are nodes 0..n-1 (table row order); merge
    t creates node n+t."""

    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))
        object.__setattr__(self, "merges", tuple(self.merges))
        n = len(self.leaves)
        if len(self.merges) != n - 1:
            raise KstError(f"{n} leaves require {n - 1} merges, got {len(self.merges)}")
        seen_children = set()
        for t, m in enumerate(self.merges):
            node = n + t
            for child in (m.left, m.right):
                if not 0 <= child < node:
                    raise KstError(f"merge {t} references invalid node {child}")
                if child in seen_children:
                    raise KstError(f"node {child} appears as a child twice")
                seen_children.add(child)
            if t and m.height < self.merges[t - 1].height - 1e-9:
                raise KstError("merge heights must be non-decreasing")
        if self.merges and self.merges[-1].size != n:
            raise KstError("final merge must contain every leaf")

    def to_dict(self) -> dict:
        return {"leaves": list(self.leaves), "merges": [m.to_dict() for m in self.merges]}


@dataclass(frozen=True)
class Partition:
    """Assignment of row labels to cluster ids 0..k-1 (every id non-empty)."""

    labels: dict[str, int]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "labels", dict(self.labels))
        if self.k < 1:
            raise KstError(f"k must be >= 1, got {self.k}")
        ids = set(self.labels.values())
        if ids != set(range(self.k)):
            raise KstError(f"cluster ids must be exactly 0..{self.k - 1}, got {sorted(ids)}")

    def members(self, cluster: int) -> list[str]:
        return [lab for lab, c in self.labels.items() if c == cluster]

    def sizes(self) -> list[int]:
        counts = [0] * self.k
        for c in self.labels.values():
            counts[c] += 1
        return counts

    def to_dict(self) -> dict:
        return {"k": self.k, "labels": dict(self.labels), "sizes": self.sizes()}


def _ward_merge_steps(x: np.ndarray) -> list[tuple[int, int, float, int, float]]:
    """Lance-Williams Ward merges on raw coordinates.

    Returns (left, right, height, size, centroid_distance) per step, with
    node ids as in :class:`Dendrogram`. Ties on merge distance are broken by
    the smallest (min id, max id) pair; the merged cluster takes the lower of
    the two array positions.

    Each active row caches its smallest squared Ward distance and the column
    where it occurs. A step takes the minimum of the cached values; only the
    rows whose cached value equals it can be in a pair at that distance, so
    the tie rule looks at just those rows. After a merge, the merged row and
    the rows whose cached neighbour was one of the merged pair are rescanned;
    every other row only compares its cached value with its new distance to
    the merged cluster. The cache is exact and the arithmetic is the plain
    Lance-Williams update, so the merges are bit-identical to those of a
    search over the whole distance matrix at every step.

    Cost: O(n^2) memory. O(n^2) time on typical data; rescans push it
    towards O(n^3) only when many rows share one nearest neighbour, as
    with many duplicate rows.
    """
    n = x.shape[0]
    if n < 2:
        return []
    node_id = np.arange(n)
    size = np.ones(n, dtype=float)
    centroid = np.array(x, dtype=float)
    d2 = _pairwise_sq(x)               # squared Ward distances; inf off the active set
    np.fill_diagonal(d2, np.inf)
    nn_idx = d2.argmin(axis=1)         # per row: column of its smallest distance
    nn_val = d2[np.arange(n), nn_idx]  # per row: that distance (inf once merged away)

    steps = []
    merged = np.empty((2, n - 1, x.shape[1]))  # per merge: the two centroids joined
    for t in range(n - 1):
        dmin = float(nn_val.min())
        if not math.isfinite(dmin):
            raise KstError("Ward distances overflow float64; rescale the data")
        # Every row whose cached value is dmin has a partner at dmin, so the
        # smallest (min id, max id) pair joins the row with the smallest node
        # id to its partner with the smallest node id.
        rows = np.flatnonzero(nn_val == dmin)
        r0 = rows[node_id[rows].argmin()]
        partners = rows[d2[r0, rows] == dmin]
        r1 = partners[node_id[partners].argmin()]
        pi, pj = min(r0, r1), max(r0, r1)
        ni, nj = size[pi], size[pj]
        merged[:, t] = centroid[pi], centroid[pj]
        left, right = sorted((int(node_id[pi]), int(node_id[pj])))
        steps.append((left, right, float(np.sqrt(dmin)), int(ni + nj)))

        # Lance-Williams update against every other active cluster, on whole
        # rows: the inf entries (pi, pj, merged-away rows) stay inf
        new = ((ni + size) * d2[pi] + (nj + size) * d2[pj] - size * dmin) / (ni + nj + size)
        d2[pi] = new
        d2[:, pi] = new
        d2[pj] = np.inf
        d2[:, pj] = np.inf
        centroid[pi] = (ni * centroid[pi] + nj * centroid[pj]) / (ni + nj)
        size[pi] = ni + nj
        node_id[pi] = n + t

        # Refresh the cache; rows that pointed at the merged pair are rescanned.
        # A Ward merge never comes closer than a row's nearest neighbour in
        # exact arithmetic; comparing keeps the cache exact under rounding too.
        rescan = (nn_idx == pi) | (nn_idx == pj)
        rescan[pi] = True
        closer = new < nn_val
        nn_val[closer] = new[closer]
        nn_idx[closer] = pi
        nn_val[pj] = np.inf
        rescan = np.flatnonzero(rescan)
        sub = d2[rescan]
        nn_idx[rescan] = sub.argmin(axis=1)
        nn_val[rescan] = sub[np.arange(len(rescan)), nn_idx[rescan]]
    cdist = np.sqrt(_sq_dist(merged[0], merged[1])).tolist()
    return [step + (c,) for step, c in zip(steps, cdist)]


def agglomerative_ward(m: MetricTable) -> Dendrogram:
    """Bottom-up Ward clustering of the table rows."""
    if len(m.rows) < 2:
        raise KstError("agglomerative clustering needs at least 2 rows")
    steps = _ward_merge_steps(m.data)
    return Dendrogram(m.rows, tuple(Merge(*s) for s in steps))


def _assign_at_k(steps: Sequence[tuple[int, int]], n: int, k: int) -> np.ndarray:
    """Cluster id per leaf after undoing the last k-1 merges."""
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for t in range(n - k):
        left, right = steps[t][0], steps[t][1]
        members[n + t] = members.pop(left) + members.pop(right)
    assign = np.empty(n, dtype=int)
    for cid, comp in enumerate(members.values()):
        assign[comp] = cid
    return assign


def _canonical_ids(
    rows: Sequence[str], assign: Sequence[int], k: int
) -> tuple[dict[str, int], list[int]]:
    """Renumber clusters by descending size, equal sizes ordered by their
    smallest row label. Returns each row's new id and the old ids in new-id
    order."""
    members: list[list[str]] = [[] for _ in range(k)]
    for label, c in zip(rows, assign):
        members[c].append(label)
    order = sorted(range(k), key=lambda c: (-len(members[c]), min(members[c])))
    new_id = {old: new for new, old in enumerate(order)}
    return {label: new_id[c] for label, c in zip(rows, assign)}, order


def cut_dendrogram(d: Dendrogram, k: int) -> Partition:
    """Partition into k clusters by undoing the last k-1 merges.

    Cluster ids are assigned by descending size; equal sizes are ordered by
    the smallest contained leaf label. Cuts at successive k nest.
    """
    n = len(d.leaves)
    if not 1 <= k <= n:
        raise KstError(f"k must be between 1 and {n}, got {k}")
    assign = _assign_at_k([(m.left, m.right) for m in d.merges], n, k)
    return Partition(_canonical_ids(d.leaves, assign.tolist(), k)[0], k)


@dataclass(frozen=True, eq=False)
class KMeansModel:
    """Best-of-n_init k-means result. ``inertia_history`` tracks the winning
    replicate's inertia after each Lloyd iteration."""

    k: int
    assignments: dict[str, int]
    centroids: np.ndarray
    inertia: float
    seed: int
    iterations: int
    inertia_history: tuple[float, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "assignments", dict(self.assignments))
        centroids = np.array(self.centroids, dtype=float)
        centroids.setflags(write=False)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "inertia_history", tuple(self.inertia_history))
        ids = set(self.assignments.values())
        if ids != set(range(self.k)):
            raise KstError("every cluster id in 0..k-1 must have at least one member")

    def partition(self) -> Partition:
        return Partition(self.assignments, self.k)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "assignments": dict(self.assignments),
            "centroids": self.centroids.tolist(),
            "inertia": self.inertia,
            "seed": self.seed,
            "iterations": self.iterations,
            "inertia_history": list(self.inertia_history),
        }


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest weighted by squared
    distance to the nearest chosen center."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=float)
    idx = int(rng.integers(n))
    centers[0] = x[idx]
    d2 = _sq_dist(x, centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all remaining mass zero: uniform fallback
        centers[j] = x[idx]
        d2 = np.minimum(d2, _sq_dist(x, centers[j]))
    return centers


def _repair_empty(
    x: np.ndarray, d2: np.ndarray, assign: np.ndarray, counts: np.ndarray, centers: np.ndarray
) -> bool:
    """Give each empty cluster of one replicate a point, in place; True if
    there was one.

    The point farthest from its assigned centroid becomes the empty cluster's
    singleton centroid. Only points in clusters with >= 2 members are
    candidates, so a repair never empties another cluster (such a point
    always exists: n >= k).
    """
    n = x.shape[0]
    empty = np.flatnonzero(counts == 0)
    for cid in empty:
        dist_own = d2[np.arange(n), assign]
        dist_own[counts[assign] < 2] = -np.inf
        far = int(dist_own.argmax())
        counts[assign[far]] -= 1
        counts[cid] += 1
        assign[far] = cid
        centers[cid] = x[far]
    return len(empty) > 0


def _lloyd(
    x: np.ndarray, centers: np.ndarray, max_iter: int
) -> list[tuple[np.ndarray, np.ndarray, float, list[float]]]:
    """Lloyd's algorithm for a batch of replicates started from ``centers``
    of shape (replicates, k, d); returns (assign, centers, inertia, history)
    per replicate.

    Each pass moves every live replicate one step on (replicates, n, k)
    arrays. A replicate stops once its assignment repeats with no repair and
    then leaves the batch, so each ends exactly where it would alone.
    """
    n, d = x.shape
    k = centers.shape[1]
    centers = np.array(centers, dtype=float)
    xcols = np.tile(x.T, (1, len(centers)))  # column j of x once per replicate
    live = np.arange(len(centers))
    history: list[list[float]] = [[] for _ in live]
    out: list = [None] * len(live)
    prev = None
    for _ in range(max_iter):
        d2 = _sq_dist(x[None, :, None, :], centers[live][:, None, :, :])
        assign = d2.argmin(axis=2)  # ties go to the lowest cluster id
        offset = k * np.arange(len(live))[:, None]
        counts = np.bincount((assign + offset).ravel(), minlength=offset.size * k).reshape(-1, k)
        repaired = np.zeros(len(live), dtype=bool)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            repaired[i] = _repair_empty(x, d2[i], assign[i], counts[i], centers[live[i]])
        if prev is not None:
            done = ~repaired & (assign == prev).all(axis=1)
            for i in np.flatnonzero(done):
                r = live[i]
                out[r] = (prev[i], centers[r], history[r][-1], history[r])
            live, assign, counts = live[~done], assign[~done], counts[~done]
            if not len(live):
                return out
        a = len(live)
        bins = (assign + k * np.arange(a)[:, None]).ravel()
        new = np.empty((a, k, d))
        for j in range(d):
            new[:, :, j] = np.bincount(bins, xcols[j, :a * n], minlength=a * k).reshape(a, k)
        new /= counts[:, :, None]
        inertia = _scatter(x, new, assign)
        for r, value in zip(live, inertia.tolist()):
            history[r].append(value)
        centers[live] = new
        prev = assign
    for i, r in enumerate(live):
        out[r] = (prev[i], centers[r], history[r][-1], history[r])
    return out


def _kmeans_arrays(
    x: np.ndarray, k: int, seed: int, n_init: int, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Best of n_init replicates; replicate r draws its k-means++ seeds from
    sub-stream (seed, r), and ties on inertia keep the earliest replicate.

    The replicates run batched through one Lloyd loop, as many per batch as
    keep the (replicates, n, k) distance array near ``_BLOCK_ELEMENTS``
    entries. Distances add their columns left to right on every memory
    layout, so the result depends only on the values of ``x``. For d >= 2
    every replicate's result is bit-identical to a one-replicate Lloyd loop
    that takes each centroid as the cluster's ``mean``. Centroid sums here
    are added in row order, and for d = 1 such a ``mean`` adds pairwise
    instead, so at d = 1 centroids and inertia can differ from it in the
    last bits (ULP), and on tied distances so can an assignment.
    """
    if n_init < 1 or max_iter < 1:
        raise KstError("n_init and max_iter must be >= 1")
    init = np.array([_kmeanspp_init(x, k, substream(seed, r)) for r in range(n_init)])
    batch = max(1, _BLOCK_ELEMENTS // (x.shape[0] * k))
    best = None
    for lo in range(0, n_init, batch):
        for result in _lloyd(x, init[lo:lo + batch], max_iter):
            if best is None or result[2] < best[2]:
                best = result
    return best


def kmeans_fit(
    m: MetricTable,
    k: int,
    seed: int = DEFAULT_SEED,
    n_init: int = 10,
    max_iter: int = 300,
) -> KMeansModel:
    """Lloyd's algorithm with k-means++ seeding, best of ``n_init`` replicates.

    Fully determined by (table, k, seed, n_init, max_iter). Ties on inertia
    keep the earliest replicate. Cluster ids are relabelled by descending
    cluster size (equal sizes ordered by smallest member label) so ids are
    comparable with :func:`cut_dendrogram` output.
    """
    n = len(m.rows)
    if not 1 <= k <= n:
        raise KstError(f"k must be between 1 and {n}, got {k}")
    assign, centers, inertia, history = _kmeans_arrays(m.data, k, seed, n_init, max_iter)

    assignments, order = _canonical_ids(m.rows, assign.tolist(), k)
    return KMeansModel(
        k=k,
        assignments=assignments,
        centroids=centers[order],
        inertia=inertia,
        seed=seed,
        iterations=len(history),
        inertia_history=tuple(history),
    )
