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
reorder them). A merge writes the updated distances into the merged
cluster's row and column and nothing else: the merged-away cluster's column
goes stale and is masked where a row is read, and the matrix is built from
half of the pairs, mirrored. The distance matrix is cut down to the live
clusters each time they fall to half its dimension, so memory starts at
O(n^2) and shrinks as the merges proceed; time is O(n^2) on typical data and
grows towards O(n^3) only when many distances tie at a shared nearest
neighbour. The merge loop
keeps no centroids: :func:`agglomerative_ward` computes the centroid
distances after it, and the quality criteria and the gap statistic, which
read only the merges, never compute them. Cuts at several k come from one
walk over the merges.

k-means runs every replicate through one Lloyd loop, :func:`_lloyd`, over a
pool of replicates that is topped up from a queue as replicates finish. The
queue holds the ``n_init`` replicates of one data set for :func:`kmeans_fit`,
and those of many data sets for the gap statistic's references. Each
replicate draws its k-means++ seeds (Arthur & Vassilvitskii 2007,
"k-means++: the advantages of careful seeding", SODA) from its own random
sub-stream and stops on its own. The sub-streams are numpy's SeedSequence +
PCG64 streams, derived together for every replicate of a call in plain
integer arithmetic (``rng._Streams``), with no numpy ``Generator`` per
replicate. Every replicate's seeds are drawn before the pool starts, a chunk
of data sets per call (:func:`_kmeanspp_init`); each centre is drawn for the
whole chunk at once, and each weighted draw over the chunk is one count over
a cumulative distribution. At k = 1 every start gives the same fit, so no
seeds are drawn. Lloyd's assignment step (:func:`_assign_step`) is
certified: one batched matrix product gives |c|^2 - 2 x.c for every centre,
replicate and row, centre-major, and a row takes its lowest centre from it
only where that centre leads the others by more than a rounding bound (in
the manner of Elkan 2003, "Using the triangle inequality to accelerate
k-means", ICML), which makes it the one nearest centre under the exact
distances. Ties, near-ties and repairs go through the exact distances, so
BLAS only rules centres out and never sets an output bit.
The inertia is computed once per replicate as it finishes; the per-pass
inertia history is built only for :func:`kmeans_fit`, which reports it, and
only for the winning replicate, from the assignments and centres the loop
keeps for each pass.

Every squared distance between rows, between rows and centers and between
centers goes through :func:`_sq_dist`, which adds the columns left to right.
The order does not depend on how a table lies in memory, so tables with equal
values give equal Ward heights, k-means fits and distance-based scores. The
within-cluster scatter (k-means inertia, the WGSS of the quality criteria and
the gap statistic's W_k) is one function too, :func:`_scatter`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._json import FieldDict
from .dataset import MetricTable
from .errors import KstError
from .rng import DEFAULT_SEED, _check_ints, _check_seed, _Streams


_BLOCK_ELEMENTS = 1 << 18  # float64 entries per block of distance work: 2 MiB
_POOL_ELEMENTS = 3 << 15  # float64 entries of a Lloyd pool's products or data: 768 KiB
_SEED_ELEMENTS = 1 << 15  # (data set, replicate, row) entries of a k-means++ chunk: 256 KiB


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between ``a`` and ``b`` along their last
    axis, the other axes broadcast against each other.

    The columns are added left to right whatever the memory layout, so equal
    values give equal bits; no (..., d) difference array is built. This is
    numpy's own ``((a - b) ** 2).sum(axis=-1)`` order on column-major
    arrays (row-major ones numpy sums pairwise instead). Each column of
    ``b`` is first copied out over the result's shape: numpy broadcasts a
    copy in less time than a subtraction, and ``a``'s column then meets a
    whole array, which costs the least when ``a`` is broadcast along its
    leading axes only.
    """
    shape = np.broadcast(a, b).shape[:-1]
    if not a.shape[-1]:
        return np.zeros(shape)
    res, t = np.empty(shape), np.empty(shape)
    for j in range(a.shape[-1]):
        col = t if j else res
        np.copyto(col, b[..., j])
        np.subtract(a[..., j], col, out=col)
        col *= col
        if j:
            res += col
    return res


def _scatter(x: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Within-cluster scatter of a batch of partitions of ``x`` (n, d), or
    of one data set each when ``x`` is (b, n, d): for each partition r, the
    sum of squared distances from every row to its own center,
    ``centers[r, assign[r]]``, with ``centers`` (b, k, d) and ``assign``
    (b, n). The squared differences of a partition are added as one flat sum
    in row-major order, whatever the memory layout. Each row's own center is
    gathered as a row of the flattened (b k, d) centers, which numpy copies
    faster than a two-index gather."""
    b, k, d = centers.shape
    diff = centers.reshape(b * k, d)[assign + k * np.arange(b)[:, None]]
    np.subtract(x, diff, out=diff)
    diff *= diff
    return diff.reshape(b, -1).sum(axis=1)


def _pairwise_sq(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x``, as an n x n
    array, written into ``out`` when it is given.

    Built a block of rows at a time, each block spanning at most about
    ``_BLOCK_ELEMENTS`` coordinate differences, so temporaries stay small.
    Only about half of the pairs are computed: each block against the
    columns from its own first row on, the part right of its diagonal square
    mirrored into the rows below it. That is exact, as (a - b)^2 == (b - a)^2
    in IEEE arithmetic and :func:`_sq_dist` adds the columns in one order
    for either.
    """
    n, d = x.shape
    out = np.empty((n, n)) if out is None else out
    rows = max(1, _BLOCK_ELEMENTS // max(1, n * d))
    for lo in range(0, n, rows):
        block = _sq_dist(x[lo:lo + rows, None, :], x[None, lo:, :])
        out[lo:lo + rows, lo:] = block
        out[lo + rows:, lo:lo + rows] = block[:, rows:].T
    return out


@dataclass(frozen=True)
class Merge(FieldDict):
    """One merge step: child node ids, height, merged leaf count."""

    left: int
    right: int
    height: float
    size: int
    centroid_distance: float


@dataclass(frozen=True)
class Dendrogram(FieldDict):
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


@np.errstate(over="ignore")  # an overflow ends in an inf distance: a KstError
def _ward_merge_steps(
    x: np.ndarray, d2: np.ndarray | None = None
) -> list[tuple[int, int, float, int]]:
    """Lance-Williams Ward merges on raw coordinates.

    Returns (left, right, height, size) per step, with node ids as in
    :class:`Dendrogram`; centroids are not tracked here (see
    :func:`agglomerative_ward`). Ties on merge distance are broken by the
    smallest (min id, max id) pair; the merged cluster takes the lower of
    the two array positions. A position is a cluster's row and column in the
    working matrix, which holds the live clusters in the order of their
    smallest member rows. Compaction drops dead rows and columns but never
    reorders the live ones, so "lower position" names the same cluster
    before and after it. Positions decide which rows are rescanned, never a
    merge: the update is symmetric in the pair (addition commutes) and ties
    are broken by node id.

    Each live row caches its smallest squared Ward distance and the column
    where it occurs. A step takes the minimum of the cached values; only the
    rows whose cached value equals it can be in a pair at that distance, so
    the tie rule looks at just those rows. After a merge, the merged row and
    the rows whose cached neighbour was one of the merged pair are rescanned;
    every other row only compares its cached value with its new distance to
    the merged cluster. The cache is exact and the arithmetic is the plain
    Lance-Williams update, so the merges are bit-identical to those of a
    search over the whole distance matrix at every step.

    The Lance-Williams update is computed into two scratch rows and written
    straight into the merged row, in the operation order of the plain
    formula. A merged-away cluster's cached distance is set to inf and its
    cached column to -1; its row is never read again. Its column is not
    written: it goes stale, and a mask of the dead positions puts inf in a
    row's dead columns only when that row is read, the merged row before the
    cache is compared with it and each rescanned row before its minimum. Once
    the live clusters are at most half the matrix dimension, the matrix is
    cut down to their rows and columns (``d2[np.ix_(keep, keep)]``), the
    cached columns are renumbered to match and the mask starts empty. Memory
    shrinks as the merges proceed, each step works on at most twice the live
    count, and the copies add up to at most n^2 / 3 entries.

    Cost: O(n^2) memory at the start. O(n^2) time on typical data; rescans
    push it towards O(n^3) only when many rows share one nearest neighbour,
    as with many duplicate rows. ``d2``, an n x n array, is used as the
    starting matrix when given, so that a caller running Ward on many data
    sets of one shape allocates it once; its values are overwritten.
    """
    n = x.shape[0]
    if n < 2:
        return []
    node_id = list(range(n))           # per position
    size = np.ones(n)                  # per position: leaf count
    d2 = _pairwise_sq(x, out=d2)       # squared Ward distances; stale in dead columns
    np.fill_diagonal(d2, np.inf)
    nn_idx = d2.argmin(axis=1)         # per row: column of its smallest distance (-1 once dead)
    nn_val = d2[np.arange(n), nn_idx]  # per row: that distance (inf once dead)
    dead = np.zeros(n, dtype=bool)     # per position: merged away since the last compaction
    pair = np.zeros(n + 1, dtype=bool)  # lookup of the merged pair's positions
    acc, tmp = np.empty(n), np.empty(n)

    steps = []
    for t in range(n - 1):
        if 2 * (n - t) <= len(nn_idx):  # compact: keep the live positions, in order
            alive = ~dead
            keep = alive.nonzero()[0]
            d2 = d2[np.ix_(keep, keep)]
            nn_idx = (alive.cumsum() - 1)[nn_idx[keep]]
            nn_val, size = nn_val[keep], size[keep]
            keep = keep.tolist()
            node_id = [node_id[p] for p in keep]
            dead = np.zeros(len(keep), dtype=bool)
            acc, tmp = np.empty(len(keep)), np.empty(len(keep))
        dmin = nn_val.item(nn_val.argmin())
        if not math.isfinite(dmin):
            raise KstError("Ward distances overflow float64; rescale the data")
        rows = (nn_val == dmin).nonzero()[0].tolist()
        if len(rows) == 2 and nn_idx.item(rows[0]) == rows[1]:
            pi, pj = rows  # the one pair at dmin
        else:
            # Every row whose cached value is dmin has a partner at dmin, so
            # the smallest (min id, max id) pair joins the row with the
            # smallest node id to its partner with the smallest node id.
            r0 = min(rows, key=node_id.__getitem__)
            r1 = min((r for r in rows if d2.item(r0, r) == dmin), key=node_id.__getitem__)
            pi, pj = min(r0, r1), max(r0, r1)
        ni, nj = size.item(pi), size.item(pj)
        left, right = sorted((node_id[pi], node_id[pj]))
        steps.append((left, right, math.sqrt(dmin), int(ni + nj)))

        # Lance-Williams update against every other live cluster, on whole
        # rows, as ((ni + size) * d2[pi] + (nj + size) * d2[pj] - size * dmin)
        # / (ni + nj + size); entries pi and pj come out inf
        row = d2[pi]
        np.multiply(np.add(ni, size, out=acc), row, out=acc)
        np.multiply(np.add(nj, size, out=tmp), d2[pj], out=tmp)
        acc += tmp
        acc -= np.multiply(size, dmin, out=tmp)
        np.divide(acc, np.add(ni + nj, size, out=tmp), out=row)
        dead[pj] = True
        np.copyto(row, np.inf, where=dead)
        d2[:, pi] = row
        size[pi] = ni + nj
        node_id[pi] = n + t

        # Refresh the cache; rows that pointed at the merged pair are rescanned.
        # A Ward merge never comes closer than a row's nearest neighbour in
        # exact arithmetic; comparing keeps the cache exact under rounding too.
        nn_idx[pj] = -1
        nn_val[pj] = np.inf
        # rows cached at pi or pj; a dead row's -1 reads the last entry of
        # ``pair``, which stays False
        pair[pi] = pair[pj] = True
        rescan = pair[nn_idx]
        pair[pi] = pair[pj] = False
        closer = (row < nn_val).nonzero()[0]
        if len(closer):
            nn_val[closer] = row[closer]
            nn_idx[closer] = pi
        rescan[pi] = False  # row pi is read last, masked above
        for r in rescan.nonzero()[0].tolist():
            r_row = d2[r]
            np.copyto(r_row, np.inf, where=dead)
            c = r_row.argmin()
            nn_idx[r] = c
            nn_val[r] = r_row[c]
        c = row.argmin()
        nn_idx[pi] = c
        nn_val[pi] = row[c]
    return steps


def agglomerative_ward(m: MetricTable) -> Dendrogram:
    """Bottom-up Ward clustering of the table rows.

    The merges come from :func:`_ward_merge_steps`; each merge's centroid
    distance is computed afterwards, by replaying the centroid recursion
    (n_l * c_l + n_r * c_r) / (n_l + n_r) over the merges. Addition is
    commutative in IEEE arithmetic and (a - b)^2 = (b - a)^2, so the result
    does not depend on which child is left.
    """
    n = len(m.rows)
    if n < 2:
        raise KstError("agglomerative clustering needs at least 2 rows")
    steps = _ward_merge_steps(m.data)
    centroid = np.empty((2 * n - 1, m.data.shape[1]))
    centroid[:n] = m.data
    size = [1] * n
    for t, (left, right, _, merged) in enumerate(steps):
        centroid[n + t] = (size[left] * centroid[left] + size[right] * centroid[right]) / merged
        size.append(merged)
    pairs = np.array([s[:2] for s in steps])
    cdist = np.sqrt(_sq_dist(centroid[pairs[:, 0]], centroid[pairs[:, 1]])).tolist()
    return Dendrogram(m.rows, tuple(Merge(*s, c) for s, c in zip(steps, cdist)))


def _assign_at_each_k(
    steps: Sequence[tuple[int, int]], n: int, ks: Sequence[int]
) -> dict[int, np.ndarray]:
    """Cluster id per leaf after undoing the last k-1 merges, for each k in
    ``ks``, from one walk over the merges (largest k first). Ids number the
    clusters in order of their node ids."""
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    assigns = {}
    done = 0
    for k in sorted(set(ks), reverse=True):
        for t in range(done, n - k):
            left, right = steps[t][0], steps[t][1]
            members[n + t] = members.pop(left) + members.pop(right)
        done = n - k
        assign = np.empty(n, dtype=int)
        for cid, comp in enumerate(members.values()):
            assign[comp] = cid
        assigns[k] = assign
    return assigns


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
    the smallest contained leaf label. Cuts at successive k nest. The cut is
    the one-walk cut of :func:`_assign_at_each_k` at a single k, the same
    that the quality criteria take at every k they score.
    """
    _check_ints(k=k)
    n = len(d.leaves)
    if not 1 <= k <= n:
        raise KstError(f"k must be between 1 and {n}, got {k}")
    assign = _assign_at_each_k([(m.left, m.right) for m in d.merges], n, [k])[k]
    return Partition(_canonical_ids(d.leaves, assign.tolist(), k)[0], k)


@dataclass(frozen=True, eq=False)
class KMeansModel(FieldDict):
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in a non-finite total
def _kmeanspp_init(
    x: np.ndarray, k: int, streams: _Streams, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding for a chunk of data sets at once: first center
    uniform, the rest weighted by squared distance to the nearest chosen
    center. ``x`` (g, n, d) stacks the data sets, fastest with each column
    contiguous (``x.transpose(2, 0, 1)`` C-ordered); ``rows`` (g, r) holds
    the streams of data set i's replicates, one per replicate, in
    ``streams``. Returns the (g, r, k, d) centers and which data sets'
    distances overflow float64, whose centers are undefined and whose
    streams are left mid-way.

    All replicates share (r, g, n) distance arrays, replicate-major, and
    each center is drawn for the whole chunk at once, each replicate from
    its own stream, once per center: ``integers`` for the first and for a
    uniform fallback (all remaining mass zero), ``random`` for a weighted
    draw. A weighted draw is the inverse-CDF lookup that
    ``rng.choice(n, p=d2 / total)`` runs (normalised cumsum, one uniform,
    ``searchsorted(side="right")``), so it picks the same index and leaves
    the stream in the same state, without ``choice``'s checks; on the
    non-decreasing cdf, ``searchsorted(side="right")`` is the count of
    entries <= the uniform, taken for every replicate of the chunk by one
    ``count_nonzero``. A data set stops drawing at the first center where the
    total of one of its replicates is not finite. No distances are computed
    after the last center.
    """
    g, n, d = x.shape
    r = rows.shape[1]
    drawing = rows.T.ravel()  # the stream of each (replicate, data set), replicate-major as d2
    sets = np.arange(g)
    centers = np.empty((r, g, k, d))
    centers[:, :, 0] = x[sets, streams.integers(drawing, n).reshape(r, g)]
    overflow = np.zeros(g, dtype=bool)
    d2 = cdf = None
    for j in range(1, k):
        near = _sq_dist(x[None], centers[:, :, None, j - 1])  # (r, g, n)
        d2 = near if d2 is None else np.minimum(d2, near, out=d2)
        total = d2.sum(axis=2)
        overflow |= ~np.isfinite(total).all(axis=0)
        cdf = np.divide(d2, total[:, :, None], out=cdf)  # NaN rows at a zero total
        np.cumsum(cdf, axis=2, out=cdf)
        cdf /= cdf[:, :, -1:]
        total[:, overflow] = np.nan  # an overflowed data set draws no more
        weighted, uniform = total > 0, total == 0
        u = np.zeros((r, g))
        u[weighted] = streams.random(drawing[weighted.ravel()])
        drawn = np.count_nonzero(cdf <= u[:, :, None], axis=2)
        if uniform.any():
            drawn[uniform] = streams.integers(drawing[uniform.ravel()], n)
        centers[:, :, j] = x[sets, drawn]
    return centers.transpose(1, 0, 2, 3), overflow


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


def _leading(farther: np.ndarray) -> np.ndarray:
    """Per entry of the centre-major mask ``farther`` (k, ...): how many
    leading centres are all marked, counted over the first k - 1, in the
    smallest unsigned type that holds k. With ``farther = d2 > d2.min(axis=0)``
    that is the lowest centre id at the smallest distance, as ``argmin`` over
    the k slabs gives it (the data are finite, so no distance is NaN), and it
    takes no masked write."""
    run = farther[0].copy()
    count = run.astype(np.min_scalar_type(len(farther)))
    for c in range(1, len(farther) - 1):
        run &= farther[c]
        count += run.view(np.uint8)
    return count


_TAU = 64 * 2.0 ** -53  # 2 tau = _TAU (d + 3) (X^2 + 2^-902): see _assign_step


def _reach(x: np.ndarray) -> float:
    """The squared norm X^2 that no centre of a replicate on ``x`` (n, d)
    may pass for :func:`_assign_step` to decide its rows from the product:
    the largest squared row norm, with room for rounding (a mean of rows is
    no longer than the longest). inf when a square passes 2^998, where a
    distance could overflow: every row is then decided exactly."""
    reach = float(np.einsum("ij,ij->i", x, x).max()) * (1 + 2.0 ** -20)
    return reach if reach <= 2.0 ** 998 else np.inf


def _assign_step(
    block: np.ndarray, reach: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's assignment step for a pool of replicates, each on its own data.

    ``block`` (d + 1, a, n) holds column j of replicate i's rows in
    ``block[j, i]`` and ones in ``block[d]``; ``reach`` (a,) is the
    :func:`_reach` of each replicate's data, and ``centers`` (a, k, d) are the
    centres. Returns each row's cluster (a, n), in the type of
    :func:`_leading`; the same plus k i for replicate i, the bins of the
    pool's clusters; the cluster sizes (a, k); and which replicates had an
    empty cluster repaired (:func:`_repair_empty`, which moves a centre in
    place).

    A row's cluster is the lowest id among the centres at its smallest
    :func:`_sq_dist` distance, the exact rule (:func:`_leading`). Most rows
    are decided without those distances, from one batched product ``S =
    |c|^2 - 2 x.c`` for every (centre, replicate, row): the centres enter as
    rows ``(-2c, |c|^2)`` against the data with its row of ones, centre-major,
    (k, a, n). A row takes the centre of lowest S only when every other
    centre's S is higher by more than 2 tau, tau = 8 (d + 3) u (4 X^2 +
    2^-900) with u = 2^-53 and X^2 the reach. Every other row (ties,
    near-ties, duplicates, anything non-finite) is recomputed through
    :func:`_sq_dist` and the exact rule, and so is every row of a replicate
    with a centre beyond the reach (never in Lloyd's loop, where each centre
    is a row or a mean of rows). At k = 1 every row is certain, in cluster 0.
    A replicate with an empty cluster has its distances recomputed through
    :func:`_sq_dist` for the repair. So every output is bit-identical to the
    exact step: the product, computed by BLAS in any order, only decides which
    rows are certain, and never sets an output bit.

    Why a certain row is right. Let M be the largest centre norm, s = (|x| +
    M)^2 <= 4 X^2, D_j the exact distance from x to centre c_j and Dh_j what
    :func:`_sq_dist` computes. It rounds each difference and square once and
    adds d terms left to right, so ``|Dh_j - D_j| <= g(d + 2) D_j`` with g(m)
    = m u / (1 - m u) (Higham 2002, *Accuracy and Stability of Numerical
    Algorithms*, section 3.1), and D_j <= s. The product Sh_j is an inner
    product of length d + 1: -2c is exact, and |c_j|^2 is a sum of d squares
    within g(d) |c_j|^2, so in any summation order, with or without fused
    multiply-adds, ``|Sh_j - (|c_j|^2 - 2 x.c_j)| <= g(d + 1) (2 |c_j| |x| +
    (1 + g(d)) |c_j|^2) + g(d) |c_j|^2``. As D_j = |x|^2 - 2 x.c_j + |c_j|^2
    exactly, E_j = Dh_j - (Sh_j + |x|^2) obeys ``|E_j| <= 3 g(d + 2) (1 +
    g(d)) s < 4 (d + 3) u s`` for any d < 10^13. If every j other than the
    row's lowest j* has Sh_j above the computed Sh_j* + 2 tau, then ``Dh_j -
    Dh_j* = Sh_j - Sh_j* + E_j - E_j* > 2 tau - 8 (d + 3) u s - r``, where r,
    the rounding of the sum Sh_j* + 2 tau and of X^2 and tau, is a few u (s +
    tau). As 2 tau >= 16 (d + 3) u s, that is positive: j* is the unique
    minimiser of the distances :func:`_sq_dist` computes, and the tie rule
    has nothing to decide. Each operation that underflows adds an absolute
    error of at most 2^-1075, which the 2^-900 in tau covers many times over;
    squares below 2^998 keep every intermediate finite. A NaN anywhere fails
    the strict comparison, and the row is recomputed.
    """
    a, k, d = centers.shape
    n = block.shape[2]
    offsets = k * np.arange(a)[:, None]
    lhs = np.empty((a, k, d + 1))
    np.multiply(centers, -2.0, out=lhs[:, :, :d])
    sq = np.einsum("akj,akj->ak", centers, centers, out=lhs[:, :, d])
    s = np.empty((k, a, n))
    np.matmul(lhs, block.transpose(1, 0, 2), out=s.transpose(1, 0, 2))
    margin = (reach + 2.0 ** -902) * (_TAU * (d + 3))
    margin[~(sq.max(axis=1) <= reach)] = np.nan  # a centre beyond the reach: no row is certain
    bound = s.min(axis=0)
    bound += margin[:, None]
    farther = s > bound  # (k, a, n): the centres ruled out for each row
    del s  # the products' memory is free before the labels are counted
    assign = _leading(farther)
    ruled_out = np.add.reduce(farther, axis=0, dtype=assign.dtype)
    if ruled_out.min() < k - 1:
        unsure = np.flatnonzero(ruled_out != k - 1)
        i, r = np.divmod(unsure, n)
        d2 = _sq_dist(block[:d, i, r].T, centers[i].transpose(1, 0, 2))
        assign.flat[unsure] = _leading(d2 > d2.min(axis=0))
    bins = assign + offsets
    counts = np.bincount(bins.ravel(), minlength=a * k).reshape(a, k)
    repaired = np.zeros(a, dtype=bool)
    for i in np.flatnonzero((counts == 0).any(axis=1)):
        rows = block[:d, i].T
        d2 = _sq_dist(rows, centers[i][:, None, :])
        repaired[i] = _repair_empty(rows, d2.T, assign[i], counts[i], centers[i])
        bins[i] = assign[i] + offsets[i]
    return assign, bins, counts, repaired


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in an inf inertia: a KstError
def _lloyd(
    xs: Sequence[np.ndarray], starts: Sequence[tuple[int, np.ndarray]], max_iter: int,
    *, history: bool = False,
) -> dict[int, tuple[np.ndarray, np.ndarray, float, list[float]]]:
    """Lloyd's algorithm for a queue of replicates, run in one pool; returns
    the best replicate of each data set as (assign, centers, inertia, history).

    ``starts`` is the queue: (g, centers), a replicate of data set ``xs[g]``
    started from k x d ``centers``. Every data set has one shape, (n, d).
    The pool holds as many replicates as keep both its (k, replicates, n)
    products and its (d + 1, replicates, n) data within ``_POOL_ELEMENTS``
    entries. It takes them from the queue in order, and the next ones take
    the slots of those that finish, so every pass carries a full pool until
    the queue runs out.

    Each pass moves every replicate in the pool one step: an assignment
    step (:func:`_assign_step`), then centroid sums that add each
    replicate's rows in order. The slots' data lie in one (d + 1, replicates,
    n) block, its last row ones, copied into a slot only when it changes data
    set, so the product reads each slot's columns as contiguous rows. A
    replicate stops once its assignment repeats with no repair, or after
    ``max_iter`` passes, so each ends exactly where it would alone.

    ``inertia`` is a final partition's scatter (:func:`_scatter`). Of the
    replicates of one data set the lowest inertia wins, a tie going to the
    one earlier in the queue; only the best so far is kept, as copies, its
    ``assign`` in the smallest unsigned type that holds k (that of
    :func:`_assign_step`), one byte per row for k < 256. ``history``, the
    winner's inertia after every pass, is built only when asked for and is
    empty otherwise; its last entry equals ``inertia``. The loop then keeps
    each replicate's assignment and centers after every pass that moves it,
    and the scatter of those is taken for the winners alone, a pool's worth
    of passes per call.
    """
    if not starts:
        return {}
    (n, d), k = xs[0].shape, len(starts[0][1])
    size = min(len(starts), max(1, _POOL_ELEMENTS // (max(k, d + 1) * n)))
    block = np.ones((d + 1, size, n))  # column j of slot i's data set: block[j, i]
    reach = np.empty(size)  # per slot: the _reach of its data set
    centers = np.empty((size, k, d))
    prev = np.empty((size, n), dtype=np.min_scalar_type(k))  # per slot: its last assignment
    fresh = np.ones(size, dtype=bool)  # per slot: no pass run yet
    passes = np.zeros(size, dtype=int)
    slots: list = [None] * size  # per slot: (data set, queue position, its passes)
    reaches: dict[int, float] = {}  # per data set entered: its _reach

    def enter(i: int, position: int) -> None:
        g, init = starts[position]
        if slots[i] is None or slots[i][0] != g:
            block[:d, i] = xs[g].T
            if g not in reaches:
                reaches[g] = _reach(xs[g])
            reach[i] = reaches[g]
        centers[i] = init
        fresh[i], passes[i], slots[i] = True, 0, (g, position, [])

    for i in range(size):
        enter(i, i)
    queued = size  # the queue position of the next start
    best: dict = {}
    while True:
        a = len(slots)
        rows = block[:d].transpose(1, 2, 0)  # (a, n, d)
        assign, bins, counts, repaired = _assign_step(block, reach, centers)
        moved = fresh | repaired | (assign != prev).any(axis=1)
        bins = bins.ravel()
        new = np.empty((a, k, d))
        for j in range(d):
            new[:, :, j] = np.bincount(bins, block[j].ravel(), minlength=a * k).reshape(a, k)
        new /= counts[:, :, None]
        if history:
            for i in moved.nonzero()[0].tolist():
                slots[i][2].append((assign[i], new[i]))
        centers[moved] = new[moved]
        passes += moved
        prev, fresh[:] = assign, False
        done = (~moved | (passes == max_iter)).nonzero()[0].tolist()
        if not done:
            continue
        for i, value in zip(done, _scatter(rows[done], centers[done], assign[done]).tolist()):
            g, position, trail = slots[i]
            if g not in best or (value, position) < best[g][:2]:
                best[g] = (value, position, assign[i].copy(), centers[i].copy(), trail)
        vacant = []
        for i in done:
            if queued < len(starts):
                enter(i, queued)
                queued += 1
            else:
                vacant.append(i)
        if vacant:  # the queue has run out: the pool shrinks
            keep = np.ones(a, dtype=bool)
            keep[vacant] = False
            if not keep.any():
                break
            block, reach, centers, prev = block[:, keep], reach[keep], centers[keep], prev[keep]
            fresh, passes = fresh[keep], passes[keep]
            slots = list(itertools.compress(slots, keep.tolist()))
    fits = {}
    step = max(1, _POOL_ELEMENTS // (n * d or 1))  # the winner's passes per scatter
    for g, (value, _, labels, c, trail) in best.items():
        trace: list[float] = []
        for lo in range(0, len(trail), step):
            assigns, centroids = zip(*trail[lo:lo + step])
            trace += _scatter(xs[g], np.array(centroids), np.array(assigns)).tolist()
        fits[g] = (labels, c, value, trace)
    return fits


def _kmeans_fits(
    xs: Sequence[np.ndarray], seeds: Mapping[int, int], k: int, n_init: int, max_iter: int,
    *, history: bool = False,
) -> dict[int, tuple[np.ndarray, np.ndarray, float, list[float]] | Exception]:
    """Best of n_init replicates for each data set ``xs[g]``, g in ``seeds``:
    replicate r of data set g draws its k-means++ seeds from sub-stream
    (seeds[g], r), and ties on inertia keep the earliest replicate.

    Every replicate runs through one pool of :func:`_lloyd`, data set by
    data set and replicate by replicate. The sub-streams of every data set
    and replicate are derived in one :class:`~kst.rng._Streams`, and every
    data set is seeded before the pool starts, in chunks of at most
    ``_SEED_ELEMENTS`` (data set, replicate, row) entries, one
    :func:`_kmeanspp_init` call each; the seeded centres hold n_init k d
    numbers per data set. At k = 1 every start gives the same one-cluster
    fit, so a data set enters one replicate, started on its first row, and
    no stream is derived. The seeds are the caller's to check. A data set
    whose seeding overflows maps to a KstError, and so does one whose best
    inertia overflows; the others are fitted all the same.
    ``history`` asks :func:`_lloyd` for each winner's inertia per pass; only
    :func:`kmeans_fit`, which reports it, asks.
    Distances add their columns left to right on every memory layout, so
    the result depends only on the values of each data set. For d >= 2
    every replicate's result is bit-identical to a one-replicate Lloyd loop
    that takes each centroid as the cluster's ``mean``. Centroid sums here
    are added in row order, and for d = 1 such a ``mean`` adds pairwise
    instead, so at d = 1 centroids and inertia can differ from it in the
    last bits (ULP), and on tied distances so can an assignment.
    """
    errors: dict[int, Exception] = {}
    if k == 1:
        starts = [(g, xs[g][:1]) for g in seeds]
    else:
        starts = []
        streams = _Streams(list(seeds.values()), [(r,) for r in range(n_init)])
        rows = np.arange(len(streams)).reshape(len(seeds), n_init)  # each data set's streams
        order, step = list(seeds), max(1, _SEED_ELEMENTS // (n_init * len(xs[0])))
        for lo in range(0, len(order), step):
            chunk = order[lo:lo + step]
            init, overflow = _kmeanspp_init(  # the chunk's stacked columns, each contiguous
                np.stack([xs[g].T for g in chunk], axis=1).transpose(1, 2, 0), k,
                streams, rows[lo:lo + step])
            for g, centers, failed in zip(chunk, init, overflow.tolist()):
                if failed:
                    errors[g] = KstError("k-means++ distances overflow float64; rescale the data")
                else:
                    starts += ((g, c) for c in centers)
        del streams  # free before the pool starts

    fits = _lloyd(xs, starts, max_iter, history=history)
    for g, fit in fits.items():
        if not math.isfinite(fit[2]):  # at k = 1 no k-means++ draw checks the scale
            errors[g] = KstError("k-means distances overflow float64; rescale the data")
    return {g: errors[g] if g in errors else fits[g] for g in seeds}


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
    _check_ints(k=k, n_init=n_init, max_iter=max_iter)
    n = len(m.rows)
    if not 1 <= k <= n:
        raise KstError(f"k must be between 1 and {n}, got {k}")
    if n_init < 1 or max_iter < 1:
        raise KstError("n_init and max_iter must be >= 1")
    _check_seed(seed)
    fit = _kmeans_fits([m.data], {0: seed}, k, n_init, max_iter, history=True)[0]
    if isinstance(fit, Exception):
        raise fit
    assign, centers, inertia, history = fit

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
