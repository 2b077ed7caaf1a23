"""Cluster-quality measures and data-driven selection of the cluster count.

Compactness (mean member-to-centroid distance) and separation (mean pairwise
centroid distance) describe a single partition. The silhouette coefficient,
Calinski-Harabasz, Dunn and gap statistic (plus optional Davies-Bouldin and
a spherical-Gaussian BIC) compare partitions across candidate k; consensus
across criteria picks the final k.

Degenerate geometry (zero within-cluster scatter, coincident centroids)
yields +/-infinity sentinel scores and a :class:`DegenerateResultWarning`
rather than an exception.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from ._json import FieldDict
from .cluster import (
    Partition,
    _assign_at_each_k,
    _canonical_ids,
    _kmeans_arrays,
    _pairwise_sq,
    _scatter,
    _sq_dist,
    _ward_merge_steps,
)
# Not called here; kept importable as kst.quality.agglomerative_ward, the
# name under which perfbench's tracer patches it.
from .cluster import agglomerative_ward  # noqa: F401
from .dataset import MetricTable
from .errors import KstError
from .rng import DEFAULT_SEED, subseed, substream

CLUSTER_METHODS = ("agglomerative", "kmeans")
MAXIMIZED_CRITERIA = ("silhouette", "calinski_harabasz", "dunn", "bic")
MINIMIZED_CRITERIA = ("davies_bouldin",)
DEFAULT_CRITERIA = ("silhouette", "calinski_harabasz", "dunn", "gap")
ALL_CRITERIA = DEFAULT_CRITERIA + ("davies_bouldin", "bic")


class DegenerateResultWarning(UserWarning):
    """A quality score hit a degenerate case and was reported as a sentinel."""


def _check_partition(m: MetricTable, p: Partition) -> np.ndarray:
    if set(p.labels) != set(m.rows):
        raise KstError("partition labels do not match table rows")
    return np.array([p.labels[lab] for lab in m.rows], dtype=int)


def _centroids(x: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    return np.array([x[assign == c].mean(axis=0) for c in range(k)])


def _centroid_distances(m: MetricTable, p: Partition) -> np.ndarray:
    """Euclidean distances between the partition's centroids, k x k."""
    cents = _centroids(m.data, _check_partition(m, p), p.k)
    return np.sqrt(_pairwise_sq(cents))


def compactness(m: MetricTable, p: Partition) -> list[float]:
    """Mean member-to-centroid distance per cluster, ordered by cluster id."""
    assign = _check_partition(m, p)
    cents = _centroids(m.data, assign, p.k)
    d = np.sqrt(_sq_dist(m.data, cents[assign]))
    return [float(d[assign == c].mean()) for c in range(p.k)]


def separation(m: MetricTable, p: Partition) -> float:
    """Mean Euclidean distance over unordered centroid pairs."""
    if p.k < 2:
        raise KstError("separation requires at least 2 clusters")
    return float(np.mean(_centroid_distances(m, p)[np.triu_indices(p.k, 1)]))


def sum_of_squares(m: MetricTable, p: Partition) -> tuple[float, float]:
    """(between-group, within-group) sums of squares; they add to the total
    sum of squared distances from the global mean."""
    assign = _check_partition(m, p)
    cents = _centroids(m.data, assign, p.k)
    grand = np.asfortranarray(m.data).mean(axis=0)  # the same sums on every layout
    counts = np.bincount(assign, minlength=p.k)
    bgss = float((counts * ((cents - grand) ** 2).sum(axis=1)).sum())
    return bgss, float(_scatter(m.data, cents[None], assign[None])[0])


@dataclass(frozen=True)
class QualityReport(FieldDict):
    """Descriptive statistics of one partition."""

    compactness: tuple[float, ...]
    separation: float | None
    sizes: tuple[int, ...] = ()
    compactness_ratio: float | None = None  # cluster 1 / cluster 0, two-cluster case
    bgss: float = 0.0
    wgss: float = 0.0


def quality_report(m: MetricTable, p: Partition) -> QualityReport:
    comp = compactness(m, p)
    sep = separation(m, p) if p.k >= 2 else None
    bgss, wgss = sum_of_squares(m, p)
    ratio = None
    if p.k == 2 and comp[0] > 0:
        ratio = comp[1] / comp[0]
    return QualityReport(
        compactness=tuple(comp),
        separation=sep,
        sizes=tuple(p.sizes()),
        compactness_ratio=ratio,
        bgss=bgss,
        wgss=wgss,
    )


@dataclass(frozen=True)
class RatioReport(FieldDict):
    """Two-cluster compactness ratios per method plus cross-method spreads."""

    ratios: dict[str, float]       # method -> compactness[1] / compactness[0]
    separations: dict[str, float]  # method -> separation
    compactness_relative: float    # max(ratio) / min(ratio) across methods
    separation_relative: float     # max(separation) / min(separation)


def ratio_report(reports: Mapping[str, QualityReport]) -> RatioReport:
    """Compare two-cluster quality reports across clustering methods."""
    if not reports:
        raise KstError("ratio_report needs at least one quality report")
    ratios, seps = {}, {}
    for method, qr in reports.items():
        if len(qr.compactness) != 2:
            raise KstError(f"report for {method!r} does not have exactly 2 clusters")
        if qr.compactness[0] == 0:
            raise KstError(f"report for {method!r} has zero compactness for cluster 0")
        if qr.separation is None:
            raise KstError(f"report for {method!r} has no separation value")
        ratios[method] = qr.compactness[1] / qr.compactness[0]
        seps[method] = qr.separation
    if min(seps.values()) <= 0:
        raise KstError("separation must be positive to compare across methods")
    if min(ratios.values()) <= 0:
        raise KstError("compactness ratios must be positive to compare across methods")
    return RatioReport(
        ratios=ratios,
        separations=seps,
        compactness_relative=max(ratios.values()) / min(ratios.values()),
        separation_relative=max(seps.values()) / min(seps.values()),
    )


def _distances(m: MetricTable) -> np.ndarray:
    """Euclidean distances between the table's rows, n x n."""
    return np.sqrt(_pairwise_sq(m.data))


def silhouette(m: MetricTable, p: Partition, *, _dmat: np.ndarray | None = None) -> float:
    """Mean silhouette coefficient over all points.

    Classic point-to-point form: a(i) is the mean distance to the other
    members of i's cluster, b(i) the smallest mean distance to any other
    cluster. Singletons score 0. ``_dmat`` is private to :func:`select_k`:
    ``m``'s distance matrix, built once for every k.
    """
    n = len(m.rows)
    if not 2 <= p.k <= n - 1:
        raise KstError(f"silhouette requires 2 <= k <= {n - 1}, got k={p.k}")
    assign = _check_partition(m, p)
    dmat = _distances(m) if _dmat is None else _dmat
    counts = np.bincount(assign, minlength=p.k)
    # sum of distances from each point to every cluster
    sums = np.zeros((n, p.k))
    for c in range(p.k):
        sums[:, c] = dmat[:, assign == c].sum(axis=1)

    rows = np.arange(n)
    size = counts[assign]
    mean_to = sums / counts
    mean_to[rows, assign] = np.inf
    b = mean_to.min(axis=1)  # nearest other cluster
    with np.errstate(divide="ignore", invalid="ignore"):  # singletons divide 0 by 0
        a = sums[rows, assign] / (size - 1)
        denom = np.maximum(a, b)
        scores = np.where((size == 1) | (denom == 0), 0.0, (b - a) / denom)
    return float(scores.mean())


def calinski_harabasz(m: MetricTable, p: Partition) -> float:
    """(BGSS / (k-1)) / (WGSS / (n-k)); +inf when the partition is exact."""
    n = len(m.rows)
    if not 2 <= p.k <= n - 1:
        raise KstError(f"calinski_harabasz requires 2 <= k <= {n - 1}, got k={p.k}")
    bgss, wgss = sum_of_squares(m, p)
    if wgss == 0:
        warnings.warn("WGSS is zero; Calinski-Harabasz reported as +inf",
                      DegenerateResultWarning, stacklevel=2)
        return math.inf
    return (bgss / (p.k - 1)) / (wgss / (n - p.k))


def dunn_index(m: MetricTable, p: Partition, *, _dmat: np.ndarray | None = None) -> float:
    """Smallest between-cluster point distance over largest cluster diameter.
    ``_dmat`` is private to :func:`select_k`, as for :func:`silhouette`."""
    if p.k < 2:
        raise KstError("dunn_index requires at least 2 clusters")
    assign = _check_partition(m, p)
    dmat = _distances(m) if _dmat is None else _dmat
    same = assign[:, None] == assign[None, :]
    diameter = float((dmat * same).max())
    if diameter == 0:
        warnings.warn("all clusters have zero diameter; Dunn reported as +inf",
                      DegenerateResultWarning, stacklevel=2)
        return math.inf
    inter = dmat[~same]
    return float(inter.min()) / diameter


def davies_bouldin(m: MetricTable, p: Partition) -> float:
    """Average worst-case (S_i + S_j) / centroid distance; lower is better."""
    if p.k < 2:
        raise KstError("davies_bouldin requires at least 2 clusters")
    gap = _centroid_distances(m, p)
    np.fill_diagonal(gap, np.inf)  # a cluster is not compared with itself
    if (gap == 0).any():
        warnings.warn("coincident centroids; Davies-Bouldin reported as +inf",
                      DegenerateResultWarning, stacklevel=2)
        return math.inf
    scatter = np.array(compactness(m, p))
    worst = ((scatter[:, None] + scatter[None, :]) / gap).max(axis=1)
    return float(np.mean(worst))


def bic_score(m: MetricTable, p: Partition) -> float:
    """Spherical-Gaussian BIC of a partition; higher is better. Experimental.

    Uses the identical-spherical-variance mixture formulation with pooled
    variance WGSS / (n - k) and (k - 1) + k*d + 1 free parameters. Zero
    pooled variance (k = n, or duplicate-only clusters) is reported as -inf
    so degenerate partitions are never preferred.
    """
    n, d = m.data.shape
    assign = _check_partition(m, p)
    _, wgss = sum_of_squares(m, p)
    if n <= p.k or wgss <= 0:
        warnings.warn("zero pooled variance; BIC reported as -inf",
                      DegenerateResultWarning, stacklevel=2)
        return -math.inf
    sigma2 = wgss / (n - p.k)
    counts = np.bincount(assign, minlength=p.k)
    ll = (
        float((counts * np.log(counts)).sum())
        - n * math.log(n)
        - (n * d / 2.0) * math.log(2.0 * math.pi * sigma2)
        - (n - p.k) / 2.0
    )
    params = (p.k - 1) + p.k * d + 1
    return ll - (params / 2.0) * math.log(n)


@dataclass(frozen=True)
class GapCurve(FieldDict):
    """Gap statistic per k with its simulation standard error."""

    ks: tuple[int, ...] = field(metadata={"json": "k"})
    gap: tuple[float, ...]
    s: tuple[float, ...]
    log_w: tuple[float, ...]
    log_w_ref: tuple[float, ...]
    dropped_features: tuple[str, ...] = ()


def _labels_for(x: np.ndarray, ks: Sequence[int], method: str, seed: int,
                n_init: int, max_iter: int, *stream_key: int) -> dict[int, np.ndarray]:
    """Cluster ``x`` once per k with the requested method: one Ward run cut
    at every k, or one k-means fit per k on sub-stream (seed, *stream_key, k).
    Cluster ids are 0..k-1, every one of them used."""
    if method == "agglomerative":
        return _assign_at_each_k(_ward_merge_steps(x), x.shape[0], ks)
    return {k: _kmeans_arrays(x, k, subseed(seed, *stream_key, k), n_init, max_iter,
                              history=False)[0]
            for k in ks}


def _log_dispersion(x: np.ndarray, labels: np.ndarray, k: int) -> float:
    # W_k, the pooled within-cluster dispersion: the sum over clusters of
    # (1 / 2n_r) * their pairwise squared distances, which is the scatter
    # around the cluster means
    w = float(_scatter(x, _centroids(x, labels, k)[None], labels[None])[0])
    if w <= 0.0:
        raise KstError(
            f"within-cluster dispersion is zero at k={k}; duplicate rows "
            f"(or all-constant features) make the gap statistic undefined"
        )
    return math.log(w)


def _cpu_count() -> int:
    """The CPUs this process may run on: its CPU affinity, capped by the CPU
    quotas of its cgroup; 1 where the platform cannot say
    (``os.sched_getaffinity`` exists on Linux only)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min([len(os.sched_getaffinity(0)), *_cpu_quotas()])


def _cpu_quotas(cgroup: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> list[int]:
    """The CPUs that the cgroup v2 ``cpu.max`` quota of this process's cgroup
    and of each of its ancestors allows, rounded up; a cgroup without a
    quota, or whose quota cannot be read, adds none (cgroup v1 adds none)."""
    try:
        with open(cgroup) as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
    except (OSError, StopIteration):
        return []
    parts = [part for part in path.split("/") if part not in ("", "..")]
    quotas = []
    for depth in range(len(parts) + 1):
        try:
            with open(os.path.join(root, *parts[:depth], "cpu.max")) as fh:
                quota, period = fh.read().split()
            if quota != "max":
                quotas.append(max(1, math.ceil(int(quota) / int(period))))
        except (OSError, ValueError, ZeroDivisionError):
            pass
    return quotas


def _outcomes(fit: Callable[[int], Any], indices: Iterable[int]) -> list[tuple]:
    """(index, warnings, result, error) for each index in turn, up to and
    including the first that raises; the warnings of each fit are recorded
    through the filters in force, as (message, category, filename, lineno)."""
    out = []
    for i in indices:
        with warnings.catch_warnings(record=True) as caught:
            try:
                result, error = fit(i), None
            except Exception as exc:  # raised again by _fit_all, in index order
                result, error = None, exc
        out.append((i, [(w.message, w.category, w.filename, w.lineno) for w in caught],
                    result, error))
        if error is not None:
            break
    return out


def _fit_stride(fit: Callable[[int], Any], indices: range, pipe: int) -> NoReturn:
    # the body of a forked child: pickle the outcomes down the pipe, then end
    # without unwinding into the parent's stack or running its exit handlers
    status = 1
    try:
        with open(pipe, "wb") as fh:
            pickle.dump(_outcomes(fit, indices), fh)
        status = 0
    finally:
        os._exit(status)


_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def _fit_all(fit: Callable[[int], Any], count: int) -> list:
    """``[fit(i) for i in range(count)]``, spread over w = min(CPUs, count)
    processes: this one fits indices 0::w and w - 1 forked children fit
    i::w, each pickling its outcomes down a pipe.

    The caller sees what a loop in one process gives, whatever w is: the
    results in index order, the error of the lowest failing index, and the
    warnings of each fit replayed into this process's warnings machinery in
    index order. ``fit`` must not depend on which process runs it. Every
    child is waited for before this returns or raises; a child that ends
    without a result is a RuntimeError.

    A child of a process with threads holds only the thread that forked it,
    and would hang on a lock that another thread held at the fork; this call
    would then wait for it for ever. So while any other Python thread runs,
    w is 1. Native threads, such as a BLAS pool, run no Python code, and
    OpenBLAS (numpy's BLAS) stops its pool in its own fork handler.
    """
    w = 1 if threading.active_count() > 1 else min(_cpu_count(), count)
    strides = [0]  # the strides this process fits
    children: dict[int, int] = {}  # pid -> its stride, until waited for
    pipes: dict[int, int] = {}  # pid -> the read end of its pipe, until opened
    outcomes = []
    try:
        for start in range(1, w):
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns of every fork while native threads
                    # run (see above); the child only fits and ends
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process to spare: fit the stride here
                os.close(read)
                os.close(write)
                strides.append(start)
                continue
            if pid == 0:
                _fit_stride(fit, range(start, count, w), write)
            os.close(write)
            children[pid], pipes[pid] = start, read
        outcomes += _outcomes(fit, sorted(i for s in strides for i in range(s, count, w)))
        for pid, start in list(children.items()):
            with open(pipes.pop(pid), "rb") as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status or not data:
                raise RuntimeError(f"the process fitting indices {start}::{w} ended "
                                   f"without a result (exit code {status})")
            outcomes += pickle.loads(data)
    finally:
        for read in pipes.values():
            os.close(read)  # a child still writing then fails and ends
        for pid in children:
            os.waitpid(pid, 0)

    results = []
    registry: dict = {}  # "default" filters show a repeated warning once, as in one loop
    for _, caught, result, error in sorted(outcomes, key=lambda o: o[0]):
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
        if error is not None:
            raise error
        results.append(result)
    return results


def gap_statistic(
    m: MetricTable,
    method: str = "kmeans",
    k_max: int = 8,
    b: int = 50,
    seed: int = DEFAULT_SEED,
    *,
    k_min: int = 1,
    n_init: int = 10,
    max_iter: int = 300,
    _labels: Mapping[int, np.ndarray] | None = None,
) -> GapCurve:
    """Gap statistic over k_min..k_max with ``b`` uniform reference datasets.

    References are drawn uniformly over each feature's observed [min, max];
    features with a degenerate range are generated as constants (they add
    nothing to any distance) and reported in ``dropped_features``. The whole
    curve is a deterministic function of (table, method, parameters, seed).
    On Linux the references are fitted in as many processes as there are
    CPUs this process may run on (its affinity, capped by its cgroup's CPU
    quota), at most ``b``; elsewhere, and while other Python threads run, in
    this process (see :func:`_fit_all`). The curve does not depend on the
    count. Peak memory grows by about one reference fit's working set per
    process: for Ward the n x n distance matrix, n**2 * 8 bytes (32 MB at
    2,000 rows).
    ``_labels`` is private to :func:`select_k`: the labels of ``m`` per k
    that it has already computed, as ``_labels_for`` gives them for stream
    key 1.
    """
    if method not in CLUSTER_METHODS:
        raise KstError(f"unknown clustering method {method!r}")
    n = len(m.rows)
    if not 1 <= k_min <= k_max <= n - 1:
        raise KstError(
            f"need 1 <= k_min <= k_max <= {n - 1} (within-cluster dispersion "
            f"vanishes at k = n), got {k_min}..{k_max}"
        )
    if b < 2:
        raise KstError(f"gap statistic needs at least 2 reference datasets, got {b}")
    x = m.data
    ks = list(range(k_min, k_max + 1))

    lo, hi = x.min(axis=0), x.max(axis=0)
    degenerate = [m.columns[j].name for j in range(x.shape[1]) if lo[j] == hi[j]]
    if degenerate:
        warnings.warn(
            f"features with a single observed value are constant in the gap "
            f"reference distribution: {degenerate}",
            DegenerateResultWarning, stacklevel=2,
        )

    rng = substream(seed, 0)
    refs = [rng.uniform(lo, hi, size=x.shape) for _ in range(b)]

    labels_data = _labels if _labels is not None else _labels_for(
        x, ks, method, seed, n_init, max_iter, 1)
    log_w = [_log_dispersion(x, labels_data[k], k) for k in ks]

    def fit_reference(bi: int) -> list[float]:
        labels_ref = _labels_for(refs[bi], ks, method, seed, n_init, max_iter, 2, bi)
        return [_log_dispersion(refs[bi], labels_ref[k], k) for k in ks]

    log_w_ref = np.array(_fit_all(fit_reference, b))

    ref_mean = log_w_ref.mean(axis=0)
    gap = ref_mean - np.array(log_w)
    s = log_w_ref.std(axis=0) * math.sqrt(1.0 + 1.0 / b)  # population std
    return GapCurve(
        ks=tuple(ks),
        gap=tuple(float(g) for g in gap),
        s=tuple(float(v) for v in s),
        log_w=tuple(log_w),
        log_w_ref=tuple(float(v) for v in ref_mean),
        dropped_features=tuple(degenerate),
    )


def _gap_rule_k(curve: GapCurve) -> tuple[int, bool]:
    """(smallest k with Gap(k) >= Gap(k+1) - s(k+1), True), or (k_max, False)
    when none qualifies."""
    for i in range(len(curve.ks) - 1):
        if curve.gap[i] >= curve.gap[i + 1] - curve.s[i + 1]:
            return curve.ks[i], True
    return curve.ks[-1], False


def tibshirani_select(curve: GapCurve) -> int:
    """Smallest k with Gap(k) >= Gap(k+1) - s(k+1); k_max when none qualifies."""
    if len(curve.ks) < 2:
        raise KstError("the gap selection rule needs at least 2 curve points")
    return _gap_rule_k(curve)[0]


@dataclass(frozen=True)
class CriterionResult(FieldDict):
    scores: dict[int, float]            # ascending k
    selected_k: int
    note: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "scores", dict(sorted(self.scores.items())))


@dataclass(frozen=True)
class KSelectionReport(FieldDict):
    """Per-criterion scores and selections plus the consensus k."""

    criteria: dict[str, CriterionResult]
    consensus_k: int
    gap_curve: GapCurve | None = field(default=None, metadata={"json": "gap"})


def _criterion_domain(name: str, n: int, ks: Sequence[int]) -> list[int]:
    if name in ("silhouette", "calinski_harabasz"):
        return [k for k in ks if 2 <= k <= n - 1]
    if name in ("dunn", "davies_bouldin"):
        return [k for k in ks if 2 <= k <= n]
    return [k for k in ks if 1 <= k <= n]  # bic


@contextmanager
def _degenerate_notes() -> Iterator[list[str]]:
    """The messages of the DegenerateResultWarnings raised in the block, in
    order, instead of printing them; other warnings pass on."""
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateResultWarning)
        yield notes
    for w in caught:
        if issubclass(w.category, DegenerateResultWarning):
            notes.append(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def select_k(
    m: MetricTable,
    method: str = "agglomerative",
    criteria: Iterable[str] = DEFAULT_CRITERIA,
    k_range: Iterable[int] = range(1, 9),
    seed: int = DEFAULT_SEED,
    *,
    gap_b: int = 50,
    n_init: int = 10,
    max_iter: int = 300,
) -> KSelectionReport:
    """Evaluate the chosen criteria over candidate cluster counts.

    Each criterion is scored on the k values where it is defined (the
    silhouette, for example, skips k=1 and k=n) and picks its best k; ties go
    to the smaller k. The consensus is the mode of the per-criterion picks,
    again resolved toward smaller k. A degenerate score (a sentinel with a
    :class:`DegenerateResultWarning`) is recorded in its criterion's note
    with the k it occurred at, instead of being warned about.
    """
    if method not in CLUSTER_METHODS:
        raise KstError(f"unknown clustering method {method!r}")
    criteria = list(criteria)
    if not criteria:
        raise KstError("criteria must be non-empty")
    unknown = [c for c in criteria if c not in ALL_CRITERIA]
    if unknown:
        raise KstError(f"unknown criteria {unknown}; expected a subset of {list(ALL_CRITERIA)}")
    if len(set(criteria)) != len(criteria):
        raise KstError("criteria contains duplicates")
    n = len(m.rows)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise KstError("k_range is empty")
    if ks[0] < 1 or ks[-1] > n:
        raise KstError(f"k_range must stay within 1..{n}, got {ks[0]}..{ks[-1]}")

    # One clustering of m per k serves the partitions the criteria score and
    # the gap statistic's data labels: Ward runs once, k-means once per k.
    needed = set()
    for name in criteria:
        if name != "gap":
            needed.update(_criterion_domain(name, n, ks))
    gap_ks = [k for k in ks if k <= n - 1]  # dispersion vanishes at k = n
    fit_ks = sorted(needed.union(gap_ks if "gap" in criteria and len(gap_ks) >= 2 else ()))
    labels = _labels_for(m.data, fit_ks, method, seed, n_init, max_iter, 1) if fit_ks else {}
    partitions = {k: Partition(_canonical_ids(m.rows, labels[k].tolist(), k)[0], k)
                  for k in needed}

    score_fn = {
        "silhouette": silhouette,
        "calinski_harabasz": calinski_harabasz,
        "dunn": dunn_index,
        "davies_bouldin": davies_bouldin,
        "bic": bic_score,
    }

    results: dict[str, CriterionResult] = {}
    gap_curve = None
    # the data's distance matrix, built once for silhouette and dunn and let go
    # after the last of them, so that the default order fits the gap statistic's
    # references without it
    dmat = None
    last_dmat = max((i for i, c in enumerate(criteria) if c in ("silhouette", "dunn")),
                    default=-1)
    for i, name in enumerate(criteria):
        if name == "gap":
            if len(gap_ks) < 2:
                results[name] = CriterionResult(
                    scores={}, selected_k=gap_ks[0] if gap_ks else ks[0],
                    note="single candidate k; gap rule not evaluated",
                )
                continue
            with _degenerate_notes() as notes:
                gap_curve = gap_statistic(
                    m, method, gap_ks[-1], gap_b, seed,
                    k_min=gap_ks[0], n_init=n_init, max_iter=max_iter,
                    _labels=labels,
                )
            picked, satisfied = _gap_rule_k(gap_curve)
            if not satisfied:
                notes.append("no k satisfied the gap rule; largest candidate reported")
            results[name] = CriterionResult(
                scores=dict(zip(gap_curve.ks, gap_curve.gap)),
                selected_k=picked,
                note="; ".join(notes) or None,
            )
            continue
        domain = _criterion_domain(name, n, ks)
        if not domain:
            raise KstError(f"criterion {name!r} is not defined on any k in {ks}")
        shared = {}
        if name in ("silhouette", "dunn"):
            dmat = shared["_dmat"] = _distances(m) if dmat is None else dmat
        scores, degenerate = {}, {}
        for k in domain:
            with _degenerate_notes() as notes:
                scores[k] = float(score_fn[name](m, partitions[k], **shared))
            for message in notes:
                degenerate.setdefault(message, []).append(str(k))
        if name in MINIMIZED_CRITERIA:
            best = min(scores.items(), key=lambda kv: (kv[1], kv[0]))
        else:
            best = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        note = "; ".join(f"{msg} (k={','.join(at)})" for msg, at in degenerate.items())
        results[name] = CriterionResult(scores=scores, selected_k=best[0], note=note or None)
        if i == last_dmat:
            dmat, shared = None, {}

    picks = [r.selected_k for r in results.values()]
    counts: dict[int, int] = {}
    for k in picks:
        counts[k] = counts.get(k, 0) + 1
    consensus = min(k for k, c in counts.items() if c == max(counts.values()))
    return KSelectionReport(criteria=results, consensus_k=consensus, gap_curve=gap_curve)
