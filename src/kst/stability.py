"""Problem-size stability: where does a kernel's metric profile settle?

For one kernel measured at several problem sizes, adjacent sizes are compared
metric by metric as a percent difference. A kernel is stable from the
smallest size onward at which every subsequent adjacent pair stays below the
threshold (default 5%). Kernels whose last pair still exceeds the threshold
never stabilize and are annotated with that residual difference instead.

Cache-size reference lines (for plots of the size histogram) are user
supplied, never baked in: hardware cache capacities are inputs, not
constants of this analysis.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from ._json import FieldDict
from .dataset import RawSample, TrialGroups, check_kind_ranges, descriptor_for, trial_groups
from .errors import KstError

REL_BASES = ("larger", "smaller", "symmetric")
DEFAULT_THRESHOLD_PCT = 5.0


def _pct_diff(v_small: float, v_large: float, rel_base: str) -> float:
    """Percent difference between a metric at adjacent sizes.

    ``rel_base`` picks the denominator: the value at the larger size (the
    default), at the smaller size, or the mean of the two magnitudes.
    """
    if rel_base == "larger":
        denom = abs(v_large)
    elif rel_base == "smaller":
        denom = abs(v_small)
    else:
        denom = (abs(v_small) + abs(v_large)) / 2.0
    diff = abs(v_small - v_large)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return 100.0 * diff / denom


@dataclass(frozen=True)
class StabilityReport(FieldDict):
    """Adjacent-size percent differences and the stabilization point."""

    kernel: str
    platform: str
    sizes: tuple[int, ...]              # ascending
    pair_diff_pct: tuple[float, ...]    # max over metrics, one per adjacent pair
    min_stable_size: int | None         # None when never stable
    worst_residual_pct: float           # last pair's difference
    threshold_pct: float
    rel_base: str


def _check_options(metrics: Sequence[str], threshold_pct: float, rel_base: str) -> list[str]:
    if threshold_pct <= 0:
        raise KstError(f"threshold_pct must be positive, got {threshold_pct}")
    if not math.isfinite(threshold_pct):
        raise KstError(f"threshold_pct must be finite, got {threshold_pct}")
    if rel_base not in REL_BASES:
        raise KstError(f"rel_base must be one of {REL_BASES}, got {rel_base!r}")
    metrics = list(metrics)
    if not metrics:
        raise KstError("metrics must be non-empty")
    return metrics


def stability_series(
    samples: Iterable[RawSample],
    metrics: Sequence[str],
    threshold_pct: float = DEFAULT_THRESHOLD_PCT,
    rel_base: str = "larger",
) -> StabilityReport:
    """Per-size-pair percent differences for one kernel.

    ``samples`` must all belong to one (kernel, platform); repeated trials
    are averaged internally, so the result does not depend on trial order or
    on duplicated identical samples. At least two distinct sizes are needed,
    and every requested metric must be present at every size, its trial
    means in the range its kind allows (:func:`~kst.dataset.check_kind_ranges`).
    """
    metrics = _check_options(metrics, threshold_pct, rel_base)
    samples = list(samples)
    if not samples:
        raise KstError("no samples supplied")
    idents = {(s.kernel, s.platform) for s in samples}
    if len(idents) > 1:
        raise KstError(f"samples span multiple kernels/platforms: {sorted(idents)}")
    (report,) = kernel_reports(trial_groups(samples), metrics, threshold_pct, rel_base)
    return report


def kernel_reports(
    groups: TrialGroups, metrics: Sequence[str], threshold_pct: float, rel_base: str
) -> list[StabilityReport]:
    """One report per kernel of one platform's trial-averaged groups, in
    kernel order; checks and errors as :func:`stability_series` per kernel."""
    metrics = _check_options(metrics, threshold_pct, rel_base)
    columns = [descriptor_for(m) for m in metrics]
    kernels, platforms, all_sizes = groups.labels()
    absent = np.zeros(len(groups), dtype=bool)
    means = [groups.values[m].tolist() if m in groups.values else None for m in metrics]
    has = [groups.present.get(m, absent).tolist() for m in metrics]
    starts = [g for g in range(len(kernels)) if not g or kernels[g] != kernels[g - 1]]
    reports = []
    for lo, hi in zip(starts, starts[1:] + [len(kernels)]):
        groups.check_consistent(lo, hi)
        name = kernels[lo]
        sizes = all_sizes[lo:hi]
        if len(sizes) < 2:
            raise KstError(f"kernel {name!r} needs at least 2 distinct sizes, got {len(sizes)}")
        for g, at in zip(range(lo, hi), sizes):
            missing = [m for m, h in zip(metrics, has) if not h[g]]
            if missing:
                raise KstError(f"kernel {name!r} at {at} bytes is missing metrics {missing}")
        check_kind_ranges(columns, np.array([col[lo:hi] for col in means]).T)

        diffs = [max(_pct_diff(col[g], col[g + 1], rel_base) for col in means)
                 for g in range(lo, hi - 1)]
        min_stable = None
        for i in range(len(diffs)):
            if all(d < threshold_pct for d in diffs[i:]):
                min_stable = sizes[i]
                break
        reports.append(StabilityReport(
            kernel=name,
            platform=platforms[lo],
            sizes=tuple(sizes),
            pair_diff_pct=tuple(diffs),
            min_stable_size=min_stable,
            worst_residual_pct=diffs[-1],
            threshold_pct=threshold_pct,
            rel_base=rel_base,
        ))
    return reports


@dataclass(frozen=True)
class StabilitySummary(FieldDict):
    """Histogram of stabilization sizes across kernels."""

    histogram: dict[int, int]           # min_stable_size -> kernel count, ascending size
    never_stable: tuple[str, ...]       # kernels with no stabilization point
    annotations: dict[str, float]       # user-supplied reference sizes (e.g. caches)

    def __post_init__(self):
        object.__setattr__(self, "histogram", dict(sorted(self.histogram.items())))


def stability_summary(
    reports: Iterable[StabilityReport],
    annotations: Mapping[str, float] | None = None,
) -> StabilitySummary:
    """Histogram min_stable_size across kernels; annotations pass through."""
    histogram: dict[int, int] = {}
    never = []
    for r in reports:
        if r.min_stable_size is None:
            never.append(r.kernel)
        else:
            histogram[r.min_stable_size] = histogram.get(r.min_stable_size, 0) + 1
    return StabilitySummary(
        histogram=histogram,
        never_stable=tuple(sorted(never)),
        annotations=dict(annotations or {}),
    )


def write_stability_csv(reports: Iterable[StabilityReport],
                        dest: str | os.PathLike | IO[str]) -> None:
    """One row per kernel: kernel, min_stable_size_bytes, worst_residual_pct.
    ``dest`` is a path to write, or an open text file. A file this opens gets
    each lone surrogate of a kernel name (which UTF-8 cannot encode) as its
    ``\\ud800`` escape."""
    own = isinstance(dest, (str, os.PathLike))
    fh = (open(dest, "w", encoding="utf-8", errors="backslashreplace", newline="")
          if own else dest)
    try:
        writer = csv.writer(fh)
        writer.writerow(("kernel", "min_stable_size_bytes", "worst_residual_pct"))
        for r in reports:
            size = "" if r.min_stable_size is None else r.min_stable_size
            writer.writerow((r.kernel, size, repr(float(r.worst_residual_pct))))
    finally:
        if own:
            fh.close()
