"""Family similarity of kernels by Euclidean distance.

Smaller distance means more similar behavior. :func:`family_similarity`
compares one kernel with a glob-defined family of rows and with the closest
row outside it; equal distances are broken by lexicographic label order.
:func:`geometric_mean` summarizes such ``relative`` ratios across targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterable

import numpy as np

from .cluster import _sq_dist
from .dataset import VARIANT_SEPARATOR, MetricTable
from .errors import KstError


@dataclass(frozen=True)
class FamilyReport:
    """Distance summary of a target kernel against a family of related rows.

    ``relative`` is the distance to the closest kernel outside the family
    divided by the average distance to family rows: values above 1 mean the
    family really is closer than anything else. When ``relative`` is not
    supplied it is derived from the other fields.
    """

    target: str
    self_family_avg: float | None   # avg distance to same-kernel size variants
    counterpart_avg: float | None   # avg distance to the rest of the family
    family_avg: float               # avg distance to all family rows (target excluded)
    closest_other: tuple[str, float]
    relative: float | None = None
    meta: dict[str, str] = field(default_factory=lambda: {"family_weighting": "equal"})

    def __post_init__(self):
        if self.family_avg <= 0:
            raise KstError(f"family_avg must be positive, got {self.family_avg}")
        if self.relative is None:
            object.__setattr__(self, "relative", self.closest_other[1] / self.family_avg)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "self_family_avg": self.self_family_avg,
            "counterpart_avg": self.counterpart_avg,
            "family_avg": self.family_avg,
            "closest_other": {"label": self.closest_other[0], "distance": self.closest_other[1]},
            "relative": self.relative,
            "meta": dict(self.meta),
        }


def _base_kernel(label: str) -> str:
    # the kernel of a size-variant label: "Apps_LTIMES@2" -> "Apps_LTIMES"
    return label.partition(VARIANT_SEPARATOR)[0]


def family_similarity(
    m: MetricTable, target: str, family_patterns: Iterable[str]
) -> FamilyReport:
    """Compare ``target`` against a glob-defined family of rows.

    The family is every row label matching any pattern (the target must
    match too). ``self_family_avg`` covers rows that are size variants of
    the target's own kernel; ``counterpart_avg`` covers the remaining family
    rows. All averages weight rows equally and exclude the target itself.
    """
    patterns = list(family_patterns)
    if not patterns:
        raise KstError("family_patterns must be non-empty")
    i = m.index_of(target)
    family = [lab for lab in m.rows if any(fnmatchcase(lab, p) for p in patterns)]
    if target not in family:
        raise KstError(f"target {target!r} does not match any family pattern")
    others = [lab for lab in m.rows if lab not in family]
    if not others:
        raise KstError("family patterns cover every row; nothing to compare against")

    dists = dict(zip(m.rows, np.sqrt(_sq_dist(m.data, m.data[i]))))

    family_rows = [lab for lab in family if lab != target]
    if not family_rows:
        raise KstError("family contains only the target row")
    base = _base_kernel(target)
    self_rows = [lab for lab in family_rows if _base_kernel(lab) == base]
    counterpart_rows = [lab for lab in family_rows if _base_kernel(lab) != base]

    def avg(rows: list[str]) -> float | None:
        if not rows:
            return None
        return float(np.mean([dists[lab] for lab in rows]))

    closest = min((float(dists[lab]), lab) for lab in others)
    return FamilyReport(
        target=target,
        self_family_avg=avg(self_rows),
        counterpart_avg=avg(counterpart_rows),
        family_avg=avg(family_rows),
        closest_other=(closest[1], closest[0]),
    )


def geometric_mean(xs: Iterable[float]) -> float:
    """exp(mean(log xs)); all inputs must be finite and strictly positive."""
    xs = [float(x) for x in xs]
    if not xs:
        raise KstError("geometric_mean of an empty sequence")
    if not all(map(math.isfinite, xs)):
        raise KstError("geometric_mean requires finite values")
    if any(x <= 0 for x in xs):
        raise KstError("geometric_mean requires strictly positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))
