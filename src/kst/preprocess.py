"""Column standardization with optional natural-log compression.

Metrics that span orders of magnitude (GPU transaction rates, instruction
rates) are log-transformed before standardization so that huge-valued
columns do not dominate Euclidean distances. Every retained column is then
shifted and scaled to zero mean and unit variance (population variance).
The fitted parameters are captured in a :class:`TransformSpec`, which
:func:`fit_transform` applies through :func:`apply_transform`: a replayed
table is the fitted one bit for bit, column-major layout included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from ._json import FieldDict, dumps, load_json
from .dataset import COUNT, RATE, SCORE, TIME, MetricDescriptor, MetricTable, moments
from .errors import KstError, ParseError

AUTO_LOG_RATIO = 100.0  # max/min above this triggers the log under the auto policy


@dataclass(frozen=True)
class ColumnTransform(FieldDict):
    """Fitted parameters for one column: optional log, then (v - mean) / std."""

    metric: str
    log: bool
    mean: float
    std: float

    def __post_init__(self):
        if not isinstance(self.metric, str):
            raise KstError(f"metric must be a string, got {self.metric!r}")
        if not isinstance(self.log, bool):
            raise KstError(f"log must be a boolean, got {self.log!r}")
        for name, value in (("mean", self.mean), ("std", self.std)):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise KstError(f"{name} must be a finite number, got {value!r}")
        if self.std <= 0:
            raise KstError(f"std must be positive, got {self.std!r}")


@dataclass(frozen=True)
class TransformSpec:
    """Per-column transform records, in table column order (retained columns only)."""

    columns: tuple[ColumnTransform, ...]

    def to_json(self) -> str:
        return dumps(self.columns) + "\n"

    @classmethod
    def from_json(cls, source: str | bytes | IO[str] | IO[bytes]) -> "TransformSpec":
        """Read :meth:`to_json` output from text, bytes (BOM skipped) or a file."""
        records = load_json(source, "transform spec JSON")
        if not isinstance(records, list):
            raise ParseError("transform spec must be a JSON array")
        cols = []
        for i, rec in enumerate(records):
            if not isinstance(rec, dict):
                raise ParseError(f"transform spec record {i}: expected an object, "
                                 f"got {type(rec).__name__}")
            try:
                cols.append(ColumnTransform(rec["metric"], rec["log"], rec["mean"], rec["std"]))
            except KeyError as exc:
                raise ParseError(f"transform spec record {i}: missing field {exc}") from None
            except (TypeError, OverflowError, KstError) as exc:  # a huge int overflows isfinite
                raise ParseError(f"transform spec record {i}: {exc}") from None
        return cls(tuple(cols))


def _resolve_log_columns(
    table: MetricTable, log_policy: str | Iterable[str], auto_ratio: float
) -> set[str]:
    if isinstance(log_policy, str):
        if log_policy == "none":
            return set()
        if log_policy != "auto":
            raise KstError(
                f"log_policy must be 'auto', 'none' or a list of metric names, got {log_policy!r}"
            )
        if auto_ratio <= 0:
            raise KstError(f"auto log ratio must be positive, got {auto_ratio}")
        if not math.isfinite(auto_ratio):
            raise KstError(f"auto log ratio must be finite, got {auto_ratio}")
        chosen = set()
        for j, col in enumerate(table.columns):
            # fractions are never log-compressed; unknown-kind columns are
            # left alone too (use an explicit list for those)
            if col.kind not in (RATE, COUNT, TIME):
                continue
            vals = table.data[:, j]
            lo, hi = float(vals.min()), float(vals.max())
            if lo > 0 and hi / lo > auto_ratio:
                chosen.add(col.name)
        return chosen

    names = list(log_policy)
    known = set(table.column_names)
    unknown = [n for n in names if n not in known]
    if unknown:
        raise KstError(f"log policy names metrics not in the table: {unknown}")
    for name in names:
        _check_log_target(table, name)
    return set(names)


def _check_log_target(table: MetricTable, name: str) -> None:
    bad = np.nonzero(table.column_values(name) <= 0)[0]
    if len(bad):
        raise KstError(
            f"log target column {name!r} has non-positive value at row {table.rows[bad[0]]!r}"
        )


def fit_transform(
    table: MetricTable,
    log_policy: str | Iterable[str] = "auto",
    *,
    auto_ratio: float = AUTO_LOG_RATIO,
) -> tuple[MetricTable, TransformSpec]:
    """Standardize a table column-wise; returns the table and the fitted spec.

    ``log_policy`` is ``"auto"`` (apply the natural log to strictly positive
    rate/count/time columns whose max/min exceeds ``auto_ratio``), ``"none"``,
    or an explicit iterable of metric names; ``auto_ratio`` must be finite
    and positive. Zero-variance columns are dropped and recorded in the
    output table's meta. The table is ``apply_transform(table, spec)``.
    """
    if not table.rows:
        raise KstError("cannot standardize an empty table")
    log_columns = _resolve_log_columns(table, log_policy, auto_ratio)

    # row-major, as the CLI's raw tables are: numpy's sums, and so the
    # moments' last bits, depend on the layout they read
    work = np.array(table.data, dtype=float, order="C")
    for j, col in enumerate(table.columns):
        if col.name in log_columns:
            work[:, j] = np.log(work[:, j])

    means, stds = moments(work, axis=0)  # population variance, finite on finite columns
    keep = [j for j in range(work.shape[1]) if stds[j] > 0.0]
    if not keep:
        raise KstError("all columns have zero variance; nothing to standardize")
    spec = TransformSpec(tuple(
        ColumnTransform(table.columns[j].name, table.columns[j].name in log_columns,
                        float(means[j]), float(stds[j]))
        for j in keep
    ))
    out = apply_transform(table, spec)
    out.meta["log_metrics"] = ",".join(sorted(log_columns))
    out.meta["dropped_zero_variance"] = ",".join(
        table.columns[j].name for j in range(work.shape[1]) if stds[j] == 0.0)
    return out, spec


def apply_transform(table: MetricTable, spec: TransformSpec) -> MetricTable:
    """Apply a fitted spec to a table whose columns cover the spec's metrics.

    Output has exactly the spec's columns in spec order, stored
    column-major. Applying a spec to the table it was fitted on reproduces
    :func:`fit_transform` output, data and layout.
    """
    names = set(table.column_names)
    missing = [c.metric for c in spec.columns if c.metric not in names]
    if missing:
        raise KstError(f"table is missing metrics required by the spec: {missing}")
    if not spec.columns:
        raise KstError("transform spec has no columns")

    out = np.empty((len(table.rows), len(spec.columns)), dtype=float, order="F")
    columns = []
    for j, ct in enumerate(spec.columns):
        vals = np.array(table.column_values(ct.metric), dtype=float)
        if ct.log:
            _check_log_target(table, ct.metric)
            vals = np.log(vals)
        out[:, j] = (vals - ct.mean) / ct.std
        src = table.columns[table.column_names.index(ct.metric)]
        columns.append(MetricDescriptor(ct.metric, SCORE, src.platform, "z-score"))
    meta = dict(table.meta)
    meta["space"] = "standardized"
    return MetricTable(table.rows, tuple(columns), out, meta)
