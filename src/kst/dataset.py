"""Ingest and shaping of hardware-metric profiles.

One input record (a "sample") is a single kernel execution: the identity
columns ``kernel, platform, problem_size_bytes, trial`` plus one column per
hardware metric. Samples arrive as CSV or JSON, are trial-averaged, may gain
derived GPU rate metrics, and are assembled into rectangular kernel x metric
tables ready for standardization and distance work.

CPU metrics are pipeline-slot fractions from top-down analysis and live in
[0, 1]. GPU profiles carry raw transaction/instruction counters plus the
kernel time; :func:`derive_gpu_rates` turns those into per-second rates while
keeping the raw counters for auditability.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import IO, Any, Iterable, Sequence

import numpy as np

from .errors import KstError, ParseError

# Metric kinds. The first four constrain the value range of raw tables;
# "score" is unconstrained and is used for standardized columns and for
# metrics this package has no prior knowledge of.
FRACTION = "fraction"  # values in [0, 1]
RATE = "rate"          # values >= 0
COUNT = "count"        # values >= 0
TIME = "time"          # values >= 0
SCORE = "score"        # any finite real
KINDS = (FRACTION, RATE, COUNT, TIME, SCORE)

PLATFORMS = ("cpu", "gpu")
IDENTITY_COLUMNS = ("kernel", "platform", "problem_size_bytes", "trial")

# Canonical metric names. Top-down fractions are stored as fractions in
# [0, 1]; rendering as percentages is a display concern.
CPU_TOPDOWN_METRICS = (
    "topdown.core_bound",
    "topdown.memory_bound",
    "topdown.fetch_latency",
    "topdown.fetch_bandwidth",
)
# Accepted on ingest but not part of the default CPU metric set.
CPU_EXTRA_TOPDOWN_METRICS = ("topdown.bad_speculation", "topdown.retiring")

GPU_TIME_METRIC = "gpu.time_sec"
GPU_COUNTER_METRICS = (
    "gpu.l1_transactions",
    "gpu.l2_transactions",
    "gpu.hbm_transactions",
    "gpu.warp_instructions",
)
GPU_RATE_METRICS = ("gpu.l1_rate", "gpu.l2_rate", "gpu.hbm_rate", "gpu.ips")
# raw counter feeding each derived rate
RATE_SOURCES = {
    "gpu.l1_rate": "gpu.l1_transactions",
    "gpu.l2_rate": "gpu.l2_transactions",
    "gpu.hbm_rate": "gpu.hbm_transactions",
    "gpu.ips": "gpu.warp_instructions",
}

DEFAULT_METRICS = {"cpu": CPU_TOPDOWN_METRICS, "gpu": GPU_RATE_METRICS}

ALL_SIZES = "all"  # size policy: one row per (kernel, problem size)


@dataclass(frozen=True)
class MetricDescriptor:
    """Schema entry for one metric column."""

    name: str
    kind: str
    platform: str  # "cpu", "gpu" or "any"
    unit: str

    def __post_init__(self):
        if not self.name:
            raise KstError("metric name must be non-empty")
        if self.kind not in KINDS:
            raise KstError(f"unknown metric kind {self.kind!r} for {self.name!r}")
        if self.platform not in PLATFORMS + ("any",):
            raise KstError(f"unknown platform {self.platform!r} for {self.name!r}")


_REGISTRY: dict[str, MetricDescriptor] = {}
for _name in CPU_TOPDOWN_METRICS + CPU_EXTRA_TOPDOWN_METRICS:
    _REGISTRY[_name] = MetricDescriptor(_name, FRACTION, "cpu", "fraction of pipeline slots")
_REGISTRY[GPU_TIME_METRIC] = MetricDescriptor(GPU_TIME_METRIC, TIME, "gpu", "s")
for _name in GPU_COUNTER_METRICS:
    _REGISTRY[_name] = MetricDescriptor(_name, COUNT, "gpu", "transactions")
_REGISTRY["gpu.warp_instructions"] = MetricDescriptor(
    "gpu.warp_instructions", COUNT, "gpu", "instructions"
)
for _name in GPU_RATE_METRICS:
    _REGISTRY[_name] = MetricDescriptor(_name, RATE, "gpu", "1/s")


def descriptor_for(name: str) -> MetricDescriptor:
    """Descriptor for a metric name; unknown names get an unconstrained one."""
    try:
        return _REGISTRY[name]
    except KeyError:
        return MetricDescriptor(name, SCORE, "any", "unspecified")


@dataclass(frozen=True)
class RawSample:
    """One profiled kernel execution.

    ``meta`` carries provenance notes (e.g. trial counts after aggregation)
    and is not part of the sample's identity key.
    """

    kernel: str
    platform: str
    problem_size_bytes: int
    trial: int
    values: dict[str, float]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.kernel:
            raise KstError("kernel name must be non-empty")
        if self.platform not in PLATFORMS:
            raise KstError(f"unknown platform {self.platform!r}")
        if not isinstance(self.problem_size_bytes, int) or self.problem_size_bytes <= 0:
            raise KstError(
                f"problem_size_bytes must be a positive integer, got {self.problem_size_bytes!r}"
            )
        if not isinstance(self.trial, int) or self.trial < 0:
            raise KstError(f"trial must be a non-negative integer, got {self.trial!r}")
        for name, value in self.values.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                raise KstError(f"metric {name!r} has non-finite value {value!r}")
        t = self.values.get(GPU_TIME_METRIC)
        if t is not None and t <= 0:
            raise KstError(f"{GPU_TIME_METRIC} must be strictly positive, got {t}")

    def key(self) -> tuple[str, str, int, int]:
        return (self.kernel, self.platform, self.problem_size_bytes, self.trial)


@dataclass(frozen=True, eq=False)
class MetricTable:
    """Rectangular kernel x metric matrix with column schema and provenance."""

    rows: tuple[str, ...]
    columns: tuple[MetricDescriptor, ...]
    data: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "columns", tuple(self.columns))
        data = np.array(self.data, dtype=float)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "meta", dict(self.meta))
        if data.ndim != 2 or data.shape != (len(self.rows), len(self.columns)):
            raise KstError(
                f"data shape {data.shape} does not match {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        if len(set(self.rows)) != len(self.rows):
            raise KstError("row labels must be unique")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise KstError("column names must be unique")
        if data.size and not np.isfinite(data).all():
            raise KstError("table contains non-finite values")
        for j, col in enumerate(self.columns):
            vals = data[:, j]
            if not len(vals):
                continue
            if col.kind == FRACTION and ((vals < 0).any() or (vals > 1).any()):
                raise KstError(f"fraction metric {col.name!r} has values outside [0, 1]")
            if col.kind in (RATE, COUNT, TIME) and (vals < 0).any():
                raise KstError(f"{col.kind} metric {col.name!r} has negative values")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index_of(self, label: str) -> int:
        try:
            return self.rows.index(label)
        except ValueError:
            raise KstError(f"unknown row label {label!r}") from None

    def column_values(self, name: str) -> np.ndarray:
        names = self.column_names
        if name not in names:
            raise KstError(f"unknown metric {name!r}")
        return self.data[:, names.index(name)]


@dataclass(frozen=True)
class TrialSpread:
    """Per-group trial statistics retained by :func:`aggregate_trials`."""

    kernel: str
    platform: str
    problem_size_bytes: int
    trials: int
    cv: dict[str, float]  # population std / |mean| per metric


def _as_text(source: str | bytes | IO[bytes] | IO[str]) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    if isinstance(source, str):
        return source
    raise KstError(f"unsupported input source type {type(source).__name__}")


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        # tolerate integral float spellings such as "1e6"
        try:
            f = float(text)
        except ValueError:
            raise ParseError(f"{what} is not an integer: {text!r}", line) from None
        if not math.isfinite(f) or f != int(f):
            raise ParseError(f"{what} is not an integer: {text!r}", line) from None
        return int(f)


def parse_samples(source: str | bytes | IO[bytes] | IO[str], fmt: str = "csv") -> list[RawSample]:
    """Parse raw samples from CSV or JSON.

    CSV layout: header ``kernel,platform,problem_size_bytes,trial,<metric>...``,
    one row per trial, UTF-8, "." decimal separator, scientific notation
    accepted. An empty metric cell means the metric was not measured for that
    row (this is how mixed CPU/GPU files are expressed). JSON input is an
    array of objects with the same field names; the metrics are further
    fields, a ``values`` object mapping metric names to numbers, or both.
    """
    text = _as_text(source)
    if fmt == "csv":
        samples = _parse_csv(text)
    elif fmt == "json":
        samples = _parse_json(text)
    else:
        raise KstError(f"unknown input format {fmt!r} (expected 'csv' or 'json')")
    dup = _duplicate_key(samples)
    if dup:
        first, i = dup
        raise ParseError(f"duplicate sample key {samples[i].key()!r} (records {first} and {i})")
    return samples


def _duplicate_key(samples: Sequence[RawSample]) -> tuple[int, int] | None:
    """Indices (first, i) of the earliest sample whose key repeats an earlier
    one, or None when every key is unique."""
    seen: dict[tuple, int] = {}
    for i, s in enumerate(samples):
        first = seen.setdefault(s.key(), i)
        if first != i:
            return first, i
    return None


def _parse_csv(text: str) -> list[RawSample]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input") from None
    header = [h.strip() for h in header]
    if tuple(header[: len(IDENTITY_COLUMNS)]) != IDENTITY_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(IDENTITY_COLUMNS)}, got {','.join(header)!r}", 1
        )
    metric_names = header[len(IDENTITY_COLUMNS):]
    if len(set(metric_names)) != len(metric_names) or any(m in IDENTITY_COLUMNS for m in metric_names):
        raise ParseError("duplicate column names in header", 1)
    samples = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(row)}", line)
        kernel = row[0].strip()
        platform = row[1].strip().lower()
        if platform not in PLATFORMS:
            raise ParseError(f"unknown platform {row[1]!r}", line)
        size = _parse_int(row[2].strip(), "problem_size_bytes", line)
        trial = _parse_int(row[3].strip(), "trial", line)
        values = {}
        for name, cell in zip(metric_names, row[len(IDENTITY_COLUMNS):]):
            cell = cell.strip()
            if not cell:
                continue  # metric not measured for this row
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"metric {name!r} is not a number: {cell!r}", line) from None
            if not math.isfinite(value):
                raise ParseError(f"metric {name!r} has non-finite value {cell!r}", line)
            values[name] = value
        try:
            samples.append(RawSample(kernel, platform, size, trial, values))
        except KstError as exc:
            raise ParseError(str(exc), line) from None
    return samples


def _json_int(value: Any, what: str, record: int) -> int:
    # the CSV rule: integers and integral floats pass; booleans do not
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return _parse_int(str(value), what, None)
        except ParseError:
            pass
    raise ParseError(f"record {record}: {what} is not an integer: {value!r}")


def _parse_json(text: str) -> list[RawSample]:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise ParseError("JSON input must be an array of objects")
    samples = []
    for i, obj in enumerate(doc):
        if not isinstance(obj, dict):
            raise ParseError(f"record {i}: expected an object")
        missing = [c for c in IDENTITY_COLUMNS if c not in obj]
        if missing:
            raise ParseError(f"record {i}: missing fields {missing}")
        platform = str(obj["platform"]).lower()
        if platform not in PLATFORMS:
            raise ParseError(f"record {i}: unknown platform {obj['platform']!r}")
        size = _json_int(obj["problem_size_bytes"], "problem_size_bytes", i)
        trial = _json_int(obj["trial"], "trial", i)
        # metrics are flat fields, or sit in a "values" object, or both
        fields = [(k, v) for k, v in obj.items() if k not in IDENTITY_COLUMNS]
        mapping = obj.get("values")
        if isinstance(mapping, dict):
            fields = [(k, v) for k, v in fields if k != "values"] + list(mapping.items())
        values = {}
        for name, value in fields:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParseError(f"record {i}: metric {name!r} is not a number: {value!r}")
            if name in values:
                raise ParseError(f"record {i}: metric {name!r} given twice")
            try:
                values[name] = float(value)
            except OverflowError:  # a JSON integer beyond the float range
                raise ParseError(f"record {i}: metric {name!r} is too large for a float") from None
        try:
            samples.append(RawSample(str(obj["kernel"]), platform, size, trial, values))
        except KstError as exc:
            raise ParseError(f"record {i}: {exc}") from None
    return samples


def derive_gpu_rates(sample: RawSample) -> RawSample:
    """Add transaction-per-second and instruction-per-second metrics.

    Each raw counter is divided by the kernel GPU time. Raw counters stay in
    the sample so derivations remain auditable.
    """
    if sample.platform != "gpu":
        raise KstError(f"derive_gpu_rates requires a gpu sample, got platform {sample.platform!r}")
    t = sample.values.get(GPU_TIME_METRIC)
    if t is None:
        raise KstError(f"sample {sample.kernel!r} is missing {GPU_TIME_METRIC}")
    missing = [c for c in GPU_COUNTER_METRICS if c not in sample.values]
    if missing:
        raise KstError(f"sample {sample.kernel!r} is missing counters {missing}")
    values = dict(sample.values)
    for rate, counter in RATE_SOURCES.items():
        count = sample.values[counter]
        if count < 0:
            raise KstError(f"counter {counter!r} must be non-negative, got {count}")
        values[rate] = count / t
    return replace(sample, values=values)


def aggregate_trials(samples: Iterable[RawSample]) -> tuple[list[RawSample], list[TrialSpread]]:
    """Average repeated trials of the same (kernel, platform, size).

    Returns one sample per group (trial number reset to 0, trial count noted
    in ``meta``) plus per-metric coefficients of variation for reporting.
    Groups are sorted by key, and trials are averaged in trial order, so the
    output does not depend on input ordering.
    """
    samples = list(samples)
    dup = _duplicate_key(samples)
    if dup:
        raise KstError(f"duplicate sample key {samples[dup[1]].key()!r}")
    groups: dict[tuple[str, str, int], list[RawSample]] = {}
    for s in samples:
        groups.setdefault((s.kernel, s.platform, s.problem_size_bytes), []).append(s)

    aggregated, spreads = [], []
    for key in sorted(groups):
        kernel, platform, size = key
        trials = sorted(groups[key], key=lambda s: s.trial)
        names = set(trials[0].values)
        for t in trials[1:]:
            if set(t.values) != names:
                raise KstError(
                    f"inconsistent metric sets across trials of {kernel!r} "
                    f"({platform}, {size} bytes)"
                )
        means, cv = {}, {}
        for name in sorted(names):
            vals = np.array([t.values[name] for t in trials], dtype=float)
            mean = float(vals.mean())
            std = float(vals.std())  # population
            means[name] = mean
            if mean == 0.0:
                cv[name] = 0.0 if std == 0.0 else math.inf
            else:
                cv[name] = std / abs(mean)
        aggregated.append(
            RawSample(kernel, platform, size, 0, means, meta={"trials": str(len(trials))})
        )
        spreads.append(TrialSpread(kernel, platform, size, len(trials), cv))
    return aggregated, spreads


def _variant_labels(kernel: str, n_sizes: int) -> list[str]:
    # reference row is the smallest size; larger sizes get _1, _2, ... ascending
    return [kernel] + [f"{kernel}_{i}" for i in range(1, n_sizes)]


def build_table(
    samples: Iterable[RawSample],
    metric_names: Sequence[str],
    size_policy: int | str,
) -> MetricTable:
    """Assemble a kernel x metric table from trial-aggregated samples.

    ``size_policy`` is either a problem size in bytes (one row per kernel at
    exactly that size) or :data:`ALL_SIZES` (one row per (kernel, size); the
    smallest size keeps the bare kernel label, larger sizes are labelled
    ``<kernel>_<i>`` in ascending size order). Rows are sorted by kernel
    label so the table does not depend on input order.
    """
    samples = list(samples)
    if not samples:
        raise KstError("no samples to build a table from")
    metric_names = list(metric_names)
    if not metric_names:
        raise KstError("metric_names must be non-empty")
    if len(set(metric_names)) != len(metric_names):
        raise KstError("metric_names contains duplicates")
    platforms = {s.platform for s in samples}
    if len(platforms) > 1:
        raise KstError("samples mix platforms; filter by platform or merge tables instead")
    if not (size_policy == ALL_SIZES or (isinstance(size_policy, int) and size_policy > 0)):
        raise KstError(f"size_policy must be a positive size in bytes or {ALL_SIZES!r}")

    by_kernel: dict[str, dict[int, RawSample]] = {}
    for s in samples:
        sizes = by_kernel.setdefault(s.kernel, {})
        if s.problem_size_bytes in sizes:
            raise KstError(
                f"multiple samples for {s.kernel!r} at {s.problem_size_bytes} bytes; "
                "aggregate trials first"
            )
        sizes[s.problem_size_bytes] = s

    labels: list[str] = []
    chosen: list[RawSample] = []
    for kernel in sorted(by_kernel):
        sizes = by_kernel[kernel]
        if size_policy == ALL_SIZES:
            ordered = [sizes[b] for b in sorted(sizes)]
            labels.extend(_variant_labels(kernel, len(ordered)))
            chosen.extend(ordered)
        else:
            if size_policy not in sizes:
                raise KstError(f"kernel {kernel!r} has no sample at {size_policy} bytes")
            labels.append(kernel)
            chosen.append(sizes[size_policy])

    data = np.empty((len(chosen), len(metric_names)), dtype=float)
    for i, s in enumerate(chosen):
        for j, name in enumerate(metric_names):
            if name not in s.values:
                raise KstError(
                    f"kernel {s.kernel!r} ({s.problem_size_bytes} bytes) is missing "
                    f"metric {name!r}"
                )
            data[i, j] = s.values[name]

    meta = {
        "platform": platforms.pop(),
        "size_policy": str(size_policy),
        "space": "raw",
    }
    columns = tuple(descriptor_for(n) for n in metric_names)
    return MetricTable(tuple(labels), columns, data, meta)


def merge_platforms(cpu: MetricTable, gpu: MetricTable) -> MetricTable:
    """Inner-join CPU and GPU tables on kernel label.

    Kernels present on only one platform are dropped and recorded in
    ``meta["dropped_kernels"]``. Column sets must be disjoint.
    """
    common = sorted(set(cpu.rows) & set(gpu.rows))
    if not common:
        raise KstError("no kernels in common between the two tables")
    overlap = set(cpu.column_names) & set(gpu.column_names)
    if overlap:
        raise KstError(f"column names appear in both tables: {sorted(overlap)}")
    dropped = sorted((set(cpu.rows) | set(gpu.rows)) - set(common))

    ci = [cpu.index_of(label) for label in common]
    gi = [gpu.index_of(label) for label in common]
    data = np.hstack([cpu.data[ci, :], gpu.data[gi, :]])
    meta = {
        "platform": "cpu+gpu",
        "space": "raw",
        "dropped_kernels": ",".join(dropped),
    }
    return MetricTable(tuple(common), cpu.columns + gpu.columns, data, meta)
