"""Ingest and shaping of hardware-metric profiles.

One input record (a "sample") is a single kernel execution: the identity
columns ``kernel, platform, problem_size_bytes, trial`` plus one column per
hardware metric. Samples arrive as CSV or JSON, may gain derived GPU rate
metrics, are trial-averaged, and are assembled into rectangular kernel x
metric tables ready for standardization and distance work.

CPU metrics are pipeline-slot fractions from top-down analysis and live in
[0, 1]. GPU profiles carry raw transaction/instruction counters plus the
kernel time; rates per second are derived from those while the raw counters
stay for auditability.

Ingest is columnar. :func:`parse_samples` turns a file into a :class:`Samples`
batch: key columns (integer codes for kernel, size, trial and the record's
metric layout, interned per file, and a platform code) plus one float64 column
per metric. A present value is finite, so NaN alone marks an absent metric:
the parsers reject a present non-finite value. A CSV text is checked on whole
columns, and a JSON record by the :class:`RawSample` it becomes; either way the
first bad record in file order is reported with its line or record number.
:func:`read_inputs` joins the batches of several files and checks keys
across them once. :func:`platform_groups` derives GPU rates as column
divisions and averages trials by sorting the keys once and reducing one
(groups, trials) block per trial count (:class:`TrialGroups`);
:func:`platform_table` and :func:`ingest_summary` build on that. The
per-sample functions :func:`aggregate_trials` and :func:`build_table` (and
:func:`kst.stability.stability_series`) are thin wrappers that convert
:class:`RawSample` lists, whose metrics keep their record's order, to and from
these columns. :func:`derive_gpu_rates` states the rate rule once, per sample;
the column division raises its error for the first sample it rejects.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ._json import _as_text, load_json
from .errors import KstError, ParseError
from .rng import _is_int

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
# joins a kernel name and a size ordinal in the row labels of ALL_SIZES
# tables; kernel names may not contain it, so no two labels can collide
VARIANT_SEPARATOR = "@"


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
        if VARIANT_SEPARATOR in self.kernel:
            raise KstError(f"kernel name must not contain {VARIANT_SEPARATOR!r}, "
                           f"got {self.kernel!r}")
        if self.platform not in PLATFORMS:
            raise KstError(f"unknown platform {self.platform!r}")
        if not _is_int(self.problem_size_bytes) or self.problem_size_bytes <= 0:
            raise KstError(
                f"problem_size_bytes must be a positive integer, got {self.problem_size_bytes!r}"
            )
        if not _is_int(self.trial) or self.trial < 0:
            raise KstError(f"trial must be a non-negative integer, got {self.trial!r}")
        # a numpy integer is stored as a Python int, as every key and output holds it
        object.__setattr__(self, "problem_size_bytes", int(self.problem_size_bytes))
        object.__setattr__(self, "trial", int(self.trial))
        for name, value in self.values.items():
            try:
                finite = (isinstance(value, (int, float)) and not isinstance(value, bool)
                          and math.isfinite(value))
            except OverflowError:  # an int beyond the float range
                raise KstError(f"metric {name!r} is too large for a float") from None
            if not finite:
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
        check_kind_ranges(self.columns, data)

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


def check_kind_ranges(columns: Sequence[MetricDescriptor], data: np.ndarray) -> None:
    """Each column of ``data`` must lie in the range its kind allows:
    fractions in [0, 1], rates, counts and times non-negative."""
    lo = np.array([-np.inf if c.kind == SCORE else 0.0 for c in columns])
    hi = np.array([1.0 if c.kind == FRACTION else np.inf for c in columns])
    bad = np.flatnonzero(((data < lo) | (data > hi)).any(axis=0))
    if bad.size:
        name, kind = columns[bad[0]].name, columns[bad[0]].kind
        raise KstError(f"fraction metric {name!r} has values outside [0, 1]" if kind == FRACTION
                       else f"{kind} metric {name!r} has negative values")


@dataclass(frozen=True)
class TrialSpread:
    """Per-group trial statistics retained by :func:`aggregate_trials`."""

    kernel: str
    platform: str
    problem_size_bytes: int
    trials: int
    cv: dict[str, float]  # population std / |mean| per metric


# ------------------------------------------------------------------ columns

_PLATFORM_CODES = {name: code for code, name in enumerate(PLATFORMS)}


@dataclass(eq=False)
class _Keys:
    """Intern tables of the key columns: value -> integer code, in order of
    first appearance. A layout is the metric names of a record in the order
    the record lists them."""

    kernel: dict[str, int] = field(default_factory=dict)
    size: dict[int, int] = field(default_factory=dict)
    trial: dict[int, int] = field(default_factory=dict)
    layout: dict[tuple[str, ...], int] = field(default_factory=dict)


def _intern(table: dict, value: Any) -> int:
    return table.setdefault(value, len(table))


def _codes(cells: Sequence, lookup: dict) -> np.ndarray:
    return np.fromiter(map(lookup.__getitem__, cells), np.intp, len(cells))


def _ranks(table: dict) -> np.ndarray:
    """Each code's position in the sorted order of the values, for sorting by
    value. Python sorts the values, so strings keep their trailing NULs."""
    values = list(table)
    rank = np.empty(len(values), np.intp)
    rank[sorted(range(len(values)), key=values.__getitem__)] = np.arange(len(values))
    return rank


def _flags(table: dict, test: Callable[[Any], bool]) -> np.ndarray:
    """``test(value)`` per code, then False for code -1 (a cell that did not parse)."""
    return np.array([test(v) for v in table] + [False], dtype=bool)


@dataclass(eq=False)
class Samples(Sequence[RawSample]):
    """Samples as columns, read as a sequence of :class:`RawSample` that are
    built on access.

    Integer codes for the four keys and for each record's layout (a platform
    code indexes :data:`PLATFORMS`, the others the tables of ``keys``), and
    per metric one float64 column. A present value is finite; NaN means the
    metric is absent."""

    keys: _Keys
    kernel: np.ndarray
    platform: np.ndarray
    size: np.ndarray
    trial: np.ndarray
    layout: np.ndarray
    values: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.kernel)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _samples(self.take(np.arange(len(self))[index]))
        return _samples(self.take([range(len(self))[index]]))[0]

    def __iter__(self):
        return iter(_samples(self))

    def __eq__(self, other):
        if isinstance(other, (list, Samples)):
            return list(self) == list(other)
        return NotImplemented

    def take(self, rows: Any) -> Samples:
        return Samples(
            self.keys, self.kernel[rows], self.platform[rows], self.size[rows],
            self.trial[rows], self.layout[rows], {n: v[rows] for n, v in self.values.items()},
        )

    def platforms(self) -> list[str]:
        """The platforms the samples are on, in :data:`PLATFORMS` order."""
        return [PLATFORMS[p] for p in np.unique(self.platform).tolist()]


@dataclass(eq=False)
class TrialGroups:
    """Trial-averaged samples, one group per (kernel, platform, size) in key
    order. Per metric: the mean over the trials (``values``), finite, and the
    coefficient of variation (``cv``); both are NaN where a trial lacks the
    metric."""

    keys: _Keys
    kernel: np.ndarray
    platform: np.ndarray
    size: np.ndarray
    trials: np.ndarray      # trial count
    consistent: np.ndarray  # every trial has the same metric set
    values: dict[str, np.ndarray]
    cv: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.kernel)

    def labels(self) -> tuple[list[str], list[str], list[int]]:
        """Each group's kernel name, platform and size in bytes."""
        kernels, sizes = list(self.keys.kernel), list(self.keys.size)
        return ([kernels[k] for k in self.kernel.tolist()],
                [PLATFORMS[p] for p in self.platform.tolist()],
                [sizes[s] for s in self.size.tolist()])

    def check_consistent(self, lo: int = 0, hi: int | None = None) -> None:
        """The first group in ``lo:hi`` whose trials differ in metric set is an error."""
        bad = np.flatnonzero(~self.consistent[lo:hi])
        if bad.size:
            kernel, platform, size = (labels[lo + int(bad[0])] for labels in self.labels())
            raise KstError(
                f"inconsistent metric sets across trials of {kernel!r} ({platform}, {size} bytes)"
            )

    def worst_cv(self) -> tuple[float, str]:
        """The largest positive coefficient of variation and where it is, as
        ``kernel/metric``: the first, groups in key order and metrics by name.
        (0.0, "") when no coefficient is positive."""
        names = sorted(self.cv)
        if not names:
            return 0.0, ""
        cv = np.column_stack([self.cv[n] for n in names])
        cv[~(cv > 0)] = 0.0  # NaN where a metric is absent
        g, j = divmod(int(np.argmax(cv)), len(names))
        if cv[g, j] > 0:
            return float(cv[g, j]), f"{self.labels()[0][g]}/{names[j]}"
        return 0.0, ""


def _from_samples(samples: Sequence[RawSample]) -> Samples:
    """The samples as columns, their keys interned in order of first appearance."""
    n, keys = len(samples), _Keys()
    names = dict.fromkeys(name for s in samples for name in s.values)
    cols = Samples(
        keys,
        np.fromiter((_intern(keys.kernel, s.kernel) for s in samples), np.intp, n),
        np.fromiter((_PLATFORM_CODES[s.platform] for s in samples), np.intp, n),
        np.fromiter((_intern(keys.size, s.problem_size_bytes) for s in samples), np.intp, n),
        np.fromiter((_intern(keys.trial, s.trial) for s in samples), np.intp, n),
        np.fromiter((_intern(keys.layout, tuple(s.values)) for s in samples), np.intp, n),
        {name: np.full(n, np.nan) for name in names},
    )
    for i, s in enumerate(samples):
        for name, value in s.values.items():
            cols.values[name][i] = value
    return cols


def _samples(cols: Samples) -> list[RawSample]:
    """The samples, each listing its metrics in its record's order, then any derived since."""
    kernels, sizes, trials = list(cols.keys.kernel), list(cols.keys.size), list(cols.keys.trial)
    columns = {n: (n, v.tolist()) for n, v in cols.values.items()}
    layouts = list(cols.keys.layout)
    metrics = {c: [columns[n] for n in dict.fromkeys(layouts[c] + tuple(columns))]
               for c in np.unique(cols.layout).tolist()}
    keys = zip(cols.kernel.tolist(), cols.platform.tolist(), cols.size.tolist(),
               cols.trial.tolist(), cols.layout.tolist())
    return [
        RawSample(kernels[k], PLATFORMS[p], sizes[s], trials[t],
                  {n: v[i] for n, v in metrics[c] if not math.isnan(v[i])})
        for i, (k, p, s, t, c) in enumerate(keys)
    ]


def _first_repeat(*codes: np.ndarray) -> tuple[int, int] | None:
    """(first, i) for the earliest record i whose key repeats an earlier
    record's, ``first`` being that key's first record; None when every key is
    unique."""
    order = np.lexsort(codes)  # stable: equal keys stay in record order
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for c in codes:
        c = c[order]
        same &= c[1:] == c[:-1]
    repeats = np.flatnonzero(same) + 1
    if not repeats.size:
        return None
    # the earliest repeat is the second record of its run of equal keys
    at = repeats[np.argmin(order[repeats])]
    return int(order[at - 1]), int(order[at])


class _FirstBad:
    """The first bad record of a file, by its record number in the file.
    Checks run in the order they run on one record, so on a tie the record's
    earlier check keeps its error. A check of a block of records starting at
    record ``base`` passes ``make`` the index within the block."""

    def __init__(self, end: int = sys.maxsize, error: Exception | None = None):
        self.row, self.error = end, error  # error at record ``end``, if any

    def at(self, row: int, make: Callable[[int], Exception], base: int = 0) -> None:
        if base + row < self.row:
            self.row, self.error = base + row, make(row)

    def check(self, bad: np.ndarray, make: Callable[[int], Exception], base: int = 0) -> None:
        hit = np.flatnonzero(bad[: self.row - base])  # base <= row: no block follows a bad one
        if hit.size:
            self.at(int(hit[0]), make, base)

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _raised(make: Callable[[], Any]) -> KstError:
    """The KstError that ``make()``, a record's per-sample rule, raises."""
    try:
        make()
    except KstError as exc:
        return exc
    raise AssertionError("a record failed a column check but not its per-sample rule")


def _as_int(text: str) -> int | None:
    """The integer ``text`` spells, integral floats such as "1e6" included, or None."""
    try:
        return int(text)
    except ValueError:
        try:
            f = float(text)
        except ValueError:
            return None
        return int(f) if math.isfinite(f) and f == int(f) else None


def parse_samples(source: str | bytes | IO[bytes] | IO[str], fmt: str = "csv") -> Samples:
    """Parse raw samples from CSV or JSON.

    CSV layout: header ``kernel,platform,problem_size_bytes,trial,<metric>...``,
    one row per trial, UTF-8, "." decimal separator, scientific notation
    accepted. An empty metric cell means the metric was not measured for that
    row (this is how mixed CPU/GPU files are expressed). JSON input is an
    array of objects with the same field names; the metrics are further
    fields, a ``values`` object mapping metric names to numbers, or both; a
    record gives each field and each metric once.
    Every record is checked, and keys must be distinct; the first bad record
    is reported. A CSV text is read a block of lines at a time, so the parse
    holds the text plus about one block of cells; a JSON document is loaded
    whole. The result is a read-only sequence of :class:`RawSample`.
    """
    text = _as_text(source)
    if fmt == "csv":
        samples = _csv_columns(text)
    elif fmt == "json":
        samples = _json_columns(text)
    else:
        raise KstError(f"unknown input format {fmt!r} (expected 'csv' or 'json')")
    dup = _first_repeat(samples.trial, samples.size, samples.platform, samples.kernel)
    if dup:
        first, i = dup
        raise ParseError(f"duplicate sample key {samples[i].key()!r} (records {first} and {i})")
    return samples


def read_inputs(paths: Sequence[str], fmt: str = "auto") -> Samples:
    """The samples of several files as one batch, each file read by
    :func:`parse_samples`; ``fmt`` "auto" reads a ``.json`` file as JSON and
    any other as CSV. A key repeated
    across the files is an error, and one among the files read before a file
    that fails is reported first."""
    parts: list[Samples] = []
    try:
        for path in paths:
            with open(path, "rb") as fh:
                parts.append(parse_samples(
                    fh, fmt if fmt != "auto" else "json" if path.endswith(".json") else "csv"))
    except Exception:
        _join(parts)
        raise
    samples = _join(parts)
    if not len(samples):
        raise KstError("input files contain no samples")
    return samples


def _join(parts: Sequence[Samples]) -> Samples:
    """The batches of several files as one, their codes interned again in one
    set of tables; a key repeated across them is an error."""
    keys = _Keys()
    names = dict.fromkeys(name for p in parts for name in p.values)

    def cat(arrays: list[np.ndarray], dtype: type) -> np.ndarray:
        return np.concatenate(arrays) if arrays else np.empty(0, dtype)

    def codes(column: str) -> np.ndarray:
        table = getattr(keys, column)
        return cat([np.array([_intern(table, v) for v in getattr(p.keys, column)],
                             np.intp)[getattr(p, column)] for p in parts], np.intp)

    samples = Samples(
        keys, codes("kernel"), cat([p.platform for p in parts], np.intp), codes("size"),
        codes("trial"), codes("layout"),
        {n: cat([p.values.get(n, np.full(len(p), np.nan)) for p in parts], float)
         for n in names},
    )
    dup = _first_repeat(samples.trial, samples.size, samples.platform, samples.kernel)
    if dup:
        raise KstError(f"duplicate sample key {samples[dup[1]].key()!r} across input files")
    return samples


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its "\n", as ``io.StringIO(text)`` gives
    them, without the copy of the whole text (four bytes a character) it makes."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _csv_line(text: str, index: int) -> int:
    """The line on which the index-th record of a CSV text ends."""
    reader = csv.reader(_lines(text))
    next(reader)
    for row in reader:
        if row:
            if not index:
                return reader.line_num
            index -= 1
    raise AssertionError("no such record")


def _int_codes(cells: Sequence[str], table: dict) -> np.ndarray:
    """Codes of the integers the cells spell; -1 where a cell is no integer."""
    lookup = {}
    for cell in dict.fromkeys(cells):
        value = _as_int(cell.strip())
        lookup[cell] = -1 if value is None else _intern(table, value)
    return _codes(cells, lookup)


def _float_cells(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Cells as Python's ``float()`` reads them, an empty cell being absent
    (NaN), with a mask of the non-empty cells, by which the caller rejects a
    cell that reads as NaN or an infinity, and the index of the first cell
    that is not a number (None when there is none)."""
    try:  # float() ignores the whitespace that strip() removes
        return np.fromiter(map(float, cells), float, len(cells)), np.ones(len(cells), bool), None
    except ValueError:  # an empty cell, or one that is not a number
        pass
    stripped = [c.strip() for c in cells]
    present = np.fromiter(map(bool, stripped), bool, len(stripped))
    values = np.full(len(stripped), np.nan)
    for i in np.flatnonzero(present).tolist():
        try:
            values[i] = float(stripped[i])
        except ValueError:
            return values, present, i
    return values, present, None


_BLOCK_CHARS = 1 << 16  # characters of CSV text read at once, in whole lines: about 64K


def _split_blocks(text: str, width: int) -> Iterator[list[list[str]] | None]:
    """The cells of the records after the header line, column by column, a
    block of whole lines of about ``_BLOCK_CHARS`` characters at a time (at
    least one block), each from one split on ","; None, and no further block,
    where csv.reader could read the text otherwise: at once for a text holding
    a quote, carriage return or NUL, else at the first block with a line over
    ``csv.field_size_limit()`` or a non-blank line without ``width`` cells."""
    if '"' in text or "\r" in text or "\x00" in text:
        yield None
        return
    limit = csv.field_size_limit()
    start = text.find("\n") + 1 or len(text)  # the first record's line, if any
    while True:
        end = text.find("\n", start + _BLOCK_CHARS)
        end = len(text) if end < 0 else end
        lines = list(filter(None, text[start:end].split("\n")))  # a blank line holds no record
        if lines and (max(map(len, lines)) > limit
                      or list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines)):
            yield None
            return
        flat = ",".join(lines).split(",") if lines else []
        del lines  # freed before the caller converts the cells: a lower peak
        yield [flat[j::width] for j in range(width)]
        start = end + 1
        if start >= len(text):
            return


def _read_rows(reader: Any, width: int,
               line: Callable[[int], int]) -> tuple[list[Sequence[str]], _FirstBad]:
    """The cells of the records ``reader`` has left, column by column, up to the
    first record without ``width`` cells or a CSV error, which is the error."""
    rows: list[list[str]] = []
    stop = None
    try:
        rows.extend(filter(None, reader))  # a blank line holds no record
    except csv.Error as exc:  # raised after the records before it are checked
        stop = ParseError(str(exc), reader.line_num)
    first = _FirstBad(len(rows), stop)
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    first.check(lengths != width, lambda i: ParseError(
        f"expected {width} cells, got {lengths[i]}", line(i)))
    return (list(zip(*rows[: first.row])) if first.row else [()] * width), first


def _cell_columns(cells: Sequence[Sequence[str]], metric_names: Sequence[str], keys: _Keys,
                  first: _FirstBad, base: int, line: Callable[[int], int]) -> list[np.ndarray]:
    """The key codes, interned in ``keys``, and the metric floats of a block of
    records, the first of them record ``base``; each bad cell goes to ``first``."""
    kernels, platforms, sizes, trials, *metrics = cells

    def at(i: int) -> int:
        return line(base + i)

    kernel = _codes(kernels, {k: _intern(keys.kernel, k.strip()) for k in dict.fromkeys(kernels)})
    platform = _codes(platforms, {p: _PLATFORM_CODES.get(p.strip().lower(), -1)
                                  for p in dict.fromkeys(platforms)})
    first.check(platform < 0, lambda i: ParseError(
        f"unknown platform {platforms[i]!r}", at(i)), base)
    size = _int_codes(sizes, keys.size)
    first.check(size < 0, lambda i: ParseError(
        f"problem_size_bytes is not an integer: {sizes[i].strip()!r}", at(i)), base)
    trial = _int_codes(trials, keys.trial)
    first.check(trial < 0, lambda i: ParseError(
        f"trial is not an integer: {trials[i].strip()!r}", at(i)), base)
    columns = [kernel, platform, size, trial]
    for name, column in zip(metric_names, metrics):
        v, p, bad = _float_cells(column)
        if bad is not None:
            first.at(bad, lambda i: ParseError(
                f"metric {name!r} is not a number: {column[i].strip()!r}", at(i)), base)
        first.check(p & ~np.isfinite(v), lambda i: ParseError(
            f"metric {name!r} has non-finite value {column[i].strip()!r}", at(i)), base)
        columns.append(v)
    return columns


def _csv_columns(text: str) -> Samples:
    """The records of a CSV text as columns, read a block of whole lines at a
    time (:func:`_split_blocks`): each block's cells become key codes, interned
    in one set of tables in order of first appearance, and floats, and the
    blocks' columns are joined once, so the parse holds the text and about
    one block of cells. Reading stops at the first block that holds a bad
    record. A text that :func:`_split_blocks` declines before that goes
    through csv.reader whole, which raises every CSV error with its message
    and line."""
    reader = csv.reader(_lines(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input") from None
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise ParseError(str(exc), reader.line_num) from None
    header = [h.strip() for h in header]
    if tuple(header[: len(IDENTITY_COLUMNS)]) != IDENTITY_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(IDENTITY_COLUMNS)}, got {','.join(header)!r}", 1
        )
    metric_names = header[len(IDENTITY_COLUMNS):]
    if len(set(metric_names)) != len(metric_names) or any(m in IDENTITY_COLUMNS for m in metric_names):
        raise ParseError("duplicate column names in header", 1)

    def line(i: int) -> int:
        return _csv_line(text, i)

    keys, first, blocks, n = _Keys(), _FirstBad(), [], 0
    for cells in _split_blocks(text, len(header)):
        if cells is None:  # csv.reader reads the whole text, from its first record
            keys, blocks, n = _Keys(), [], 0
            cells, first = _read_rows(reader, len(header), line)
        blocks.append(_cell_columns(cells, metric_names, keys, first, n, line))
        n += len(cells[0])
        if first.error is not None:
            break
    columns = list(zip(*blocks))
    del blocks
    for j, pieces in enumerate(columns):
        columns[j] = np.concatenate(pieces)  # its pieces go before the next is joined
    kernel, platform, size, trial, *values = columns
    layout = np.full(n, _intern(keys.layout, tuple(metric_names)), np.intp)
    cols = Samples(keys, kernel, platform, size, trial, layout, dict(zip(metric_names, values)))
    # RawSample's rules on whole columns: a non-empty kernel name without
    # VARIANT_SEPARATOR, a positive size, a non-negative trial and a positive
    # GPU time; the cells are finite, so NaN is absent
    bad = _flags(keys.kernel, lambda k: not k or VARIANT_SEPARATOR in k)[kernel]
    bad |= _flags(keys.size, lambda s: s <= 0)[size]
    bad |= _flags(keys.trial, lambda t: t < 0)[trial]
    if GPU_TIME_METRIC in cols.values:
        bad |= cols.values[GPU_TIME_METRIC] <= 0  # False on NaN
    first.check(bad, lambda i: ParseError(str(_raised(lambda: _samples(cols.take([i])))), line(i)))
    first.raise_first()
    return cols


def _json_int(value: Any, what: str, record: int) -> int:
    # the CSV rule: integers and integral floats pass; booleans do not
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        parsed = _as_int(str(value))
        if parsed is not None:
            return parsed
    raise ParseError(f"record {record}: {what} is not an integer: {value!r}")


class _Repeats(dict):
    """A JSON object that gives ``key`` (its first repeated key) more than once."""

    key: str


def _noting_repeats(pairs: list[tuple[str, Any]]) -> dict:
    """``json.loads``' object of ``pairs``: a :class:`_Repeats` when a key repeats."""
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen = set()
    for key, _ in pairs:
        if key in seen:
            break
        seen.add(key)
    obj = _Repeats(obj)
    obj.key = key
    return obj


def _json_record(i: int, obj: Any) -> RawSample:
    """Record i as a RawSample, whose own checks run after the JSON types'."""
    if not isinstance(obj, dict):
        raise ParseError(f"record {i}: expected an object")
    for what, given in (("field", obj), ("metric", obj.get("values"))):
        if isinstance(given, _Repeats):
            raise ParseError(f"record {i}: {what} {given.key!r} given twice")
    missing = [c for c in IDENTITY_COLUMNS if c not in obj]
    if missing:
        raise ParseError(f"record {i}: missing fields {missing}")
    kernel = obj["kernel"]
    if not isinstance(kernel, str):
        raise ParseError(f"record {i}: kernel is not a string: {kernel!r}")
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
        return RawSample(kernel, platform, size, trial, values)
    except KstError as exc:
        raise ParseError(f"record {i}: {exc}") from None


def _json_columns(text: str) -> Samples:
    doc = load_json(text, "JSON", _noting_repeats)
    if not isinstance(doc, list):
        raise ParseError("JSON input must be an array of objects")
    return _from_samples([_json_record(i, obj) for i, obj in enumerate(doc)])


def _derive_if_gpu(cols: Samples) -> Samples:
    """Rates for the GPU samples that have the time and every counter but
    not every rate; :func:`derive_gpu_rates` raises the first bad one's error."""
    absent = np.full(len(cols), np.nan)
    rows = ((cols.platform == _PLATFORM_CODES["gpu"])
            & ~np.isnan(cols.values.get(GPU_TIME_METRIC, absent)))
    every_rate = np.ones(len(cols), dtype=bool)
    for counter, rate in zip(GPU_COUNTER_METRICS, GPU_RATE_METRICS):
        rows &= ~np.isnan(cols.values.get(counter, absent))
        every_rate &= ~np.isnan(cols.values.get(rate, absent))
    rows &= ~every_rate
    if not rows.any():
        return cols
    t = cols.values[GPU_TIME_METRIC][rows]
    values = dict(cols.values)
    bad = np.zeros(len(t), dtype=bool)
    with np.errstate(over="ignore"):
        for rate, counter in RATE_SOURCES.items():
            count = cols.values[counter][rows]
            values[rate] = values.get(rate, absent).copy()
            values[rate][rows] = count / t
            bad |= (count < 0) | ~np.isfinite(values[rate][rows])
    if bad.any():
        raise _raised(lambda: derive_gpu_rates(cols[int(np.flatnonzero(rows)[np.argmax(bad)])]))
    return replace(cols, values=values)


def derive_gpu_rates(sample: RawSample) -> RawSample:
    """Add transaction-per-second and instruction-per-second metrics.

    Each raw counter (non-negative) is divided by the kernel GPU time; a rate
    beyond the float range fails RawSample's check. Raw counters stay in the
    sample so derivations remain auditable.
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


def moments(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of a 2-D array along ``axis``: numpy's own
    ``mean``/``std``, bit for bit, wherever those are finite. Where finite
    values give non-finite moments (the squares or the sum overflowed), they
    are taken again after dividing those values by their largest magnitude,
    and scaled back, so they stay finite. Lines holding a NaN or an infinity
    keep numpy's result."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = values.mean(axis=axis), values.std(axis=axis)
    big = ~(np.isfinite(mu) & np.isfinite(sd)) & np.isfinite(values).all(axis=axis)
    if big.any():
        sub = np.compress(big, values, axis=1 - axis)
        scale = np.abs(sub).max(axis=axis, keepdims=True)
        unit = sub / scale
        scale = scale.squeeze(axis)
        mu[big], sd[big] = unit.mean(axis=axis) * scale, unit.std(axis=axis) * scale
    return mu, sd


def _aggregate(cols: Samples) -> TrialGroups:
    """Average the trials of each (kernel, platform, size); keys must be unique.

    One lexsort puts the samples in key order, trials ascending. The groups
    with c trials form one C-contiguous (groups, c) block per metric, and
    ``mean(axis=1)``/``std(axis=1)`` of a block row equal numpy's 1-D
    ``mean()``/``std()`` of that group's trials bit for bit. A group whose
    moments overflow is averaged again after dividing its trials by their
    largest magnitude, and scaled back.
    """
    keys, n = cols.keys, len(cols)
    order = np.lexsort((_ranks(keys.trial)[cols.trial], _ranks(keys.size)[cols.size],
                        cols.platform, _ranks(keys.kernel)[cols.kernel]))
    kernel, platform, size = cols.kernel[order], cols.platform[order], cols.size[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (kernel[1:] != kernel[:-1]) | (platform[1:] != platform[:-1]) | (size[1:] != size[:-1])
    starts = np.flatnonzero(new)
    trials = np.diff(np.append(starts, n))
    names = sorted(cols.values)
    consistent = np.ones(len(starts), dtype=bool)
    for name in names:
        gaps = np.add.reduceat(np.isnan(cols.values[name][order]), starts, dtype=np.intp)
        consistent &= (gaps == 0) | (gaps == trials)
    mean = {name: np.empty(len(starts)) for name in names}
    std = {name: np.empty(len(starts)) for name in names}
    for c in np.unique(trials).tolist():
        groups = np.flatnonzero(trials == c)
        rows = order[starts[groups, None] + np.arange(c)]
        for name in names:
            # absent cells are NaN, and so are their group's moments
            mean[name][groups], std[name][groups] = moments(cols.values[name][rows], axis=1)
    cv = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for name in names:
            m, s = mean[name], std[name]
            cv[name] = np.where(m == 0.0, np.where(s == 0.0, 0.0, np.inf), s / np.abs(m))
    return TrialGroups(keys, kernel[starts], platform[starts], size[starts], trials, consistent,
                       mean, cv)


def trial_groups(samples: Iterable[RawSample]) -> TrialGroups:
    """The trial-averaged groups of samples whose keys must be distinct."""
    samples = list(samples)
    cols = _from_samples(samples)
    dup = _first_repeat(cols.trial, cols.size, cols.platform, cols.kernel)
    if dup:
        raise KstError(f"duplicate sample key {samples[dup[1]].key()!r}")
    return _aggregate(cols)


def platform_groups(samples: Samples, platform: str) -> TrialGroups:
    """The trial-averaged groups of one platform's samples, GPU rates
    derived first where a sample has the time and every counter but not
    every rate."""
    subset = samples.take(samples.platform == _PLATFORM_CODES[platform])
    if not len(subset):
        raise KstError(f"no {platform} samples in the input")
    return _aggregate(_derive_if_gpu(subset))


def aggregate_trials(samples: Iterable[RawSample]) -> tuple[list[RawSample], list[TrialSpread]]:
    """Average repeated trials of the same (kernel, platform, size).

    Returns one sample per group (trial number reset to 0, trial count noted
    in ``meta``) plus per-metric coefficients of variation for reporting.
    Groups are sorted by key, and trials are averaged in trial order, so the
    output does not depend on input ordering.
    """
    groups = trial_groups(samples)
    groups.check_consistent()
    metrics = [(n, groups.values[n].tolist(), groups.cv[n].tolist()) for n in groups.values]
    aggregated, spreads = [], []
    for g, (k, p, s, c) in enumerate(zip(*groups.labels(), groups.trials.tolist())):
        mine = [(n, mean[g], cv[g]) for n, mean, cv in metrics if not math.isnan(mean[g])]
        aggregated.append(RawSample(k, p, s, 0, {n: mean for n, mean, _ in mine},
                                    meta={"trials": str(c)}))
        spreads.append(TrialSpread(k, p, s, c, {n: cv for n, _, cv in mine}))
    return aggregated, spreads


def ingest_summary(samples: Samples) -> dict:
    """What ``kst ingest-check`` reports: the sample and group counts, the
    kernels, platforms, problem sizes and metrics seen, and the worst
    coefficient of variation across trials (:meth:`TrialGroups.worst_cv`).

    The input passes the checks the analysis commands make: GPU rates must
    derive (the report still lists the raw metrics), and every metric's
    trial means must lie in the range its kind allows. An empty batch is a
    KstError."""
    if not len(samples):
        raise KstError("no samples to summarize")
    _derive_if_gpu(samples)
    groups = _aggregate(samples)
    groups.check_consistent()
    for name in sorted(groups.values):
        check_kind_ranges([descriptor_for(name)], groups.values[name][:, None])
    worst_cv, worst_at = groups.worst_cv()
    kernels, sizes = list(samples.keys.kernel), list(samples.keys.size)
    return {
        "samples": len(samples),
        "groups": len(groups),
        "kernels": sorted(kernels[k] for k in np.unique(samples.kernel).tolist()),
        "platforms": samples.platforms(),
        "problem_sizes": sorted(sizes[s] for s in np.unique(samples.size).tolist()),
        "metrics": sorted(name for name, v in samples.values.items() if not np.isnan(v).all()),
        "worst_trial_cv": worst_cv,
        "worst_trial_cv_at": worst_at,
    }


def _table(rows: Samples | TrialGroups, metric_names: Sequence[str],
           size_policy: int | str) -> MetricTable:
    """The kernel x metric table of :func:`build_table` from columns."""
    if not len(rows):
        raise KstError("no samples to build a table from")
    metric_names = list(metric_names)
    if not metric_names:
        raise KstError("metric_names must be non-empty")
    if len(set(metric_names)) != len(metric_names):
        raise KstError("metric_names contains duplicates")
    platforms = np.unique(rows.platform)
    if len(platforms) > 1:
        raise KstError("samples mix platforms; filter by platform or merge tables instead")
    if not (size_policy == ALL_SIZES or (_is_int(size_policy) and size_policy > 0)):
        raise KstError(f"size_policy must be a positive size in bytes or {ALL_SIZES!r}")
    kernels, sizes = list(rows.keys.kernel), list(rows.keys.size)
    dup = _first_repeat(rows.size, rows.kernel)
    if dup:
        i = dup[1]
        raise KstError(
            f"multiple samples for {kernels[rows.kernel[i]]!r} at {sizes[rows.size[i]]} bytes; "
            "aggregate trials first"
        )

    order = np.lexsort((_ranks(rows.keys.size)[rows.size], _ranks(rows.keys.kernel)[rows.kernel]))
    if size_policy == ALL_SIZES:
        # the smallest size keeps the bare label; larger sizes get @1, @2, ...
        chosen = order
        labels, variant, previous = [], 0, None
        for k in rows.kernel[chosen].tolist():
            variant = variant + 1 if k == previous else 0
            labels.append(kernels[k] if not variant else f"{kernels[k]}{VARIANT_SEPARATOR}{variant}")
            previous = k
    else:
        chosen = order[rows.size[order] == rows.keys.size.get(size_policy, -1)]
        labels = [kernels[k] for k in rows.kernel[chosen].tolist()]
        covered = set(labels)
        for k in dict.fromkeys(rows.kernel[order].tolist()):
            if kernels[k] not in covered:
                raise KstError(f"kernel {kernels[k]!r} has no sample at {size_policy} bytes")

    absent = np.full(len(rows), np.nan)
    data = np.column_stack([rows.values.get(n, absent)[chosen] for n in metric_names])
    missing = np.flatnonzero(np.isnan(data.ravel()))
    if missing.size:
        i, j = divmod(int(missing[0]), len(metric_names))
        r = chosen[i]
        raise KstError(
            f"kernel {kernels[rows.kernel[r]]!r} ({sizes[rows.size[r]]} bytes) is missing "
            f"metric {metric_names[j]!r}"
        )
    meta = {
        "platform": PLATFORMS[platforms[0]],
        "size_policy": str(size_policy),
        "space": "raw",
    }
    columns = tuple(descriptor_for(n) for n in metric_names)
    return MetricTable(tuple(labels), columns, data, meta)


def build_table(
    samples: Iterable[RawSample],
    metric_names: Sequence[str],
    size_policy: int | str,
) -> MetricTable:
    """Assemble a kernel x metric table from trial-aggregated samples.

    ``size_policy`` is either a problem size in bytes (one row per kernel at
    exactly that size) or :data:`ALL_SIZES` (one row per (kernel, size); the
    smallest size keeps the bare kernel label, larger sizes are labelled
    ``<kernel>@<i>`` in ascending size order). Rows are sorted by kernel
    name so the table does not depend on input order.
    """
    return _table(_from_samples(list(samples)), metric_names, size_policy)


def platform_table(samples: Samples, platform: str, size_policy: int | str) -> MetricTable:
    """One platform's table of its :data:`DEFAULT_METRICS` from the
    trial-averaged groups of :func:`platform_groups`."""
    groups = platform_groups(samples, platform)
    groups.check_consistent()
    return _table(groups, DEFAULT_METRICS[platform], size_policy)


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
