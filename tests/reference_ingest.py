"""The per-sample ingest that the columnar path in ``kst.dataset`` replaced.

Kept as the reference for the property tests in ``test_ingest_reference.py``:
parsing builds one :class:`RawSample` per record, GPU rates are derived
sample by sample, and trials are averaged group by group. The code is the
earlier implementation, with one change: a JSON ``kernel`` that is not a
string is an error, as it is in ``kst.dataset`` now.
"""

from __future__ import annotations

import csv
import io
import json
import argparse
import math
from dataclasses import replace
from typing import IO, Any, Iterable, Sequence

import numpy as np

from kst.dataset import (
    ALL_SIZES,
    DEFAULT_METRICS,
    GPU_COUNTER_METRICS,
    GPU_RATE_METRICS,
    GPU_TIME_METRIC,
    IDENTITY_COLUMNS,
    PLATFORMS,
    RATE_SOURCES,
    MetricTable,
    RawSample,
    TrialSpread,
    descriptor_for,
    merge_platforms,
)
from kst.errors import KstError, ParseError
from kst.stability import DEFAULT_THRESHOLD_PCT, REL_BASES, StabilityReport, _pct_diff


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
        if not isinstance(obj["kernel"], str):
            raise ParseError(f"record {i}: kernel is not a string: {obj['kernel']!r}")
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
    # reference row is the smallest size; larger sizes get @1, @2, ... ascending
    return [kernel] + [f"{kernel}@{i}" for i in range(1, n_sizes)]


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


# ------------------------------------------------------------------ CLI

def _load_samples(args: argparse.Namespace) -> list[RawSample]:
    samples: list[RawSample] = []
    for path in args.input:
        fmt = args.format
        if fmt == "auto":
            fmt = "json" if path.endswith(".json") else "csv"
        with open(path, "rb") as fh:
            samples.extend(parse_samples(fh, fmt))
        dup = _duplicate_key(samples)
        if dup:
            raise KstError(f"duplicate sample key {samples[dup[1]].key()!r} across input files")
    if not samples:
        raise KstError("input files contain no samples")
    return samples


def _derive_if_gpu(samples: list[RawSample]) -> list[RawSample]:
    out = []
    for s in samples:
        if s.platform == "gpu" and GPU_TIME_METRIC in s.values and all(
            c in s.values for c in GPU_COUNTER_METRICS
        ) and not all(r in s.values for r in GPU_RATE_METRICS):
            s = derive_gpu_rates(s)
        out.append(s)
    return out


def _platform_table(samples: list[RawSample], platform: str, size_policy: int | str) -> MetricTable:
    subset = [s for s in samples if s.platform == platform]
    if not subset:
        raise KstError(f"no {platform} samples in the input")
    if platform == "gpu":
        subset = _derive_if_gpu(subset)
    aggregated, _ = aggregate_trials(subset)
    return build_table(aggregated, DEFAULT_METRICS[platform], size_policy)


def _platform_mode(args: argparse.Namespace, samples: list[RawSample]) -> str:
    present = {s.platform for s in samples}
    if args.platform != "auto":
        if args.platform in ("cpu", "gpu") and args.platform not in present:
            raise KstError(f"no {args.platform} samples in the input")
        if args.platform == "both" and present != {"cpu", "gpu"}:
            raise KstError("--platform both needs samples from both platforms")
        return args.platform
    return "both" if len(present) == 2 else present.pop()


def _build_raw_table(args: argparse.Namespace, samples: list[RawSample]) -> MetricTable:
    mode = _platform_mode(args, samples)
    if mode in ("cpu", "gpu"):
        return _platform_table(samples, mode, args.size)
    gpu_size = args.gpu_size if args.gpu_size is not None else args.size
    cpu_table = _platform_table(samples, "cpu", args.size)
    gpu_table = _platform_table(samples, "gpu", gpu_size)
    return merge_platforms(cpu_table, gpu_table)



# ------------------------------------------------------------ stability

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
    and every requested metric must be present at every size.
    """
    if threshold_pct <= 0:
        raise KstError(f"threshold_pct must be positive, got {threshold_pct}")
    if rel_base not in REL_BASES:
        raise KstError(f"rel_base must be one of {REL_BASES}, got {rel_base!r}")
    metrics = list(metrics)
    if not metrics:
        raise KstError("metrics must be non-empty")
    samples = list(samples)
    if not samples:
        raise KstError("no samples supplied")
    idents = {(s.kernel, s.platform) for s in samples}
    if len(idents) > 1:
        raise KstError(f"samples span multiple kernels/platforms: {sorted(idents)}")
    kernel, platform = idents.pop()

    aggregated, _ = aggregate_trials(samples)
    by_size = {s.problem_size_bytes: s for s in aggregated}
    sizes = sorted(by_size)
    if len(sizes) < 2:
        raise KstError(f"kernel {kernel!r} needs at least 2 distinct sizes, got {len(sizes)}")
    for size in sizes:
        missing = [name for name in metrics if name not in by_size[size].values]
        if missing:
            raise KstError(f"kernel {kernel!r} at {size} bytes is missing metrics {missing}")

    diffs = []
    for small, large in zip(sizes, sizes[1:]):
        vs, vl = by_size[small].values, by_size[large].values
        diffs.append(max(_pct_diff(vs[name], vl[name], rel_base) for name in metrics))

    min_stable = None
    for i in range(len(diffs)):
        if all(d < threshold_pct for d in diffs[i:]):
            min_stable = sizes[i]
            break
    return StabilityReport(
        kernel=kernel,
        platform=platform,
        sizes=tuple(sizes),
        pair_diff_pct=tuple(diffs),
        min_stable_size=min_stable,
        worst_residual_pct=diffs[-1],
        threshold_pct=threshold_pct,
        rel_base=rel_base,
    )



def ingest_check_doc(args: argparse.Namespace) -> dict:
    """What ``kst ingest-check`` reports."""
    samples = _load_samples(args)
    aggregated, spreads = aggregate_trials(samples)
    metrics = sorted({name for s in samples for name in s.values})
    worst_cv = 0.0
    worst_at = ""
    for sp in spreads:
        for name, cv in sp.cv.items():
            if cv > worst_cv:
                worst_cv = cv
                worst_at = f"{sp.kernel}/{name}"
    return {
        "samples": len(samples),
        "groups": len(aggregated),
        "kernels": sorted({s.kernel for s in samples}),
        "platforms": sorted({s.platform for s in samples}),
        "problem_sizes": sorted({s.problem_size_bytes for s in samples}),
        "metrics": metrics,
        "worst_trial_cv": worst_cv,
        "worst_trial_cv_at": worst_at,
    }


def stability_reports(args: argparse.Namespace) -> list[StabilityReport]:
    """The reports ``kst stability`` writes, one ``stability_series`` per kernel."""
    samples = _load_samples(args)
    present = sorted({s.platform for s in samples})
    platforms = [args.platform] if args.platform != "auto" else present
    missing = [p for p in platforms if p not in present]
    if missing:
        raise KstError(f"no {missing[0]} samples in the input")
    reports = []
    for platform in platforms:
        subset = [s for s in samples if s.platform == platform]
        if platform == "gpu":
            subset = _derive_if_gpu(subset)
        by_kernel: dict[str, list[RawSample]] = {}
        for s in subset:
            by_kernel.setdefault(s.kernel, []).append(s)
        for kernel in sorted(by_kernel):
            reports.append(stability_series(by_kernel[kernel], DEFAULT_METRICS[platform],
                                            threshold_pct=args.threshold_pct,
                                            rel_base=args.rel_base))
    return reports
