"""The columnar ingest in ``kst.dataset`` against the per-sample reference.

Random runs of one to three CSV or JSON files (both JSON forms) with
shuffled rows, ragged trial counts, mixed CPU/GPU files with empty cells,
partial GPU rate columns, duplicate keys within and across files and one bad
value of each kind must give the reference's values, coefficients of
variation, ``ingest-check`` output and tables, or its error class and
message. Shuffling the rows is also the check that results do not depend on
input order.
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ingest as ref
from kst import cli
from kst.dataset import (
    ALL_SIZES,
    CPU_TOPDOWN_METRICS,
    GPU_COUNTER_METRICS,
    GPU_RATE_METRICS,
    GPU_TIME_METRIC,
    RawSample,
    aggregate_trials,
    build_table,
    derive_gpu_rates,
    parse_samples,
    read_inputs,
)
from kst.errors import KstError
from kst.report import emit_report
from kst.stability import stability_series

from conftest import csv_bytes

KERNELS = ("a", "b", "a_1", "B", "k\x00", "é")
SIZES = (1024, 2048, 4096, 10**30)
FIELDS = ("kernel", "platform", "problem_size_bytes", "trial")


class Cell(str):
    """A value written as this text in CSV; in JSON, the number it spells
    when ``float()`` reads one, else the string."""

    def json(self):
        try:
            return float(self)
        except ValueError:
            return str(self)


# one bad value of each kind: (record field or metric kind, bad value)
BAD = {
    "text cell": ("metric", Cell("abc")),
    "nan cell": ("metric", Cell("nan")),
    "inf cell": ("metric", Cell("-inf")),
    "bool metric": ("metric", True),
    "zero time": (GPU_TIME_METRIC, 0.0),
    "negative time": (GPU_TIME_METRIC, -1.5),
    "negative counter": ("counter", -5.0),
    "rate overflow": (GPU_TIME_METRIC, 5e-324),
    "huge counter": ("counter", 1.5e308),
    "zero size": ("problem_size_bytes", 0),
    "negative size": ("problem_size_bytes", -1024),
    "text size": ("problem_size_bytes", "big"),
    "fractional size": ("problem_size_bytes", 1024.5),
    "negative trial": ("trial", -1),
    "text trial": ("trial", "x"),
    "empty kernel": ("kernel", ""),
    "blank kernel": ("kernel", "  "),
    "null kernel": ("kernel", None),
    "bool kernel": ("kernel", True),
    "list kernel": ("kernel", [1]),
    "unknown platform": ("platform", "tpu"),
    "extra cell": ("extra", None),
}

# spellings Python's float() reads that a plain number parser may not
ODD_SPELLINGS = (Cell(" 0.5 "), Cell("1_0.5"), Cell("١.٥"), Cell("5E-1"))


def _value(metric):
    if metric in CPU_TOPDOWN_METRICS:
        return st.floats(0.0, 1.0) | st.sampled_from(ODD_SPELLINGS[:1])
    if metric == GPU_TIME_METRIC:
        return st.floats(1e-6, 10.0)
    if metric == "custom.score":
        return st.floats(-1e6, 1e6) | st.sampled_from(ODD_SPELLINGS)
    return st.floats(0.0, 1e12) | st.integers(0, 10**6)


def _inject(record, kind, pick):
    """Put the bad value of ``kind`` into ``record``; ``pick`` chooses the metric."""
    where, value = BAD[kind]
    names = sorted(record["values"])
    if where == "counter":
        names = [m for m in names if m in GPU_COUNTER_METRICS]
    if where in ("metric", "counter"):
        if names:
            record["values"][pick(names)] = value
    elif where == GPU_TIME_METRIC:
        if where in record["values"]:
            record["values"][where] = value
    elif where == "extra":
        record["extra"] = True
    else:
        record[where] = value


@st.composite
def runs(draw):
    """Files of records, each a (format, records) pair."""
    kernels = draw(st.lists(st.sampled_from(KERNELS), min_size=1, max_size=4, unique=True))
    sizes = draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=3, unique=True))
    rates = draw(st.lists(st.sampled_from(GPU_RATE_METRICS), unique=True, max_size=4))
    extra = draw(st.booleans())
    records = []
    for kernel in kernels:
        for platform in draw(st.sets(st.sampled_from(("cpu", "gpu")), min_size=1)):
            if platform == "cpu":
                metrics = list(CPU_TOPDOWN_METRICS) + (["custom.score"] if extra else [])
            else:
                metrics = [GPU_TIME_METRIC, *GPU_COUNTER_METRICS, *rates]
            for size in draw(st.lists(st.sampled_from(sizes), min_size=1, unique=True)):
                trials = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
                for trial in trials:
                    records.append({
                        "kernel": kernel, "platform": draw(st.sampled_from(
                            (platform, platform, platform.upper()))),
                        "problem_size_bytes": size, "trial": trial,
                        "values": {m: draw(_value(m)) for m in metrics},
                    })
    records = draw(st.permutations(records))
    if draw(st.integers(0, 3)) == 3:  # a trial that lacks one metric
        r = draw(st.sampled_from(records))
        r["values"].pop(draw(st.sampled_from(sorted(r["values"]))))
    for _ in range(max(draw(st.integers(0, 3)) - 1, 0)):  # repeated keys
        r = draw(st.sampled_from(records))
        records.insert(draw(st.integers(0, len(records))),
                       {**r, "values": dict(r["values"])})
    for _ in range(max(draw(st.integers(0, 3)) - 1, 0)):  # bad values
        _inject(draw(st.sampled_from(records)), draw(st.sampled_from(sorted(BAD))),
                lambda names: draw(st.sampled_from(names)))
    n_files = draw(st.integers(1, 3))
    owner = [draw(st.integers(0, n_files - 1)) for _ in records]
    files = []
    for f in range(n_files):
        fmt = draw(st.sampled_from(("csv", "json", "json-values")))
        files.append((fmt, [r for r, o in zip(records, owner) if o == f]))
    return files


def _render(fmt, records):
    if fmt == "csv":
        names = sorted({m for r in records for m in r["values"]})
        lines = [",".join(FIELDS + tuple(names))]
        for i, r in enumerate(records):
            absent = " " * (i % 2)  # an empty or a blank cell
            cells = [str(r[f]) for f in FIELDS]
            cells += [str(v) if isinstance(v, Cell) else repr(v) if m in r["values"] else absent
                      for m in names for v in [r["values"].get(m)]]
            if r.get("extra"):
                cells.append("1")
            lines.append(",".join('"' + c.replace('"', '""') + '"' if "," in c else c
                                  for c in cells))
        return "\n".join(lines) + "\n"
    doc = []
    for r in records:
        if r.get("extra"):
            doc.append(5)  # not an object
            continue
        obj = {f: r[f] for f in FIELDS}
        values = {m: v.json() if isinstance(v, Cell) else v for m, v in r["values"].items()}
        if fmt == "json-values":
            obj["values"] = values
        else:
            obj.update(values)
        doc.append(obj)
    return json.dumps(doc)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class and message must agree too
        return "error", type(exc).__name__, str(exc)


def _samples_key(samples):
    """Samples with exact float spellings; metric order inside a sample is free."""
    return [(s.key(), sorted((k, repr(v)) for k, v in s.values.items()), s.meta)
            for s in samples]


def _table_key(table):
    return table.rows, table.column_names, table.data.tobytes(), table.meta


def _same(new, old, key=lambda x: x):
    if new[0] == "ok" and old[0] == "ok":
        assert key(new[1]) == key(old[1])
    else:
        assert new == old


def _namespace(paths, **extra):
    return argparse.Namespace(input=[str(p) for p in paths], format="auto", **extra)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reference_main(fn, args, emit):
    try:
        result = fn(args)
    except (KstError, OSError) as exc:
        return 2, "", cli._error_json(exc) + "\n"
    except Exception as exc:
        return 1, "", cli._error_json(exc) + "\n"
    return 0, emit(result), ""


def _compare(files, size):
    """Every wrapper and command on these files, against the reference."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (fmt, records) in enumerate(files):
            suffix = "csv" if fmt == "csv" else "json"
            path = Path(tmp) / f"f{i}.{suffix}"
            path.write_text(_render(fmt, records), encoding="utf-8")
            paths.append(path)
            text = path.read_text(encoding="utf-8")
            new = _outcome(parse_samples, text, suffix)
            old = _outcome(ref.parse_samples, text, suffix)
            _same(new, old, _samples_key)
            if new[0] != "ok":
                continue
            samples = new[1]
            agg_new = _outcome(aggregate_trials, samples)
            agg_old = _outcome(ref.aggregate_trials, samples)
            _same(agg_new, agg_old, lambda r: (_samples_key(r[0]), [
                (sp.kernel, sp.platform, sp.problem_size_bytes, sp.trials,
                 sorted((k, repr(v)) for k, v in sp.cv.items())) for sp in r[1]]))
            for s in samples[:5]:
                _same(_outcome(derive_gpu_rates, s), _outcome(ref.derive_gpu_rates, s),
                      lambda d: _samples_key([d]))
            if agg_new[0] == "ok":
                for platform, metrics in (("cpu", CPU_TOPDOWN_METRICS), ("gpu", GPU_RATE_METRICS)):
                    mine = [s for s in agg_new[1][0] if s.platform == platform]
                    _same(_outcome(build_table, mine, metrics, size),
                          _outcome(ref.build_table, mine, metrics, size), _table_key)
                kernels = sorted({(s.kernel, s.platform) for s in samples})
                for kernel, platform in kernels[:3]:
                    mine = [s for s in samples if (s.kernel, s.platform) == (kernel, platform)]
                    _same(_outcome(stability_series, mine, CPU_TOPDOWN_METRICS[:2]),
                          _outcome(ref.stability_series, mine, CPU_TOPDOWN_METRICS[:2]))

        inputs = [a for p in paths for a in ("--input", str(p))]
        assert _main(["ingest-check", *inputs]) == _reference_main(
            ref.ingest_check_doc, _namespace(paths), lambda d: emit_report({"ingest": d}))

        for platform in ("auto", "cpu", "gpu", "both"):
            args = _namespace(paths, platform=platform, size=size, gpu_size=None)
            new = _outcome(lambda a: cli._build_raw_table(a, read_inputs(a.input, a.format)), args)
            old = _outcome(lambda a: ref._build_raw_table(a, ref._load_samples(a)), args)
            _same(new, old, _table_key)

        out = Path(tmp) / "out"
        code, stdout, stderr = _main(["stability", *inputs, "--out", str(out)])
        args = _namespace(paths, platform="auto", threshold_pct=5.0, rel_base="larger")
        reports = _outcome(ref.stability_reports, args)
        if reports[0] == "ok" and any("\x00" in r.kernel for r in reports[1]):
            pass  # NUL is escaped as %00; test_stability_kernel_name_with_nul_gets_a_file checks it
        elif reports[0] == "ok":
            assert (code, stderr) == (0, "")
            multi = len({r.kernel for r in reports[1]}) != len(reports[1])
            for r in reports[1]:
                name = cli._report_name(r.kernel, f"_{r.platform}" if multi else "")
                written = (out / "stability" / name).read_text(encoding="utf-8")
                assert written == emit_report({"stability": r})
        else:
            assert (code, stdout, stderr) == _reference_main(ref.stability_reports, args, str)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs(), st.sampled_from((ALL_SIZES, 1024, 2048)))
def test_columnar_ingest_equals_per_sample_reference(files, size):
    _compare(files, size)


def _base_records():
    """Two kernels on both platforms at two sizes, with two or three trials."""
    rng = np.random.default_rng(5)
    records = []
    for kernel in ("a", "b"):
        for platform, metrics in (("cpu", CPU_TOPDOWN_METRICS),
                                  ("gpu", (GPU_TIME_METRIC,) + GPU_COUNTER_METRICS)):
            for size, trials in ((1024, 2), (2048, 3)):
                for trial in range(trials):
                    records.append({
                        "kernel": kernel, "platform": platform, "problem_size_bytes": size,
                        "trial": trial, "values": {m: float(rng.uniform(0.1, 1.0))
                                                   for m in metrics},
                    })
    return records


@pytest.mark.parametrize("fmt", ["csv", "json", "json-values"])
@pytest.mark.parametrize("fault", [None, "missing metric", "repeated key", "repeated key across files"]
                         + sorted(BAD))
def test_each_kind_of_fault_matches_the_reference(fault, fmt):
    records = _base_records()
    target = records[7]  # kernel a, gpu, 2048 bytes, the second of three trials
    if fault == "missing metric":
        del target["values"][GPU_COUNTER_METRICS[1]]
    elif fault == "repeated key":
        records.insert(9, {**target, "values": dict(target["values"])})
    elif fault == "repeated key across files":
        records.append({**target, "values": dict(target["values"])})
    elif fault is not None:
        _inject(target, fault, lambda names: names[0])
    _compare([(fmt, records[:-4]), (fmt, records[-4:])], ALL_SIZES)


@pytest.mark.parametrize("fmts", [("csv", "json"), ("json", "json-values"), ("json", "csv")])
@pytest.mark.parametrize("drop", [None, "gpu.ips", "gpu.l1_rate"])
def test_rate_overflow_reports_the_rate_the_record_lists_first(fmts, drop):
    # a GPU time of 5e-324 sends every rate of the record beyond the float
    # range; the reference reports the first in the record's own order, the
    # rates it lists ahead of the ones derivation adds. The two files list
    # the rates in opposite orders, and the bad record is in the second.
    records = _base_records()
    for r in records:
        if r["platform"] == "gpu":
            rates = ("gpu.ips", "gpu.l1_rate") if r["kernel"] == "a" else ("gpu.l1_rate", "gpu.ips")
            r["values"].update({rate: 1.0 for rate in rates})
    target = next(r for r in records if (r["kernel"], r["platform"]) == ("b", "gpu"))
    target["values"][GPU_TIME_METRIC] = 5e-324
    if drop:
        del target["values"][drop]  # an empty cell in CSV
    _compare([(fmts[0], [r for r in records if r["kernel"] == "a"]),
              (fmts[1], [r for r in records if r["kernel"] == "b"])], ALL_SIZES)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("faults", [("overflow", "negative", "tiny time"),
                                    ("negative", "tiny time", "overflow"),
                                    ("tiny time", "overflow", "negative")])
def test_rate_errors_report_the_first_bad_gpu_record(fmt, faults):
    records = _base_records()
    gpu = [r for r in records if r["platform"] == "gpu"]
    for fault, r in zip(faults, gpu[1::3]):
        if fault == "overflow":
            r["values"].update({GPU_TIME_METRIC: 0.5, "gpu.hbm_transactions": 1.5e308})
        elif fault == "negative":
            r["values"]["gpu.l2_transactions"] = -1.0
        else:
            r["values"][GPU_TIME_METRIC] = 5e-324
    _compare([(fmt, records)], ALL_SIZES)


def test_mean_and_std_of_a_block_row_equal_the_1d_reduction():
    # the aggregation reduces (groups, trials) blocks along axis 1; the
    # per-sample path reduced each group's 1-D array; both must agree bit
    # for bit on every numpy the package supports
    rng = np.random.default_rng(20)
    for trials in range(1, 301):
        for groups, scale in ((1, 1.0), (7, 1.0), (7, 1e9)):
            block = np.ascontiguousarray(rng.normal(scale, scale / 3, size=(groups, trials)))
            rows_mean = np.array([row.copy().mean() for row in block])
            rows_std = np.array([row.copy().std() for row in block])
            assert np.array_equal(block.mean(axis=1), rows_mean), trials
            assert np.array_equal(block.std(axis=1), rows_std), trials


@pytest.mark.parametrize("row", [
    ["K", "tpu", "big", 0, "abc", 0.1],      # platform before size before cells
    ["K", "cpu", "big", "x", "abc", 0.1],    # size before trial
    ["K", "cpu", 1024, "x", "abc", 0.1],     # trial before cells
    ["K", "cpu", 1024, 0, "nan", "abc"],     # cells in column order
    ["K", "cpu", 1024, 0, "abc", "nan"],
    ["", "cpu", 0, -1, 0.5, 0.1],            # RawSample's own order
    ["K", "cpu", 0, -1, 0.5, "abc"],         # cells before RawSample's checks
])
def test_a_record_with_several_faults_reports_the_first_check(row):
    text = csv_bytes(["kernel", "platform", "problem_size_bytes", "trial", "m1", "m2"],
                     [["K", "cpu", 1024, 0, 0.5, 0.1], row])
    new = _outcome(parse_samples, text, "csv")
    assert new[0] == "error"
    assert new == _outcome(ref.parse_samples, text, "csv")



@pytest.mark.parametrize("fmt", ["csv", "json", "json-values"])
def test_samples_list_their_metrics_in_their_records_order(fmt):
    rng = np.random.default_rng(3)
    records = _base_records()
    for r in records:
        names = list(r["values"])
        r["values"] = {n: r["values"][n] for n in rng.permutation(names).tolist()}
    text = _render(fmt, records)
    kind = "csv" if fmt == "csv" else "json"
    assert ([list(s.values) for s in parse_samples(text, kind)]
            == [list(s.values) for s in ref.parse_samples(text, kind)])


def test_derive_gpu_rates_keeps_the_callers_value_types_and_order():
    s = RawSample("k", "gpu", 1024, 0, {"gpu.ips": 7, GPU_TIME_METRIC: 2,
                                        **dict.fromkeys(GPU_COUNTER_METRICS, 6)})
    assert repr(derive_gpu_rates(s)) == repr(ref.derive_gpu_rates(s))


def test_aggregate_trials_matches_reference_with_many_trials():
    # pairwise summation differs from a running sum from 8 trials up, and a
    # block only differs from single rows with several groups per trial count
    rng = np.random.default_rng(11)
    samples = [RawSample(f"k{g}", "cpu", 1024 * (1 + g % 3), t,
                         {"m": float(rng.normal(1.0, 0.3)), "n": float(rng.uniform(0, 1e9))})
               for g in range(40) for t in range((1, 9, 17, 40)[g % 4])]
    order = rng.permutation(len(samples))
    shuffled = [samples[i] for i in order]
    new, old = aggregate_trials(shuffled), ref.aggregate_trials(samples)
    assert repr(new) == repr(old)
