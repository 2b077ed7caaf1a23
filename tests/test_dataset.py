"""Ingestion, schema validation, trial aggregation, table assembly."""

import io
import json
import math

import numpy as np
import pytest

from kst.dataset import (
    CPU_TOPDOWN_METRICS,
    DEFAULT_METRICS,
    MetricDescriptor,
    MetricTable,
    RawSample,
    aggregate_trials,
    build_table,
    derive_gpu_rates,
    descriptor_for,
    merge_platforms,
    parse_samples,
)
from kst.errors import KstError, ParseError

from conftest import CPU_HEADER, csv_bytes, make_table


# ---------------------------------------------------------------- descriptors

def test_registry_kinds():
    assert descriptor_for("topdown.memory_bound").kind == "fraction"
    assert descriptor_for("gpu.time_sec").kind == "time"
    assert descriptor_for("gpu.l1_transactions").kind == "count"
    assert descriptor_for("gpu.l1_rate").kind == "rate"


def test_unknown_metric_gets_unconstrained_descriptor():
    d = descriptor_for("custom.thing")
    assert d.kind == "score"
    assert d.platform == "any"


def test_default_metric_sets():
    assert DEFAULT_METRICS["cpu"] == CPU_TOPDOWN_METRICS
    assert DEFAULT_METRICS["gpu"] == ("gpu.l1_rate", "gpu.l2_rate", "gpu.hbm_rate", "gpu.ips")
    assert "topdown.retiring" not in DEFAULT_METRICS["cpu"]
    assert "topdown.bad_speculation" not in DEFAULT_METRICS["cpu"]


def test_descriptor_validation():
    with pytest.raises(KstError):
        MetricDescriptor("x", "bogus", "any", "u")
    with pytest.raises(KstError):
        MetricDescriptor("x", "rate", "tpu", "u")


# ----------------------------------------------------------------- RawSample

def test_raw_sample_validation():
    ok = RawSample("k", "cpu", 1024, 0, {"topdown.core_bound": 0.5})
    assert ok.key() == ("k", "cpu", 1024, 0)
    with pytest.raises(KstError):
        RawSample("", "cpu", 1024, 0, {})
    with pytest.raises(KstError, match="must not contain '@'"):
        RawSample("k@1", "cpu", 1024, 0, {})  # the size-variant label separator
    with pytest.raises(KstError):
        RawSample("k", "cpu", 0, 0, {})
    with pytest.raises(KstError):
        RawSample("k", "cpu", 1024, -1, {})
    with pytest.raises(KstError):
        RawSample("k", "cpu", 1024, 0, {"m": float("nan")})
    with pytest.raises(KstError):
        RawSample("k", "gpu", 1024, 0, {"gpu.time_sec": 0.0})


# ---------------------------------------------------------------- MetricTable

def test_table_data_is_locked_and_copied():
    src = np.ones((2, 1))
    t = make_table(src)
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0
    src[0, 0] = 99.0  # mutating the source array must not leak in
    assert t.data[0, 0] == 1.0


def test_table_shape_and_uniqueness_checks():
    cols = (descriptor_for("a"), descriptor_for("b"))
    with pytest.raises(KstError):
        MetricTable(("r0",), cols, np.zeros((2, 2)))
    with pytest.raises(KstError):
        MetricTable(("r0", "r0"), cols, np.zeros((2, 2)))
    with pytest.raises(KstError):
        MetricTable(("r0", "r1"), (cols[0], cols[0]), np.zeros((2, 2)))


def test_table_kind_range_enforcement():
    frac = MetricDescriptor("f", "fraction", "any", "")
    with pytest.raises(KstError):
        MetricTable(("r0",), (frac,), np.array([[1.5]]))
    rate = MetricDescriptor("r", "rate", "any", "")
    with pytest.raises(KstError):
        MetricTable(("r0",), (rate,), np.array([[-1.0]]))
    # score columns take anything finite
    make_table([[-1e9], [1e9]])


def test_table_lookup_helpers():
    t = make_table([[1.0, 2.0], [3.0, 4.0]], rows=("a", "b"))
    assert t.index_of("b") == 1
    assert np.array_equal(t.column_values("m1"), [2.0, 4.0])
    with pytest.raises(KstError):
        t.index_of("zzz")
    with pytest.raises(KstError):
        t.column_values("zzz")


# --------------------------------------------------------------------- CSV

def test_parse_csv_basic():
    text = csv_bytes(CPU_HEADER, [
        ["K1", "CPU", 1024, 0, 0.1, 0.7, 0.05, 0.05],
        ["K2", "cpu", 2048, 0, 0.2, "", 0.05, 0.05],
    ])
    samples = parse_samples(text, fmt="csv")
    assert len(samples) == 2
    assert samples[0].platform == "cpu"  # platform is case-folded
    assert samples[0].values["topdown.memory_bound"] == 0.7
    # empty cell means the metric was not collected
    assert "topdown.memory_bound" not in samples[1].values


def test_parse_csv_accepts_integral_float_size():
    text = csv_bytes(CPU_HEADER, [["K1", "cpu", "1024.0", 0, 0.1, 0.7, 0.05, 0.05]])
    assert parse_samples(text)[0].problem_size_bytes == 1024


@pytest.mark.parametrize("row,fragment", [
    (["K1", "cpu", "big", 0, 0.1, 0.7, 0.05, 0.05], "problem_size_bytes"),
    (["K1", "cpu", 1024, "x", 0.1, 0.7, 0.05, 0.05], "trial"),
    (["K1", "cpu", 1024, 0, "abc", 0.7, 0.05, 0.05], "topdown.core_bound"),
    (["K1", "vpu", 1024, 0, 0.1, 0.7, 0.05, 0.05], "platform"),
])
def test_parse_csv_bad_cell_reports_line(row, fragment):
    text = csv_bytes(CPU_HEADER, [row])
    with pytest.raises(ParseError) as exc:
        parse_samples(text)
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2:")
    assert fragment in str(exc.value)


def test_parse_csv_header_must_lead_with_identity():
    text = csv_bytes(["kernel", "platform", "trial", "problem_size_bytes"], [])
    with pytest.raises(ParseError):
        parse_samples(text)


def test_parse_csv_duplicate_key_rejected():
    row = ["K1", "cpu", 1024, 0, 0.1, 0.7, 0.05, 0.05]
    with pytest.raises(ParseError) as exc:
        parse_samples(csv_bytes(CPU_HEADER, [row, row]))
    assert "duplicate" in str(exc.value)


def test_duplicate_key_messages():
    row = ["K1", "cpu", 1024, 0, 0.1, 0.7, 0.05, 0.05]
    other = ["K2", "cpu", 1024, 0, 0.1, 0.7, 0.05, 0.05]
    with pytest.raises(ParseError, match=r"^duplicate sample key \('K1', 'cpu', 1024, 0\) "
                                         r"\(records 0 and 2\)$"):
        parse_samples(csv_bytes(CPU_HEADER, [row, other, row]))
    (s,) = parse_samples(csv_bytes(CPU_HEADER, [row]))
    with pytest.raises(KstError, match=r"^duplicate sample key \('K1', 'cpu', 1024, 0\)$"):
        aggregate_trials(x for x in (s, s))


def test_parse_csv_accepts_bytes_and_file_objects():
    text = csv_bytes(CPU_HEADER, [["K1", "cpu", 1024, 0, 0.1, 0.7, 0.05, 0.05]])
    assert parse_samples(text.encode()) == parse_samples(io.StringIO(text))


def test_parsed_samples_read_as_a_sequence():
    text = csv_bytes(CPU_HEADER, [["K", "cpu", 1024, t, 0.1, 0.7, 0.05, 0.05] for t in range(3)])
    samples = parse_samples(text)
    listed = list(samples)
    assert [s.trial for s in listed] == [0, 1, 2]
    assert samples[-1] == listed[-1] and samples[1:] == listed[1:]
    assert samples == listed and listed == samples and samples != listed[:2]
    assert listed[0] in samples and samples.index(listed[2]) == 2
    with pytest.raises(IndexError):
        samples[3]


# --------------------------------------------------------------------- JSON

def test_parse_json_basic():
    payload = json.dumps([
        {"kernel": "K1", "platform": "gpu", "problem_size_bytes": 4096, "trial": 0,
         "gpu.time_sec": 0.25, "gpu.l1_transactions": 1e6},
    ])
    (s,) = parse_samples(payload, fmt="json")
    assert s.values == {"gpu.time_sec": 0.25, "gpu.l1_transactions": 1e6}


def test_parse_json_rejects_bool_metric():
    payload = json.dumps([
        {"kernel": "K1", "platform": "cpu", "problem_size_bytes": 1, "trial": 0, "m": True},
    ])
    with pytest.raises(ParseError):
        parse_samples(payload, fmt="json")


def test_parse_json_rejects_missing_identity():
    payload = json.dumps([{"kernel": "K1", "platform": "cpu", "trial": 0}])
    with pytest.raises(ParseError):
        parse_samples(payload, fmt="json")


def _json_record(**fields):
    record = {"kernel": "K1", "platform": "cpu", "problem_size_bytes": 4096, "trial": 0}
    record.update(fields)
    return record


def test_parse_json_values_mapping_matches_flat_form():
    flat = _json_record(**{"topdown.core_bound": 0.25, "topdown.memory_bound": 0.5})
    nested = _json_record(values={"topdown.core_bound": 0.25, "topdown.memory_bound": 0.5})
    assert (parse_samples(json.dumps([nested]), fmt="json")
            == parse_samples(json.dumps([flat]), fmt="json"))


def test_parse_json_values_mapping_with_flat_metrics():
    rec = _json_record(values={"a": 1.0}, b=2)
    (s,) = parse_samples(json.dumps([rec]), fmt="json")
    assert s.values == {"a": 1.0, "b": 2.0}
    with pytest.raises(ParseError, match="given twice"):
        parse_samples(json.dumps([_json_record(values={"a": 1.0}, a=1.0)]), fmt="json")
    with pytest.raises(ParseError, match="not a number"):
        parse_samples(json.dumps([_json_record(values={"a": "1.0"})]), fmt="json")


@pytest.mark.parametrize("field", ["problem_size_bytes", "trial"])
@pytest.mark.parametrize("value", [1024.7, True, False, None, [1], "x"])
def test_parse_json_rejects_non_integral_identity(field, value):
    with pytest.raises(ParseError, match=f"{field} is not an integer"):
        parse_samples(json.dumps([_json_record(**{field: value})]), fmt="json")


def test_parse_json_accepts_integral_floats_like_csv():
    (s,) = parse_samples(json.dumps([_json_record(problem_size_bytes=1e6, trial=2.0, m=1)]),
                         fmt="json")
    assert (s.problem_size_bytes, s.trial) == (1000000, 2)
    assert isinstance(s.problem_size_bytes, int) and isinstance(s.trial, int)


def test_parse_csv_with_utf8_bom():
    text = csv_bytes(CPU_HEADER, [["K1", "cpu", 1024, 0, 0.1, 0.7, 0.05, 0.05]])
    assert parse_samples(b"\xef\xbb\xbf" + text.encode()) == parse_samples(text.encode())


def test_unknown_format_rejected():
    with pytest.raises(KstError):
        parse_samples("x", fmt="xml")


# ---------------------------------------------------------------- gpu rates

def test_derive_gpu_rates():
    s = RawSample("k", "gpu", 1 << 20, 0, {
        "gpu.time_sec": 0.5,
        "gpu.l1_transactions": 1000.0,
        "gpu.l2_transactions": 400.0,
        "gpu.hbm_transactions": 100.0,
        "gpu.warp_instructions": 5000.0,
    })
    out = derive_gpu_rates(s)
    assert out.values["gpu.l1_rate"] == 2000.0
    assert out.values["gpu.l2_rate"] == 800.0
    assert out.values["gpu.hbm_rate"] == 200.0
    assert out.values["gpu.ips"] == 10000.0
    # counters and time stay available
    assert out.values["gpu.time_sec"] == 0.5


def test_derive_gpu_rates_requires_time():
    s = RawSample("k", "gpu", 1024, 0, {"gpu.l1_transactions": 10.0})
    with pytest.raises(KstError):
        derive_gpu_rates(s)


def test_derive_gpu_rates_cpu_passthrough_rejected():
    s = RawSample("k", "cpu", 1024, 0, {"topdown.core_bound": 0.5})
    with pytest.raises(KstError):
        derive_gpu_rates(s)


# ------------------------------------------------------------ trial handling

def test_aggregate_trials_means_and_cv():
    samples = [
        RawSample("k", "cpu", 1024, t, {"m": v, "c": 5.0})
        for t, v in enumerate([1.0, 2.0, 3.0])
    ]
    agg, spreads = aggregate_trials(samples)
    (a,) = agg
    assert a.trial == 0
    assert a.values["m"] == 2.0
    assert a.meta["trials"] == "3"
    (sp,) = spreads
    # population std of {1,2,3} is sqrt(2/3)
    assert sp.cv["m"] == pytest.approx(math.sqrt(2.0 / 3.0) / 2.0, rel=1e-12)
    assert sp.cv["c"] == 0.0


def test_aggregate_trials_requires_consistent_metrics():
    samples = [
        RawSample("k", "cpu", 1024, 0, {"m": 1.0}),
        RawSample("k", "cpu", 1024, 1, {"m": 1.0, "extra": 2.0}),
    ]
    with pytest.raises(KstError):
        aggregate_trials(samples)


def test_aggregate_trials_sorted_output():
    samples = [
        RawSample("b", "cpu", 1024, 0, {"m": 1.0}),
        RawSample("a", "cpu", 2048, 0, {"m": 1.0}),
        RawSample("a", "cpu", 1024, 0, {"m": 1.0}),
    ]
    agg, _ = aggregate_trials(samples)
    assert [s.key()[:3] for s in agg] == [("a", "cpu", 1024), ("a", "cpu", 2048), ("b", "cpu", 1024)]


# ---------------------------------------------------------------- build_table

def _cpu_sample(kernel, size, **vals):
    base = {"topdown.core_bound": 0.1, "topdown.memory_bound": 0.7,
            "topdown.fetch_latency": 0.05, "topdown.fetch_bandwidth": 0.05}
    base.update(vals)
    return RawSample(kernel, "cpu", size, 0, base)


def test_build_table_single_size():
    samples = [_cpu_sample("B", 1024), _cpu_sample("A", 1024)]
    t = build_table(samples, CPU_TOPDOWN_METRICS, size_policy=1024)
    assert t.rows == ("A", "B")  # sorted kernels
    assert t.column_names == CPU_TOPDOWN_METRICS
    assert t.meta["platform"] == "cpu"


def test_build_table_all_sizes_variant_labels():
    # tag each size with a distinct core_bound so the mapping is checkable
    samples = [_cpu_sample("A", s, **{"topdown.core_bound": cb})
               for s, cb in ((4096, 0.3), (1024, 0.1), (2048, 0.2))]
    t = build_table(samples, CPU_TOPDOWN_METRICS, size_policy="all")
    # smallest size keeps the bare name; larger sizes get @1, @2 ascending
    assert t.rows == ("A", "A@1", "A@2")
    assert t.meta["size_policy"] == "all"
    assert list(t.column_values("topdown.core_bound")) == [0.1, 0.2, 0.3]


def test_build_table_missing_metric_is_error():
    s = RawSample("A", "cpu", 1024, 0, {"topdown.core_bound": 0.1})
    with pytest.raises(KstError) as exc:
        build_table([s], CPU_TOPDOWN_METRICS, size_policy=1024)
    assert "topdown.memory_bound" in str(exc.value)


def test_build_table_mixed_platform_rejected():
    s1 = _cpu_sample("A", 1024)
    s2 = RawSample("A", "gpu", 1024, 0, {"gpu.time_sec": 1.0})
    with pytest.raises(KstError):
        build_table([s1, s2], CPU_TOPDOWN_METRICS, size_policy=1024)


def test_build_table_duplicate_kernel_size_rejected():
    with pytest.raises(KstError):
        build_table([_cpu_sample("A", 1024), _cpu_sample("A", 1024)],
                    CPU_TOPDOWN_METRICS, size_policy=1024)


def test_build_table_size_not_present():
    with pytest.raises(KstError):
        build_table([_cpu_sample("A", 1024)], CPU_TOPDOWN_METRICS, size_policy=999)


# ------------------------------------------------------------ merge_platforms

def test_merge_platforms_inner_join():
    cpu = make_table([[1.0], [2.0], [3.0]], rows=("a", "b", "c"),
                     columns=(descriptor_for("cpu.x"),))
    gpu = make_table([[10.0], [30.0]], rows=("a", "c"),
                     columns=(descriptor_for("gpu.y"),))
    m = merge_platforms(cpu, gpu)
    assert m.rows == ("a", "c")
    assert m.column_names == ("cpu.x", "gpu.y")
    assert np.array_equal(m.data, [[1.0, 10.0], [3.0, 30.0]])
    assert "b" in m.meta["dropped_kernels"]


def test_merge_platforms_no_overlap_rejected():
    cpu = make_table([[1.0]], rows=("a",), columns=(descriptor_for("cpu.x"),))
    gpu = make_table([[1.0]], rows=("b",), columns=(descriptor_for("gpu.y"),))
    with pytest.raises(KstError):
        merge_platforms(cpu, gpu)


def test_merge_platforms_column_collision_rejected():
    a = make_table([[1.0]], rows=("a",), columns=(descriptor_for("same"),))
    b = make_table([[1.0]], rows=("a",), columns=(descriptor_for("same"),))
    with pytest.raises(KstError):
        merge_platforms(a, b)
