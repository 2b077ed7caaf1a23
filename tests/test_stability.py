"""Problem-size stability: adjacent-size drift and stabilization points."""

import io
import math
import re

import pytest

from kst.dataset import RawSample, trial_groups
from kst.errors import KstError
from kst.stability import (
    StabilityReport,
    _pct_diff,
    kernel_reports,
    stability_series,
    stability_summary,
    write_stability_csv,
)

MB = 1 << 20


def _series(kernel, values_by_size, metric="m", platform="cpu"):
    return [
        RawSample(kernel, platform, size, 0, {metric: v})
        for size, v in values_by_size.items()
    ]


# ---------------------------------------------------------------- pct diff

def test_pct_diff_rel_bases():
    assert _pct_diff(10.0, 12.0, "larger") == pytest.approx(100 * 2 / 12)
    assert _pct_diff(10.0, 12.0, "smaller") == pytest.approx(20.0)
    assert _pct_diff(10.0, 12.0, "symmetric") == pytest.approx(100 * 2 / 11)


def test_pct_diff_zero_handling():
    assert _pct_diff(0.0, 0.0, "larger") == 0.0
    assert _pct_diff(5.0, 0.0, "larger") == math.inf
    assert _pct_diff(0.0, 5.0, "smaller") == math.inf
    assert _pct_diff(-10.0, 10.0, "symmetric") == pytest.approx(200.0)


# ------------------------------------------------------------------- series

def test_stabilizes_at_second_size():
    """Values 10 -> 12 -> 12.1: the 1 MB step is rough, the 2 MB step is not."""
    s = _series("K", {1 * MB: 10.0, 2 * MB: 12.0, 4 * MB: 12.1})
    r = stability_series(s, ["m"], threshold_pct=5.0)
    assert r.sizes == (1 * MB, 2 * MB, 4 * MB)
    assert r.pair_diff_pct[0] == pytest.approx(100 * 2 / 12, abs=1e-9)
    assert r.pair_diff_pct[1] == pytest.approx(100 * 0.1 / 12.1, abs=1e-9)
    assert r.min_stable_size == 2 * MB
    assert r.worst_residual_pct == pytest.approx(100 * 0.1 / 12.1)


def test_never_stable():
    s = _series("K", {1 * MB: 10.0, 2 * MB: 12.0})
    r = stability_series(s, ["m"], threshold_pct=5.0)
    assert r.min_stable_size is None
    assert r.worst_residual_pct == pytest.approx(100 * 2 / 12, abs=1e-3)


def test_stable_from_the_start():
    s = _series("K", {1 * MB: 100.0, 2 * MB: 101.0, 4 * MB: 100.5})
    r = stability_series(s, ["m"], threshold_pct=5.0)
    assert r.min_stable_size == 1 * MB


def test_late_wobble_resets_stability():
    # middle pair is quiet but the last pair jumps: nothing before it counts
    s = _series("K", {1 * MB: 10.0, 2 * MB: 10.1, 4 * MB: 10.0, 8 * MB: 20.0})
    r = stability_series(s, ["m"], threshold_pct=5.0)
    assert r.min_stable_size is None
    assert r.pair_diff_pct[-1] == pytest.approx(50.0)


def test_threshold_is_strict():
    # exactly at the threshold does not count as stable
    s = _series("K", {1 * MB: 95.0, 2 * MB: 100.0})
    r = stability_series(s, ["m"], threshold_pct=5.0)
    assert r.pair_diff_pct[0] == pytest.approx(5.0)
    assert r.min_stable_size is None


def test_max_over_metrics():
    samples = [
        RawSample("K", "cpu", 1 * MB, 0, {"a": 10.0, "b": 100.0}),
        RawSample("K", "cpu", 2 * MB, 0, {"a": 10.0, "b": 50.0}),
    ]
    r = stability_series(samples, ["a", "b"])
    assert r.pair_diff_pct[0] == pytest.approx(100.0)  # b dominates


def test_trial_order_and_duplication_invariance():
    base = [
        RawSample("K", "cpu", 1 * MB, t, {"m": v})
        for t, v in [(0, 9.0), (1, 11.0), (2, 10.0)]
    ] + [RawSample("K", "cpu", 2 * MB, 0, {"m": 10.2})]
    r1 = stability_series(base, ["m"])
    r2 = stability_series(list(reversed(base)), ["m"])
    assert r1 == r2
    # trial mean is 10.0, so the pair diff uses 10.0 vs 10.2
    assert r1.pair_diff_pct[0] == pytest.approx(100 * 0.2 / 10.2)


def test_threshold_monotonicity():
    """A looser threshold never reports a later stabilization size."""
    s = _series("K", {1 * MB: 10.0, 2 * MB: 10.8, 4 * MB: 10.9, 8 * MB: 10.91})
    sizes = []
    for pct in (0.5, 2.0, 10.0, 50.0):
        r = stability_series(s, ["m"], threshold_pct=pct)
        sizes.append(math.inf if r.min_stable_size is None else r.min_stable_size)
    assert sizes == sorted(sizes, reverse=True)


def test_series_validation():
    with pytest.raises(KstError):
        stability_series([], ["m"])
    with pytest.raises(KstError):
        stability_series(_series("K", {1 * MB: 1.0}), ["m"])  # one size only
    with pytest.raises(KstError):
        stability_series(_series("K", {1 * MB: 1.0, 2 * MB: 2.0}), [])
    with pytest.raises(KstError):
        stability_series(_series("K", {1 * MB: 1.0, 2 * MB: 2.0}), ["m"], threshold_pct=0)
    with pytest.raises(KstError):
        stability_series(_series("K", {1 * MB: 1.0, 2 * MB: 2.0}), ["m"], rel_base="median")
    mixed = _series("A", {1 * MB: 1.0}) + _series("B", {2 * MB: 2.0})
    with pytest.raises(KstError):
        stability_series(mixed, ["m"])
    missing = [
        RawSample("K", "cpu", 1 * MB, 0, {"m": 1.0}),
        RawSample("K", "cpu", 2 * MB, 0, {"other": 1.0}),
    ]
    with pytest.raises(KstError) as exc:
        stability_series(missing, ["m"])
    assert "missing" in str(exc.value)


@pytest.mark.parametrize("metric, value, message", [
    ("topdown.core_bound", 1.5, "fraction metric 'topdown.core_bound' has values outside [0, 1]"),
    ("gpu.l1_rate", -1.0, "rate metric 'gpu.l1_rate' has negative values"),
])
def test_series_trial_means_must_lie_in_their_kinds_range(metric, value, message):
    samples = _series("K", {1 * MB: 0.5, 2 * MB: value}, metric=metric)
    with pytest.raises(KstError, match=re.escape(message)):
        stability_series(samples, [metric])


def test_range_errors_come_in_kernel_order_after_missing_metrics():
    metric = "topdown.core_bound"
    out_of_range = _series("a", {1 * MB: 0.5, 2 * MB: 1.5}, metric=metric)
    missing = [RawSample("b", "cpu", 1 * MB, 0, {metric: 0.5}),
               RawSample("b", "cpu", 2 * MB, 0, {"other": 0.5})]
    with pytest.raises(KstError, match="outside"):
        kernel_reports(trial_groups(out_of_range + missing), [metric], 5.0, "larger")
    renamed = [RawSample("0", s.platform, s.problem_size_bytes, s.trial, s.values)
               for s in missing]
    with pytest.raises(KstError, match="missing"):
        kernel_reports(trial_groups(out_of_range + renamed), [metric], 5.0, "larger")


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_threshold_must_be_finite(threshold):
    samples = _series("K", {1 * MB: 1.0, 2 * MB: 2.0})
    with pytest.raises(KstError, match="must be finite"):
        stability_series(samples, ["m"], threshold_pct=threshold)
    with pytest.raises(KstError, match="must be finite"):
        kernel_reports(trial_groups(samples), ["m"], threshold, "larger")


# ------------------------------------------------------------------ summary

def _report(kernel, min_stable, residual=1.0):
    return StabilityReport(
        kernel=kernel, platform="cpu", sizes=(1 * MB, 2 * MB),
        pair_diff_pct=(residual,), min_stable_size=min_stable,
        worst_residual_pct=residual, threshold_pct=5.0, rel_base="larger",
    )


def test_summary_histogram_and_never_stable():
    reports = [
        _report("a", 1 * MB),
        _report("b", 2 * MB),
        _report("c", 2 * MB),
        _report("z", None),
        _report("d", None),
    ]
    s = stability_summary(reports, annotations={"l2_cache": 4 * MB})
    assert s.histogram == {1 * MB: 1, 2 * MB: 2}
    assert s.never_stable == ("d", "z")
    assert s.annotations == {"l2_cache": 4 * MB}
    doc = s.to_dict()
    assert doc["histogram"] == {str(1 * MB): 1, str(2 * MB): 2}


def test_stability_csv_format():
    buf = io.StringIO()
    write_stability_csv([_report("a", 2 * MB, residual=0.5), _report("b", None, 16.7)], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "kernel,min_stable_size_bytes,worst_residual_pct"
    assert lines[1] == f"a,{2 * MB},0.5"
    assert lines[2] == "b,,16.7"


def test_stability_csv_to_a_path(tmp_path):
    reports = [_report("a", 2 * MB, residual=0.5), _report("b", None, 16.7)]
    buf = io.StringIO()
    write_stability_csv(reports, buf)
    write_stability_csv(reports, str(tmp_path / "s.csv"))
    assert (tmp_path / "s.csv").read_bytes() == buf.getvalue().encode()
