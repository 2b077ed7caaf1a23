"""Standardization: log policy, z-scoring, transform replay."""

import math

import numpy as np
import pytest

from kst.dataset import MetricDescriptor, MetricTable, moments
from kst.errors import KstError, ParseError
from kst.preprocess import ColumnTransform, TransformSpec, apply_transform, fit_transform
from kst.report import pca_project

from conftest import make_table


def _kinded(values, kind, name="m0"):
    col = MetricDescriptor(name, kind, "any", "")
    arr = np.asarray(values, dtype=float)[:, None]
    return MetricTable(tuple(f"k{i}" for i in range(len(arr))), (col,), arr)


def test_log_then_zscore_hand_values():
    """{1, e^2, e^4} with the log applied standardizes to {-1.2247, 0, 1.2247}."""
    t = _kinded([1.0, math.e ** 2, math.e ** 4], "rate")
    out, spec = fit_transform(t, log_policy=["m0"])
    want = math.sqrt(3.0 / 2.0)
    assert np.allclose(out.data[:, 0], [-want, 0.0, want], atol=1e-12)
    (c,) = spec.columns
    assert c.log is True
    assert c.mean == pytest.approx(2.0)
    assert c.std == pytest.approx(math.sqrt(8.0 / 3.0))


def test_zscore_uses_population_std():
    t = make_table([[1.0], [2.0], [3.0]])
    out, spec = fit_transform(t, log_policy="none")
    assert spec.columns[0].std == pytest.approx(math.sqrt(2.0 / 3.0))
    assert out.data[:, 0] == pytest.approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])


def test_auto_log_triggers_on_wide_positive_rate():
    t = _kinded([1.0, 10.0, 1000.0], "rate")
    out, spec = fit_transform(t, log_policy="auto")
    assert spec.columns[0].log is True
    assert "m0" in out.meta["log_metrics"]


def test_auto_log_respects_ratio_threshold():
    # max/min = 99 stays linear, just above 100 flips
    lo = _kinded([1.0, 99.0], "rate")
    assert fit_transform(lo, log_policy="auto")[1].columns[0].log is False
    hi = _kinded([1.0, 101.0], "rate")
    assert fit_transform(hi, log_policy="auto")[1].columns[0].log is True


def test_auto_log_never_touches_fractions():
    # same magnitude spread, but fractions stay linear by kind
    t = _kinded([1e-6, 0.9], "fraction")
    _, spec = fit_transform(t, log_policy="auto")
    assert spec.columns[0].log is False


def test_auto_log_skips_columns_with_zeros():
    t = _kinded([0.0, 500.0], "count")
    _, spec = fit_transform(t, log_policy="auto")
    assert spec.columns[0].log is False


def test_explicit_log_on_nonpositive_value_is_error():
    t = make_table([[0.0], [5.0]])
    with pytest.raises(KstError) as exc:
        fit_transform(t, log_policy=["m0"])
    assert "m0" in str(exc.value)


def test_explicit_log_unknown_metric_is_error():
    t = make_table([[1.0], [5.0]])
    with pytest.raises(KstError):
        fit_transform(t, log_policy=["nope"])


def test_zero_variance_column_dropped_and_recorded():
    t = make_table([[1.0, 7.0], [2.0, 7.0]])
    out, spec = fit_transform(t, log_policy="none")
    assert out.column_names == ("m0",)
    assert "m1" in out.meta["dropped_zero_variance"]
    assert [c.metric for c in spec.columns] == ["m0"]


def test_all_columns_zero_variance_is_error():
    t = make_table([[7.0], [7.0]])
    with pytest.raises(KstError):
        fit_transform(t, log_policy="none")


def test_standardized_table_is_marked():
    out, _ = fit_transform(make_table([[1.0], [2.0]]), log_policy="none")
    assert out.meta["space"] == "standardized"
    assert all(c.kind == "score" for c in out.columns)


def test_property_standardized_moments():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        d = int(rng.integers(1, 6))
        data = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        out, _ = fit_transform(make_table(data), log_policy="none")
        assert np.abs(out.data.mean(axis=0)).max() < 1e-9
        assert np.abs(out.data.std(axis=0) - 1.0).max() < 1e-9


def test_spec_json_round_trip():
    t = _kinded([1.0, 10.0, 1000.0], "rate")
    _, spec = fit_transform(t, log_policy="auto")
    text = spec.to_json()
    back = TransformSpec.from_json(text)
    assert back == spec
    # serialized form is a bare list of column entries
    import json
    doc = json.loads(text)
    assert isinstance(doc, list)
    assert set(doc[0]) == {"metric", "log", "mean", "std"}


def test_spec_rejects_nonpositive_std():
    with pytest.raises(KstError):
        TransformSpec.from_json('[{"metric": "m", "log": false, "mean": 0.0, "std": 0.0}]')


@pytest.mark.parametrize("record, message", [
    ('"metric": "m", "log": "false", "mean": "1.5", "std": 2', "log must be a boolean, got 'false'"),
    ('"metric": "m", "log": false, "mean": "1.5", "std": 2', "mean must be a finite number, got '1.5'"),
    ('"metric": "m", "log": false, "mean": true, "std": 2', "mean must be a finite number, got True"),
    ('"metric": "m0", "log": false, "mean": 0, "std": Infinity', "std must be a finite number, got inf"),
    ('"metric": "m0", "log": false, "mean": 0, "std": NaN', "std must be a finite number, got nan"),
    ('"metric": 5, "log": false, "mean": 0, "std": 1', "metric must be a string, got 5"),
    ('"metric": "m", "log": false, "mean": 0', "missing field 'std'"),
    (f'"metric": "m", "log": false, "mean": 1{"0" * 400}, "std": 1', "int too large"),
], ids=["text-log", "text-mean", "bool-mean", "inf-std", "nan-std", "number-metric",
        "missing-std", "huge-mean"])
def test_spec_records_need_their_json_types_and_finite_numbers(record, message):
    # values that bool()/float() coercion or a lone std > 0 check would accept
    good = '{"metric": "a", "log": true, "mean": 0.5, "std": 2}'
    with pytest.raises(ParseError, match=f"^transform spec record 1: {message}"):
        TransformSpec.from_json(f"[{good}, {{{record}}}]")


@pytest.mark.parametrize("record, kind", [("1", "int"), ("[1, 2]", "list"), ('"m"', "str"),
                                          ("null", "NoneType")])
def test_spec_records_must_be_objects(record, kind):
    good = '{"metric": "a", "log": true, "mean": 0.5, "std": 2}'
    with pytest.raises(ParseError, match=f"^transform spec record 1: expected an object, got {kind}$"):
        TransformSpec.from_json(f"[{good}, {record}]")


def test_spec_records_take_integers_and_column_transform_checks_itself():
    (col,) = TransformSpec.from_json('[{"metric": "m", "log": false, "mean": 1, "std": 2}]').columns
    assert col == ColumnTransform("m", False, 1.0, 2.0)
    with pytest.raises(KstError, match="std must be positive, got -1.0"):
        ColumnTransform("m", False, 0.0, -1.0)


def test_apply_transform_replays_fit_exactly():
    rng = np.random.default_rng(4)
    data = np.exp(rng.normal(size=(20, 3)) * 3)  # wide positive spread
    t = _kinded(data[:, 0], "rate", "a")
    cols = tuple(MetricDescriptor(n, "rate", "any", "") for n in ("a", "b", "c"))
    t = MetricTable(tuple(f"k{i}" for i in range(20)), cols, data)
    fitted, spec = fit_transform(t, log_policy="auto")
    replayed = apply_transform(t, spec)
    # bit-identical, not merely close
    assert np.array_equal(fitted.data, replayed.data)
    assert replayed.column_names == fitted.column_names


def test_apply_transform_to_new_rows():
    train = _kinded([1.0, 2.0, 3.0], "rate")
    _, spec = fit_transform(train, log_policy="none")
    test = _kinded([2.0, 4.0], "rate")
    out = apply_transform(test, spec)
    std = math.sqrt(2.0 / 3.0)
    assert out.data[:, 0] == pytest.approx([0.0, 2.0 / std])


def test_apply_transform_missing_column_is_error():
    train = make_table([[1.0], [2.0]])
    _, spec = fit_transform(train, log_policy="none")
    other = make_table([[1.0], [2.0]], columns=None)
    other = MetricTable(("a", "b"), (MetricDescriptor("different", "score", "any", ""),),
                        [[1.0], [2.0]])
    with pytest.raises(KstError):
        apply_transform(other, spec)


def test_apply_transform_log_rejects_nonpositive():
    train = _kinded([1.0, 1000.0], "rate")
    _, spec = fit_transform(train, log_policy="auto")
    assert spec.columns[0].log
    bad = _kinded([0.0, 1.0], "rate")
    with pytest.raises(KstError):
        apply_transform(bad, spec)


@pytest.mark.parametrize("order", ["C", "F"])
def test_fit_transform_output_is_apply_transform_of_its_spec(order):
    # a log column, a zero-variance column and two linear ones, on either layout
    rng = np.random.default_rng(21)
    data = np.column_stack([np.exp(rng.normal(size=40) * 3), rng.normal(size=40),
                            np.full(40, 2.5), rng.uniform(size=40)])
    cols = tuple(MetricDescriptor(name, kind, "any", "") for name, kind in
                 (("wide", "rate"), ("signed", "score"), ("flat", "rate"), ("share", "fraction")))
    raw = MetricTable(tuple(f"k{i:02d}" for i in range(40)), cols, np.asarray(data, order=order))
    assert raw.data.flags[f"{order}_CONTIGUOUS"]
    fitted, spec = fit_transform(raw, "auto")
    assert [(c.metric, c.log) for c in spec.columns] == [
        ("wide", True), ("signed", False), ("share", False)]
    assert fitted.meta["dropped_zero_variance"] == "flat"
    replayed = apply_transform(raw, spec)
    assert fitted.data.tobytes(order="A") == replayed.data.tobytes(order="A")
    assert fitted.data.flags.f_contiguous and replayed.data.flags.f_contiguous
    assert fitted.columns == replayed.columns


@pytest.mark.parametrize("seed", range(5))
def test_replayed_table_projects_like_the_fitted_one(seed):
    x = np.random.default_rng(seed).normal(size=(400, 6)) * 3.0 + 1.0
    fits = []
    for order in "CF":
        raw = make_table(np.asarray(x, order=order))
        fitted, spec = fit_transform(raw, "none")
        assert pca_project(apply_transform(raw, spec)).to_dict() == pca_project(fitted).to_dict()
        fits.append((spec, fitted.data.tobytes(order="A")))
    assert fits[0] == fits[1]  # either layout of one table fits the same spec, bit for bit


@pytest.mark.parametrize("ratio", [math.nan, math.inf])
def test_auto_log_ratio_must_be_finite(ratio):
    with pytest.raises(KstError, match="must be finite"):
        fit_transform(_kinded([1.0, 10.0, 1000.0], "rate"), "auto", auto_ratio=ratio)


@pytest.mark.parametrize("order", ["C", "F"])
def test_fit_transform_standardizes_a_column_whose_squares_overflow(order):
    # numpy's std of {1e200, 1, 2, 3, 4} squares 8e199 and overflows; the
    # unit-scale moments keep it finite, and the ordinary column keeps
    # numpy's own moments bit for bit
    data = np.array([[1e200, 1.0, 2.0, 3.0, 4.0], [0.5, -1.0, 2.0, 0.25, 3.0]]).T
    cols = (MetricDescriptor("big", "rate", "any", ""), MetricDescriptor("plain", "score", "any", ""))
    raw = MetricTable(tuple(f"k{i}" for i in range(5)), cols, np.asarray(data, order=order))
    with np.errstate(over="raise"):
        fitted, spec = fit_transform(raw, "none")
    big, plain = spec.columns
    assert big.mean == pytest.approx(2e199, rel=1e-15)
    assert big.std == pytest.approx(4e199, rel=1e-15)
    assert (plain.mean, plain.std) == (float(data[:, 1].mean()), float(data[:, 1].std()))
    assert fitted.data[:, 0].mean() == pytest.approx(0.0, abs=1e-15)
    assert fitted.data[:, 0].std() == pytest.approx(1.0)


def test_moments_keep_numpys_bits_and_rescue_overflow():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 7)) * 10.0 ** rng.integers(-5, 5, size=7)
    x[3, 2] = 1e300  # column 2's squares overflow
    x[4, 5] = np.nan  # column 5 keeps numpy's NaN
    for arr in (x, np.asfortranarray(x)):
        for axis, lines in ((0, arr.T), (1, arr)):
            with np.errstate(over="ignore", invalid="ignore"):
                want = arr.mean(axis=axis), arr.std(axis=axis)
            mu, sd = moments(arr, axis=axis)
            finite = np.isfinite(want[0]) & np.isfinite(want[1])
            assert np.array_equal(mu[finite], want[0][finite])
            assert np.array_equal(sd[finite], want[1][finite])
            for i in np.flatnonzero(~finite):
                line = lines[i]
                if np.isnan(line).any():
                    assert np.isnan(mu[i]) and np.isnan(sd[i])
                else:
                    unit = line / np.abs(line).max()
                    assert mu[i] == pytest.approx(unit.mean() * 1e300)
                    assert sd[i] == pytest.approx(unit.std() * 1e300)
                    assert np.isfinite(sd[i])
