"""Results serialize from their fields, and the one JSON writer writes the
text ``json.dumps`` writes of them; spec and report JSON share the sample reader.

The reference expressions below are the hand-written ``to_dict`` bodies the
field-order conversion replaced, kept as the contract it must meet.
"""

import enum
import io
import json
import math
import types
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kst._json import FieldDict, dumps, to_jsonable
from kst.cluster import agglomerative_ward, cut_dendrogram, kmeans_fit
from kst.dataset import parse_samples
from kst.errors import KstError, ParseError
from kst.preprocess import TransformSpec, fit_transform
from kst.quality import CriterionResult, quality_report, ratio_report, select_k
from kst.report import emit_report, export_boxplot_data, parse_report, pca_project
from kst.stability import StabilitySummary, stability_series, stability_summary

from conftest import CPU_HEADER, make_table, two_blob_array, write_cpu_csv


def _merge(m):
    return {"left": m.left, "right": m.right, "height": m.height, "size": m.size,
            "centroid_distance": m.centroid_distance}


def _dendrogram(d):
    return {"leaves": list(d.leaves), "merges": [_merge(m) for m in d.merges]}


def _kmeans(m):
    return {"k": m.k, "assignments": dict(m.assignments), "centroids": m.centroids.tolist(),
            "inertia": m.inertia, "seed": m.seed, "iterations": m.iterations,
            "inertia_history": list(m.inertia_history)}


def _quality(q):
    return {"compactness": list(q.compactness), "separation": q.separation,
            "sizes": list(q.sizes), "compactness_ratio": q.compactness_ratio,
            "bgss": q.bgss, "wgss": q.wgss}


def _ratio(r):
    return {"ratios": dict(r.ratios), "separations": dict(r.separations),
            "compactness_relative": r.compactness_relative,
            "separation_relative": r.separation_relative}


def _projection(p):
    return {"components": p.components.tolist(),
            "explained_variance_ratio": list(p.explained_variance_ratio),
            "coords": {lab: list(xy) for lab, xy in p.coords.items()},
            "centroid_coords": {str(c): list(xy) for c, xy in p.centroid_coords.items()},
            "degenerate": p.degenerate}


def _boxplot(b):
    return {"source": b.source,
            "clusters": {str(c): {m: dict(stats) for m, stats in metrics.items()}
                         for c, metrics in b.clusters.items()}}


def _stability(s):
    return {"kernel": s.kernel, "platform": s.platform, "sizes": list(s.sizes),
            "pair_diff_pct": list(s.pair_diff_pct), "min_stable_size": s.min_stable_size,
            "worst_residual_pct": s.worst_residual_pct, "threshold_pct": s.threshold_pct,
            "rel_base": s.rel_base}


def _column(c):
    return {"metric": c.metric, "log": c.log, "mean": c.mean, "std": c.std}


def _gap(g):
    return {"k": list(g.ks), "gap": list(g.gap), "s": list(g.s), "log_w": list(g.log_w),
            "log_w_ref": list(g.log_w_ref), "dropped_features": list(g.dropped_features)}


def _criterion(c):
    return {"scores": {str(k): v for k, v in sorted(c.scores.items())},
            "selected_k": c.selected_k, "note": c.note}


def _selection(r):
    return {"criteria": {name: _criterion(c) for name, c in r.criteria.items()},
            "consensus_k": r.consensus_k,
            "gap": _gap(r.gap_curve) if r.gap_curve else None}


def _summary(s):
    return {"histogram": {str(size): n for size, n in sorted(s.histogram.items())},
            "never_stable": list(s.never_stable), "annotations": dict(s.annotations)}


def _results(tmp_path):
    """One result of each field-serialized class, computed by the library."""
    data, _ = two_blob_array(n=12, d=3)
    table = make_table(data)
    dendro = agglomerative_ward(table)
    part = cut_dendrogram(dendro, 2)
    model = kmeans_fit(table, 2, 7, 3, 50)
    ward_q, kmeans_q = quality_report(table, part), quality_report(table, model.partition())
    write_cpu_csv(tmp_path / "cpu.csv", kernels=["a"])
    samples = parse_samples((tmp_path / "cpu.csv").read_bytes())
    _, spec = fit_transform(make_table(np.exp(data)), "auto")
    stable = stability_series(samples, CPU_HEADER[4:])
    never = replace(stable, kernel="b", min_stable_size=None)
    selection = select_k(table, criteria=("silhouette", "dunn", "gap"), k_range=range(1, 5),
                         gap_b=5)
    return {
        "Merge": dendro.merges[0],
        "Dendrogram": dendro,
        "KMeansModel": model,
        "QualityReport": ward_q,
        "RatioReport": ratio_report({"ward": ward_q, "kmeans": kmeans_q}),
        "Projection2D": pca_project(table, model.centroids),
        "BoxplotSummary": export_boxplot_data(table, part),
        "StabilityReport": stable,
        "ColumnTransform": spec.columns[0],
        "GapCurve": selection.gap_curve,
        "CriterionResult": selection.criteria["silhouette"],
        "KSelectionReport": selection,
        "StabilitySummary": stability_summary([stable, never], {"l2": 1048576.0}),
    }


def _plain(value):
    """True when ``value`` holds only dicts with str keys, lists and Python scalars."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return value is None or type(value) in (bool, int, float, str)


REFERENCES = {
    "Merge": _merge, "Dendrogram": _dendrogram, "KMeansModel": _kmeans,
    "QualityReport": _quality, "RatioReport": _ratio, "Projection2D": _projection,
    "BoxplotSummary": _boxplot, "StabilityReport": _stability, "ColumnTransform": _column,
    "GapCurve": _gap, "CriterionResult": _criterion, "KSelectionReport": _selection,
    "StabilitySummary": _summary,
}


@pytest.mark.parametrize("name", list(REFERENCES))
def test_field_dict_equals_the_hand_written_one(tmp_path, name):
    obj, reference = _results(tmp_path)[name], REFERENCES[name]
    assert type(obj).__name__ == name
    doc = obj.to_dict()
    assert _plain(doc)
    assert doc == reference(obj)
    assert json.dumps(doc) == json.dumps(reference(obj))


def test_keys_built_out_of_order_are_written_in_ascending_order():
    summary = StabilitySummary(histogram={4096: 1, 1024: 2}, never_stable=(), annotations={})
    criterion = CriterionResult(scores={10: 0.25, 2: 0.5, 3: 0.75}, selected_k=3)
    assert list(summary.to_dict()["histogram"]) == ["1024", "4096"]
    assert list(criterion.to_dict()["scores"]) == ["2", "3", "10"]
    doc = json.loads(emit_report({"summary": summary, "criterion": criterion}))
    assert list(doc["summary"]["histogram"]) == ["1024", "4096"]
    assert list(doc["criterion"]["scores"]) == ["2", "3", "10"]


def test_spec_json_equals_the_record_list():
    _, spec = fit_transform(make_table(np.exp(two_blob_array(n=12, d=3)[0])), "auto")
    records = [_column(c) for c in spec.columns]
    assert spec.to_json() == json.dumps(records, indent=2) + "\n"


def _sources(text):
    raw = text.encode("utf-8")
    bom = b"\xef\xbb\xbf" + raw
    return [text, raw, bom, io.BytesIO(bom), io.StringIO(text)]


def test_spec_reads_every_source_form():
    _, spec = fit_transform(make_table(np.exp(two_blob_array(n=12, d=3)[0])), "auto")
    for source in _sources(spec.to_json()):
        assert TransformSpec.from_json(source) == spec


def test_report_reads_every_source_form():
    text = emit_report({"quality": {"a": 1.5}})
    for source in _sources(text):
        assert parse_report(source) == json.loads(text)


@pytest.mark.parametrize("read, what", [(TransformSpec.from_json, "transform spec"),
                                        (parse_report, "report")])
def test_an_integer_beyond_the_digit_limit_is_a_parse_error(read, what):
    # json.loads raises a plain ValueError for an integer of over 4300 digits
    with pytest.raises(ParseError, match=f"^invalid {what} JSON: Exceeds the limit"):
        read(f'[{{"std": 1{"0" * 5000}}}]')


@pytest.mark.parametrize("read", [TransformSpec.from_json, parse_report])
def test_unsupported_source_type_is_an_input_error(read):
    with pytest.raises(KstError, match="unsupported input source type int"):
        read(3)
    with pytest.raises(ParseError):
        read(b"\xef\xbb\xbf[")


# ------------------------------------------------- the one-walk JSON writer

@dataclass(frozen=True)
class _Fields(FieldDict):
    first: Any
    second: Any = field(default=None, metadata={"json": "2nd"})


@dataclass(frozen=True)
class _Clash(FieldDict):
    """Two fields under one JSON name: to_dict keeps the first place and the last value."""
    a: Any
    b: Any = field(default=None, metadata={"json": "a"})
    c: Any = None


class _Str(str):
    pass


class _Float(float):
    pass


class _Level(enum.IntEnum):
    HIGH = 3


class _ToDict:
    def __init__(self, value):
        self.value = value

    def to_dict(self):
        return {"value": self.value, "pair": (self.value, 1)}


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e22, 0.1, -1.5e-300]))
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)  # controls and lone surrogates
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70), FLOATS, TEXT,
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**31, 2**31 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8))
ARRAYS = st.one_of(
    FLOATS.map(np.array),  # 0-d
    st.lists(FLOATS, max_size=3).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2)),
    st.lists(st.lists(FLOATS, min_size=3, max_size=3), min_size=1, max_size=2).map(np.array),
    st.lists(st.booleans(), max_size=3).map(lambda b: np.array(b, dtype=bool)))
KEYS = st.one_of(TEXT, st.integers(-3, 3), st.sampled_from(["1", "-1", "0"]))


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=3).map(types.MappingProxyType),
        st.builds(_Fields, children, children),
        st.builds(_Clash, children, children, children),
        children.map(_ToDict))


OBJECTS = st.recursive(st.one_of(SCALARS, ARRAYS), _nested, max_leaves=20)


@settings(max_examples=400, deadline=None, database=None)
@given(obj=OBJECTS)
def test_dumps_writes_what_json_dumps_writes(obj):
    assert dumps(obj) == json.dumps(to_jsonable(obj), indent=2)


@pytest.mark.parametrize("obj", [
    {1: "a", "1": "b"}, {"1": "b", 1: "a"}, {}, [], (), [[], {}, ()],
    {"\x00\x1f\ud800": "😀\x7f "}, np.array(2.5), np.zeros((2, 0)),
    np.arange(6.0).reshape(2, 3), [np.float64("nan"), -np.inf, np.float32(0.1)],
    _Clash(1, 2, 3), types.MappingProxyType({2: 1}), {1j: 1, None: 2, True: 3},
    # subclasses of str, int and float take the writer's fallback branch
    np.str_("a\u00e9"), _Str("b\u00e9"), _Level.HIGH, [_Float(0.1), _Float("nan")],
    {"level": _Level.HIGH, "inf": _Float("-inf")},
])
def test_dumps_on_edge_cases(obj):
    assert dumps(obj) == json.dumps(to_jsonable(obj), indent=2)


@pytest.mark.parametrize("obj", [np.bool_(True), [1, {"a": np.bool_(False)}], 1j,
                                 _Fields(object())])
def test_dumps_raises_what_to_jsonable_raises(obj):
    with pytest.raises(KstError) as expected:
        to_jsonable(obj)
    with pytest.raises(KstError) as got:
        dumps(obj)
    assert str(got.value) == str(expected.value)


def test_every_result_dumps_as_json_dumps_writes_it(tmp_path):
    for obj in _results(tmp_path).values():
        assert dumps(obj) == json.dumps(to_jsonable(obj), indent=2)
