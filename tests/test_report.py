"""2-D projection, boxplot summaries, JSON report envelope."""

import json
import math
import warnings

import numpy as np
import pytest

from kst._json import to_jsonable
from kst.cluster import Partition, kmeans_fit
from kst.dataset import MetricTable, descriptor_for
from kst.errors import KstError
from kst.report import (
    CANONICAL_SECTIONS,
    SCHEMA_VERSION,
    emit_report,
    export_boxplot_data,
    format_metric_value,
    parse_report,
    pca_project,
)

from conftest import make_table


# --------------------------------------------------------------- projection

def test_projection_preserves_distances_at_full_rank():
    """With d=2 the projection is a rigid rotation: distances survive."""
    rng = np.random.default_rng(40)
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(3, 12)), 2)) * 5
        t = make_table(x)
        pr = pca_project(t)
        pts = np.array([pr.coords[lab] for lab in t.rows])
        orig = np.sqrt(((x[:, None] - x[None, :]) ** 2).sum(-1))
        proj = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        assert np.allclose(orig, proj, atol=1e-9)
        assert pr.explained_variance_ratio[0] + pr.explained_variance_ratio[1] == pytest.approx(1.0)


def test_projection_rank_one_is_flagged():
    # all points on a line through 3 dims
    s = np.linspace(0, 1, 7)[:, None]
    x = s @ np.array([[1.0, 2.0, -1.0]])
    pr = pca_project(make_table(x))
    assert pr.degenerate
    assert pr.explained_variance_ratio == (1.0, 0.0)
    second = [xy[1] for xy in pr.coords.values()]
    assert np.allclose(second, 0.0, atol=1e-9)


def test_projection_sign_convention():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(10, 4))
    pr = pca_project(make_table(x))
    for row in pr.components:
        assert row[np.abs(row).argmax()] > 0
    # flipping the data's sign must not flip the convention
    pr2 = pca_project(make_table(-x))
    for row in pr2.components:
        assert row[np.abs(row).argmax()] > 0


def test_projection_axes_ordered_by_variance():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(40, 3)) * np.array([10.0, 1.0, 0.1])
    pr = pca_project(make_table(x))
    r0, r1 = pr.explained_variance_ratio
    assert r0 > r1 > 0
    # the first component should essentially be the wide axis
    assert abs(pr.components[0, 0]) > 0.99


def test_projection_unit_square_splits_variance_evenly():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    pr = pca_project(make_table(x))
    assert pr.explained_variance_ratio == (0.5, 0.5)
    assert not pr.degenerate


def test_projection_centroids_follow_members():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(12, 3))
    t = make_table(x)
    model = kmeans_fit(t, 3, seed=2)
    pr = pca_project(t, centroids=model.centroids)
    for c in range(3):
        members = [lab for lab, cc in model.assignments.items() if cc == c]
        pts = np.array([pr.coords[lab] for lab in members])
        assert np.allclose(pts.mean(axis=0), pr.centroid_coords[c], atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_projection_is_the_same_on_either_layout(seed):
    x = np.random.default_rng(seed).normal(size=(300, 6)) * 3.0 + 1.0
    row_major, col_major = (make_table(np.asarray(x, order=order)) for order in "CF")
    assert row_major.data.flags.c_contiguous and col_major.data.flags.f_contiguous
    assert (pca_project(row_major, x[:3]).to_dict()
            == pca_project(col_major, x[:3]).to_dict())


def test_projection_input_validation():
    with pytest.raises(KstError):
        pca_project(make_table([[1.0, 2.0]]))  # one row
    with pytest.raises(KstError):
        pca_project(make_table([[1.0], [2.0]]))  # one column
    t = make_table([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(KstError):
        pca_project(t, centroids=[[1.0]])  # wrong width


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_refuses_non_finite_centroids(bad):
    t = make_table([[1.0, 2.0], [3.0, 5.0], [0.0, 1.0]])
    with pytest.raises(KstError, match="^centroids must be finite$"):
        pca_project(t, centroids=[[1.0, 2.0], [bad, 0.0]])


@pytest.mark.parametrize("x", [
    np.tile([[1e308, -1e308, 1.0], [-1e308, 1e308, 2.0]], (6, 1)),  # rows near +-1e308
    np.random.default_rng(0).normal(size=(12, 3)) * 1e200,  # finite mean, squares overflow
    np.full((12, 2), 1.5e308) * np.repeat([[1.0], [-1.0]], 6, axis=0),  # the mean overflows
])
def test_projection_covariance_that_overflows_raises(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KstError, match="rescale the data$"):
            pca_project(make_table(x))


# ------------------------------------------------------------------ boxplots

def test_boxplot_quartiles_match_numpy():
    rng = np.random.default_rng(44)
    x = rng.normal(size=(9, 2))
    t = make_table(x)
    p = Partition({lab: (0 if i < 5 else 1) for i, lab in enumerate(t.rows)}, 2)
    bp = export_boxplot_data(t, p)
    vals = x[:5, 0]
    got = bp.clusters[0]["m0"]
    assert got["min"] == vals.min()
    assert got["q1"] == pytest.approx(np.quantile(vals, 0.25), abs=1e-12)
    assert got["median"] == pytest.approx(np.median(vals), abs=1e-12)
    assert got["q3"] == pytest.approx(np.quantile(vals, 0.75), abs=1e-12)
    assert got["max"] == vals.max()


def test_boxplot_source_flag_tracks_table_space():
    t = make_table([[0.0], [1.0], [2.0], [3.0]])
    p = Partition({r: (0 if i < 2 else 1) for i, r in enumerate(t.rows)}, 2)
    assert export_boxplot_data(t, p).source == "raw"
    from kst.dataset import MetricTable
    std = MetricTable(t.rows, t.columns, t.data, meta={"space": "standardized"})
    assert export_boxplot_data(std, p).source == "standardized"


def test_boxplot_raw_override():
    std = make_table([[-1.0], [1.0]], rows=("a", "b"))
    raw = make_table([[100.0], [300.0]], rows=("a", "b"))
    p = Partition({"a": 0, "b": 1}, 2)
    bp = export_boxplot_data(std, p, raw=raw)
    assert bp.source == "raw"
    assert bp.clusters[0]["m0"]["median"] == 100.0
    missing = make_table([[100.0]], rows=("a",))
    with pytest.raises(KstError):
        export_boxplot_data(std, p, raw=missing)


def test_boxplot_finds_raw_rows_by_label_in_any_order():
    rng = np.random.default_rng(8)
    raw = make_table(rng.normal(size=(25, 3)) * 5.0)
    std = make_table((raw.data - 1.0) / 5.0)
    p = Partition({lab: i % 3 for i, lab in enumerate(std.rows)}, 3)
    backwards = MetricTable(raw.rows[::-1], raw.columns, raw.data[::-1])
    bp = export_boxplot_data(std, p, raw=backwards)
    for c in range(3):
        idx = [i for i, lab in enumerate(raw.rows) if p.labels[lab] == c]
        for j, name in enumerate(raw.column_names):
            q = np.quantile(raw.data[idx, j], [0.0, 0.25, 0.5, 0.75, 1.0])
            assert bp.clusters[c][name] == dict(zip(("min", "q1", "median", "q3", "max"),
                                                    q.tolist()))


def test_boxplot_partition_mismatch():
    t = make_table([[0.0], [1.0]])
    with pytest.raises(KstError):
        export_boxplot_data(t, Partition({"x": 0, "y": 1}, 2))


def test_format_metric_value():
    frac = descriptor_for("topdown.memory_bound")
    assert format_metric_value(frac, 0.935) == "93.5%"
    assert format_metric_value(frac, 0.0) == "0.0%"
    rate = descriptor_for("gpu.l1_rate")
    out = format_metric_value(rate, 87560000000.0)
    assert "%" not in out
    assert format_metric_value(descriptor_for("gpu.time_sec"), 0.000123456) == "0.0001235 s"


# -------------------------------------------------------------- JSON envelope

def test_emit_report_envelope_and_order():
    text = emit_report({"quality": {"a": 1}, "config": {"seed": 1}})
    doc = json.loads(text)
    assert doc["schema_version"] == SCHEMA_VERSION
    # canonical section order regardless of input order
    assert list(doc) == ["schema_version", "config", "quality"]
    assert text.endswith("\n")
    assert parse_report(text) == doc


def test_emit_report_unknown_sections_sort_after_known():
    text = emit_report({"zeta": 1, "alpha": 2, "quality": {}})
    assert list(json.loads(text)) == ["schema_version", "quality", "alpha", "zeta"]


def test_canonical_sections_cover_cli_outputs():
    for section in ("partition", "dendrogram", "kmeans", "quality", "selection",
                    "family", "stability", "projection", "boxplot", "transform"):
        assert section in CANONICAL_SECTIONS


def test_parse_report_validates_envelope():
    with pytest.raises(KstError):
        parse_report(json.dumps({"no_version": True}))
    with pytest.raises(KstError):
        parse_report(json.dumps({"schema_version": 999}))
    with pytest.raises(KstError):
        parse_report("[1, 2]")


def test_to_jsonable_handles_package_types(four_point_line):
    from kst.cluster import agglomerative_ward
    from kst.quality import quality_report

    dend = agglomerative_ward(four_point_line)
    p = Partition({r: (0 if i < 2 else 1) for i, r in enumerate(four_point_line.rows)}, 2)
    doc = to_jsonable({
        "dendrogram": dend,
        "quality": quality_report(four_point_line, p),
        "arr": np.arange(3),
        "np_scalar": np.float64(1.5),
        "inf": math.inf,
    })
    text = json.dumps(doc)  # must be serializable
    assert json.loads(text)["arr"] == [0, 1, 2]
    assert json.loads(text)["np_scalar"] == 1.5
    # json's extension spelling round-trips non-finite sentinels
    assert math.isinf(json.loads(text)["inf"])


def test_round_trip_through_emit_parse(four_point_line):
    p = Partition({r: (0 if i < 2 else 1) for i, r in enumerate(four_point_line.rows)}, 2)
    text = emit_report({"partition": to_jsonable(p)})
    back = parse_report(text)
    assert back["partition"]["labels"] == {r: (0 if i < 2 else 1)
                                           for i, r in enumerate(four_point_line.rows)}
