"""Partition quality indices, the gap statistic, and k selection."""

import _thread
import json
import math
import os
import re
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import kst.cluster
import kst.quality
from kst.cli import main
from kst.cluster import (
    Partition,
    _canonical_ids,
    _pairwise_sq,
    _ward_merge_steps,
    agglomerative_ward,
    cut_dendrogram,
    kmeans_fit,
)
from kst.errors import KstError
from kst.dataset import MetricTable
from kst.preprocess import fit_transform
from kst.quality import (
    _labels_for,
    ALL_CRITERIA,
    CLUSTER_METHODS,
    DEFAULT_CRITERIA,
    DegenerateResultWarning,
    GapCurve,
    bic_score,
    calinski_harabasz,
    compactness,
    davies_bouldin,
    dunn_index,
    gap_statistic,
    quality_report,
    ratio_report,
    select_k,
    separation,
    silhouette,
    sum_of_squares,
    tibshirani_select,
)
from kst.report import emit_report
from kst.similarity import family_similarity

from conftest import make_table, two_blob_array, write_cpu_csv
from golden_corpus import run_cli

TWO_TWO = Partition({"k00": 0, "k01": 0, "k02": 1, "k03": 1}, 2)


# ---------------------------------------------------- descriptive statistics

def test_compactness_and_separation_hand_values(four_point_line):
    comp = compactness(four_point_line, TWO_TWO)
    assert comp == pytest.approx([0.05, 0.05], abs=1e-12)
    assert separation(four_point_line, TWO_TWO) == pytest.approx(10.0, abs=1e-12)


def test_separation_averages_all_centroid_pairs():
    t = make_table([[0.0], [4.0], [11.0]])
    p = Partition({"k00": 0, "k01": 1, "k02": 2}, 3)
    # centroid gaps 4, 7, 11 -> mean 22/3
    assert separation(t, p) == pytest.approx(22.0 / 3.0)


def test_sum_of_squares_decomposition_property():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        x = rng.normal(size=(n, d)) * 10
        t = make_table(x)
        # random valid partition: force every id to appear
        assign = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        rng.shuffle(assign)
        p = Partition({lab: int(c) for lab, c in zip(t.rows, assign)}, k)
        bgss, wgss = sum_of_squares(t, p)
        tss = float(((x - x.mean(axis=0)) ** 2).sum())
        assert bgss + wgss == pytest.approx(tss, rel=1e-9)
        assert bgss >= -1e-12 and wgss >= -1e-12


def test_quality_report_fields(four_point_line):
    qr = quality_report(four_point_line, TWO_TWO)
    assert qr.sizes == (2, 2)
    assert qr.compactness_ratio == pytest.approx(1.0)
    assert qr.bgss == pytest.approx(100.0)
    assert qr.wgss == pytest.approx(0.01)


def test_quality_report_k1_has_no_separation():
    t = make_table([[0.0], [1.0]])
    qr = quality_report(t, Partition({"k00": 0, "k01": 0}, 1))
    assert qr.separation is None
    assert qr.compactness_ratio is None


def test_ratio_report_cross_method_spreads():
    a = quality_report(make_table([[0.0], [0.2], [10.0], [10.4]]), TWO_TWO)
    b = quality_report(make_table([[0.0], [0.4], [10.0], [10.2]]), TWO_TWO)
    rr = ratio_report({"agglomerative": a, "kmeans": b})
    assert rr.ratios["agglomerative"] == pytest.approx(2.0)
    assert rr.ratios["kmeans"] == pytest.approx(0.5)
    assert rr.compactness_relative == pytest.approx(4.0)
    # centroids 0.1/10.2 vs 0.2/10.1 -> separations 10.1 and 9.9
    assert rr.separation_relative == pytest.approx(10.1 / 9.9)


def test_ratio_report_rejects_wrong_shapes(four_point_line):
    three = quality_report(
        make_table([[0.0], [1.0], [2.0]]),
        Partition({"k00": 0, "k01": 1, "k02": 2}, 3),
    )
    with pytest.raises(KstError):
        ratio_report({"m": three})
    with pytest.raises(KstError):
        ratio_report({})


# ----------------------------------------------------------- quality indices

def test_silhouette_exact_hand_value(four_point_line):
    want = (9.95 / 10.05 + 9.85 / 9.95) / 2.0
    assert silhouette(four_point_line, TWO_TWO) == pytest.approx(want, abs=1e-12)


def test_silhouette_reference_implementation():
    """Cross-check the vectorized form against a literal per-point loop."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(14, 3))
    t = make_table(x)
    p = cut_dendrogram(agglomerative_ward(t), 4)
    assign = np.array([p.labels[lab] for lab in t.rows])

    def point_silhouette(i):
        d = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        own = assign == assign[i]
        if own.sum() == 1:
            return 0.0
        a = d[own & (np.arange(len(x)) != i)].mean()
        b = min(d[assign == c].mean() for c in range(p.k) if c != assign[i])
        return (b - a) / max(a, b)

    want = np.mean([point_silhouette(i) for i in range(len(x))])
    assert silhouette(t, p) == pytest.approx(want, abs=1e-12)


def test_silhouette_singleton_scores_zero():
    # cluster {k02} is a singleton: its contribution must be exactly 0
    t = make_table([[0.0], [0.2], [50.0]])
    p = Partition({"k00": 0, "k01": 0, "k02": 1}, 2)
    # points 0, 1: a=0.2, b=distance to the far point
    s0 = (50.0 - 0.2) / 50.0
    s1 = (49.8 - 0.2) / 49.8
    assert silhouette(t, p) == pytest.approx((s0 + s1 + 0.0) / 3.0, abs=1e-12)


def test_silhouette_domain_errors(four_point_line):
    with pytest.raises(KstError):
        silhouette(four_point_line, Partition({r: 0 for r in four_point_line.rows}, 1))
    with pytest.raises(KstError):
        silhouette(four_point_line, Partition({r: i for i, r in enumerate(four_point_line.rows)}, 4))


def test_calinski_harabasz_hand_value(four_point_line):
    assert calinski_harabasz(four_point_line, TWO_TWO) == pytest.approx(20000.0, rel=1e-9)


def test_calinski_harabasz_degenerate_sentinel():
    t = make_table([[0.0], [0.0], [1.0], [1.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = calinski_harabasz(t, TWO_TWO)
    assert v == math.inf
    assert any(issubclass(w.category, DegenerateResultWarning) for w in caught)


def test_dunn_hand_value(four_point_line):
    assert dunn_index(four_point_line, TWO_TWO) == pytest.approx(99.0, rel=1e-12)


def test_dunn_degenerate_sentinel():
    t = make_table([[0.0], [0.0], [5.0], [5.0]])
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("ignore")
        assert dunn_index(t, TWO_TWO) == math.inf


def test_davies_bouldin_hand_value(four_point_line):
    assert davies_bouldin(four_point_line, TWO_TWO) == pytest.approx(0.01, rel=1e-9)


def test_davies_bouldin_coincident_centroids():
    t = make_table([[0.0], [2.0], [1.0], [1.0]])  # both centroids at 1.0
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("ignore")
        assert davies_bouldin(t, TWO_TWO) == math.inf


def test_bic_hand_value(four_point_line):
    n, d, k, wgss = 4, 1, 2, 0.01
    sigma2 = wgss / (n - k)
    ll = (
        2 * math.log(2) + 2 * math.log(2)
        - n * math.log(n)
        - (n * d / 2.0) * math.log(2 * math.pi * sigma2)
        - (n - k) / 2.0
    )
    want = ll - ((k - 1) + k * d + 1) / 2.0 * math.log(n)
    assert bic_score(four_point_line, TWO_TWO) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.3757031557978, abs=1e-10)


def test_bic_degenerate_sentinel():
    t = make_table([[0.0], [0.0], [1.0], [1.0]])
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("ignore")
        assert bic_score(t, TWO_TWO) == -math.inf


def test_bic_prefers_true_k_on_blobs():
    data, _ = two_blob_array(n=40, d=4, gap=8.0, seed=33)
    t = make_table(data)
    dend = agglomerative_ward(t)
    scores = {k: bic_score(t, cut_dendrogram(dend, k)) for k in range(1, 6)}
    assert max(scores, key=scores.get) == 2


def test_indices_reward_the_true_partition(two_blob_table):
    t, _ = two_blob_table
    dend = agglomerative_ward(t)
    good = cut_dendrogram(dend, 2)
    sil = {k: silhouette(t, cut_dendrogram(dend, k)) for k in (2, 3, 4, 5)}
    assert max(sil, key=sil.get) == 2
    assert silhouette(t, good) > 0.6


def test_partition_table_mismatch_rejected(four_point_line):
    p = Partition({"x": 0, "y": 1}, 2)
    with pytest.raises(KstError):
        silhouette(four_point_line, p)


# -------------------------------------------------------------- gap statistic

def test_gap_curve_internal_consistency(two_blob_table):
    t, _ = two_blob_table
    c = gap_statistic(t, "kmeans", k_max=4, b=10, seed=1)
    assert c.ks == (1, 2, 3, 4)
    assert len(c.gap) == len(c.s) == len(c.log_w) == len(c.log_w_ref) == 4
    for i in range(4):
        assert c.gap[i] == pytest.approx(c.log_w_ref[i] - c.log_w[i], abs=1e-12)
        assert c.s[i] > 0
    assert c.dropped_features == ()


def test_gap_log_w_decreases_for_nested_cuts(two_blob_table):
    t, _ = two_blob_table
    c = gap_statistic(t, "agglomerative", k_max=6, b=5, seed=2)
    assert all(b <= a + 1e-12 for a, b in zip(c.log_w, c.log_w[1:]))


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_gap_statistic_ranges_that_overflow_raise(method):
    # a column's max - min overflows float64, so no reference can be drawn
    # over it: an error before any draw, with no warning
    x = np.tile([[1e308, 1.0], [-1e308, 2.0]], (6, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KstError, match="rescale the data$"):
            gap_statistic(make_table(x), method, k_max=3, b=2)


def test_gap_statistic_deterministic(two_blob_table):
    t, _ = two_blob_table
    a = gap_statistic(t, "kmeans", k_max=3, b=8, seed=7)
    b = gap_statistic(t, "kmeans", k_max=3, b=8, seed=7)
    assert a == b
    c = gap_statistic(t, "kmeans", k_max=3, b=8, seed=8)
    assert a.gap != c.gap  # reference draws moved


def test_gap_selects_two_on_separated_blobs(two_blob_table):
    t, _ = two_blob_table
    for method in ("kmeans", "agglomerative"):
        curve = gap_statistic(t, method, k_max=6, b=50, seed=42)
        assert tibshirani_select(curve) == 2, method


def test_gap_selects_one_on_a_single_uniform_blob():
    t = make_table(np.random.default_rng(0).uniform(0.0, 1.0, (40, 4)))
    for method in ("kmeans", "agglomerative"):
        curve = gap_statistic(t, method, k_max=5, b=50, seed=9)
        assert tibshirani_select(curve) == 1, method


def test_gap_constant_feature_reported():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(12, 2))
    x[:, 1] = 3.0
    t = make_table(x)
    with pytest.warns(DegenerateResultWarning):
        c = gap_statistic(t, "kmeans", k_max=3, b=4, seed=0)
    assert c.dropped_features == ("m1",)
    assert all(math.isfinite(g) for g in c.gap)


def test_select_k_notes_gap_warnings_instead_of_warning():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(12, 2))
    x[:, 1] = 3.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = select_k(make_table(x), "kmeans", criteria=("gap", "bic"),
                       k_range=range(1, 4), seed=0, gap_b=4)
    assert caught == []
    assert rep.criteria["gap"].note.startswith(
        "features with a single observed value are constant in the gap reference "
        "distribution: ['m1']")
    assert rep.criteria["bic"].note is None


def test_select_k_notes_when_no_k_satisfies_the_gap_rule():
    # two far blobs and candidates 1 and 2: Gap(1) < Gap(2) - s(2)
    x, _ = two_blob_array(n=12, d=2)
    rep = select_k(make_table(x), "kmeans", criteria=("gap",), k_range=range(1, 3), seed=0,
                   gap_b=4)
    assert rep.criteria["gap"].selected_k == 2
    assert rep.criteria["gap"].note == "no k satisfied the gap rule; largest candidate reported"


def test_degenerate_notes_pass_other_warnings_on():
    with pytest.warns(RuntimeWarning, match="other"):
        with kst.quality._degenerate_notes() as notes:
            warnings.warn("degenerate", DegenerateResultWarning)
            warnings.warn("other", RuntimeWarning)
    assert notes == ["degenerate"]


def test_gap_parameter_validation(four_point_line):
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "kmeans", k_max=3, b=1)
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "kmeans", k_max=9, b=4)
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "centroid", k_max=3, b=4)
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "kmeans", k_max=2, b=4, k_min=3)


@pytest.mark.parametrize("method", ["kmeans", "agglomerative"])
@pytest.mark.parametrize("budget", [{"n_init": 0}, {"max_iter": 0}, {"n_init": -1, "max_iter": -5}],
                         ids=["n_init", "max_iter", "both"])
def test_gap_kmeans_rejects_zero_budget(two_blob_table, budget, method):
    # Ward uses no budget, yet the same call must fail the same way whatever
    # the method, in select_k as in gap_statistic
    t = two_blob_table[0]
    with pytest.raises(KstError, match="^n_init and max_iter must be >= 1$"):
        gap_statistic(t, method, k_max=3, b=4, **budget)
    with pytest.raises(KstError, match="^n_init and max_iter must be >= 1$"):
        select_k(t, method, k_range=range(1, 4), gap_b=4, **budget)


def test_budget_error_comes_before_warnings_and_criterion_domains(four_point_line):
    # the budget is checked with the other arguments, before gap_statistic
    # warns of a constant feature and before select_k checks each criterion
    # has a k to score
    t = make_table([[0.0, 0.0], [0.0, 0.1], [0.0, 10.0], [0.0, 10.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KstError, match="^n_init and max_iter must be >= 1$"):
            gap_statistic(t, "kmeans", k_max=3, b=4, n_init=0)
    with pytest.raises(KstError, match="^n_init and max_iter must be >= 1$"):
        select_k(four_point_line, "kmeans", criteria=("silhouette",), k_range=[1], max_iter=0)


def test_gap_rejects_k_equal_to_row_count(four_point_line):
    # every row its own cluster has zero dispersion, so log W is undefined
    with pytest.raises(KstError, match="k = n"):
        gap_statistic(four_point_line, "kmeans", k_max=4, b=4)


def test_gap_duplicate_rows_zero_dispersion_is_reported():
    t = make_table([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0], [20.0, 21.0]])
    with pytest.raises(KstError, match="dispersion is zero at k=3"):
        gap_statistic(t, "agglomerative", k_max=4, b=4, seed=1)


def test_select_k_clips_gap_candidates_to_n_minus_one(four_point_line):
    # k_range may legitimately reach n for other criteria; gap must not crash
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateResultWarning)
        rep = select_k(four_point_line, "agglomerative", criteria=("gap", "bic"),
                       k_range=range(1, 5), seed=0, gap_b=4)
    assert sorted(rep.criteria["gap"].scores) == [1, 2, 3]
    assert rep.criteria["gap"].selected_k == 2
    assert sorted(rep.criteria["bic"].scores) == [1, 2, 3, 4]


def test_tibshirani_rule_on_synthetic_curves():
    flat = GapCurve(ks=(1, 2, 3), gap=(1.0, 1.0, 1.0), s=(0.1, 0.1, 0.1),
                    log_w=(0,) * 3, log_w_ref=(0,) * 3)
    assert tibshirani_select(flat) == 1  # 1.0 >= 1.0 - 0.1 immediately
    rising = GapCurve(ks=(1, 2, 3), gap=(0.0, 1.0, 2.0), s=(0.01,) * 3,
                      log_w=(0,) * 3, log_w_ref=(0,) * 3)
    assert tibshirani_select(rising) == 3  # never satisfied: fall back to k_max
    elbow = GapCurve(ks=(1, 2, 3, 4), gap=(0.0, 1.0, 1.05, 1.02), s=(0.1,) * 4,
                     log_w=(0,) * 4, log_w_ref=(0,) * 4)
    assert tibshirani_select(elbow) == 2
    single = GapCurve(ks=(2,), gap=(1.0,), s=(0.1,), log_w=(0.0,), log_w_ref=(1.0,))
    with pytest.raises(KstError):
        tibshirani_select(single)


# ------------------------------------------------------------------ select_k

def test_select_k_consensus_on_blobs(two_blob_table):
    t, _ = two_blob_table
    for method in ("agglomerative", "kmeans"):
        rep = select_k(t, method, k_range=range(1, 7), seed=11)
        assert rep.consensus_k == 2, method
        for name, res in rep.criteria.items():
            assert res.selected_k == 2, (method, name)
        assert rep.gap_curve is not None


def _calls(path):
    """The calls a spy recorded in ``path``, one line each; a file, so that the
    calls made in the gap statistic's forked processes count too."""
    return path.read_text().splitlines()


def test_select_k_runs_ward_once_on_the_data(two_blob_table, monkeypatch, tmp_path):
    t, _ = two_blob_table
    log = tmp_path / "calls"
    ward = kst.cluster._ward_merge_steps

    def counted(x, *work):
        with open(log, "a") as fh:
            fh.write(f"{x.shape}\n")
        return ward(x, *work)

    monkeypatch.setattr(kst.cluster, "_ward_merge_steps", counted)
    monkeypatch.setattr(kst.quality, "_ward_merge_steps", counted)
    rep = select_k(t, "agglomerative", seed=5, gap_b=50)
    calls = _calls(log)
    assert len(calls) == 51  # the data once, then each of the 50 references
    # the shared merges give the curve gap_statistic computes on its own
    assert rep.gap_curve == gap_statistic(t, "agglomerative", 8, 50, 5)


def test_select_k_fits_kmeans_once_per_k_on_the_data(two_blob_table, monkeypatch, tmp_path):
    t, _ = two_blob_table
    log = tmp_path / "calls"
    fit = kst.cluster._kmeans_fits

    def counted(xs, seeds, k, *args, **kwargs):
        with open(log, "a") as fh:
            fh.writelines(f"{k}\n" for _ in seeds)  # one line per data set fitted
        return fit(xs, seeds, k, *args, **kwargs)

    monkeypatch.setattr(kst.cluster, "_kmeans_fits", counted)
    monkeypatch.setattr(kst.quality, "_kmeans_fits", counted)
    select_k(t, "kmeans", k_range=range(1, 9), seed=5, gap_b=50, n_init=1)
    calls = _calls(log)
    # k = 1..8 on the data, shared by the criteria and the gap statistic,
    # then k = 1..8 on each of the 50 references
    assert len(calls) == 8 + 50 * 8
    assert sorted(calls) == sorted(str(k) for k in range(1, 9) for _ in range(51))


def test_labels_for_fails_as_one_loop_over_each_kmeans_data_set(monkeypatch):
    # one loop over a data set fits it at every k, then takes each
    # dispersion: a failed fit, at any k, comes before a failed dispersion,
    # and ends that data set's fits
    xs = [np.random.default_rng(i).normal(size=(12, 2)) for i in range(3)]
    fits, dispersion = kst.quality._kmeans_fits, kst.quality._log_dispersion
    fitted = {}

    def failing_fits(data, seeds, k, *args):
        fitted[k] = sorted(seeds)
        out = fits(data, seeds, k, *args)
        if k == 3:
            out[1] = KstError("fit of 1 at k=3")
        return out

    def failing_dispersion(x, labels, k):
        if (x is xs[1] and k == 2) or (x is xs[2] and k >= 2):
            raise KstError(f"dispersion at k={k}")
        return dispersion(x, labels, k)

    monkeypatch.setattr(kst.quality, "_kmeans_fits", failing_fits)
    monkeypatch.setattr(kst.quality, "_log_dispersion", failing_dispersion)
    keys = {0: (2, 0), 2: (2, 2), 1: (2, 1)}  # the failed fit last, so every error is seen
    ks = [1, 2, 3, 4]
    labels = _labels_for(xs, keys, ks, "kmeans", 3, 2, 300)
    got = {}
    for i in keys:
        try:
            fit = next(labels)
            got[i] = [kst.quality._log_dispersion(xs[i], fit[k], k) for k in ks]
        except KstError as exc:
            got[i] = exc
    assert len(got[0]) == 4
    assert [str(got[i]) for i in (1, 2)] == ["fit of 1 at k=3", "dispersion at k=2"]
    assert fitted == {1: [0, 1, 2], 2: [0, 1, 2], 3: [0, 1, 2], 4: [0, 2]}


def test_labels_for_derives_no_stream_once_every_kmeans_data_set_failed(monkeypatch):
    # every data set fails at k = 2: each larger k hands _kmeans_fits no
    # seeds, which derives an empty set of streams and fits nothing
    xs = [np.random.default_rng(i).normal(size=(12, 2)) for i in range(2)]
    fits, streams = kst.quality._kmeans_fits, kst.cluster._Streams
    fitted, derived = {}, []

    def failing_fits(data, seeds, k, *args):
        fitted[k] = sorted(seeds)
        out = fits(data, seeds, k, *args)
        return {i: KstError(f"fit of {i} at k=2") for i in out} if k == 2 else out

    def counted_streams(*args):
        out = streams(*args)
        derived.append(len(out))
        return out

    monkeypatch.setattr(kst.quality, "_kmeans_fits", failing_fits)
    monkeypatch.setattr(kst.cluster, "_Streams", counted_streams)
    labels = _labels_for(xs, {0: (2, 0), 1: (2, 1)}, [1, 2, 3, 4], "kmeans", 3, 2, 300)
    with pytest.raises(KstError, match="fit of 0 at k=2"):
        next(labels)
    assert next(labels, None) is None
    assert fitted == {1: [0, 1], 2: [0, 1], 3: [], 4: []}
    assert derived == [4, 0, 0]  # k = 2: 2 data sets x 2 replicates; none after


def test_labels_for_fits_ward_data_sets_as_they_are_reached(monkeypatch):
    # Ward fits a data set only when its labels are asked for: one that
    # fails ends the generator, and the data sets after it are never fitted
    xs = [np.random.default_rng(i).normal(size=(12, 2)) for i in range(3)]
    steps, fitted = kst.quality._ward_merge_steps, []

    def failing_steps(x, *work):
        fitted.append(next(i for i, y in enumerate(xs) if y is x))
        if x is xs[1]:
            raise KstError("merges of 1")
        return steps(x, *work)

    monkeypatch.setattr(kst.quality, "_ward_merge_steps", failing_steps)
    labels = _labels_for(xs, {i: (2, i) for i in range(3)}, [1, 2, 3], "agglomerative", 3, 2,
                         300)
    assert fitted == []
    assert sorted(next(labels)) == [1, 2, 3] and fitted == [0]
    with pytest.raises(KstError, match="merges of 1"):
        next(labels)
    assert next(labels, None) is None
    assert fitted == [0, 1]


def test_ward_reuses_one_matrix_without_carrying_values():
    # _labels_for runs every data set's Ward in one working matrix: b's
    # labels after a are b's labels alone, and b's merges in a matrix that a
    # Ward which overflowed midway left behind are b's merges alone
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(20, 3)), rng.normal(size=(20, 3)) * 5
    a[::4] = a[0]  # duplicates: tied distances, rescans
    ks = [1, 2, 3, 7]
    together = list(_labels_for([a, b], {0: (2, 0), 1: (2, 1)}, ks, "agglomerative", 7, 3, 300))
    alone = next(_labels_for([b], {0: (2, 1)}, ks, "agglomerative", 7, 3, 300))
    for k in ks:
        assert np.array_equal(together[1][k], alone[k])
    huge = a.copy()
    huge[:2] = 1e160  # their squared distances to the rest overflow: the 18 others merge first
    work = np.empty((20, 20))
    with pytest.raises(KstError, match="overflow"):
        _ward_merge_steps(huge, work)
    assert np.isfinite(work).any() and not np.isfinite(work).all()  # it ran, and left inf
    assert _ward_merge_steps(b, work) == _ward_merge_steps(b)


def test_kmeans_select_k_builds_one_generator(two_blob_table, monkeypatch):
    # every k-means++ stream and every per-k seed is derived in bulk: the one
    # numpy SeedSequence a k-means select-k builds is the gap statistic's,
    # for its reference draws
    built, seed_sequence = [], np.random.SeedSequence

    def counted(*args, **kwargs):
        built.append(kwargs)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    _cpus(monkeypatch, 1)
    select_k(two_blob_table[0], "kmeans", seed=5, gap_b=10)
    assert built == [{"entropy": 5, "spawn_key": (0,)}]


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_labels_for_many_data_sets_equal_each_fitted_alone(method):
    # each data set's labels depend on its values and its stream key only,
    # not on the data sets fitted beside it; k = 5 and 6 empty clusters of
    # the data set with three distinct rows, which k-means repairs
    rng = np.random.default_rng(11)
    xs = [rng.normal(size=(15, 3)) * scale for scale in (1.0, 7.0, 0.01)]
    xs.append(xs[0][rng.integers(0, 3, size=15)])
    keys = {i: (2, i) for i in range(len(xs))}
    ks = [1, 2, 3, 5, 6]
    together = list(_labels_for(xs, keys, ks, method, 7, 3, 300))
    assert len(together) == len(xs)
    for i, labels in enumerate(together):
        alone = next(_labels_for([xs[i]], {0: keys[i]}, ks, method, 7, 3, 300))
        assert sorted(labels) == sorted(alone) == ks
        for k in ks:
            assert labels[k].dtype == alone[k].dtype
            assert np.array_equal(labels[k], alone[k])
            assert sorted(set(labels[k].tolist())) == list(range(k))
            if method == "kmeans":  # one byte per row held until the dispersions
                assert labels[k].dtype == np.uint8


def test_select_k_scores_the_gap_statistics_data_labels(two_blob_table, monkeypatch):
    t, _ = two_blob_table
    scored = {}

    def spy(m, p, **shared):
        scored[p.k] = p
        return dunn_index(m, p, **shared)

    monkeypatch.setattr(kst.quality, "dunn_index", spy)
    ks = range(1, 9)
    rep = select_k(t, "kmeans", criteria=("dunn", "gap"), k_range=ks, seed=4, gap_b=4,
                   n_init=1)
    labels = next(_labels_for([t.data], {0: (1,)}, ks, "kmeans", 4, 1, 300))
    assert sorted(scored) == list(range(2, 9))
    for k, p in scored.items():
        assert p == Partition(_canonical_ids(t.rows, labels[k].tolist(), k)[0], k)
    assert rep.gap_curve == gap_statistic(t, "kmeans", 8, 4, 4, n_init=1)


def test_select_k_domain_clipping():
    t = make_table([[0.0], [1.0], [10.0], [11.0]])
    with warnings.catch_warnings():
        # k=n gives zero pooled variance under BIC; the sentinel is expected
        warnings.simplefilter("ignore", DegenerateResultWarning)
        rep = select_k(t, "agglomerative", criteria=("silhouette", "bic"),
                       k_range=range(1, 5), seed=0)
    # silhouette is undefined at k=1 and k=n
    assert sorted(rep.criteria["silhouette"].scores) == [2, 3]
    assert sorted(rep.criteria["bic"].scores) == [1, 2, 3, 4]


def test_select_k_davies_bouldin_minimizes(two_blob_table):
    t, _ = two_blob_table
    rep = select_k(t, "agglomerative", criteria=("davies_bouldin",),
                   k_range=range(2, 7), seed=0)
    res = rep.criteria["davies_bouldin"]
    assert res.selected_k == min(res.scores, key=lambda k: (res.scores[k], k))
    assert res.selected_k == 2


def test_select_k_single_candidate_gap_note(four_point_line):
    rep = select_k(four_point_line, "agglomerative", criteria=("gap",),
                   k_range=[2], seed=0, gap_b=4)
    res = rep.criteria["gap"]
    assert res.selected_k == 2
    assert res.note is not None
    assert rep.consensus_k == 2


def test_select_k_validation(four_point_line):
    with pytest.raises(KstError):
        select_k(four_point_line, "centroid")
    with pytest.raises(KstError):
        select_k(four_point_line, criteria=())
    with pytest.raises(KstError):
        select_k(four_point_line, criteria=("silhouette", "silhouette"))
    with pytest.raises(KstError):
        select_k(four_point_line, criteria=("magic",))
    with pytest.raises(KstError):
        select_k(four_point_line, k_range=range(2, 99))
    with pytest.raises(KstError):
        select_k(four_point_line, k_range=[])


COUNT_ARGUMENTS = {
    "kmeans_fit-n_init-float": (lambda t: kmeans_fit(t, 2, n_init=2.5), "n_init", 2.5),
    "kmeans_fit-k-float": (lambda t: kmeans_fit(t, 2.0), "k", 2.0),
    "cut_dendrogram-k-float": (lambda t: cut_dendrogram(agglomerative_ward(t), 2.0), "k", 2.0),
    "gap_statistic-b-float": (lambda t: gap_statistic(t, "kmeans", 3, 2.5), "b", 2.5),
    "gap_statistic-k_max-float": (lambda t: gap_statistic(t, "kmeans", 3.0, 4), "k_max", 3.0),
    "select_k-gap_b-float": (lambda t: select_k(t, "kmeans", gap_b=2.5), "gap_b", 2.5),
    "kmeans_fit-max_iter-float": (lambda t: kmeans_fit(t, 2, max_iter=2.5), "max_iter", 2.5),
    "select_k-k_range-float": (lambda t: select_k(t, "kmeans", k_range=[1.5, 2]),
                               "k_range[0]", 1.5),
    "kmeans_fit-n_init-bool": (lambda t: kmeans_fit(t, 2, n_init=True), "n_init", True),
}


@pytest.mark.parametrize("case", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
def test_count_arguments_must_be_integers(two_blob_table, case):
    # a float or a bool count is refused by name, as a float or bool seed is,
    # instead of failing inside numpy or being rounded or run without a cap
    call, name, value = case
    with pytest.raises(KstError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(two_blob_table[0])


def test_count_arguments_may_be_numpy_integers(two_blob_table):
    t, _ = two_blob_table
    got = kmeans_fit(t, np.int64(3), seed=2, n_init=np.int32(2), max_iter=np.uint16(50))
    want = kmeans_fit(t, 3, seed=2, n_init=2, max_iter=50)
    assert np.array_equal(got.centroids, want.centroids)
    assert (got.assignments, got.inertia_history) == (want.assignments, want.inertia_history)
    assert cut_dendrogram(agglomerative_ward(t), np.int8(2)) == \
        cut_dendrogram(agglomerative_ward(t), 2)
    ks = [np.int64(1), np.uint8(2), np.int16(3)]
    assert select_k(t, "kmeans", k_range=ks, seed=2, gap_b=np.int64(4), n_init=np.int64(2)) \
        == select_k(t, "kmeans", k_range=[1, 2, 3], seed=2, gap_b=4, n_init=2)
    # a narrow type cannot hold the k-means++ chunk arithmetic, 2**15 // (n_init * n)
    fit = kmeans_fit(t, 2, seed=2, n_init=3)
    curve = gap_statistic(t, "kmeans", 3, 4, seed=2, n_init=3)
    report = select_k(t, "kmeans", k_range=[1, 2, 3], seed=2, gap_b=4, n_init=3)
    for n_init in (np.int8(3), np.int16(3), np.uint8(3)):
        got = kmeans_fit(t, 2, seed=2, n_init=n_init)
        assert np.array_equal(got.centroids, fit.centroids)
        assert (got.assignments, got.inertia_history) == (fit.assignments, fit.inertia_history)
        assert gap_statistic(t, "kmeans", 3, 4, seed=2, n_init=n_init) == curve
        assert select_k(t, "kmeans", k_range=[1, 2, 3], seed=2, gap_b=4, n_init=n_init) == report


def test_select_k_deterministic(two_blob_table):
    t, _ = two_blob_table
    a = select_k(t, "kmeans", k_range=range(1, 5), seed=3, gap_b=8)
    b = select_k(t, "kmeans", k_range=range(1, 5), seed=3, gap_b=8)
    assert a.to_dict() == b.to_dict()


def test_criteria_constants():
    assert set(DEFAULT_CRITERIA) == {"silhouette", "calinski_harabasz", "dunn", "gap"}
    assert set(ALL_CRITERIA) - set(DEFAULT_CRITERIA) == {"davies_bouldin", "bic"}


@pytest.mark.parametrize("d", [8, 9, 12, 130])
def test_equal_tables_score_equally_on_both_layouts(d):
    # fit_transform builds a column-major table; its row-major twin holds the
    # same values: every distance-based result must not depend on which
    raw = make_table(np.random.default_rng(d).normal(size=(60, d)) * 4.0 + 1.0)
    fitted, _ = fit_transform(raw, "none")
    applied = MetricTable(fitted.rows, fitted.columns, np.ascontiguousarray(fitted.data))
    assert np.array_equal(fitted.data, applied.data)
    assert fitted.data.flags.f_contiguous and not fitted.data.flags.c_contiguous
    assert applied.data.flags.c_contiguous and not applied.data.flags.f_contiguous

    assert np.array_equal(_pairwise_sq(fitted.data), _pairwise_sq(applied.data))
    dendro = agglomerative_ward(fitted)
    assert dendro.merges == agglomerative_ward(applied).merges  # heights included
    p = cut_dendrogram(dendro, 3)
    assert silhouette(fitted, p) == silhouette(applied, p)
    assert dunn_index(fitted, p) == dunn_index(applied, p)
    assert compactness(fitted, p) == compactness(applied, p)
    assert separation(fitted, p) == separation(applied, p)
    assert davies_bouldin(fitted, p) == davies_bouldin(applied, p)
    assert sum_of_squares(fitted, p) == sum_of_squares(applied, p)
    assert family_similarity(fitted, "k00", ["k0*"]) == family_similarity(applied, "k00", ["k0*"])
    for method in CLUSTER_METHODS:
        assert gap_statistic(fitted, method, k_max=4, b=3, seed=5, n_init=3) == \
            gap_statistic(applied, method, k_max=4, b=3, seed=5, n_init=3)


def _per_point_silhouette(m, p):
    """Silhouette as a loop over points, the form the vectorized one replaced."""
    n = len(m.rows)
    assign = np.array([p.labels[lab] for lab in m.rows], dtype=int)
    dmat = np.sqrt(_pairwise_sq(m.data))
    counts = np.bincount(assign, minlength=p.k)
    sums = np.zeros((n, p.k))
    for c in range(p.k):
        sums[:, c] = dmat[:, assign == c].sum(axis=1)
    scores = np.zeros(n)
    for i in range(n):
        c = assign[i]
        if counts[c] == 1:
            continue
        a = sums[i, c] / (counts[c] - 1)
        b = min(sums[i, o] / counts[o] for o in range(p.k) if o != c)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


@pytest.mark.parametrize("seed", range(8))
def test_silhouette_equals_the_per_point_loop(seed):
    # 27 scattered points (rounded, so distances tie) in three clusters, then
    # three coincident points: two form a cluster, the third is a singleton,
    # so the pair has a(i) = b(i) = 0
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(size=(27, 3)).round(1), np.full((3, 3), 0.5)])
    x[7] = x[3]
    assign = np.concatenate([rng.permutation(np.arange(27) % 3), [3, 3, 4]])
    t = make_table(x)
    p = Partition(dict(zip(t.rows, assign.tolist())), 5)
    assert silhouette(t, p) == _per_point_silhouette(t, p)


def test_select_k_evaluates_the_gap_rule_once(two_blob_table, monkeypatch):
    calls = []
    rule = kst.quality._gap_rule_k
    monkeypatch.setattr(kst.quality, "_gap_rule_k", lambda curve: calls.append(1) or rule(curve))
    t, _ = two_blob_table
    report = select_k(t, "kmeans", criteria=["gap"], k_range=range(1, 5), seed=3, gap_b=4)
    assert len(calls) == 1
    assert report.criteria["gap"].selected_k == tibshirani_select(report.gap_curve)


def test_select_k_builds_the_data_distances_once(two_blob_table, monkeypatch):
    t, _ = two_blob_table
    built = []
    pairwise = kst.quality._pairwise_sq

    def counted(x):
        if x.shape == t.data.shape:
            built.append(x.shape)
        return pairwise(x)

    monkeypatch.setattr(kst.quality, "_pairwise_sq", counted)
    select_k(t, "kmeans", criteria=("silhouette", "dunn", "davies_bouldin"),
             k_range=range(1, 9), seed=2, n_init=1)
    # silhouette and dunn share one matrix at k = 2..8, not one each per k
    assert built == [t.data.shape]


@pytest.mark.parametrize("criteria", [("silhouette", "gap", "dunn"), ("gap", "dunn")])
def test_select_k_frees_the_data_distances_before_the_gap_statistic(two_blob_table,
                                                                    monkeypatch, criteria):
    t, _ = two_blob_table
    matrices, gap_fits = [], []
    distances, gap = kst.quality._distances, kst.quality.gap_statistic

    def tracked(m):
        d = distances(m)
        matrices.append(weakref.ref(d))
        return d

    def checked(*args, **kwargs):
        gap_fits.append([ref() is None for ref in matrices])
        return gap(*args, **kwargs)

    monkeypatch.setattr(kst.quality, "_distances", tracked)
    monkeypatch.setattr(kst.quality, "gap_statistic", checked)
    rep = select_k(t, "kmeans", criteria=criteria, k_range=range(1, 5), seed=2, gap_b=4,
                   n_init=1)
    assert gap_fits == [[True]]
    assert list(rep.criteria) == list(criteria)


def _forbid_clustering(monkeypatch) -> None:
    monkeypatch.setattr(kst.quality, "_labels_for",
                        lambda *a: pytest.fail("the data was clustered"))


@pytest.mark.parametrize("seed", [-1, "x"])
def test_seed_is_checked_with_the_other_arguments(two_blob_table, monkeypatch, seed):
    # before any fit, also where no criterion draws from it, and before
    # gap_statistic warns of a constant feature
    _forbid_clustering(monkeypatch)
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(KstError, match=message):
        select_k(two_blob_table[0], "agglomerative", criteria=("silhouette",),
                 k_range=range(1, 4), seed=seed)
    t = make_table([[0.0, 0.0], [0.0, 0.1], [0.0, 10.0], [0.0, 10.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KstError, match=message):
            gap_statistic(t, "kmeans", k_max=3, b=4, seed=seed)


def test_select_k_checks_gap_b_before_clustering(two_blob_table, monkeypatch):
    _forbid_clustering(monkeypatch)
    with pytest.raises(KstError, match="^gap statistic needs at least 2 reference datasets, got 1$"):
        select_k(two_blob_table[0], gap_b=1)


@pytest.mark.parametrize("method", CLUSTER_METHODS)
@pytest.mark.parametrize("k_range, listed", [([1, 3], [1, 3]), ([6, 2, 4], [2, 4, 6]),
                                             (range(2, 8, 2), [2, 4, 6])])
def test_select_k_gap_needs_consecutive_candidates(two_blob_table, monkeypatch, method,
                                                    k_range, listed):
    # the gap rule compares Gap(k) with Gap(k + 1); the other criteria score any k
    t = two_blob_table[0]
    _forbid_clustering(monkeypatch)
    with pytest.raises(KstError, match=re.escape(
            f"criterion 'gap' needs consecutive k values, got {listed}")):
        select_k(t, method, k_range=k_range)
    monkeypatch.undo()
    report = select_k(t, method, criteria=("silhouette", "bic"), k_range=k_range, n_init=2)
    assert list(report.criteria["bic"].scores) == listed


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_select_k_scores_a_descending_range(two_blob_table, method):
    t = two_blob_table[0]
    assert select_k(t, method, k_range=range(8, 1, -1), seed=2, gap_b=4, n_init=2) \
        == select_k(t, method, k_range=range(2, 9), seed=2, gap_b=4, n_init=2)


def test_select_k_checks_every_domain_before_clustering(four_point_line, monkeypatch):
    clustered = []
    monkeypatch.setattr(kst.quality, "_labels_for", lambda *a: clustered.append(a))
    with pytest.raises(KstError, match=re.escape(
            "criterion 'silhouette' is not defined on any k in [1, 4]")):
        select_k(four_point_line, "agglomerative", criteria=("silhouette", "dunn"),
                 k_range=[1, 4])
    assert clustered == []


@pytest.mark.parametrize("k_range", [range(1, 3_000_001), range(-3_000_000, 3),
                                     range(3_000_000, 0, -1)])
def test_select_k_rejects_a_huge_k_range_without_listing_it(four_point_line, k_range):
    ends = sorted((k_range[0], k_range[-1]))
    tracemalloc.start()
    try:
        with pytest.raises(KstError, match=re.escape(
                f"k_range must stay within 1..4, got {ends[0]}..{ends[1]}")):
            select_k(four_point_line, k_range=k_range)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ------------------------------------------- gap references in several processes

def _cpus(monkeypatch, count):
    monkeypatch.setattr(kst.quality, "_cpu_count", lambda: count)


def _reference_fits(monkeypatch, before):
    """Run ``before(index)`` ahead of each gap reference's result, in the
    process that fits it: each process's fit yields its references' results
    one at a time, in index order."""
    fit_all = kst.quality._fit_all

    def patched(fit, count):
        def injected(indices):
            results = fit(indices)
            for index in indices:
                before(index)
                yield next(results)

        return fit_all(injected, count)

    monkeypatch.setattr(kst.quality, "_fit_all", patched)


@pytest.mark.parametrize("method", CLUSTER_METHODS)
def test_gap_statistic_is_the_same_in_any_number_of_processes(two_blob_table, monkeypatch,
                                                              method):
    t, _ = two_blob_table
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    runs = []
    for processes in (1, 2, 3):  # b = 7 is a multiple of neither 2 nor 3
        _cpus(monkeypatch, processes)
        forks.clear()
        curve = gap_statistic(t, method, 5, 7, 3, n_init=2)
        report = select_k(t, method, k_range=range(1, 6), seed=3, gap_b=7, n_init=2)
        assert len(forks) == 2 * (processes - 1)
        runs.append((curve, emit_report({"selection": report})))
    assert runs[0] == runs[1] == runs[2]

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)  # each stride is then fitted here
    assert gap_statistic(t, method, 5, 7, 3, n_init=2) == runs[0][0]
    monkeypatch.setattr(os, "fork", counted_fork)
    # never more processes than references
    _cpus(monkeypatch, 8)
    forks.clear()
    gap_statistic(t, method, 3, 2, 3, n_init=2)
    assert len(forks) == 1


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_gap_reference_error_is_the_lowest_failing_references(two_blob_table, monkeypatch,
                                                               processes):
    def fail(index):
        if index in (5, 2):
            raise KstError(f"reference {index} failed")

    _reference_fits(monkeypatch, fail)
    _cpus(monkeypatch, processes)
    with pytest.raises(KstError, match="^reference 2 failed$") as exc:
        gap_statistic(two_blob_table[0], "kmeans", 4, 7, 3, n_init=1)
    assert exc.type is KstError


def test_gap_reference_warnings_reach_stderr_in_reference_order(tmp_path, monkeypatch):
    def warn(index):
        if index % 3 == 0:
            warnings.warn(f"reference {index}", UserWarning)
            warnings.warn(f"degenerate reference {index}", DegenerateResultWarning)

    _reference_fits(monkeypatch, warn)
    write_cpu_csv(tmp_path / "cpu.csv")
    argv = ["select-k", "--input", str(tmp_path / "cpu.csv"), "--method", "kmeans",
            "--gap-b", "7", "--k-max", "3", "--out", str(tmp_path / "out")]
    runs = []
    for processes in (1, 2):
        _cpus(monkeypatch, processes)
        code, stdout, stderr = run_cli(argv)
        runs.append((code, stdout, stderr, (tmp_path / "out" / "selection.json").read_bytes()))
    assert runs[0] == runs[1]
    code, stdout, stderr, _ = runs[0]
    assert code == 0
    assert stderr == "UserWarning: reference 0\nUserWarning: reference 3\nUserWarning: reference 6\n"
    assert "degenerate reference 0; degenerate reference 3; degenerate reference 6" in stdout


@pytest.mark.parametrize("processes", [1, 2])
def test_gap_reference_warnings_repeat_as_in_one_loop(two_blob_table, monkeypatch, processes):
    # under a "default" filter a warning repeated from one line shows once
    _reference_fits(monkeypatch, lambda index: warnings.warn("every reference", UserWarning))
    _cpus(monkeypatch, processes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        gap_statistic(two_blob_table[0], "kmeans", 3, 5, 3, n_init=1)
    assert [str(w.message) for w in caught] == ["every reference"]


def test_gap_kmeans_fit_warnings_all_reach_the_caller(two_blob_table, monkeypatch):
    # with k-means a process fits its whole stride in one pool, so the
    # warnings raised inside those fits come at its first reference: all
    # of them reach the caller, at any process count, in no fixed order.
    # The seeder takes a chunk of data sets per call and warns for each.
    seed_centers = kst.cluster._kmeanspp_init

    def warning_seeds(x, k, streams, rows):
        for data in x:
            warnings.warn(f"seeding k={k} on the data set starting {data[0, 0]!r}", UserWarning)
        return seed_centers(x, k, streams, rows)

    monkeypatch.setattr(kst.cluster, "_kmeanspp_init", warning_seeds)
    runs = []
    for processes in (1, 2):
        _cpus(monkeypatch, processes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            curve = gap_statistic(two_blob_table[0], "kmeans", 3, 5, 3, n_init=1)
        runs.append((curve, sorted(str(w.message) for w in caught)))
    assert runs[0] == runs[1]
    # k = 2 and 3 on the data and each reference; k = 1 seeds nothing
    assert len(set(runs[0][1])) == 2 * (1 + 5)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gap_reference_processes_are_all_waited_for(two_blob_table, monkeypatch, tmp_path,
                                                    capsys):
    t, _ = two_blob_table
    parent = os.getpid()
    fault = [None]

    def inject(index):
        # this process fits references 0, 2, ...; the child 1, 3, ...
        if fault[0] == "error" and index == 1:
            raise KstError("reference 1 failed")
        if fault[0] == "interrupt" and index == 2:
            raise KeyboardInterrupt
        if fault[0] == "exit" and index == 1 and os.getpid() != parent:
            os._exit(3)

    _reference_fits(monkeypatch, inject)
    _cpus(monkeypatch, 2)
    gap_statistic(t, "kmeans", 3, 4, 3, n_init=1)
    _no_children()
    message = "the process fitting indices 1::2 ended without a result (exit code 3)"
    for fault[0], error, match in [("error", KstError, "reference 1 failed"),
                                   ("interrupt", KeyboardInterrupt, None),
                                   ("exit", RuntimeError, re.escape(message))]:
        with pytest.raises(error, match=match):
            gap_statistic(t, "kmeans", 3, 4, 3, n_init=1)
        _no_children()
    # through the CLI the child that ended without a result is an internal error
    write_cpu_csv(tmp_path / "cpu.csv")
    out = tmp_path / "out"
    code = main(["select-k", "--input", str(tmp_path / "cpu.csv"), "--method", "kmeans",
                 "--gap-b", "4", "--k-max", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err) == {"error": "RuntimeError", "message": message}
    assert not out.exists()
    _no_children()


def test_cpu_count_is_capped_by_the_cgroup_cpu_quota(tmp_path, monkeypatch):
    (tmp_path / "cgroup").write_text("4:cpu,cpuacct:/elsewhere\n0::/a/b\n")
    root = tmp_path / "fs"
    for where, limit in [(".", "400000 100000"), ("a", "150000 100000"), ("a/b", "max 100000")]:
        (root / where).mkdir(parents=True, exist_ok=True)
        (root / where / "cpu.max").write_text(f"{limit}\n")
    # the cgroup and each ancestor; 1.5 CPUs round up, "max" sets no quota
    assert sorted(kst.quality._cpu_quotas(str(tmp_path / "cgroup"), str(root))) == [2, 4]
    (tmp_path / "v1").write_text("4:cpu,cpuacct:/\n")
    (root / "cpu.max").write_text("garbled\n")
    for cgroup, fs in [("v1", root), ("missing", root), ("cgroup", tmp_path / "none")]:
        assert kst.quality._cpu_quotas(str(tmp_path / cgroup), str(fs)) == []
    assert kst.quality._cpu_quotas(str(tmp_path / "cgroup"), str(root)) == [2]

    # a host of 64 CPUs with a quota of 2 gets 2 processes, and a quota of 1 none
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    for quotas, processes in [([], 64), ([4, 2], 2), ([1], 1)]:
        monkeypatch.setattr(kst.quality, "_cpu_quotas", lambda: quotas)
        assert kst.quality._cpu_count() == processes
    forks.clear()
    gap_statistic(make_table(np.arange(24.0).reshape(12, 2) % 5), "kmeans", 3, 4, 3, n_init=1)
    assert forks == []


def _select_k_cli(tmp_path):
    write_cpu_csv(tmp_path / "cpu.csv")
    return ["select-k", "--input", str(tmp_path / "cpu.csv"), "--method", "kmeans",
            "--gap-b", "5", "--k-max", "3", "--out", str(tmp_path / "out")]


def test_gap_references_stay_in_this_process_beside_other_threads(tmp_path, monkeypatch):
    # a forked child holds only the thread that forked it, and would hang on a
    # lock another thread held: while a second Python thread runs, none forks
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    _cpus(monkeypatch, 2)
    argv = _select_k_cli(tmp_path)
    alone = run_cli(argv)
    assert (alone[0], len(forks)) == (0, 1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        beside = run_cli(argv)
    finally:
        release.set()
        thread.join()
    assert len(forks) == 1
    assert beside == alone


def test_fork_warning_of_a_threaded_process_is_not_shown(tmp_path, monkeypatch):
    # Python 3.12+ warns after every fork while several OS threads run, and a
    # BLAS pool counts: the warning reaches neither stderr nor "error" filters
    argv = _select_k_cli(tmp_path)
    _cpus(monkeypatch, 1)
    expected = run_cli(argv)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:  # as CPython words it, in the parent
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          f"fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    _cpus(monkeypatch, 2)
    t = make_table(np.arange(24.0).reshape(12, 2) % 5)
    curve = gap_statistic(t, "kmeans", 3, 4, 3, n_init=1)
    for forking in (warning_fork, fork):
        monkeypatch.setattr(os, "fork", forking)
        # a thread that the threading module does not list, as a native one;
        # under Python 3.12+ the real fork then warns too
        held = _thread.allocate_lock()
        held.acquire()
        _thread.start_new_thread(held.acquire, ())
        try:
            assert run_cli(argv) == expected
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert gap_statistic(t, "kmeans", 3, 4, 3, n_init=1) == curve
        finally:
            held.release()
    _no_children()
