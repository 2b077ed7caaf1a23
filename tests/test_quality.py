"""Partition quality indices, the gap statistic, and k selection."""

import math
import warnings

import numpy as np
import pytest

import kst.cluster
import kst.quality
from kst.cluster import (
    Partition,
    _canonical_ids,
    _pairwise_sq,
    agglomerative_ward,
    cut_dendrogram,
)
from kst.errors import KstError
from kst.preprocess import apply_transform, fit_transform
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
from kst.similarity import family_similarity

from conftest import make_table, two_blob_array

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


def test_gap_parameter_validation(four_point_line):
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "kmeans", k_max=3, b=1)
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "kmeans", k_max=9, b=4)
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "centroid", k_max=3, b=4)
    with pytest.raises(KstError):
        gap_statistic(four_point_line, "kmeans", k_max=2, b=4, k_min=3)


@pytest.mark.parametrize("budget", [{"n_init": 0}, {"max_iter": 0}], ids=["n_init", "max_iter"])
def test_gap_kmeans_rejects_zero_budget(two_blob_table, budget):
    with pytest.raises(KstError, match="n_init and max_iter must be >= 1"):
        gap_statistic(two_blob_table[0], "kmeans", k_max=3, b=4, **budget)


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


def test_select_k_runs_ward_once_on_the_data(two_blob_table, monkeypatch):
    t, _ = two_blob_table
    calls = []
    ward = kst.cluster._ward_merge_steps

    def counted(x):
        calls.append(x.shape)
        return ward(x)

    monkeypatch.setattr(kst.cluster, "_ward_merge_steps", counted)
    monkeypatch.setattr(kst.quality, "_ward_merge_steps", counted)
    rep = select_k(t, "agglomerative", seed=5, gap_b=50)
    assert len(calls) == 51  # the data once, then each of the 50 references
    # the shared merges give the curve gap_statistic computes on its own
    assert rep.gap_curve == gap_statistic(t, "agglomerative", 8, 50, 5)


def test_select_k_fits_kmeans_once_per_k_on_the_data(two_blob_table, monkeypatch):
    t, _ = two_blob_table
    calls = []
    fit = kst.cluster._kmeans_arrays

    def counted(x, k, *args):
        calls.append(k)
        return fit(x, k, *args)

    monkeypatch.setattr(kst.cluster, "_kmeans_arrays", counted)
    monkeypatch.setattr(kst.quality, "_kmeans_arrays", counted)
    select_k(t, "kmeans", k_range=range(1, 9), seed=5, gap_b=50, n_init=1)
    # k = 1..8 on the data, shared by the criteria and the gap statistic,
    # then k = 1..8 on each of the 50 references
    assert len(calls) == 8 + 50 * 8


def test_select_k_scores_the_gap_statistics_data_labels(two_blob_table, monkeypatch):
    t, _ = two_blob_table
    scored = {}

    def spy(m, p):
        scored[p.k] = p
        return dunn_index(m, p)

    monkeypatch.setattr(kst.quality, "dunn_index", spy)
    ks = range(1, 9)
    rep = select_k(t, "kmeans", criteria=("dunn", "gap"), k_range=ks, seed=4, gap_b=4,
                   n_init=1)
    labels = _labels_for(t.data, ks, "kmeans", 4, 1, 300, 1)
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
    # fit_transform builds a column-major table, apply_transform of its spec
    # a row-major one with the same values: every distance-based result must
    # not depend on which
    raw = make_table(np.random.default_rng(d).normal(size=(60, d)) * 4.0 + 1.0)
    fitted, spec = fit_transform(raw, "none")
    applied = apply_transform(raw, spec)
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
