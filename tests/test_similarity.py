"""Euclidean distance, neighbor queries, family aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kst.cluster import _sq_dist
from kst.errors import KstError
from kst.similarity import (
    FamilyReport,
    family_similarity,
    geometric_mean,
)

from conftest import make_table

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vec = st.lists(finite, min_size=1, max_size=8)


def distance(p, q) -> float:
    # the Euclidean distance family_similarity takes, through _sq_dist
    return float(np.sqrt(_sq_dist(np.asarray(p, dtype=float), np.asarray(q, dtype=float))))


def test_distance_hand_value():
    assert distance([0, 0, 0], [1, 2, 3]) == pytest.approx(math.sqrt(14.0), rel=1e-15)


def test_distance_zero_on_equal():
    v = [1.5, -2.5, 3.5]
    assert distance(v, v) == 0.0


@given(vec, vec)
@settings(max_examples=200, deadline=None)
def test_distance_symmetry(p, q):
    if len(p) != len(q):
        q = (q * len(p))[: len(p)]
    assert distance(p, q) == distance(q, p)


@given(vec)
@settings(max_examples=100, deadline=None)
def test_distance_identity(p):
    assert distance(p, p) == 0.0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=100, deadline=None)
def test_distance_triangle_inequality(d, seed):
    rng = np.random.default_rng(seed)
    p, q, r = rng.normal(size=(3, d)) * 100
    assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-9


# ------------------------------------------------------------------- family

def test_family_report_relative_derived():
    r = FamilyReport(
        target="t",
        self_family_avg=0.8,
        counterpart_avg=1.0,
        family_avg=0.91,
        closest_other=("x", 1.43),
    )
    assert r.relative == pytest.approx(1.43 / 0.91)


def test_family_report_requires_positive_family_avg():
    with pytest.raises(KstError):
        FamilyReport("t", 0.0, 0.0, 0.0, ("x", 1.0))


def test_family_similarity_partitions_members():
    # target A, own-size variants A@1/A@2, counterparts B/B@1, outsider Z
    t = make_table(
        [[0.0], [1.0], [2.0], [4.0], [5.0], [40.0]],
        rows=("A", "A@1", "A@2", "B", "B@1", "Z"),
    )
    r = family_similarity(t, "A", ["A*", "B*"])
    assert r.self_family_avg == pytest.approx((1.0 + 2.0) / 2)
    assert r.counterpart_avg == pytest.approx((4.0 + 5.0) / 2)
    assert r.family_avg == pytest.approx((1 + 2 + 4 + 5) / 4)
    assert r.closest_other == ("Z", 40.0)
    assert r.relative == pytest.approx(40.0 / 3.0)


def test_family_similarity_closest_tie_lexicographic():
    t = make_table([[0.0], [1.0], [5.0], [-5.0]], rows=("A", "A_1", "z", "b"))
    r = family_similarity(t, "A", ["A*"])
    assert r.closest_other == ("b", 5.0)


def test_family_similarity_input_errors():
    t = make_table([[0.0], [1.0], [2.0]], rows=("A", "A_1", "Z"))
    with pytest.raises(KstError):
        family_similarity(t, "A", ["Q*"])  # target not matched
    with pytest.raises(KstError):
        family_similarity(t, "A", ["*"])  # patterns cover every row
    with pytest.raises(KstError):
        family_similarity(t, "Z", ["Z"])  # family has no member beyond the target
    with pytest.raises(KstError):
        family_similarity(t, "A", [])  # empty pattern list


# -------------------------------------------------------------- geometric mean

def test_geometric_mean_hand_value():
    assert geometric_mean([1.57, 3.27]) == pytest.approx(math.sqrt(1.57 * 3.27), rel=1e-12)


def test_geometric_mean_identity_and_errors():
    assert geometric_mean([4.0]) == pytest.approx(4.0)
    with pytest.raises(KstError):
        geometric_mean([])
    with pytest.raises(KstError):
        geometric_mean([1.0, 0.0])


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_geometric_mean_bounded_by_extremes(xs):
    g = geometric_mean(xs)
    assert min(xs) * (1 - 1e-9) <= g <= max(xs) * (1 + 1e-9)
