import math

import numpy as np
import pytest

from proxlab.core import (
    Point2,
    ProxSet,
    WeightPair,
)


def test_point2_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, float("inf"))


def test_point2_of_accepts_tuples_arrays_and_points():
    p = Point2(1.5, -2.0)
    assert Point2.of((1.5, -2.0)) == p
    assert Point2.of(np.array([1.5, -2.0])) == p
    assert Point2.of(p) is p
    assert tuple(p) == (1.5, -2.0)
    assert np.asarray(p).tolist() == [1.5, -2.0]


@pytest.mark.parametrize("p", [(1.0,), (1.0, 2.0, 3.0), np.zeros((2, 2))], ids=["one", "three", "2x2"])
def test_point2_of_refuses_any_other_number_of_components(p):
    with pytest.raises(ValueError, match="expected 2 components"):
        Point2.of(p)


def test_weight_pair_ordering_enforced():
    w = WeightPair(0.5, 2.0)
    assert w.spread == 1.5
    assert w.as_array().tolist() == [0.5, 2.0]
    with pytest.raises(ValueError):
        WeightPair(2.0, 0.5)
    with pytest.raises(ValueError):
        WeightPair(-0.1, 1.0)


def test_prox_set_membership_and_distance():
    single = ProxSet.single((1.0, 0.0))
    assert single.distance((1.0, 0.0)) <= 0.0
    assert single.distance((1.0, 1.0)) == 1.0

    pair = ProxSet.pair((2.0, 0.0), (0.0, 2.0))
    assert pair.kind == "pair"
    assert pair.distance((0.0, 2.0)) <= 0.0
    # midpoint belongs to the segment variant only
    assert pair.distance((1.0, 1.0)) == pytest.approx(math.sqrt(2.0))

    seg = ProxSet.segment((2.0, 0.0), (0.0, 2.0))
    for t in np.linspace(0.0, 1.0, 11):
        probe = (2.0 * (1 - t), 2.0 * t)
        assert seg.distance(probe) <= 1e-12
    assert seg.distance((2.0, 2.0)) == pytest.approx(math.sqrt(2.0))


def test_segment_distance_survives_ends_too_close_to_square():
    # (b - a) . (b - a) = 1e-400 underflows to 0, so the distance is taken to the first end.
    seg = ProxSet.segment((0.0, 0.0), (1e-200, 0.0))
    assert seg.kind == "segment"
    assert seg.distance((3.0, 4.0)) == 5.0
    assert seg.distance((0.0, 0.0)) == 0.0


@pytest.mark.parametrize("prox, query", [
    (ProxSet.single(1.0), math.nan),
    (ProxSet.pair(0.0, 2.0), math.nan),
    (ProxSet.segment(0.0, 1.0), math.nan),
    (ProxSet.segment((2.0, 0.0), (0.0, 2.0)), (math.nan, 0.0)),
], ids=["single", "pair", "interval", "planar-segment"])
def test_prox_set_distance_rejects_a_nan_query(prox, query):
    # A NaN query has no distance to any set, on the line as in the plane.
    with pytest.raises(ValueError):
        prox.distance(query)


def test_prox_set_collapses_coincident_points():
    assert ProxSet.pair((1.0, 1.0), (1.0, 1.0)).kind == "single"
    assert ProxSet.segment((1.0, 1.0), (1.0, 1.0)).kind == "single"


def test_scalar_prox_set_variants():
    pair = ProxSet.pair(0.0, 2.0)
    assert set(pair.points()) == {0.0, 2.0}
    assert pair.distance(1.0) == 1.0

    iv = ProxSet.segment(3.0, -1.0)  # endpoints given out of order
    assert iv.kind == "interval" and iv.points() == (-1.0, 3.0)
    assert iv.distance(0.0) <= 0.0 and iv.distance(4.0) == 1.0
    assert ProxSet.pair(1.0, 1.0).kind == "single"


@pytest.mark.parametrize("kind, points", [
    ("single", ()),
    ("single", (1.0, 2.0)),
    ("pair", (1.0, 1.0)),
    ("segment", (Point2(1.0, 1.0), Point2(1.0, 1.0))),
    ("interval", (0.0,)),
    ("ball", (0.0,)),
], ids=["single-empty", "single-two", "pair-coincident", "segment-coincident", "interval-one", "unknown-kind"])
def test_prox_set_built_directly_refuses_a_malformed_kind_or_point_count(kind, points):
    # The class methods never build these; the dataclass constructor is public.
    with pytest.raises(ValueError, match="malformed"):
        ProxSet(kind, points)
