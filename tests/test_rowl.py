import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxlab.core import Point2, WeightPair
from proxlab.rowl import (
    prox_rowl_2d,
    prox_rowl_envelope_2d,
    rowl_envelope_2d,
    rowl_penalty,
    rowl_shrinker,
)
from proxlab.transform import brute_force_prox, default_prox_box

W02 = WeightPair(0.0, 2.0)

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_penalty_values():
    assert rowl_penalty([3.0, -1.0], [0.0, 2.0]) == 2.0
    assert rowl_penalty([0.0, 0.0], [0.5, 1.0]) == 0.0
    t, w1, w2 = 1.7, 0.3, 0.9
    assert rowl_penalty([t, t], [w1, w2]) == pytest.approx((w1 + w2) * t)


def test_penalty_accepts_any_length_but_validates_weights():
    assert rowl_penalty([1.0, -2.0, 3.0], [0.0, 1.0, 2.0]) == pytest.approx(
        0.0 * 3 + 1.0 * 2 + 2.0 * 1
    )
    with pytest.raises(ValueError):
        rowl_penalty([1.0, 2.0], [2.0, 1.0])  # decreasing weights
    with pytest.raises(ValueError):
        rowl_penalty([1.0, 2.0], [-1.0, 1.0])
    with pytest.raises(ValueError):
        rowl_penalty([1.0, 2.0, 3.0], [0.0, 1.0])  # length mismatch
    for w in ([], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="nonempty 1-D weight vector"):
            rowl_penalty([1.0, 2.0], w)


@given(coord, coord)
@settings(max_examples=200)
def test_penalty_invariant_under_signs_and_swap(x1, x2):
    w = [0.2, 1.3]
    base = rowl_penalty([x1, x2], w)
    assert rowl_penalty([-x1, x2], w) == base
    assert rowl_penalty([x2, x1], w) == base


def test_prox_examples():
    assert prox_rowl_2d((3.0, 1.0), W02).points() == (Point2(3.0, 0.0),)
    pair = prox_rowl_2d((2.0, 2.0), W02)
    assert pair.kind == "pair"
    assert set((p.x1, p.x2) for p in pair.points()) == {(2.0, 0.0), (0.0, 2.0)}
    assert prox_rowl_2d((-1.0, 3.0), W02).points() == (Point2(0.0, 3.0),)


def test_prox_resigns_components():
    got = prox_rowl_2d((-3.0, -1.0), W02).points()[0]
    assert (got.x1, got.x2) == (-3.0, 0.0)


def test_prox_equal_weights_always_single():
    w = WeightPair(0.7, 0.7)
    assert prox_rowl_2d((1.5, 1.5), w).kind == "single"


def test_tie_candidates_share_objective():
    rng = np.random.default_rng(5)
    w = WeightPair(0.4, 1.9)
    for t in rng.uniform(0.0, 4.0, size=50):
        ps = prox_rowl_2d((t, t), w)
        vals = [
            rowl_penalty(p.as_array(), w.as_array())
            + 0.5 * float(np.sum((p.as_array() - t) ** 2))
            for p in ps.points()
        ]
        assert max(vals) - min(vals) < 1e-12


def test_envelope_frozen_values():
    assert rowl_envelope_2d([4.0, 1.0], W02) == 2.0
    assert rowl_envelope_2d([1.0, 1.0], W02) == 1.0
    # the minorant of a nonnegative penalty that vanishes at 0 is 0 there
    assert rowl_envelope_2d([0.0, 0.0], W02) == 0.0
    assert rowl_envelope_2d([0.5, 0.5], W02) == 0.25


def test_envelope_matches_penalty_when_gap_exceeds_spread():
    rng = np.random.default_rng(9)
    w = WeightPair(0.2, 1.1)
    for _ in range(200):
        s2 = rng.uniform(0.0, 3.0)
        s1 = s2 + w.spread + rng.uniform(0.0, 3.0)
        x = np.array([s1, s2]) * rng.choice([-1.0, 1.0], size=2)
        if rng.uniform() < 0.5:
            x = x[::-1]
        assert rowl_envelope_2d(x, w) == pytest.approx(
            rowl_penalty(x, w.as_array()), abs=1e-12
        )


def test_envelope_minorant_and_weak_convexity():
    rng = np.random.default_rng(21)
    w = WeightPair(0.0, 2.0)
    x = rng.uniform(-5.0, 5.0, size=(10_000, 2))
    assert np.all(rowl_envelope_2d(x, w) <= rowl_penalty(x, w.as_array()) + 1e-12)

    a = rng.uniform(-5.0, 5.0, size=(10_000, 2))
    b = rng.uniform(-5.0, 5.0, size=(10_000, 2))
    g = lambda z: rowl_envelope_2d(z, w) + 0.5 * np.sum(z * z, axis=-1)
    assert np.all(g(0.5 * (a + b)) <= 0.5 * (g(a) + g(b)) + 1e-10)


def test_envelope_continuous_across_regions():
    w = WeightPair(0.3, 1.7)
    eps = 1e-9
    for t in np.linspace(0.0, w.spread, 37):
        # inner boundary s1 + s2 = spread
        s1, s2 = max(t, w.spread - t), min(t, w.spread - t)
        lo = rowl_envelope_2d([s1, s2], w)
        hi = rowl_envelope_2d([s1 + eps, s2 + eps], w)
        assert abs(hi - lo) < 1e-7
    for s2 in np.linspace(0.0, 3.0, 37):
        # outer boundary s1 - s2 = spread
        s1 = s2 + w.spread
        lo = rowl_envelope_2d([s1 - eps, s2], w)
        hi = rowl_envelope_2d([s1 + eps, s2], w)
        assert abs(hi - lo) < 1e-7


@pytest.mark.parametrize("x, w, value", [
    # The unselected middle regime is inf - inf; the bowl's honest value overflows.
    ([3e154, 1e154], WeightPair(0.0, 1e155), math.inf),
    # The selected middle regime overflows to inf - inf; its value is past the float range.
    ([1e308, 1e308], WeightPair(0.0, 1e308), math.inf),
    # The selected middle regime overflows to inf, though its value, 1e308, is finite.
    ([1e154, -1e154], WeightPair(0.0, 2e154), pytest.approx(1e308, rel=1e-15)),
], ids=["bowl", "middle-nan", "middle-finite"])
def test_envelope_keeps_an_overflowed_regime_out_of_its_value(x, w, value):
    # pytest's filterwarnings = error turns a leaked RuntimeWarning into a failure.
    assert rowl_envelope_2d(x, w) == value
    batch = rowl_envelope_2d(np.array([x, [0.0, 0.0], [1.0, 1.0]]), w)
    assert batch[0] == value and batch[1] == 0.0 and batch[2] == rowl_envelope_2d([1.0, 1.0], w)


def test_envelope_prox_examples():
    seg = prox_rowl_envelope_2d((2.0, 2.0), W02)
    assert seg.kind == "segment"
    assert set((p.x1, p.x2) for p in seg.points()) == {(2.0, 0.0), (0.0, 2.0)}

    assert prox_rowl_envelope_2d((3.0, 1.0), W02).points() == (Point2(3.0, 0.0),)

    clipped = prox_rowl_envelope_2d((0.5, 0.5), W02)
    assert clipped.kind == "segment"
    assert set((p.x1, p.x2) for p in clipped.points()) == {(0.5, 0.0), (0.0, 0.5)}


def test_prox_contained_in_envelope_prox():
    """The exact prox points always sit inside the envelope's prox set."""
    rng = np.random.default_rng(17)
    w = WeightPair(0.1, 1.4)
    pts = list(rng.uniform(-4.0, 4.0, size=(400, 2)))
    pts += [np.array([t, t]) for t in np.linspace(-3.0, 3.0, 101)]  # exact ties
    for x in pts:
        env_set = prox_rowl_envelope_2d(x, w)
        for p in prox_rowl_2d(x, w).points():
            assert env_set.distance(p) <= 1e-12


def test_prox_commutes_with_signed_permutations():
    rng = np.random.default_rng(2)
    w = WeightPair(0.2, 0.9)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, size=2)
        base = {(p.x1, p.x2) for p in prox_rowl_2d(x, w).points()}
        flipped = {(-p.x1, p.x2) for p in prox_rowl_2d([-x[0], x[1]], w).points()}
        swapped = {(p.x2, p.x1) for p in prox_rowl_2d(x[::-1], w).points()}
        assert base == flipped == swapped


def test_envelope_prox_matches_brute_force_oracle():
    rng = np.random.default_rng(33)
    step = 0.02
    for _ in range(25):
        w2 = rng.uniform(0.3, 2.5)
        w1 = rng.uniform(0.0, w2)
        w = WeightPair(w1, w2)
        x = rng.uniform(-4.0, 4.0, size=2)
        oracle = brute_force_prox(
            lambda z: rowl_envelope_2d(z, w), x, gamma=1.0,
            box=default_prox_box(x, w2, step),
        )
        claimed = prox_rowl_envelope_2d(x, w)
        for p in oracle.points():
            assert claimed.distance(p) <= 2.0 * step
        for p in claimed.points():
            assert oracle.distance(p) <= 2.0 * step


def test_shrinker_selection_matches_prox():
    w = WeightPair(0.1, 0.8)
    shrink = rowl_shrinker(w)
    got = shrink((2.0, -0.3))
    assert prox_rowl_2d((2.0, -0.3), w).distance(got) <= 1e-15
    # on ties it picks the keep-order matching
    t = 1.5
    assert shrink((t, t)) == (t - w.w1, t - w.w2)



@pytest.mark.parametrize(
    "x", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan), (-math.nan, 3.0), (3.0, -math.nan)])
def test_shrinker_passes_nan_through(x):
    """A NaN coordinate stays NaN; the clip used to turn it into 0.0."""
    for w in (WeightPair(0.0, 1.0), WeightPair(0.5, 1.0)):
        got = rowl_shrinker(w)(x)
        assert [math.isnan(v) for v in got] == [math.isnan(v) for v in x], (w, x, got)

def test_envelope_rejects_wrong_trailing_dimension():
    with pytest.raises(ValueError):
        rowl_envelope_2d([1.0, 2.0, 3.0], W02)


@st.composite
def rowl_cases(draw):
    """A weight pair plus a finite point with signs, signed zeros, ties and ``|x_i| = w_j``."""
    w1 = draw(st.floats(min_value=0.0, max_value=3.0))
    w = WeightPair(w1, w1 + draw(st.floats(min_value=0.0, max_value=3.0)))
    special = st.sampled_from([0.0, w.w1, w.w2])
    a2 = draw(st.one_of(special, st.floats(min_value=0.0, max_value=8.0)))
    a1 = draw(st.one_of(special, st.just(a2), st.floats(min_value=0.0, max_value=8.0)))
    toward = draw(st.sampled_from([math.inf, -math.inf]))
    for _ in range(draw(st.integers(min_value=0, max_value=1))):
        a1 = math.nextafter(a1, toward)
    a1 = abs(a1)
    x = [a1, a2]
    if draw(st.booleans()):
        x.reverse()
    return w, tuple(-v if draw(st.booleans()) else v for v in x)


@given(rowl_cases())
@settings(max_examples=1000)
@example((W02, (2.0, -2.0)))
@example((W02, (-0.0, 0.0)))
@example((WeightPair(0.5, 1.0), (-1.0, 0.5)))
def test_shrinker_returns_a_prox_point(case):
    """The closure picks a point of ``prox_rowl_2d``, the identity matching on ties.

    Compared with ``==``: on a zero component the prox keeps the input's sign,
    the closure returns +0.0.
    """
    w, x = case
    got = rowl_shrinker(w)(x)
    assert any(got == (p.x1, p.x2) for p in prox_rowl_2d(x, w).points()), (x, got)
    a = (abs(x[0]), abs(x[1]))
    if a[0] == a[1]:
        keep = tuple(math.copysign(max(ai - wi, 0.0), xi) for ai, wi, xi in zip(a, w, x))
        assert got == keep, (x, got)


def test_scalar_input_is_a_value_error():
    w = WeightPair(0.0, 2.0)
    with pytest.raises(ValueError, match="2 trailing components"):
        rowl_envelope_2d(3.0, w)
    with pytest.raises(ValueError, match="w has 2 components"):
        rowl_penalty(3.0, w.as_array())
