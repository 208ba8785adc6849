import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxlab.core import Point2, ProxSet, WeightPair
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


EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, -1.0, 1.0, 3.0, 1e308]
edge = st.sampled_from(EDGES) | st.floats()
finite_edge = st.sampled_from([v for v in EDGES if math.isfinite(v)]) | st.floats(allow_nan=False, allow_infinity=False)


@given(edge, edge, st.tuples(finite_edge, finite_edge))
@settings(max_examples=300)
def test_a_weight_pair_is_refused_or_gives_finite_proxes(w1, w2, x):
    try:
        w = WeightPair(w1, w2)
    except ValueError:
        return
    got = list(rowl_shrinker(w)(x))
    for prox in (prox_rowl_2d, prox_rowl_envelope_2d):
        got += [c for p in prox(x, w).points() for c in p]
    assert all(map(math.isfinite, got)), (w, x, got)


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


@pytest.mark.parametrize("w", [[math.nan, 1.0], [0.0, math.inf], [math.inf, math.inf], [0.0, math.nan, 1.0]])
def test_penalty_refuses_non_finite_weights(w):
    # A NaN passes both the sign and the order test, and inf - inf is NaN.
    with pytest.raises(ValueError, match="weights must be finite"):
        rowl_penalty([1.0, 2.0, 3.0][:len(w)], w)


@pytest.mark.parametrize("x, w", [
    ([math.inf, 1.0], [0.0, 2.0]),  # inf * 0 is NaN: once returned with matmul's warning
    ([1.0, -math.inf], [0.5, 2.0]),
    ([math.nan, 1.0], [1.0, 1.0]),
    ([[1.0, 2.0], [3.0, math.nan], [5.0, 6.0]], [0.0, 1.0]),
    ([0.0, 1.0, math.inf], [0.0, 0.0, 0.0]),
])
def test_penalty_refuses_a_non_finite_x(x, w):
    with pytest.raises(ValueError, match="x must be finite"):
        rowl_penalty(x, w)


def test_penalty_keeps_a_finite_sum_past_the_float_range_as_inf():
    assert rowl_penalty([1e308, 1e308], [1e308, 1e308]) == math.inf
    assert rowl_penalty(np.array([[1e308, 1e308], [1.0, 2.0]]), [1.0, 1.0]).tolist() == [math.inf, 3.0]


def _sorted_penalty(x, w):
    """The penalty as first written: a per-row ``np.sort``, reversed, times ``w``."""
    return np.sort(np.abs(x), axis=-1)[..., ::-1] @ w


PENALTY_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.5, 1e308, -1e308, math.inf, -math.inf, math.nan]


@st.composite
def penalty_cases(draw):
    """Batches of 2, 3, 4 or 7 magnitudes, full of ties and edge values, in several layouts."""
    d = draw(st.sampled_from([2, 3, 4, 7]))
    batch = draw(st.lists(st.integers(1, 4), max_size=2))
    size = math.prod(batch) * d
    x = np.array(draw(st.lists(st.sampled_from(PENALTY_EDGES) | st.floats(), min_size=size, max_size=size)))
    x = x.reshape(*batch, d)
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran"]))
    if layout == "strided":
        wide = np.zeros((*batch, 2 * d))
        wide[..., ::2] = x
        x = wide[..., ::2]
    elif layout == "fortran":
        x = np.asfortranarray(x)
    weights = st.sampled_from([0.0, 5e-324, 0.5, 1.0, 2.0, 1e308]) | st.floats(0.0, 1e308)
    w = np.sort(draw(st.lists(weights, min_size=d, max_size=d)))
    return x, w


@given(penalty_cases())
@settings(max_examples=400)
@example((np.array([[math.nan, 1.0], [1e308, 1e308]]), np.array([0.0, 1e308])))
@example((np.array([[2.0, 1.0], [1e308, 1e308]]), np.array([0.0, 1e308])))
@example((np.array([-0.0, 0.0, 5e-324, -5e-324]), np.array([0.0, 0.0, 1.0, 1.0])))
@example((np.array([math.inf, -math.inf, 1.0]), np.array([0.0, 0.0, 2.0])))
# A contiguous descending copy sums the second row one ulp away.
@example((np.array([[0.189, -0.005, -0.004, -2.441], [1.8, 0.011, -0.003, 0.774]]),
          np.array([0.45, 1.3, 1.69, 2.01])))
def test_penalty_matches_its_sorted_formula_bit_for_bit(case):
    # A batch with a non-finite entry is refused; a finite one can still overflow to inf.
    x, w = case
    if not np.isfinite(x).all():
        with pytest.raises(ValueError, match="x must be finite"):
            rowl_penalty(x, w)
        return
    with np.errstate(over="ignore"):
        got, want = np.asarray(rowl_penalty(x, w)), _sorted_penalty(x, w)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x, w, got, want)


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


def test_envelope_rescales_a_middle_regime_whose_base_alone_overflows():
    # w2 * s2 = 1.82e308 overflows, but neither the spread's square (1.69e308) nor the
    # value w2 * s2 - w2**2 / 4 = 1.3975e308 does.
    x, w = [1.4e154, 1.4e154], WeightPair(0.0, 1.3e154)
    s, w2 = Fraction(1.4e154), Fraction(1.3e154)
    value = float(w2 * s - w2 * w2 / 4)
    assert rowl_envelope_2d(x, w) == value
    batch = rowl_envelope_2d(np.array([x, [0.0, 0.0], [-1.4e154, 1.4e154]]), w)
    assert batch.tolist() == [value, 0.0, value]


def _reference_envelope(x, w):
    """:func:`rowl_envelope_2d` as it was written with nested ``np.where``: ``s1 + s2``
    is formed twice and every regime gets its own array."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    s1 = np.maximum(a[..., 0], a[..., 1])
    s2 = np.minimum(a[..., 0], a[..., 1])
    with np.errstate(over="ignore", invalid="ignore"):
        base = w.w1 * s1 + w.w2 * s2
        d = (s1 + w.w1) - (s2 + w.w2)
        quad = 0.25 * d * d
        inner = w.w1 * (s1 + s2) + s1 * s2
        tail = s1 >= s2 + w.spread
        middle = s1 + s2 >= w.spread
        out = np.where(tail, base, np.where(middle, base - quad, inner))
    redo = middle & ~tail & ~np.isfinite(out)
    if redo.any():
        scaled = WeightPair(w.w1 * 2.0 ** -513, w.w2 * 2.0 ** -513)
        with np.errstate(over="ignore"):
            out[redo] = _reference_envelope(x[redo] * 2.0 ** -513, scaled) * 2.0 ** 513 * 2.0 ** 513
    return float(out) if out.ndim == 0 else out


def _envelope_points(rng):
    """Random points at several scales, signed zeros on and off the axes, and ties."""
    scale = 10.0 ** rng.integers(-3, 4, size=(400, 1))
    pts = rng.normal(size=(400, 2)) * scale
    pts[::7, 1] = pts[::7, 0]                          # ties |x1| = |x2|
    pts[1::7, 1] = -pts[1::7, 0]
    zeros = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 1.5], [2.5, -0.0]]
    return np.concatenate([pts, zeros])


@pytest.mark.parametrize("w", [
    W02, WeightPair(0.5, 1.5), WeightPair(1.0, 1.0), WeightPair(0.0, 0.0), WeightPair(2.0, 3.0),
    WeightPair(0.0, 1e155), WeightPair(0.0, 1e308), WeightPair(0.0, 2e154), WeightPair(0.0, 1.3e154),
    WeightPair(1e300, 1e306),
], ids=lambda w: f"{w.w1:g}-{w.w2:g}")
def test_envelope_matches_its_nested_where_reference_bit_for_bit(w):
    rng = np.random.default_rng(17)
    pts = _envelope_points(rng)
    # The overflow and 2**-513 rescale regimes: points at w's own scale, and
    # near the diagonal, where the middle regime holds.
    unit = pts[:60] / np.abs(pts[:60]).max()
    near_diag = rng.uniform(0.5, 1.0, size=(60, 1)) * rng.choice([-1.0, 1.0], size=(60, 2))
    near_diag[:, 1] *= rng.uniform(0.6, 1.0, size=60)
    big = max(w.w2, 1.0)
    pts = np.concatenate([pts, unit * big, unit * (big * 1e-3), near_diag * big,
                          [[1e308, 1e308], [1.4e154, -1.4e154]]])
    batch = rowl_envelope_2d(pts, w)
    assert batch.tobytes() == _reference_envelope(pts, w).tobytes()
    cube = pts[:384].reshape(4, 12, 8, 2)[:, ::2].transpose(1, 0, 2, 3)  # strided, 3 batch axes
    got = rowl_envelope_2d(cube, w)
    assert got.shape == (6, 4, 8) and got.tobytes() == _reference_envelope(cube, w).tobytes()
    for p in pts[::9]:
        value = rowl_envelope_2d(p, w)
        assert type(value) is float
        assert value.hex() == _reference_envelope(p, w).hex()
        assert rowl_envelope_2d(p.tolist(), w).hex() == value.hex()


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


def _numpy_prox_2d(x, w, tie):
    """The set-valued planar prox as it was written, on numpy two-vectors: the bits to keep."""
    v = Point2.of(x).as_array()
    a = np.abs(v)
    s = np.where(v < 0, -1.0, 1.0)
    cand_keep = np.maximum(a - np.array([w.w1, w.w2]), 0.0)
    cand_swap = np.maximum(a - np.array([w.w2, w.w1]), 0.0)
    if a[0] > a[1]:
        return ProxSet.single(s * cand_keep)
    if a[0] < a[1]:
        return ProxSet.single(s * cand_swap)
    return tie(s * cand_keep, s * cand_swap)


def _assert_prox_bits_match_numpy_formula(x, w):
    for prox, tie in ((prox_rowl_2d, ProxSet.pair), (prox_rowl_envelope_2d, ProxSet.segment)):
        got, want = prox(x, w), _numpy_prox_2d(x, w, tie)
        bits = [[struct.pack("<dd", *p) for p in ps.points()] for ps in (got, want)]
        assert got.kind == want.kind and bits[0] == bits[1], (prox.__name__, x, w, got, want)


@st.composite
def prox_bit_cases(draw):
    """A weight pair (``w1 = 0`` and ``w1 == w2`` included) and a finite point with signed zeros,
    the smallest subnormal, components of 1e308, exact ties and ``|x_i| = w_j``."""
    mag = st.sampled_from([0.0, 5e-324, 1.0, 1e308]) | st.floats(min_value=0.0, max_value=1e308)
    w1, w2 = sorted((draw(st.just(0.0) | mag), draw(mag)))
    w = WeightPair(w1, draw(st.sampled_from([w1, w2])))
    a2 = draw(mag | st.sampled_from([w.w1, w.w2]))
    a1 = draw(mag | st.just(a2) | st.sampled_from([w.w1, w.w2]))
    x = [a1, a2]
    if draw(st.booleans()):
        x.reverse()
    return tuple(-v if draw(st.booleans()) else v for v in x), w


@given(prox_bit_cases())
@settings(max_examples=2000)
@example(((-0.0, 0.0), WeightPair(0.0, 0.0)))
@example(((-0.0, -0.0), W02))
@example(((2.0, -2.0), W02))
@example(((-5e-324, 5e-324), WeightPair(0.0, 5e-324)))
@example(((-1e308, 1e308), WeightPair(0.0, 1e308)))
@example(((1e308, -5e-324), WeightPair(1e308, 1e308)))
def test_prox_matches_its_numpy_formula_bit_for_bit(case):
    # Both proxes work on the point's two floats; every output bit, -0.0 of a
    # clipped negative coordinate included, is that of the numpy formula.
    _assert_prox_bits_match_numpy_formula(*case)


def test_prox_matches_its_numpy_formula_on_seeded_points():
    rng = np.random.default_rng(20261020)
    for w1, dw, x in zip(rng.uniform(0.0, 2.0, 500), rng.choice([0.0, 0.5, 2.0], 500),
                         rng.uniform(-5.0, 5.0, (500, 2))):
        _assert_prox_bits_match_numpy_formula(tuple(x.tolist()), WeightPair(w1, w1 + dw))


def test_scalar_input_is_a_value_error():
    w = WeightPair(0.0, 2.0)
    with pytest.raises(ValueError, match="2 trailing components"):
        rowl_envelope_2d(3.0, w)
    with pytest.raises(ValueError, match="w has 2 components"):
        rowl_penalty(3.0, w.as_array())
