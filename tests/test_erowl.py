import math
import sys
import warnings

import numpy as np
import pytest
from exact_prox import prox_scaled_envelope
from hypothesis import example, given, settings, strategies as st

from proxlab.core import Point2, WeightPair
from proxlab.erowl import (
    ErowlParams,
    Region,
    classify_region,
    erowl,
    erowl_limit,
    erowl_shrinker,
    reparameterize,
)
from proxlab.rowl import prox_rowl_2d
from proxlab.transform import check_lipschitz, check_monotone, jacobian_symmetry_defect

P1 = ErowlParams(WeightPair(0.0, 2.0), 1.0)


def test_params_derived_quantities():
    assert P1.beta == pytest.approx(0.5)
    assert P1.eta == pytest.approx(1.0)
    assert P1.w_scaled[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ErowlParams(WeightPair(0.0, 2.0), 0.0)
    with pytest.raises(ValueError):
        ErowlParams(WeightPair(0.0, 2.0), -1.0)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True), st.tuples(finite, finite))
@settings(max_examples=500)
@example(0.0, 2.0, 1e308, (1.0, 1.0))  # printed inf,-inf
@example(0.0, 2.0, 1e200, (1.0, 1.0))
# 2 * delta * (w2 - w1) is finite, but the triangle's numerator overflows
@example(2.2, 2.5, 8e307, (0.1, 0.1))
def test_a_delta_either_is_refused_or_gives_a_finite_closed_form(u, v, delta, x):
    try:
        params = ErowlParams(WeightPair(min(u, v), max(u, v)), delta)
    except ValueError as exc:
        assert "overflows the closed form" in str(exc)
        return
    assert all(map(math.isfinite, erowl_shrinker(params)(x))), (params, x)


def test_a_delta_whose_slab_denominator_overflows_is_refused():
    # The triangle's numerator is finite here, but 2 * delta * (w2 - w1) is
    # inf, so the slab would blend every point at alpha = 0.5: a finite,
    # wrong value (2.8e307 for 2.93e307 at x = (3.2e307, 2.4e307)).
    with pytest.raises(ValueError, match="overflows the closed form"):
        ErowlParams(WeightPair(0.0, 3.2e307), 3.0)


def test_classify_region_examples():
    assert classify_region((1.0, 1.0), P1) == Region.TRIANGLE_C1
    assert classify_region((2.2, 1.8), P1) == Region.SLAB_C2
    assert classify_region((5.0, 1.0), P1) == Region.UPPER_BRANCH
    assert classify_region((1.0, 5.0), P1) == Region.LOWER_BRANCH
    with pytest.raises(ValueError):
        classify_region((-0.5, 1.0), P1)


def test_frozen_point_values():
    shrink = erowl_shrinker(P1)
    assert shrink((2.0, 2.0)) == pytest.approx((1.5, 1.5), abs=1e-12)
    y = shrink((1.0, 1.0))
    assert y[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert y[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert shrink((2.2, 1.8)) == pytest.approx((1.9, 1.1), abs=1e-12)
    assert shrink((5.0, 1.0)) == pytest.approx((5.0, 0.0), abs=1e-12)


def test_vectorized_agrees_with_point_and_resigns():
    """Each row of the batched operator is the closure's value at that point, bit for bit."""
    rng = np.random.default_rng(4)
    x = rng.uniform(-6.0, 6.0, size=(500, 2))
    got = erowl(x, P1)
    assert got.shape == x.shape
    shrink = erowl_shrinker(P1)
    want = np.array([shrink(xi) for xi in x.tolist()])
    assert got.tobytes() == want.tobytes()
    assert np.all(got * x >= 0.0)  # each component keeps its input's sign or is zero


def test_continuity_across_internal_boundaries():
    """Crossing any region boundary changes the output continuously."""
    rng = np.random.default_rng(11)
    shrink = erowl_shrinker(P1)
    for _ in range(200):
        a = rng.uniform(0.0, 5.0, size=2)
        b = rng.uniform(0.0, 5.0, size=2)
        pa = classify_region(a, P1)
        pb = classify_region(b, P1)
        if pa == pb:
            continue
        # bisect to the boundary, then compare the two sides
        lo, hi = a, b
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if classify_region(mid, P1) == pa:
                lo = mid
            else:
                hi = mid
        ya = shrink((lo[0], lo[1]))
        yb = shrink((hi[0], hi[1]))
        assert np.allclose(ya, yb, atol=1e-8)


def test_equivariance_under_signed_permutations():
    rng = np.random.default_rng(3)
    x = rng.uniform(-4.0, 4.0, size=(100, 2))
    base = erowl(x, P1)
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            for swap in (False, True):
                xt = x * [s1, s2]
                if swap:
                    xt = xt[:, ::-1]
                yt = erowl(xt, P1)
                if swap:
                    yt = yt[:, ::-1]
                assert np.allclose(yt * [s1, s2], base, atol=1e-12)


@pytest.mark.parametrize("delta", [0.5, 1.0, 5.0])
def test_operator_is_monotone_and_lipschitz(delta):
    params = ErowlParams(WeightPair(0.0, 2.0), delta)
    op = lambda x: erowl(x, params)
    assert check_monotone(op, pairs=2000, seed=1) >= -1e-10
    bound = 1.0 + 1.0 / delta
    assert check_lipschitz(op, pairs=2000, seed=2) <= bound * (1.0 + 1e-6)


def test_jacobian_is_symmetric_inside_regions():
    rng = np.random.default_rng(8)
    kept = 0
    while kept < 100:
        x = rng.uniform(0.05, 5.0, size=2)
        r = classify_region(x, P1)
        # stay away from boundaries so finite differences see one branch
        probe = [
            classify_region((x[0] + d1, x[1] + d2), P1)
            for d1 in (-2e-5, 2e-5)
            for d2 in (-2e-5, 2e-5)
        ]
        if any(p != r for p in probe) or min(x) < 2e-5:
            continue
        defect = jacobian_symmetry_defect(lambda z: erowl(z, P1), x)
        assert defect <= 1e-4
        kept += 1


def test_limit_values_and_inclusion():
    w = WeightPair(0.0, 2.0)
    assert erowl_limit([2.0, 2.0], w) == pytest.approx([1.0, 1.0], abs=1e-6)
    assert erowl_limit([0.5, 0.5], w) == pytest.approx([0.25, 0.25], abs=1e-6)
    assert erowl_limit([5.0, 1.0], w) == pytest.approx([5.0, 0.0], abs=1e-6)

    rng = np.random.default_rng(14)
    x = rng.uniform(-5.0, 5.0, size=(500, 2))
    y = erowl_limit(x, w)
    for xi, yi in zip(x, y):
        ps = prox_rowl_2d(xi, w)
        assert ps.distance(Point2(*yi)) <= 1e-6


def test_reparameterize_round_trip():
    params = reparameterize(1.0, WeightPair(0.0, 1.0))
    assert params.delta == pytest.approx(1.0)
    assert params.w.w2 == pytest.approx(2.0)

    # forward from the native parameters and back
    native = ErowlParams(WeightPair(0.0, 2.0), 50.0)
    assert native.eta == pytest.approx(100.0 / 51.0)
    assert native.w_scaled[1] == pytest.approx(2.0 / 51.0)
    again = reparameterize(native.eta, WeightPair(*native.w_scaled))
    assert again.delta == pytest.approx(50.0, rel=1e-12)
    assert again.w.w2 == pytest.approx(2.0, rel=1e-12)

    with pytest.raises(ValueError):
        reparameterize(0.0, WeightPair(0.0, 1.0))
    with pytest.raises(ValueError):
        reparameterize(1.0, WeightPair(0.5, 0.5))


def test_equal_weights_reduce_to_plain_shift():
    params = ErowlParams(WeightPair(0.7, 0.7), 2.0)
    x = np.array([[3.0, -1.0], [0.2, 0.1]])
    y = erowl(x, params)
    assert np.all(np.isfinite(y))
    # with no spread there is no coupling band; magnitudes just shrink
    assert np.all(np.abs(y) <= np.abs(x) + 1e-12)


def _gate_points(params: ErowlParams, a2):
    """For each magnitude ``a2``, each ``a1`` that puts ``(a1, a2)`` on one of the operator's gates."""
    dp1, gate, w1 = params.delta + 1.0, params._axis_gate, params.w.w1
    return [
        a2,                          # magnitude tie
        params._diag_gate - a2,      # a1 + a2 on the diagonal gate
        dp1 * a2 - gate,             # -a1 + (delta+1) a2 on the axis gate
        (a2 + gate) / dp1,           # (delta+1) a1 - a2 on the axis gate
        a2 + params.eta,             # |a1 - a2| on the slab edge
        a2 - params.eta,
        a2 + w1 / dp1,
        w1 / dp1,                    # a clip point of the subtract-and-clip branches
        params.w.w2 / dp1,
    ]


def _assert_is_the_exact_prox(x, y, params: ErowlParams):
    """``y`` is the prox of the scaled envelope at ``x``, to 1e-12 * max(1, |x|_inf) per point."""
    want = prox_scaled_envelope(x, params.w, params.delta)
    err = np.max(np.abs(np.asarray(y) - want), axis=-1) / np.maximum(1.0, np.max(np.abs(x), axis=-1))
    i = np.unravel_index(np.argmax(err), err.shape)
    assert err[i] <= 1e-12, (params, np.asarray(x)[i], np.asarray(y)[i], want[i], err[i])


@pytest.mark.parametrize("w", [WeightPair(0.0, 2.0), WeightPair(0.5, 2.0), WeightPair(1.5, 4.0),
                               WeightPair(0.7, 0.7), WeightPair(0.0, 0.0)])
def test_erowl_is_the_exact_prox_of_the_scaled_envelope(w):
    """Seeded points, half of them 1e-14 to 1e-4 off a gate, for delta from 1e-3 to 1e3."""
    rng = np.random.default_rng(20)
    for delta in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
        params = ErowlParams(w, delta)
        scale = rng.choice([0.01, 0.3, 1.0, 3.0], size=(1500, 1))
        uniform = rng.uniform(-6.0, 6.0, size=(1500, 2)) * scale
        a2 = rng.uniform(0.0, 6.0, size=1500)
        gates = _gate_points(params, a2)
        a1 = np.choose(rng.integers(0, len(gates), size=1500), gates)
        a1 = np.abs(a1 + 10.0 ** rng.uniform(-14.0, -4.0, size=1500) * rng.choice([-1.0, 1.0], size=1500))
        near = np.stack([a1, a2], axis=-1)
        near = np.where(rng.random((1500, 1)) < 0.5, near, near[:, ::-1])
        x = np.concatenate([uniform, near * rng.choice([-1.0, 1.0], size=(1500, 2))])
        _assert_is_the_exact_prox(x, erowl(x, params), params)


@st.composite
def erowl_cases(draw):
    """Parameters plus a point on, next to, or away from one of the operator's gates."""
    w1 = draw(st.floats(min_value=0.0, max_value=3.0))
    w2 = w1 + draw(st.floats(min_value=0.0, max_value=3.0))
    params = ErowlParams(WeightPair(w1, w2), draw(st.floats(min_value=1e-3, max_value=1e3)))
    # a2 up to the diagonal gate reaches the triangle's two axis gates
    a2 = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=8.0),
                        st.floats(min_value=0.0, max_value=params._diag_gate)))
    a1 = draw(st.sampled_from([draw(st.floats(min_value=0.0, max_value=8.0)), 0.0]
                              + _gate_points(params, a2)))
    toward = draw(st.sampled_from([math.inf, -math.inf]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a1 = math.nextafter(a1, toward)
    x = [a1, a2]
    if draw(st.booleans()):
        x.reverse()
    return params, tuple(-v if draw(st.booleans()) else v for v in x)


@given(erowl_cases())
@settings(max_examples=500)
# exactly on the slab edge |a1 - a2| = eta
@example((ErowlParams(WeightPair(1.3239538048763637, 3.4095030969047477), 77.61171462613363),
          (2.1773919364439474, -0.11837239639905572)))
def test_shrinker_closure_matches_the_exact_prox_at_every_gate(case):
    params, x = case
    _assert_is_the_exact_prox(np.array(x), erowl_shrinker(params)(x), params)


def test_erowl_keeps_shape_and_dtype():
    for shape in [(2,), (0, 2), (3, 4, 2)]:
        x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        y = erowl(x, P1)
        assert y.shape == shape and y.dtype == np.float64
    with pytest.raises(ValueError, match="2 trailing components"):
        erowl(3.0, P1)
    with pytest.raises(ValueError, match="2 trailing components"):
        erowl(np.zeros((4, 3)), P1)


def test_erowl_passes_nan_and_keeps_infinities_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = erowl([[math.nan, 0.5], [-math.inf, math.inf], [math.inf, 1.0], [0.5, -math.inf]], P1)
    assert math.isnan(y[0, 0]) and y[0, 1] == 0.5  # a NaN fails every gate: the lower branch
    assert y[1].tolist() == [-math.inf, math.inf]
    assert y[2].tolist() == [math.inf, 0.0]
    assert y[3].tolist() == [0.0, -math.inf]
