import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxlab.scalar_ops import (
    SQRT2,
    FirmParams,
    firm,
    firm_shrinker,
    hard,
    l0_envelope,
    l0_norm,
    mc_penalty,
    prox_l0,
    prox_l0_envelope,
    soft,
)
from proxlab.transform import Axis, GridSpec, brute_force_prox


def test_l0_norm_values():
    assert l0_norm(0.0) == 0.0
    assert l0_norm(0.001) == 1.0
    assert l0_norm(-7.0) == 1.0


def test_mc_penalty_values():
    p = 2.0
    assert mc_penalty(0.0, p) == 0.0
    assert mc_penalty(3.0, p) == 1.0  # constant lambda2/2 past the knee
    assert mc_penalty(1.0, p) == pytest.approx(0.75, abs=1e-15)
    assert mc_penalty(-1.0, p) == mc_penalty(1.0, p)
    assert mc_penalty(2.0, p) == pytest.approx(1.0, abs=1e-15)  # continuous at the knee


@pytest.mark.parametrize("lambda2", [0.0, -1.0, math.inf, math.nan])
def test_mc_penalty_rejects_a_lambda2_that_is_not_positive_and_finite(lambda2):
    with pytest.raises(ValueError, match="lambda2 must be positive and finite"):
        mc_penalty(1.0, lambda2)


def _exact_mc(x: float, lambda2: float) -> Fraction:
    a, lam2 = abs(Fraction(x)), Fraction(lambda2)
    return a - a * a / (2 * lam2) if a <= lam2 else lam2 / 2


@pytest.mark.parametrize("x, lambda2", [
    (1e308, 1e308),  # returned nan: a * a and 2 * lambda2 both overflowed
    (1e200, 1e200),  # returned -inf: a * a overflowed
    (-3e200, 1e201),
    (1e200, 1e308),
    (1e154, sys.float_info.max),
    (3.0, 1e308),
])
def test_mc_penalty_is_finite_where_its_quadratic_overflows(x, lambda2):
    want = float(_exact_mc(x, lambda2))
    assert mc_penalty(x, lambda2) == pytest.approx(want, rel=4 * sys.float_info.epsilon)
    assert mc_penalty(np.array([x, 0.5]), lambda2).tolist() == [mc_penalty(x, lambda2), mc_penalty(0.5, lambda2)]


@pytest.mark.parametrize("x", [1e308, -1e200, math.inf])
def test_mc_penalty_and_l0_envelope_leak_no_warning_from_the_branch_they_drop(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mc_penalty(x, 1.0) == 0.5
        assert l0_envelope(x) == 1.0


@pytest.mark.parametrize("lambda2", [2.0, 1e200, 1e308])
def test_mc_penalty_and_l0_envelope_map_a_nan_to_nan(lambda2):
    # A NaN used to fail `a <= lambda2` and take the constant branch: 0.5 * lambda2 and 1.0.
    assert math.isnan(mc_penalty(math.nan, lambda2))
    assert math.isnan(l0_envelope(math.nan))
    # With lambda2 = 1e200 or 1e308 the other entries take the 2**-513 rescale.
    xs = np.array([0.0, -1.5, 1e154, -1e200, 1e308, math.inf])
    for fn in (lambda v: mc_penalty(v, lambda2), l0_envelope):
        mixed = fn(np.insert(xs, [0, 3, 6], math.nan))
        assert np.isnan(mixed[[0, 4, 8]]).all()
        assert np.delete(mixed, [0, 4, 8]).tobytes() == fn(xs).tobytes()


def test_l0_envelope_values():
    assert l0_envelope(0.0) == 0.0
    assert l0_envelope(2.0) == 1.0
    assert l0_envelope(1.0) == pytest.approx(SQRT2 - 0.5, abs=1e-15)


def test_l0_envelope_is_scaled_mc():
    x = np.linspace(-4.0, 4.0, 1001)
    assert np.max(np.abs(l0_envelope(x) - SQRT2 * mc_penalty(x, SQRT2))) < 1e-14


def test_l0_envelope_minorant_and_weak_convexity():
    rng = np.random.default_rng(3)
    x = rng.uniform(-6.0, 6.0, size=5000)
    assert np.all(l0_envelope(x) <= l0_norm(x) + 1e-12)
    assert l0_envelope(0.0) == l0_norm(0.0)
    assert np.all(l0_envelope(x[np.abs(x) >= SQRT2]) == 1.0)

    a = rng.uniform(-6.0, 6.0, size=5000)
    b = rng.uniform(-6.0, 6.0, size=5000)
    g = lambda t: l0_envelope(t) + 0.5 * t * t
    assert np.all(g(0.5 * (a + b)) <= 0.5 * (g(a) + g(b)) + 1e-12)


def test_prox_l0_three_cases():
    assert prox_l0(1.0).points() == (0.0,)
    s = prox_l0(SQRT2)
    assert s.kind == "pair" and set(s.points()) == {0.0, SQRT2}
    assert prox_l0(2.0).points() == (2.0,)
    with pytest.raises(ValueError):
        prox_l0(1.0, gamma=0.0)


def test_prox_l0_threshold_scales_with_gamma():
    gamma = 2.0
    thr = math.sqrt(2.0 * gamma)
    assert prox_l0(thr - 1e-9, gamma).points() == (0.0,)
    assert prox_l0(thr + 1e-9, gamma).points() == (thr + 1e-9,)
    pair = prox_l0(thr, gamma)
    # both members attain the same prox objective
    obj = [l0_norm(v) + (thr - v) ** 2 / (2.0 * gamma) for v in pair.points()]
    assert abs(obj[0] - obj[1]) < 1e-12


def _nearest_root(n: int) -> float:
    """The float nearest ``sqrt(n)``: ``n`` lies between the squares of its midpoints to its neighbours."""
    t = float(math.isqrt(n))
    while ((Fraction(t) + Fraction(math.nextafter(t, math.inf))) / 2) ** 2 < n:
        t = math.nextafter(t, math.inf)
    while ((Fraction(math.nextafter(t, 0.0)) + Fraction(t)) / 2) ** 2 > n:
        t = math.nextafter(t, 0.0)
    return t


@pytest.mark.parametrize("gamma", [8.9e307, 8.99e307, 1e308, sys.float_info.max])
def test_prox_l0_threshold_is_the_rounded_root_of_two_gamma_near_the_float_limit(gamma):
    # 2 * gamma overflows past 8.99e307; the threshold became inf and every x went to 0.
    thr = _nearest_root(2 * int(gamma))
    assert prox_l0(thr, gamma).points() == (0.0, thr)
    assert prox_l0(-math.nextafter(thr, 0.0), gamma).points() == (0.0,)
    assert prox_l0(math.nextafter(thr, math.inf), gamma).points() == (math.nextafter(thr, math.inf),)
    assert prox_l0(1e308, gamma).points() == (1e308,)


def test_prox_l0_envelope_cases():
    assert prox_l0_envelope(1.0).points() == (0.0,)
    iv = prox_l0_envelope(SQRT2)
    assert iv.kind == "interval" and iv.points() == (0.0, SQRT2)
    neg = prox_l0_envelope(-SQRT2)
    assert neg.kind == "interval" and neg.points() == (-SQRT2, 0.0)
    assert prox_l0_envelope(3.0).points() == (3.0,)


def test_prox_l0_and_its_envelope_prox_at_the_threshold_and_at_zero():
    # One body serves both: the unit-step l0 threshold is SQRT2 to the bit.
    assert math.sqrt(2.0 * 1.0) == SQRT2
    cases = [  # a list, not a dict: 0.0 and -0.0 are one key
        (SQRT2, (("pair", (0.0, SQRT2)), ("interval", (0.0, SQRT2)))),
        (-SQRT2, (("pair", (0.0, -SQRT2)), ("interval", (-SQRT2, 0.0)))),
        (0.0, (("single", (0.0,)), ("single", (0.0,)))),
        (-0.0, (("single", (0.0,)), ("single", (0.0,)))),
    ]
    for x, want in cases:
        got = [(s.kind, s.points()) for s in (prox_l0(x), prox_l0_envelope(x))]
        assert got == list(want), x
        for s in (prox_l0(x), prox_l0_envelope(x)):  # zero comes back as +0.0
            assert all(math.copysign(1.0, v) == 1.0 for v in s.points() if v == 0.0)


def test_prox_l0_contained_in_envelope_prox():
    """Every point of the exact prox lies in the envelope's prox set."""
    xs = np.concatenate([np.linspace(-5.0, 5.0, 999), [SQRT2, -SQRT2]])
    for x in xs:
        env_set = prox_l0_envelope(float(x))
        for v in prox_l0(float(x)).points():
            assert env_set.distance(v) <= 1e-12


def test_hard_boundary_belongs_to_zero_branch():
    assert hard(1.0, SQRT2) == 0.0
    assert hard(SQRT2, SQRT2) == 0.0
    assert hard(2.0, SQRT2) == 2.0
    assert hard(-2.0, SQRT2) == -2.0


def test_firm_values():
    p = FirmParams(1.0, 2.0)
    assert firm(0.5, p) == 0.0
    assert firm(1.5, p) == pytest.approx(1.0, abs=1e-15)
    assert firm(3.0, p) == 3.0
    assert firm(-1.5, p) == -firm(1.5, p)


def test_firm_params_validation():
    with pytest.raises(ValueError):
        FirmParams(2.0, 1.0)
    with pytest.raises(ValueError):
        FirmParams(0.0, 1.0)


positive = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)


@given(positive, positive, st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=500)
@example(5e-324, 1e308, 3.0)  # lambda2 * (|x| - lambda1) overflowed: firm printed inf for 3
def test_firm_thresholds_either_are_refused_or_give_a_finite_ramp(u, v, x):
    try:
        params = FirmParams(min(u, v), max(u, v))
    except ValueError as exc:
        assert u == v or "overflow the ramp" in str(exc)
        return
    # |x| = lambda2 is the top of the ramp, where its product is largest.
    points = [x, params.lambda2, -params.lambda2, math.nextafter(params.lambda2, 0.0)]
    got = [*firm(np.array(points), params), *firm_shrinker(params)((x, params.lambda2))]
    assert all(map(math.isfinite, got)), (params, points, got)


def test_firm_monotone_and_lipschitz():
    p = FirmParams(1.0, 2.0)
    grid = np.sort(np.random.default_rng(11).uniform(-5.0, 5.0, size=2000))
    vals = firm(grid, p)
    diffs = np.diff(vals)
    steps = np.diff(grid)
    assert np.all(diffs >= -1e-12)
    bound = p.lambda2 / (p.lambda2 - p.lambda1)
    assert np.max(diffs / steps) <= bound + 1e-9


def test_firm_tends_to_hard_pointwise():
    """With lambda1 = sqrt(2)/(1+delta) and tiny delta, firm approaches hard."""
    delta = 1e-6
    p = FirmParams(SQRT2 / (1.0 + delta), SQRT2)
    xs = np.linspace(-4.0, 4.0, 4001)
    xs = xs[np.abs(np.abs(xs) - SQRT2) > 1e-3]
    h = np.array([hard(float(x), SQRT2) for x in xs])
    f = firm(xs, p)
    assert np.max(np.abs(f - h)) <= 1e-5


def test_firm_is_prox_of_scaled_mc_penalty():
    """Brute-force prox of lambda1 * MC(lambda2) reproduces firm shrinkage."""
    p = FirmParams(1.0, 2.0)
    pen = lambda y: p.lambda1 * mc_penalty(y, p.lambda2)
    for q in (-2.5, -1.3, 0.4, 1.5, 2.2):
        box = GridSpec((Axis(q - 4.0, q + 4.0, 0.001),))
        got = brute_force_prox(pen, q, gamma=1.0, box=box)
        assert got.distance(firm(q, p)) <= 2e-3


def test_soft_values():
    assert soft(2.0, 1.0) == 1.0
    assert soft(-0.5, 1.0) == 0.0
    assert soft(1.7, 0.0) == 1.7


@pytest.mark.parametrize("call, message", [
    (lambda: FirmParams(1.0, math.inf), "firm thresholds must be finite"),
    (lambda: FirmParams(math.nan, 2.0), "firm thresholds must be finite"),
    (lambda: prox_l0(math.inf), "x must be finite, got inf"),
    (lambda: prox_l0_envelope(math.nan), "x must be finite, got nan"),
    (lambda: hard(1.0, 0.0), "threshold must be positive and finite, got 0.0"),
    (lambda: hard(1.0, math.inf), "threshold must be positive and finite, got inf"),
    (lambda: soft(1.0, -1.0), "threshold must be nonnegative and finite, got -1.0"),
    (lambda: soft(1.0, math.nan), "threshold must be nonnegative and finite, got nan"),
], ids=["firm-inf", "firm-nan", "l0-inf", "l0-env-nan", "hard-zero", "hard-inf", "soft-negative", "soft-nan"])
def test_scalar_ops_refuse_a_non_finite_or_out_of_range_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@st.composite
def firm_cases(draw):
    """Firm thresholds plus a point whose coordinates sit on, next to, or away from them."""
    lam1 = draw(st.floats(min_value=1e-3, max_value=5.0))
    lam2 = lam1 + draw(st.floats(min_value=1e-3, max_value=5.0))
    special = [0.0, lam1, lam2]
    special += [math.nextafter(v, d) for v in (lam1, lam2) for d in (-math.inf, math.inf)]

    def coordinate():
        v = draw(st.one_of(st.sampled_from(special), st.floats()))
        return -v if draw(st.booleans()) else v

    return FirmParams(lam1, lam2), (coordinate(), coordinate())


def _firm_by_definition(x: float, p: FirmParams) -> float:
    """``argmin_y (y - x)^2/2 + lambda1 * mc_penalty(y, lambda2)`` over firm's three candidates.

    The minimizer is 0, the ramp's stationary point or ``x``.  Each candidate's
    objective is evaluated in exact rational arithmetic, so candidates a
    rounding apart in the objective still order correctly.
    """
    lam1, lam2, q = Fraction(p.lambda1), Fraction(p.lambda2), Fraction(x)

    def objective(y: float) -> Fraction:
        a = abs(Fraction(y))
        mc = a - a * a / (2 * lam2) if a <= lam2 else lam2 / 2
        return (Fraction(y) - q) ** 2 / 2 + lam1 * mc

    ramp = math.copysign((abs(x) - p.lambda1) * p.lambda2 / (p.lambda2 - p.lambda1), x)
    return min((y for y in (0.0, ramp, x) if math.isfinite(y)), key=objective)


@given(firm_cases())
@settings(max_examples=500)
def test_firm_shrinker_matches_the_exact_prox_at_every_threshold(case):
    params, x = case
    got = firm_shrinker(params)(x)
    for g, v in zip(got, x):
        if math.isnan(v):
            assert math.isnan(g)
        elif math.isinf(v):
            assert g == v
        else:
            assert abs(g - _firm_by_definition(v, params)) <= 1e-15 * max(1.0, abs(v)), (params, v, g)


def test_firm_keeps_shape_and_passes_nonfinite_values_without_warnings():
    p = FirmParams(1.0, 2.0)
    assert type(firm(np.float64(1.5), p)) is float
    for shape in [(0,), (5,), (2, 3)]:
        x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        assert firm(x, p).shape == shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = firm([math.nan, math.inf, -math.inf, 1.5], p)
    assert math.isnan(y[0]) and y[1:].tolist() == [math.inf, -math.inf, 1.0]
