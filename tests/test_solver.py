import dis
import functools
import math
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxlab import solver
from proxlab.core import Point2, WeightPair
from proxlab.erowl import ErowlParams, _region_test, erowl_shrinker
from proxlab.experiments import ScenarioConfig, _trial_cells, firm_rule, fixed_design_matrix, generate_model
from proxlab.rng import Xoshiro256pp, stream
from proxlab.rowl import rowl_shrinker
from proxlab.scalar_ops import FirmParams, _firm, firm_shrinker, soft
from proxlab.solver import (
    CYCLE_BLOCK,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DIVERGENCE_NORM,
    LOCKSTEP_LANES,
    LinearModel,
    PfbsResult,
    SpectralBounds,
    pfbs,
    pfbs_lockstep,
    select_parameters,
    spectral_bounds,
)


def test_model_validation():
    with pytest.raises(ValueError):
        LinearModel(np.ones((3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        LinearModel(np.ones((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        LinearModel(np.ones((3, 2)), np.array([0.0, np.inf, 0.0]))
    m = LinearModel(np.eye(2), np.array([1.0, 2.0]))
    assert m.gram_terms() == (1.0, 0.0, 1.0, 1.0, 2.0)


def test_model_rejects_every_nonfinite_entry():
    # Each entry is checked, also where it meets a zero in the Gram sums.
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(3):
            for j in range(2):
                a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
                a[i, j] = bad
                with pytest.raises(ValueError, match="finite"):
                    LinearModel(a, np.ones(3))
            y = np.ones(3)
            y[i] = bad
            with pytest.raises(ValueError, match="finite"):
                LinearModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), y)
    with pytest.raises(ValueError, match="finite"):
        LinearModel(np.eye(2) * 1e200, np.array([1.0, np.inf]))


def _row_order_gram(a, y):
    g11 = g12 = g22 = c1 = c2 = 0.0
    for (a1, a2), yi in zip(a.tolist(), y.tolist()):
        g11 += a1 * a1
        g12 += a1 * a2
        g22 += a2 * a2
        c1 += a1 * yi
        c2 += a2 * yi
    return g11, g12, g22, c1, c2


def _sum_bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def test_gram_terms_equal_the_row_order_sums_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        a = rng.normal(size=(m, 2)) * 10.0 ** rng.integers(-150, 150, size=(m, 2))
        y = rng.normal(size=m) * 10.0 ** rng.integers(-150, 150, size=m)
        model = LinearModel(a, y)
        assert _sum_bits(model.gram_terms()) == _sum_bits(_row_order_gram(a, y))
    # Finite entries whose sums overflow are a valid model.
    big = LinearModel(np.eye(2) * 1e200, np.ones(2))
    assert big.gram_terms() == (math.inf, 0.0, math.inf, 1e200, 1e200)
    assert _sum_bits(big.gram_terms()) == _sum_bits(_row_order_gram(big.a_matrix, big.y))


def test_spectral_bounds_simple_cases():
    assert spectral_bounds(np.eye(2)) == SpectralBounds(1.0, 1.0)
    b = spectral_bounds(np.diag([1.0, 2.0]))
    assert (b.rho, b.kappa) == (1.0, 4.0)
    with pytest.raises(ValueError):
        SpectralBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        SpectralBounds(-1.0, 1.0)
    for rho, kappa in ((math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="spectral bounds must be finite"):
            SpectralBounds(rho, kappa)


def test_spectral_bounds_clip_a_rounded_negative_rho_to_zero():
    # Three equal rows make A^T A singular; its closed-form small eigenvalue rounds to -1.1e-16.
    b = spectral_bounds(np.array([[0.3, 0.7]] * 3))
    assert b.rho == 0.0 and b.kappa == pytest.approx(1.74, rel=1e-15)


def test_spectral_bounds_match_dense_eigensolver():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=(rng.integers(2, 8), 2))
        b = spectral_bounds(a)
        lo, hi = np.linalg.eigvalsh(a.T @ a)
        assert b.rho == pytest.approx(max(lo, 0.0), abs=1e-10)
        assert b.kappa == pytest.approx(hi, abs=1e-10)


@pytest.mark.parametrize("bounds", [SpectralBounds(0.00819025, 0.819025), SpectralBounds(0.3, 7.5)])
def test_select_parameters_step_interpolates_its_two_ends(bounds):
    rho, kappa = bounds.rho, bounds.kappa
    for gamma_mu in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        params = select_parameters(bounds, gamma_mu=gamma_mu)
        beta = params.beta
        assert params.mu == gamma_mu * (1 - beta) / rho + (1 - gamma_mu) * (1 + beta) / kappa


def test_select_parameters_frozen_tall_spectrum():
    params = select_parameters(SpectralBounds(0.00819025, 0.819025))
    assert params.delta == pytest.approx(49.995, rel=1e-9)
    assert params.beta == pytest.approx(0.980390234, abs=1e-7)
    assert params.mu == pytest.approx(2.40613, abs=1e-4)
    lo, hi = params.mu_interval
    assert lo == pytest.approx(1.6061e-4, abs=1e-7)
    assert hi == pytest.approx(2.41799, abs=1e-4)
    assert lo < params.mu  # chosen step can exceed hi; both ends are heuristics


def test_select_parameters_simple_numbers():
    params = select_parameters(SpectralBounds(1.0, 4.0), gamma_delta=2.0, gamma_mu=1.0)
    assert params.delta == pytest.approx(3.0)
    assert params.beta == pytest.approx(0.75)
    assert params.mu == pytest.approx(0.25)
    assert params.mu_interval == pytest.approx((0.25, 0.4375))


def test_select_parameters_rejects_bad_inputs():
    with pytest.raises(ValueError):
        select_parameters(SpectralBounds(0.0, 1.0))
    with pytest.raises(ValueError, match="kappa equals rho"):
        select_parameters(SpectralBounds(1.0, 1.0))
    with pytest.raises(ValueError):
        select_parameters(SpectralBounds(1.0, 4.0), gamma_delta=1.0)
    with pytest.raises(ValueError):
        select_parameters(SpectralBounds(1.0, 4.0), gamma_mu=1.5)
    with pytest.raises(ValueError, match="must be finite and exceed 1, got nan"):
        select_parameters(SpectralBounds(0.1, 1.0), math.nan)
    with pytest.raises(ValueError, match="must be finite and exceed 1, got inf"):
        select_parameters(SpectralBounds(0.1, 1.0), math.inf)
    with pytest.raises(ValueError, match="makes delta overflow"):
        select_parameters(SpectralBounds(0.1, 1.0), 1e308)  # 1e308 * 0.9 / 0.2 is not finite


def test_pfbs_zero_data_fixed_point():
    model = LinearModel(np.eye(2), np.zeros(2))
    res = pfbs(model, lambda p: p, mu=0.5)
    assert res.converged and not res.diverged
    assert res.stop_reason == "converged"
    assert res.iterations == 1
    assert (res.x_hat.x1, res.x_hat.x2) == (0.0, 0.0)
    assert len(res.trajectory()) == 3


def test_pfbs_solves_noiseless_least_squares():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.1]])
    x_true = np.array([2.0, -1.0])
    model = LinearModel(a, a @ x_true)
    res = pfbs(model, lambda p: p, mu=0.5, tol=1e-12)
    assert res.converged
    assert res.x_hat.x1 == pytest.approx(2.0, abs=1e-8)
    assert res.x_hat.x2 == pytest.approx(-1.0, abs=1e-8)


def test_pfbs_terminates_at_a_fixed_point_of_the_map():
    a = np.array([[1.0, 0.2], [0.1, 0.9], [0.4, -0.3]])
    y = np.array([1.3, -0.2, 0.7])
    model = LinearModel(a, y)
    mu, tol = 0.4, 1e-10
    shrink = lambda p: (soft(p[0], 0.3), soft(p[1], 0.3))
    res = pfbs(model, shrink, mu=mu, tol=tol)
    assert res.converged
    g11, g12, g22, c1, c2 = model.gram_terms()
    x1, x2 = res.x_hat.x1, res.x_hat.x2
    h1 = x1 - mu * (g11 * x1 + g12 * x2 - c1)
    h2 = x2 - mu * (g12 * x1 + g22 * x2 - c2)
    n1, n2 = shrink((h1, h2))
    assert math.hypot(n1 - x1, n2 - x2) <= 10.0 * tol


def test_gram_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    model = LinearModel(a, y)
    g11, g12, g22, c1, c2 = model.gram_terms()
    x = rng.normal(size=2)
    f = lambda z: 0.5 * float(np.sum((a @ z - y) ** 2))
    h = 1e-6
    for i, analytic in enumerate(
        (g11 * x[0] + g12 * x[1] - c1, g12 * x[0] + g22 * x[1] - c2)
    ):
        e = np.zeros(2)
        e[i] = h
        numeric = (f(x + e) - f(x - e)) / (2.0 * h)
        assert numeric == pytest.approx(analytic, rel=1e-6)


def test_pfbs_traces_are_bitwise_reproducible():
    a = np.array([[1.0, 0.2], [0.1, 0.9]])
    y = np.array([1.0, -1.0])
    model = LinearModel(a, y)
    shrink = lambda p: (soft(p[0], 0.1), soft(p[1], 0.1))
    r1 = pfbs(model, shrink, mu=0.7)
    r2 = pfbs(model, shrink, mu=0.7)
    assert r1.iterations == r2.iterations
    t1 = [(p.x1, p.x2, h.x1, h.x2) for p, h in r1.trace]
    t2 = [(p.x1, p.x2, h.x1, h.x2) for p, h in r2.trace]
    assert t1 == t2  # exact float equality, no tolerance


def test_pfbs_flags_divergence():
    model = LinearModel(np.eye(2), np.array([1.0, 1.0]))
    for record_trace in (True, False):
        res = pfbs(model, lambda p: p, mu=5.0, max_iter=10_000, record_trace=record_trace)
        assert res.diverged and not res.converged
        assert res.stop_reason == "diverged"


def test_pfbs_trace_controls():
    model = LinearModel(np.eye(2), np.array([0.3, -0.2]))
    res = pfbs(model, lambda p: p, mu=0.5, max_iter=7, tol=1e-300)
    assert res.iterations == 7
    traj = res.trajectory()
    assert len(traj) == 2 * res.iterations + 1
    assert (traj[0].x1, traj[0].x2) == (0.0, 0.0)
    assert traj[-1] == res.x_hat

    bare = pfbs(model, lambda p: p, mu=0.5, record_trace=False)
    assert bare.trace is None
    with pytest.raises(ValueError):
        bare.trajectory()
    with pytest.raises(ValueError):
        pfbs(model, lambda p: p, mu=0.0)


@pytest.mark.parametrize("tol, max_iter", [(-1e-10, 10), (math.nan, 10), (1e-10, 0), (1e-10, -3)])
def test_pfbs_rejects_a_negative_tol_and_no_iterations(tol, max_iter):
    model = LinearModel(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="need tol >= 0 and max_iter >= 1"):
        pfbs(model, lambda p: p, mu=0.5, tol=tol, max_iter=max_iter)


def test_pfbs_refuses_a_max_iter_that_is_not_a_finite_whole_number():
    # inf escaped as int()'s OverflowError, NaN raised int()'s own message, and
    # 2.5 ran 2 iterations.
    model = LinearModel(np.eye(2), np.zeros(2))
    for bad in (math.inf, math.nan, 2.5):
        with pytest.raises(ValueError, match="max_iter must be a finite whole number"):
            pfbs(model, lambda p: p, mu=0.5, max_iter=bad)
    halving = LinearModel(np.eye(2), np.ones(2))  # the error to (1, 1) halves per iteration
    for whole in (3.0, np.int64(3)):
        res = pfbs(halving, lambda p: p, mu=0.5, tol=0.0, max_iter=whole)
        assert res.iterations == 3 and type(res.iterations) is int and res.stop_reason == "max_iter"
    assert pfbs(halving, lambda p: p, mu=0.5, max_iter=1e5).converged


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("record_trace", [True, False])
def test_a_non_finite_iterate_diverges_at_the_last_finite_one(bad, record_trace):
    model = LinearModel(np.eye(2), np.zeros(2))
    steps = iter([(1.0, 2.0), (bad, 0.0)])
    res = pfbs(model, lambda h: next(steps), 0.5, record_trace=record_trace)
    assert (res.stop_reason, res.iterations) == ("diverged", 2)
    assert (res.x_hat.x1, res.x_hat.x2) == (1.0, 2.0)
    if record_trace:
        assert res.trajectory()[-1] == res.x_hat



# The entries are finite but the Gram matrix overflows (g11 = g22 = inf), so
# the first forward half-step is inf * 0 = NaN.
OVERFLOWING_GRAM = LinearModel(np.eye(2) * 1e200, np.ones(2))
SHRINKERS = {
    "rowl": rowl_shrinker(WeightPair(0.0, 1.0)),
    "erowl": erowl_shrinker(ErowlParams(WeightPair(0.0, 1.0), 1.0)),
    "firm": firm_shrinker(FirmParams(0.5, 1.0)),
}


@pytest.mark.parametrize("name", sorted(SHRINKERS))
def test_a_nan_half_step_diverges_in_both_trace_modes(name):
    bare = pfbs(OVERFLOWING_GRAM, SHRINKERS[name], 0.5, record_trace=False)
    assert (bare.stop_reason, bare.iterations, _bits(bare.x_hat)) == (
        "diverged", 1, _bits(Point2(0.0, 0.0)))
    traced = pfbs(OVERFLOWING_GRAM, SHRINKERS[name], 0.5, record_trace=True)
    assert (traced.stop_reason, traced.iterations, _bits(traced.x_hat)) == (
        bare.stop_reason, bare.iterations, _bits(bare.x_hat))
    assert traced.trace == ()
    assert traced.trajectory() == [traced.x_hat]


def test_a_non_finite_half_step_is_left_out_of_the_trace():
    # g11 = 1e300 is finite, but once x1 = 1e10 the product g11 * x1 overflows.
    model = LinearModel(np.eye(2) * 1e150, np.zeros(2))
    runs = []
    for record_trace in (False, True):
        first = iter([(1e10, 0.0)])
        runs.append(pfbs(model, lambda h: next(first, h), 0.5, record_trace=record_trace))
    bare, traced = runs
    assert (bare.stop_reason, bare.iterations, _bits(bare.x_hat)) == (
        "diverged", 2, _bits(Point2(1e10, 0.0)))
    assert (traced.stop_reason, traced.iterations, _bits(traced.x_hat)) == (
        bare.stop_reason, bare.iterations, _bits(bare.x_hat))
    assert traced.trace == ((Point2(0.0, 0.0), Point2(0.0, 0.0)),)

# With A = I, y = 0 and mu = 1/2 the forward step is h = x / 2 exactly, so
# these shrinks make x -> -x, x -> (x2, -x1) and x -> (x2, -x1 - x2): exact
# orbits of period 2, 4 and 3 from any integer start.
CYCLING_SHRINKS = {
    2: lambda h: (-2.0 * h[0], -2.0 * h[1]),
    4: lambda h: (2.0 * h[1], -2.0 * h[0]),
    3: lambda h: (2.0 * h[1], -2.0 * h[0] - 2.0 * h[1]),
}
ORBIT_MODEL = LinearModel(np.eye(2), np.zeros(2))


def _orbit_run(period, max_iter, record_trace):
    calls = 0

    def shrink(h):
        nonlocal calls
        calls += 1
        return CYCLING_SHRINKS[period](h)

    res = pfbs(ORBIT_MODEL, shrink, mu=0.5, x0=Point2(1.0, 3.0), max_iter=max_iter,
               record_trace=record_trace)
    return res, calls


def _bits(p: Point2) -> bytes:
    return struct.pack("<dd", p.x1, p.x2)


@pytest.mark.parametrize("period", sorted(CYCLING_SHRINKS))
@pytest.mark.parametrize("max_iter", [7, 64, 65, 100_000, 100_001])
def test_untraced_pfbs_reports_what_the_full_run_reports(period, max_iter):
    full, full_calls = _orbit_run(period, max_iter, record_trace=True)
    fast, fast_calls = _orbit_run(period, max_iter, record_trace=False)
    assert full_calls == full.iterations == max_iter
    assert _bits(fast.x_hat) == _bits(full.x_hat)
    assert (fast.iterations, fast.converged, fast.diverged) == (
        full.iterations, full.converged, full.diverged)
    assert full.stop_reason == "max_iter"
    caught = period in (2, 4) and max_iter >= 2 * CYCLE_BLOCK
    assert fast.stop_reason == ("cycled" if caught else "max_iter")
    if caught:
        assert fast_calls < 3 * CYCLE_BLOCK
    else:
        assert fast_calls == max_iter


# ------------------------------------------- stopping tests against hypot


def _reference_pfbs(shrink, tol, max_iter):
    """The splitting loop on ORBIT_MODEL with the unconditional hypot stopping tests."""
    x1 = x2 = 0.0
    for k in range(1, max_iter + 1):
        n1, n2 = shrink((0.5 * x1, 0.5 * x2))  # h = x - (x - 0) / 2
        if not math.hypot(n1, n2) <= DIVERGENCE_NORM:  # NaN included
            if math.isfinite(n1) and math.isfinite(n2):
                x1, x2 = float(n1), float(n2)
            return x1, x2, k, "diverged"
        step = math.hypot(n1 - x1, n2 - x2)
        x1, x2 = float(n1), float(n2)
        if step <= tol:
            return x1, x2, k, "converged"
    return x1, x2, max_iter, "max_iter"


def _scripted(points):
    """A shrink that returns ``points`` in turn, then repeats the last; its calls are counted."""
    calls = []

    def shrink(h):
        calls.append(h)
        return points[min(len(calls), len(points)) - 1]

    return shrink, calls


def _assert_stops_like_reference(points, tol=DEFAULT_TOL):
    # max_iter stays below one cycle-check block, so both loops run every iteration.
    max_iter = CYCLE_BLOCK // 2
    shrink, calls = _scripted(points)
    x1, x2, iterations, reason = _reference_pfbs(shrink, tol, max_iter)
    for record_trace in (False, True):
        shrink, got_calls = _scripted(points)
        res = pfbs(ORBIT_MODEL, shrink, 0.5, tol=tol, max_iter=max_iter,
                   record_trace=record_trace)
        assert (_bits(res.x_hat), res.iterations, res.stop_reason) == (
            struct.pack("<dd", x1, x2), iterations, reason)
        assert len(got_calls) == len(calls)


def _ulps(v):
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


TOL_DIAG = DEFAULT_TOL / math.sqrt(2.0)
STOPPING_CASES = (
    # steps exactly at tol and one ulp either side, on an axis, on the diagonal,
    # and at the pre-filter's own margin
    [[(t, 0.0)] for t in _ulps(DEFAULT_TOL)]
    + [[(0.0, -t)] for t in _ulps(DEFAULT_TOL)]
    + [[(t, t)] for t in _ulps(TOL_DIAG)]
    + [[(t, -TOL_DIAG)] for t in _ulps(TOL_DIAG)]
    + [[(t, 0.0)] for t in _ulps(DEFAULT_TOL * (1.0 + 2.0 ** -50))]
    + [[(1.0, 2.0), (1.0 + t, 2.0)] for t in (DEFAULT_TOL, 2 * DEFAULT_TOL)]
    # iterates either side of the 7e11 pre-filter and of the 1e12 divergence norm
    + [[(v, 0.0)] for v in _ulps(7e11)]
    + [[(v, -v)] for v in _ulps(7e11)]
    + [[(-v, 0.0)] for v in _ulps(DIVERGENCE_NORM)]
    + [[(0.0, v)] for v in _ulps(DIVERGENCE_NORM)]
    + [[(v, v)] for v in _ulps(DIVERGENCE_NORM / math.sqrt(2.0))]
    # NaN and infinite iterates, and steps that overflow
    + [[(math.nan, 0.0), (1.0, 2.0)], [(math.nan, 8e11), (1.0, 2.0)], [(0.0, math.nan)]]
    + [[(math.inf, 0.0)], [(math.nan, -math.inf)], [(1.0, math.inf)]]
    + [[(0.0, 1.7e308), (0.0, -1.7e308)], [(math.nan, 1.7e308), (math.nan, -1.7e308)]]
)


@pytest.mark.parametrize("points", STOPPING_CASES, ids=repr)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0, math.inf])
def test_pfbs_stopping_tests_match_unconditional_hypot(points, tol):
    _assert_stops_like_reference(points, tol)


boundary = st.sampled_from(
    [0.0, 1.0, math.nan, math.inf, 1.7e308, DIVERGENCE_NORM / math.sqrt(2.0)]
    + [v for b in (DEFAULT_TOL, TOL_DIAG, 7e11, DIVERGENCE_NORM) for v in _ulps(b)])
signed = st.tuples(st.one_of(boundary, st.floats()), st.booleans()).map(
    lambda vs: -vs[0] if vs[1] else vs[0])


@given(st.lists(st.tuples(signed, signed), min_size=1, max_size=4),
       st.sampled_from([DEFAULT_TOL, 0.0, 1.0, 5e-324, math.inf]))
@settings(max_examples=300)
def test_pfbs_stops_like_the_unconditional_hypot_loop(points, tol):
    _assert_stops_like_reference(points, tol)


# ------------------------------------- library shrinkers inline in the loop


def _outcome(res):
    trace = None if res.trace is None else [(_bits(x), _bits(h)) for x, h in res.trace]
    return _bits(res.x_hat), res.iterations, res.stop_reason, trace


def _assert_inline_matches_call(model, shrink, mu, **kwargs):
    """``pfbs`` on a library shrinker equals ``pfbs`` on a wrapper around it, bit for bit.

    The wrapper returns numpy scalars; ``pfbs`` must turn them into floats, so
    the wrapper is only ever called with Python floats.
    """
    half_steps = []

    def called_shrink(p):
        half_steps.append(p)
        return tuple(map(np.float64, shrink(p)))

    inline = pfbs(model, shrink, mu, **kwargs)
    called = pfbs(model, called_shrink, mu, **kwargs)
    assert _outcome(inline) == _outcome(called), (kwargs, inline, called)
    assert all(type(v) is float for p in half_steps for v in p)
    return inline


def _shrinker(kind, draw):
    """A library shrinker of ``kind`` with drawn parameters, and the magnitudes where it switches."""
    if kind == "firm":
        lam1 = draw(st.floats(min_value=1e-3, max_value=3.0))
        params = FirmParams(lam1, lam1 + draw(st.floats(min_value=1e-3, max_value=3.0)))
        return firm_shrinker(params), [params.lambda1, params.lambda2]
    w1 = draw(st.floats(min_value=0.0, max_value=3.0))
    w = WeightPair(w1, w1 + draw(st.floats(min_value=0.0, max_value=3.0)))
    if kind == "rowl":
        return rowl_shrinker(w), [w.w1, w.w2]
    params = ErowlParams(w, draw(st.floats(min_value=1e-3, max_value=100.0)))
    return erowl_shrinker(params), [w.w1, w.w2, params.eta, params._diag_gate, params._axis_gate]


KINDS = ("rowl", "erowl", "firm")


@st.composite
def gate_points(draw, kinds=KINDS):
    """A library shrinker of one of ``kinds`` and a point on, or a few ulps off, a place where its
    formula switches.

    Ties ``|h1| = |h2|``, eROWL's diagonal, axis and slab gates (whose
    rounding lands the triangle formula inside ``_CLAMP``), firm's two
    thresholds and signed zeros.
    """
    kind = draw(st.sampled_from(kinds))
    shrink, special = _shrinker(kind, draw)
    a2 = draw(st.one_of(st.sampled_from([0.0] + special), st.floats(min_value=0.0, max_value=8.0)))
    candidates = [0.0, a2, draw(st.floats(min_value=0.0, max_value=8.0))] + special
    if kind == "erowl":
        dp1, _, diag_gate, gate, eta = shrink._pfbs_inline[5:10]
        candidates += [diag_gate - a2, dp1 * a2 - gate, (a2 + gate) / dp1, a2 + eta, a2 - eta]
    a1 = draw(st.sampled_from(candidates))
    toward = draw(st.sampled_from([math.inf, -math.inf]))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a1 = math.nextafter(a1, toward)
    x = [abs(a1), a2]
    if draw(st.booleans()):
        x.reverse()
    return shrink, tuple(-v if draw(st.booleans()) else v for v in x)


@given(gate_points())
@settings(max_examples=1000)
# a firm threshold hit from below zero: the dead zone gives 0.0, the ramp -0.0
@example((firm_shrinker(FirmParams(0.5, 1.0)), (-0.5, -0.5)))
# at lambda2 the ramp rounds to 3.1890000000000005, not to the identity's 3.189
@example((firm_shrinker(FirmParams(1.435, 3.189)), (3.189, -3.189)))
# a magnitude tie: the identity matching, not the swapped one
@example((rowl_shrinker(WeightPair(0.0, 1.0)), (2.0, -2.0)))
# signed-zero half-steps: -0.0 as a magnitude clips to 0.0 as abs's 0.0 does
@example((rowl_shrinker(WeightPair(0.0, 1.0)), (-0.0, 0.0)))
@example((rowl_shrinker(WeightPair(0.0, 0.0)), (0.0, -0.0)))
@example((firm_shrinker(FirmParams(0.5, 1.0)), (-0.0, 0.0)))
# the triangle formula rounds y1, then y2, just below zero, and _CLAMP lifts it
@example((erowl_shrinker(ErowlParams(WeightPair(0.5, 2.0), 1.0)), (0.36200532040757316, 0.47401064081514627)))
@example((erowl_shrinker(ErowlParams(WeightPair(0.2, 1.0), 0.5)), (0.8331330395647772, 0.5998664708209627)))
# ... and here y1, then y2, rounds below _CLAMP and stays negative
@example((erowl_shrinker(ErowlParams(WeightPair(0.0, 10.739603037861023), 0.0013215336681076692)),
          (10.16357143355092, 10.177002935388574)))
@example((erowl_shrinker(ErowlParams(WeightPair(0.0, 8.654111971573686), 0.0013690541783290123)),
          (8.412219529199833, 8.400718490449519)))
def test_inline_shrinkers_match_their_closures_at_every_gate(case):
    # On ORBIT_MODEL with mu = 1/2 the half-step from x0 = 2p is p, so one
    # iteration applies the shrinker at p and x_hat is its output.
    shrink, p = case
    x0 = Point2(2.0 * p[0], 2.0 * p[1])
    for record_trace in (False, True):
        res = _assert_inline_matches_call(ORBIT_MODEL, shrink, 0.5, x0=x0, max_iter=1,
                                          record_trace=record_trace)
    h = res.trace[0][1]
    assert h == Point2(*p)
    assert _bits(res.x_hat) == struct.pack("<dd", *shrink((h.x1, h.x2)))


coefficient = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def solves(draw):
    """A library shrinker on a drawn 2x2 model, step, start, tolerance and iteration budget."""
    shrink, _ = _shrinker(draw(st.sampled_from(["rowl", "erowl", "firm"])), draw)
    a = np.array([[draw(coefficient), draw(coefficient)], [draw(coefficient), draw(coefficient)]])
    y = np.array([draw(coefficient), draw(coefficient)])
    start = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-3.0, max_value=3.0))
    return shrink, LinearModel(a, y), dict(
        mu=draw(st.floats(min_value=0.01, max_value=3.0)),
        x0=Point2(draw(start), draw(start)),
        tol=draw(st.sampled_from([DEFAULT_TOL, 0.0, 1e-3])),
        max_iter=draw(st.integers(min_value=1, max_value=300)),
    )


@given(solves())
@settings(max_examples=300)
def test_inline_solves_match_the_call_path_bit_for_bit(case):
    shrink, model, kwargs = case
    mu = kwargs.pop("mu")
    for record_trace in (False, True):
        _assert_inline_matches_call(model, shrink, mu, record_trace=record_trace, **kwargs)


def _int_compared(instructions) -> list[str]:
    """Each comparison among ``instructions`` that has an ``int`` constant operand, as ``"line: op"``.

    The constant is the right operand (``x < 0``), or the left one when a plain
    load comes between it and the comparison (``0 < x``).
    """
    loads = {"LOAD_FAST", "LOAD_DEREF", "LOAD_GLOBAL", "LOAD_CONST", "LOAD_SMALL_INT"}
    found = []
    for i, op in enumerate(instructions):
        if op.opname != "COMPARE_OP":
            continue
        operands = instructions[i - 2:i] if instructions[i - 1].opname in loads else instructions[i - 1:i]
        if any(o.opname in ("LOAD_CONST", "LOAD_SMALL_INT") and type(o.argval) is int for o in operands):
            found.append(f"{op.positions.lineno}: {op.argrepr}")
    return found


def test_the_per_iteration_comparisons_have_no_int_operand():
    # CPython 3.11 specializes a comparison only when both operands have one
    # type; a float compared with an int constant takes the generic path every time.
    # pfbs's prologue (max_iter < 1 compares two ints) runs before its loop.
    def sample(x, n):
        return x < 0, 0 <= x, x < 0.0, n == x, n < 1.5

    assert len(_int_compared(list(dis.get_instructions(sample)))) == 2
    body = list(dis.get_instructions(pfbs))
    body = body[next(i for i, op in enumerate(body) if op.opname == "FOR_ITER"):]
    kernels = {"pfbs loop": body, "_firm": list(dis.get_instructions(_firm)),
               "erowl region": list(dis.get_instructions(_region_test(ErowlParams(WeightPair(0.0, 1.0), 1.0))))}
    kernels.update((f"{kind} closure", list(dis.get_instructions(shrink))) for kind, shrink in SHRINKERS.items())
    assert {name: _int_compared(ins) for name, ins in kernels.items()} == dict.fromkeys(kernels, [])


def _cycling_rowl_case():
    """Scenario C, trial 20, 20 dB, x1 = 1: a ROWL solve caught in an exact cycle."""
    cfg = ScenarioConfig.scenario_c_defaults()
    model = generate_model(cfg, 20, 20.0)
    mu = select_parameters(spectral_bounds(model.a_matrix)).mu
    return model, rowl_shrinker(cfg.rowl_w_by_snr[20.0]), mu


FIXED_B = generate_model(ScenarioConfig.scenario_b_defaults(), 0, 20.0)
_FIXED_BOUNDS = spectral_bounds(fixed_design_matrix())
FIXED_B_MU = select_parameters(_FIXED_BOUNDS).mu
LONG_EROWL_MODEL = generate_model(ScenarioConfig.scenario_b_defaults(), 300, 20.0)
# The scenario's shrinkers and steps on the fixed design, firm's from its own rule.
FIXED_B_RUNS = [
    (rowl_shrinker(WeightPair(0.0, 0.01)), FIXED_B_MU),
    (erowl_shrinker(ErowlParams(WeightPair(0.0, 1.0), select_parameters(_FIXED_BOUNDS).delta)), FIXED_B_MU),
    (firm_shrinker(firm_rule(_FIXED_BOUNDS, 3.0, 0.5)[0]), firm_rule(_FIXED_BOUNDS, 3.0, 0.5)[1]),
]
# (ending, what brings it about, model, shrink, mu, pfbs keywords)
ENDING_CASES = [
    ("converged", "fixed-design", FIXED_B, shrink, mu, {}) for shrink, mu in FIXED_B_RUNS
] + [
    ("max_iter", "fixed-design", FIXED_B, shrink, mu, {"max_iter": 50}) for shrink, mu in FIXED_B_RUNS
] + [
    ("diverged", "nan-half-step", OVERFLOWING_GRAM, shrink, 0.5, {}) for shrink in SHRINKERS.values()
] + [
    ("diverged", "growing-norm", LinearModel(np.eye(2), np.ones(2)), shrink, 5.0, {})
    for shrink in SHRINKERS.values()
] + [
    ("cycled", "scenario-c-trial-20", *_cycling_rowl_case(), {"max_iter": 5000}),
]


@pytest.mark.parametrize("ending, model, shrink, mu, kwargs", [c[:1] + c[2:] for c in ENDING_CASES],
                         ids=[f"{c[0]}-{c[1]}-{c[3]._pfbs_inline[0]}" for c in ENDING_CASES])
def test_inline_solves_match_the_call_path_at_every_ending(ending, model, shrink, mu, kwargs):
    bare = _assert_inline_matches_call(model, shrink, mu, record_trace=False, **kwargs)
    assert bare.stop_reason == ending
    traced = _assert_inline_matches_call(model, shrink, mu, record_trace=True, **kwargs)
    assert _bits(traced.x_hat) == _bits(bare.x_hat)


@pytest.mark.parametrize("name", sorted(SHRINKERS))
def test_a_step_of_any_number_type_gives_the_same_float_bits(name):
    # mu = 1 as int, float and numpy.float64: pfbs takes float(mu) once.
    outcomes = []
    for mu in (1, 1.0, np.float64(1.0)):
        res = _assert_inline_matches_call(FIXED_B, SHRINKERS[name], mu, max_iter=300)
        assert all(type(v) is float for v in res.x_hat)
        outcomes.append(_outcome(res))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def _calls_of(code, shrink):
    """A short solve with ``shrink``, and how often a function with ``code`` was entered in it."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        res = pfbs(FIXED_B, shrink, FIXED_B_MU, max_iter=10, tol=0.0)
    finally:
        sys.setprofile(previous)
    assert res.iterations == 10
    return calls


@pytest.mark.parametrize("name", sorted(SHRINKERS))
def test_only_an_unwrapped_library_shrinker_runs_inline(name):
    shrink = SHRINKERS[name]
    assert _calls_of(shrink.__code__, shrink) == 0
    assert _calls_of(shrink.__code__, lambda p: shrink(p)) == 10
    # functools.wraps copies the marker onto a wrapper, which must still run.
    wrapped_calls = []

    @functools.wraps(shrink)
    def wrapper(p):
        wrapped_calls.append(p)
        return shrink(p)

    assert wrapper._pfbs_inline is shrink._pfbs_inline
    assert _calls_of(shrink.__code__, wrapper) == len(wrapped_calls) == 10


def test_the_solver_frame_counts_its_iterations_as_it_runs():
    # The eROWL solve of scenario B's trial 300 takes 67,267 iterations.
    # A wall-clock sampler finds the running solve through pfbs.__code__ and
    # reads its ``iterations`` to rate long solves: the loop must stay in
    # pfbs's own frame with the counter advancing every iteration.
    seen = []

    def local(frame, event, arg):
        if event == "line":
            seen.append(frame.f_locals.get("iterations"))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is pfbs.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        res = pfbs(LONG_EROWL_MODEL, FIXED_B_RUNS[1][0], FIXED_B_MU, max_iter=1200, record_trace=False)
    finally:
        sys.settrace(previous)
    assert res.iterations == 1200
    counts = [v for v in seen if v is not None]
    assert all(type(v) is int for v in counts)
    assert counts == sorted(counts)
    assert set(range(res.iterations)) <= set(counts)


# ------------------------------------------------- lockstep lanes against pfbs


@st.composite
def lane_batches(draw):
    """One shrinker kind, and up to eight of its shrinkers, each with a half-step at one of its gates;
    about a quarter of the coordinates are replaced by +-0.0, NaN or +-inf."""
    kind = draw(st.sampled_from(KINDS))
    special = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])
    cases = []
    for shrink, p in draw(st.lists(gate_points(kinds=(kind,)), min_size=1, max_size=8)):
        cases.append((shrink, tuple(draw(special) if draw(st.integers(0, 3)) == 0 else v for v in p)))
    return kind, cases


def _value_bits(p):
    """Each coordinate's bits, or ``"nan"``.  A NaN output's sign is no part of any solve: the
    solve diverges and keeps its last finite iterate.  (ROWL's closure takes ``abs``, which clears
    a NaN's sign; the inline branch and the lanes keep it.)"""
    return tuple("nan" if math.isnan(v) else struct.pack("<d", v) for v in p)


def _lane_outputs(kind, cases):
    """The lane kernel of ``kind`` on every case's half-step at once, as each lane's output bits.

    The output and the scratch start as NaN and True, so a kernel that reads one before writing it shows."""
    kernel, constants = solver._LANE_KERNELS[kind]
    h = np.array([p for _, p in cases]).T.copy()
    c = np.array([constants(*shrink._pfbs_inline[2:]) for shrink, _ in cases]).T.copy()
    n, f = np.full_like(h, math.nan), np.full_like(h, math.nan)
    with np.errstate(all="ignore"):
        kernel(h, np.abs(h), n, c, f, np.ones(h.shape, bool))
    return [_value_bits(lane) for lane in n.T.tolist()]


@given(lane_batches())
@settings(max_examples=200)
# signed zeros: a -0.0 half-step takes the sign 1.0, so eROWL clips it to 0.0, not -0.0
@example(("erowl", [(erowl_shrinker(ErowlParams(WeightPair(0.0, 1.0), 1.0)), (-0.0, 0.0)),
                    (erowl_shrinker(ErowlParams(WeightPair(0.5, 2.0), 1.0)), (0.0, -0.0))]))
@example(("rowl", [(rowl_shrinker(WeightPair(0.0, 0.0)), (-0.0, 0.0)), (rowl_shrinker(WeightPair(0.0, 1.0)), (2.0, -2.0))]))
# a negative half-step whose magnitude clips: copysign gives -0.0, and ROWL's + 0.0 makes it 0.0
@example(("rowl", [(rowl_shrinker(WeightPair(0.0, 1.0)), (-0.5, 3.0)),
                   (rowl_shrinker(WeightPair(0.5, 1.0)), (-0.25, 0.0))]))
@example(("firm", [(firm_shrinker(FirmParams(0.5, 1.0)), (-0.5, -0.5)), (firm_shrinker(FirmParams(0.5, 1.0)), (-0.0, math.nan)),
                   (firm_shrinker(FirmParams(1.435, 3.189)), (3.189, -math.inf))]))
# the triangle's clamp on either coordinate, next to a lane outside the triangle
@example(("erowl", [(erowl_shrinker(ErowlParams(WeightPair(0.5, 2.0), 1.0)), (0.36200532040757316, 0.47401064081514627)),
                    (erowl_shrinker(ErowlParams(WeightPair(0.0, 10.739603037861023), 0.0013215336681076692)),
                     (10.16357143355092, 10.177002935388574)),
                    (erowl_shrinker(ErowlParams(WeightPair(0.2, 1.0), 0.5)), (-math.inf, 0.5998664708209627))]))
def test_lane_kernels_match_their_closures_at_every_gate(batch):
    kind, cases = batch
    assert _lane_outputs(kind, cases) == [_value_bits(shrink(p)) for shrink, p in cases]


def _lockstep_then_pfbs(solves, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Each solve's result: pfbs_lockstep's, or pfbs's from where the lanes handed it back, as a run finishes it."""
    out = []
    for (model, shrink, mu), res in zip(solves, pfbs_lockstep(solves, tol, max_iter)):
        if not isinstance(res, PfbsResult):
            x, k = res
            res = pfbs(model, shrink, mu, x0=x, tol=tol, max_iter=max_iter - k, record_trace=False)
            res = res._replace(iterations=res.iterations + k)
        out.append(res)
    return out


def _assert_lockstep_matches_pfbs(solves, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Lockstep then pfbs gives each solve's x_hat bits, iterations and stop reason of pfbs alone."""
    alone = [pfbs(model, shrink, mu, tol=tol, max_iter=max_iter, record_trace=False) for model, shrink, mu in solves]
    assert [_outcome(r) for r in _lockstep_then_pfbs(solves, tol, max_iter)] == [_outcome(r) for r in alone]
    return alone


@st.composite
def lane_solves(draw):
    """Up to six solves of one shrinker kind on drawn 2x2 models, a tolerance and budget, and a lane count
    at or below which the lanes hand back (in place of ``LOCKSTEP_LANES``)."""
    kind = draw(st.sampled_from(KINDS))
    solves = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        shrink, _ = _shrinker(kind, draw)
        a = np.array([[draw(coefficient), draw(coefficient)], [draw(coefficient), draw(coefficient)]])
        y = np.array([draw(coefficient), draw(coefficient)])
        solves.append((LinearModel(a, y), shrink, draw(st.floats(min_value=0.01, max_value=3.0))))
    kwargs = dict(tol=draw(st.sampled_from([DEFAULT_TOL, 0.0, 1e-3])),
                  max_iter=draw(st.integers(min_value=1, max_value=300)))
    return solves, kwargs, draw(st.integers(min_value=0, max_value=len(solves)))


@given(lane_solves())
@settings(max_examples=200)
def test_lockstep_solves_match_pfbs_bit_for_bit(case):
    solves, kwargs, lanes = case
    with mock.patch.object(solver, "LOCKSTEP_LANES", lanes):
        _assert_lockstep_matches_pfbs(solves, **kwargs)


# Scenario C, trial 20, 20 dB, x1 = 1 is periodic from iteration 19, so pfbs matches its bits
# at iteration 128; next to it, ROWL lanes that converge, diverge and hit a NaN half-step.
CYCLE_LANES = [
    _cycling_rowl_case(),
    (FIXED_B, FIXED_B_RUNS[0][0], FIXED_B_MU),
    (LinearModel(np.eye(2), np.ones(2)), SHRINKERS["rowl"], 5.0),
    (OVERFLOWING_GRAM, SHRINKERS["rowl"], 0.5),
]


@pytest.mark.parametrize("max_iter", [1, 7, 63, 64, 65, 127, 128, 129, 150, 192, 193, 200, 255, 256, 257, 300, 5000])
@pytest.mark.parametrize("lanes", [0, 1, 3])
def test_lockstep_matches_pfbs_around_a_cycle_and_the_hand_back(max_iter, lanes):
    # A match at 128 with more than a block left hands the lane back from iteration 64;
    # with a block or less left, the lanes run it to max_iter as "cycled".
    with mock.patch.object(solver, "LOCKSTEP_LANES", lanes):
        alone = _assert_lockstep_matches_pfbs(CYCLE_LANES, max_iter=max_iter)
    assert alone[0].stop_reason == ("cycled" if max_iter > 2 * CYCLE_BLOCK else "max_iter")
    assert alone[3].stop_reason == "diverged"
    if max_iter >= CYCLE_BLOCK:  # the growing norm passes 1e12 within a block
        assert alone[2].stop_reason == "diverged"


def _passthrough(y, mu):
    """A solve on A = I whose ROWL shrinker has zero weights, so each iterate is its nonzero half-step."""
    return LinearModel(np.eye(2), np.array(y)), rowl_shrinker(WeightPair(0.0, 0.0)), mu


# x_k = y (1 - 2**-k) with mu = 1/2: each step halves, and iteration 17's step is 0.85 tol on both axes.
HALVING = _passthrough([0.85 * DEFAULT_TOL * 2.0 ** 17] * 2, 0.5)
# Iterates 1e10, -1e110 (diverged at 2), then 1e210, -inf and NaN in the lanes.
OVERFLOWING = _passthrough([1e-90, 1e-90], 1e100)


def test_lanes_confirm_marked_steps_with_hypot_in_order():
    # HALVING's step 17 passes tol's pre-filter on both axes, but its hypot, 1.2 tol, does not;
    # step 18, in the same lane block, converges.
    res = pfbs(*HALVING, record_trace=True)
    path = res.trajectory()[::2]
    step = (path[17].x1 - path[16].x1, path[17].x2 - path[16].x2)
    assert (res.stop_reason, res.iterations) == ("converged", 18)
    assert max(map(abs, step)) <= DEFAULT_TOL * solver._TOL_GUARD and math.hypot(*step) > DEFAULT_TOL
    assert 16 // solver._LANE_BLOCK == 17 // solver._LANE_BLOCK
    # Iterates past the norm guard on both axes from iteration 8, whose hypot stays under 1e12.
    near_norm = _passthrough([7.05e11, 7.05e11], 0.5)
    res = pfbs(*near_norm, record_trace=True)
    assert res.stop_reason == "converged"
    assert sum(abs(p.x1) >= solver._NORM_GUARD for p in res.trajectory()[::2]) > 2 * solver._LANE_BLOCK
    assert pfbs(*OVERFLOWING).iterations == 2
    with mock.patch.object(solver, "LOCKSTEP_LANES", 0):
        # max_iter ends inside a lane block, at HALVING's converging step, and after a block and a part
        for max_iter in (17, 18, 2 * solver._LANE_BLOCK + 3, DEFAULT_MAX_ITER):
            _assert_lockstep_matches_pfbs([HALVING, near_norm, OVERFLOWING, CYCLE_LANES[1]], max_iter=max_iter)
        # With tol = inf every step is within tol, and a step past 1e12 diverges first, as in pfbs.
        jump = _passthrough([1.0, 1.0], 1e13)
        assert _assert_lockstep_matches_pfbs([jump, HALVING], tol=math.inf)[0].stop_reason == "diverged"


def test_each_cycled_rowl_solve_of_scenario_c_hops_across_the_order_switch():
    # ROWL's shrinkage jumps where |h1| = |h2|: there the two weights swap.  Each ROWL solve of
    # scenario C's first 30 trials that ends "cycled" is a period-2 orbit in floats, and its two
    # half-steps take opposite order branches, so the orbit straddles that jump.
    cfg = ScenarioConfig.scenario_c_defaults()
    cycled = []
    for trial in range(30):
        for cell in _trial_cells(cfg, trial, None)[0]:
            model, shrink, mu = cell.model, *cell.runs[0][1:]
            res = pfbs(model, shrink, mu, tol=cfg.tol, max_iter=cfg.max_iter, record_trace=False)
            if res.stop_reason != "cycled":
                continue
            cycled.append(trial)
            one = pfbs(model, shrink, mu, x0=res.x_hat, tol=0.0, max_iter=1)
            two = pfbs(model, shrink, mu, x0=one.x_hat, tol=0.0, max_iter=1)
            assert _bits(two.x_hat) == _bits(res.x_hat) != _bits(one.x_hat)
            orders = [abs(h.x1) >= abs(h.x2) for h in (one.trace[0][1], two.trace[0][1])]
            assert sorted(orders) == [False, True]
    assert cycled == [20] * 7 + [23, 25]


def _scenario_c_solves():
    """Scenario C's solves at 10 dB for trials 18 to 30, by method: 143 lanes each; eight ROWL lanes cycle."""
    cfg = ScenarioConfig.scenario_c_defaults(snr_list_db=(10.0,))
    cells = [cell for trial in range(18, 31) for cell in _trial_cells(cfg, trial, None)[0]]
    return [[(cell.model, *cell.runs[m][1:]) for cell in cells] for m in range(3)]


SCENARIO_C_SOLVES = _scenario_c_solves()


@pytest.mark.parametrize("lanes", [LOCKSTEP_LANES - 1, LOCKSTEP_LANES, LOCKSTEP_LANES + 1])
@pytest.mark.parametrize("method", [0, 1, 2], ids=["rowl", "erowl", "firm"])
def test_only_a_batch_past_lockstep_lanes_takes_numpy_steps(lanes, method):
    solves = SCENARIO_C_SOLVES[method][:lanes]
    entries = pfbs_lockstep(solves)
    untouched = [e == (Point2(0.0, 0.0), 0) for e in entries]
    assert all(untouched) == (lanes <= LOCKSTEP_LANES)
    alone = _assert_lockstep_matches_pfbs(solves)
    if method == 0:
        assert sum(r.stop_reason == "cycled" for r in alone) == 8


def test_the_lanes_cycle_check_compares_bits():
    # pfbs compares its packed iterates, so a 0.0 coordinate does not repeat a -0.0 one.
    x = np.array([[0.0, -0.0, 1.0, 2.0], [1.0, 1.0, -0.0, 3.0]])
    mark = np.array([[-0.0, -0.0, 1.0, 2.0], [1.0, 1.0, 0.0, 3.0]])
    assert solver._same_bits(x, mark).tolist() == [False, True, False, True]


def test_lockstep_leaves_other_callables_and_refused_steps_to_pfbs():
    shrink = SHRINKERS["rowl"]

    @functools.wraps(shrink)
    def wrapper(p):
        return shrink(p)

    others = [(FIXED_B, lambda p: shrink(p), FIXED_B_MU), (FIXED_B, wrapper, FIXED_B_MU),
              (FIXED_B, shrink, -1.0), (FIXED_B, shrink, math.nan), (FIXED_B, shrink, math.inf)]
    entries = pfbs_lockstep([(FIXED_B, shrink, FIXED_B_MU)] * (LOCKSTEP_LANES + 1) + others)
    assert all(isinstance(e, PfbsResult) for e in entries[:LOCKSTEP_LANES + 1])
    assert entries[LOCKSTEP_LANES + 1:] == [(Point2(0.0, 0.0), 0)] * len(others)
    with pytest.raises(ValueError, match="mu must be positive and finite, got -1.0"):
        _lockstep_then_pfbs(others[2:3])
    for tol, max_iter in ((-1e-10, 10), (1e-10, 0), (1e-10, 2.5)):
        with pytest.raises(ValueError):
            pfbs_lockstep([], tol, max_iter)


# ------------------------------------------------------------- rng streams


def test_stream_is_replayable():
    a = stream(7, 2, 13)
    b = stream(7, 2, 13)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]
    c = stream(7, 2, 13)
    d = stream(7, 2, 13)
    assert [c.normal() for _ in range(9)] == [d.normal() for _ in range(9)]


def test_stream_keys_separate_trials_and_scenarios():
    base = [stream(7, 1, 0).next_u64() for _ in range(4)]
    assert [stream(7, 1, 1).next_u64() for _ in range(4)] != base
    assert [stream(7, 2, 0).next_u64() for _ in range(4)] != base
    assert [stream(8, 1, 0).next_u64() for _ in range(4)] != base


def test_stream_validates_keys():
    with pytest.raises(ValueError):
        stream(-1, 0, 0)
    with pytest.raises(ValueError):
        stream(0, -2, 0)
    with pytest.raises(ValueError):
        stream(0, 0, -1)


def test_generator_outputs_are_well_distributed():
    g = stream(123, 3, 4)
    us = [g.uniform() for _ in range(20_000)]
    assert all(0.0 < u <= 1.0 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.01

    g2 = stream(123, 3, 5)
    ns = np.array([g2.normal() for _ in range(20_000)])
    assert abs(np.mean(ns)) < 0.03
    assert abs(np.std(ns) - 1.0) < 0.03


def test_all_zero_state_is_reseeded():
    g = Xoshiro256pp(0, 0, 0, 0)
    vals = {g.next_u64() for _ in range(8)}
    assert vals != {0}
    assert len(vals) == 8
