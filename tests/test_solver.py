import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxlab.core import Point2, WeightPair
from proxlab.erowl import ErowlParams, erowl_shrinker
from proxlab.rng import Xoshiro256pp, stream
from proxlab.rowl import rowl_shrinker
from proxlab.scalar_ops import FirmParams, firm_shrinker, soft
from proxlab.solver import (
    CYCLE_BLOCK,
    DEFAULT_TOL,
    DIVERGENCE_NORM,
    LinearModel,
    SolverParams,
    SpectralBounds,
    pfbs,
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
    m = LinearModel(np.eye(2), np.array([1.0, 2.0]), x_true=Point2(1.0, 2.0))
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


def test_solver_params_checks_beta_consistency():
    with pytest.raises(ValueError):
        SolverParams(delta=1.0, beta=0.6, mu=0.1, mu_interval=(0.0, 1.0))


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


# ------------------------------------------------------------- rng streams


def test_stream_is_replayable():
    a = stream(7, 2, 13)
    b = stream(7, 2, 13)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]
    c = stream(7, 2, 13)
    assert c.normals(9) == stream(7, 2, 13).normals(9)


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
    ns = np.array(g2.normals(20_000))
    assert abs(np.mean(ns)) < 0.03
    assert abs(np.std(ns) - 1.0) < 0.03


def test_all_zero_state_is_reseeded():
    g = Xoshiro256pp(0, 0, 0, 0)
    vals = {g.next_u64() for _ in range(8)}
    assert vals != {0}
    assert len(vals) == 8
